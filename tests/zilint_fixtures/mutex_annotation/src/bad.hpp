// Fixture: a zi::Mutex no annotation ever names — exactly what
// -Wthread-safety silently ignores and mutex-annotation must catch.
#pragma once
#include "common/thread_annotations.hpp"

namespace fixture {

class Unannotated {
 public:
  void poke();

 private:
  zi::Mutex mutex_;  // finding: never annotated
  int counter_ = 0;
};

}  // namespace fixture
