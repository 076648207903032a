// Fixture: a mutex named by ZI_GUARDED_BY is covered.
#pragma once
#include "common/thread_annotations.hpp"

namespace fixture {

class Annotated {
 public:
  void poke() ZI_EXCLUDES(mutex_);

 private:
  zi::Mutex mutex_;
  int counter_ ZI_GUARDED_BY(mutex_) = 0;
};

}  // namespace fixture
