// Fixture: a standalone allow comment covers the declaration on the next
// line (the documented standalone-comment propagation).
#pragma once
#include "common/thread_annotations.hpp"

namespace fixture {

class Suppressed {
 private:
  // zilint:allow(mutex-annotation): guards an external resource, no member
  zi::Mutex mutex_;
};

}  // namespace fixture
