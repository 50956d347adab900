// Names the calling thread, so `top -H` and /proc/<pid>/task/*/comm
// attribute CPU to the layer that spent it.  Linux only; a no-op elsewhere.
#pragma once

#if defined(__linux__)
#include <pthread.h>
#endif

namespace obx {

/// `name` must fit the kernel's 15 bytes; a longer one leaves the name unset.
inline void set_thread_name(const char* name) {
#if defined(__linux__)
  (void)pthread_setname_np(pthread_self(), name);
#else
  (void)name;
#endif
}

}  // namespace obx
