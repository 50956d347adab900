// 64-byte-aligned allocation for SIMD-hot buffers.
//
// The vectorized backend streams whole cachelines through the per-tile
// register file and tile image; std::allocator only promises
// alignof(std::max_align_t) (16 on x86-64), which lets a 512-bit access
// straddle two cachelines.  aligned_vector pins those buffers to 64-byte
// boundaries — one line, and big enough for any vector width we dispatch to —
// at zero cost elsewhere (the allocator is stateless and on the aligned
// operator-new path).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <type_traits>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace obx {

inline constexpr std::size_t kSimdAlignBytes = 64;

/// Allocations at least this large get the transparent-huge-page hint when
/// OBX_THP is on: a figure-scale arranged memory image (p·n words) spans
/// thousands of 4K pages, and 2M mappings cut the TLB miss rate of the
/// lane-stride sweeps.  2M = one x86-64 huge page.
inline constexpr std::size_t kHugePageHintBytes = std::size_t{2} << 20;

/// OBX_THP=1/on: hint large allocations to transparent huge pages (latched
/// on first use).  Off by default — THP compaction stalls are real, so the
/// toggle is opt-in.
inline bool huge_page_hint_enabled() {
  static const bool enabled = [] {
    const char* v = std::getenv("OBX_THP");
    if (v == nullptr) return false;
    return std::strcmp(v, "0") != 0 && std::strcmp(v, "off") != 0 &&
           std::strcmp(v, "false") != 0 && std::strcmp(v, "no") != 0;
  }();
  return enabled;
}

/// Best-effort madvise(MADV_HUGEPAGE) over the page-aligned interior of
/// [p, p+bytes).  No-op off Linux, below the size threshold, or with the
/// toggle off; failures are ignored (the kernel may lack THP entirely).
inline void hint_huge_pages(void* p, std::size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  if (bytes < kHugePageHintBytes || !huge_page_hint_enabled()) return;
  const std::uintptr_t page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const std::uintptr_t addr = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t begin = (addr + page - 1) & ~(page - 1);
  const std::uintptr_t end = (addr + bytes) & ~(page - 1);
  if (end > begin) {
    (void)::madvise(reinterpret_cast<void*>(begin), end - begin, MADV_HUGEPAGE);
  }
#else
  (void)p;
  (void)bytes;
#endif
}

template <class T>
class AlignedAllocator {
 public:
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    T* p = static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kSimdAlignBytes}));
    hint_huge_pages(p, n * sizeof(T));
    return p;
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kSimdAlignBytes});
  }

  template <class U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
};

/// std::vector with 64-byte-aligned storage.  Element-wise interchangeable
/// with std::vector<T>; the cross-allocator comparisons below keep call sites
/// (tests especially) free to mix the two.
template <class T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

template <class T, class A>
  requires(!std::is_same_v<A, AlignedAllocator<T>>)
bool operator==(const aligned_vector<T>& a, const std::vector<T, A>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

template <class T, class A>
  requires(!std::is_same_v<A, AlignedAllocator<T>>)
bool operator==(const std::vector<T, A>& a, const aligned_vector<T>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

}  // namespace obx
