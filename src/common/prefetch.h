#ifndef LAN_COMMON_PREFETCH_H_
#define LAN_COMMON_PREFETCH_H_

#include <cstddef>

namespace lan {

/// \brief Software prefetch hint for `bytes` of contiguous data starting
/// at `addr` (one hint per 64-byte cache line, capped so a pathologically
/// long row cannot flood the prefetch queue). Compiled out unless
/// LAN_PREFETCH is defined (CMake option, default ON; forced OFF under
/// sanitizers so the instrumented presets exercise byte-identical code
/// paths).
///
/// Semantically a no-op either way: prefetching only warms the cache, so
/// flipping the option can never change a search result — only its
/// latency. Keep call sites cheap: hint the line(s) you are about to
/// read, not speculative far-future state.
inline void PrefetchReadRange(const void* addr, size_t bytes) {
#if defined(LAN_PREFETCH)
  constexpr size_t kLine = 64;
  constexpr size_t kMaxLines = 8;
  const char* p = static_cast<const char*>(addr);
  const size_t lines = (bytes + kLine - 1) / kLine;
  for (size_t i = 0; i < lines && i < kMaxLines; ++i) {
    __builtin_prefetch(p + i * kLine, /*rw=*/0, /*locality=*/3);
  }
#else
  (void)addr;
  (void)bytes;
#endif
}

}  // namespace lan

#endif  // LAN_COMMON_PREFETCH_H_
