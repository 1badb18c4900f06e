// AVX-512 column scan of the Jonker–Volgenant solver (see ged/jv_scan.h).
// Selected at runtime only when the active SIMD level is AVX-512; the TU
// compiles to a stub on non-x86 builds. Eight columns per zmm, masked by
// the used-column byte: each lane does the scalar scan's subtractions in
// the same association (no FMA), keeps its first strictly lower minv, and
// the lanes then resolve to the lowest column holding the minimum, whose
// own minv is delta. Results are bitwise those of the scalar scan.

#include "ged/jv_scan.h"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))

#include <immintrin.h>

#include <cstdint>
#include <limits>

#define LAN_AVX512 __attribute__((target("avx512f")))

namespace lan {
namespace {

LAN_AVX512 int32_t JvScanAvx512(const JvScanArgs& a, double* delta_out) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const __m512d u_i0 = _mm512_set1_pd(a.u_i0);
  const __m512d last_delta = _mm512_set1_pd(a.last_delta);
  const __m512i j0 = _mm512_set1_epi32(a.j0);
  const __m512i eight = _mm512_set1_epi64(8);
  __m512i cols = _mm512_setr_epi64(1, 2, 3, 4, 5, 6, 7, 8);
  // Per lane: the lowest minv seen and the first column holding it.
  __m512d best = _mm512_set1_pd(kInf);
  __m512i best_cols = _mm512_setzero_si512();
  for (int32_t base = 1; base <= a.n;
       base += 8, cols = _mm512_add_epi64(cols, eight)) {
    // Masked-off lanes (used columns, columns past n) are neither loaded
    // nor stored.
    const __mmask8 live = static_cast<__mmask8>(~a.used[(base - 1) / 8]);
    __m512d m = _mm512_sub_pd(_mm512_maskz_loadu_pd(live, a.minv + base),
                              last_delta);
    const __m512d cur = _mm512_sub_pd(
        _mm512_sub_pd(_mm512_maskz_loadu_pd(live, a.row + base - 1), u_i0),
        _mm512_maskz_loadu_pd(live, a.v + base));
    const __mmask8 lower = _mm512_mask_cmp_pd_mask(live, cur, m, _CMP_LT_OQ);
    m = _mm512_mask_blend_pd(lower, m, cur);
    _mm512_mask_storeu_pd(a.minv + base, live, m);
    _mm512_mask_storeu_epi32(a.way + base, lower, j0);
    const __mmask8 better = _mm512_mask_cmp_pd_mask(live, m, best, _CMP_LT_OQ);
    best = _mm512_mask_blend_pd(better, best, m);
    best_cols = _mm512_mask_blend_epi64(better, best_cols, cols);
  }
  // Butterflies leave the lowest minv, then the lowest column holding it,
  // in every lane. (All-lanes maskz forms: GCC's unmasked forms of these
  // intrinsics read an undefined pass-through operand.)
  constexpr __mmask8 kAll = 0xff;
  __m512d lowest = _mm512_maskz_min_pd(
      kAll, best, _mm512_maskz_shuffle_f64x2(kAll, best, best, 0x4e));
  lowest = _mm512_maskz_min_pd(
      kAll, lowest, _mm512_maskz_shuffle_f64x2(kAll, lowest, lowest, 0xb1));
  lowest = _mm512_maskz_min_pd(kAll, lowest,
                               _mm512_maskz_permute_pd(kAll, lowest, 0x55));
  if (!(_mm512_cvtsd_f64(lowest) < kInf)) return 0;
  // Lanes whose minimum compares equal to the lowest (+0 == -0): the first
  // column among them is the scalar scan's pick.
  __m512i col = _mm512_mask_blend_epi64(
      _mm512_cmp_pd_mask(best, lowest, _CMP_EQ_OQ),
      _mm512_set1_epi64(INT64_MAX), best_cols);
  col = _mm512_maskz_min_epi64(
      kAll, col, _mm512_maskz_shuffle_i64x2(kAll, col, col, 0x4e));
  col = _mm512_maskz_min_epi64(
      kAll, col, _mm512_maskz_shuffle_i64x2(kAll, col, col, 0xb1));
  col = _mm512_maskz_min_epi64(
      kAll, col, _mm512_maskz_shuffle_epi32(0xffff, col, _MM_PERM_BADC));
  const int32_t j1 = _mm512_cvtsi512_si32(col);
  *delta_out = a.minv[j1];
  return j1;
}

}  // namespace

namespace internal {
JvScanFn Avx512JvScan() { return &JvScanAvx512; }
}  // namespace internal
}  // namespace lan

#else  // non-x86 builds: no AVX-512 scan.

namespace lan {
namespace internal {
JvScanFn Avx512JvScan() { return nullptr; }
}  // namespace internal
}  // namespace lan

#endif
