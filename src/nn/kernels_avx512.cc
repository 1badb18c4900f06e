// AVX-512 kernel table (avx512f zmm lanes + native masking). Selected at
// runtime only when cpuid reports avx512f+avx512bw on top of avx2+fma; the
// TU compiles to a stub on non-x86 builds. Same bitwise contract as the
// AVX2 table: one FMA chain per GEMM output element from its initial C
// (for n == 1, sixteen rows' chains share one register's lanes), chain
// shape a function of (k, n) only; elementwise passes exact.

#include "nn/kernels.h"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))

#include <immintrin.h>

#include <cmath>

#define LAN_AVX512 __attribute__((target("avx512f")))

namespace lan {
namespace {

// GCC's unmasked 512-bit max, float -> double widening and 512 -> 256
// extract read an undefined pass-through operand, which GCC 12 reports as
// uninitialized; their all-lanes maskz forms run the same instruction.
constexpr __mmask8 kAll = 0xff;

LAN_AVX512 inline __m512 MaxPs(__m512 a, __m512 b) {
  return _mm512_maskz_max_ps(0xffff, a, b);
}

LAN_AVX512 inline __m512d LoadWidePd(const float* p) {  // 8 floats -> f64
  return _mm512_maskz_cvtps_pd(kAll, _mm256_loadu_ps(p));
}

template <int kUpper>
LAN_AVX512 inline __m256 HalfPs(__m512 v) {
  return _mm256_castpd_ps(
      _mm512_maskz_extractf64x4_pd(kAll, _mm512_castps_pd(v), kUpper));
}

// Horizontal reductions in the lane order of GCC's _mm512_reduce_* (upper
// half op lower half, down to one lane), so results match them bitwise.
LAN_AVX512 inline float ReduceAddPs(__m512 v) {
  const __m256 s8 = _mm256_add_ps(HalfPs<1>(v), HalfPs<0>(v));
  const __m128 s4 =
      _mm_add_ps(_mm256_extractf128_ps(s8, 1), _mm256_extractf128_ps(s8, 0));
  const __m128 s2 = _mm_add_ps(s4, _mm_shuffle_ps(s4, s4, 0x4e));
  return _mm_cvtss_f32(s2) + _mm_cvtss_f32(_mm_shuffle_ps(s2, s2, 0x01));
}

LAN_AVX512 inline float ReduceMaxPs(__m512 v) {
  const __m256 m8 = _mm256_max_ps(HalfPs<1>(v), HalfPs<0>(v));
  const __m128 m4 =
      _mm_max_ps(_mm256_extractf128_ps(m8, 1), _mm256_extractf128_ps(m8, 0));
  const __m128 m2 = _mm_max_ps(m4, _mm_shuffle_ps(m4, m4, 0x4e));
  return _mm_cvtss_f32(_mm_max_ps(m2, _mm_shuffle_ps(m2, m2, 0x11)));
}

LAN_AVX512 inline double ReduceAddPd(__m512d v) {
  const __m256d s4 = _mm256_add_pd(_mm512_maskz_extractf64x4_pd(kAll, v, 1),
                                   _mm512_maskz_extractf64x4_pd(kAll, v, 0));
  const __m128d s2 =
      _mm_add_pd(_mm256_extractf128_pd(s4, 1), _mm256_extractf128_pd(s4, 0));
  return _mm_cvtsd_f64(s2) + _mm_cvtsd_f64(_mm_unpackhi_pd(s2, s2));
}

// Column t of the 16 x 8 block of A at `a` (row stride `lda`), one row per
// lane: out[t][r] = a[r * lda + t]. Rows r, r + 4, r + 8 and r + 12 share
// one register, so the transpose is 16 in-lane shuffles.
LAN_AVX512 inline void LoadTransposed16x8(const float* a, int32_t lda,
                                          __m512 out[8]) {
  __m512 t[8];
  for (int32_t h = 0; h < 2; ++h) {      // columns 0..3, then 4..7
    for (int32_t r = 0; r < 4; ++r) {  // rows r, r + 4, r + 8, r + 12
      const float* src = a + static_cast<size_t>(r) * lda + 4 * h;
      const size_t step = static_cast<size_t>(4) * lda;
      __m512 v = _mm512_castps128_ps512(_mm_loadu_ps(src));
      v = _mm512_maskz_insertf32x4(0xffff, v, _mm_loadu_ps(src + step), 1);
      v = _mm512_maskz_insertf32x4(0xffff, v, _mm_loadu_ps(src + 2 * step), 2);
      v = _mm512_maskz_insertf32x4(0xffff, v, _mm_loadu_ps(src + 3 * step), 3);
      t[4 * h + r] = v;
    }
  }
  for (int32_t h = 0; h < 2; ++h) {
    const __m512* q = t + 4 * h;
    const __m512 u0 = _mm512_maskz_unpacklo_ps(0xffff, q[0], q[1]);
    const __m512 u1 = _mm512_maskz_unpackhi_ps(0xffff, q[0], q[1]);
    const __m512 u2 = _mm512_maskz_unpacklo_ps(0xffff, q[2], q[3]);
    const __m512 u3 = _mm512_maskz_unpackhi_ps(0xffff, q[2], q[3]);
    out[4 * h + 0] = _mm512_maskz_shuffle_ps(0xffff, u0, u2, 0x44);
    out[4 * h + 1] = _mm512_maskz_shuffle_ps(0xffff, u0, u2, 0xee);
    out[4 * h + 2] = _mm512_maskz_shuffle_ps(0xffff, u1, u3, 0x44);
    out[4 * h + 3] = _mm512_maskz_shuffle_ps(0xffff, u1, u3, 0xee);
  }
}

// The n == 1 product (attention scores, head outputs) with rows in lanes:
// each lane runs its row's FMA chain over ascending p from its initial C,
// exactly the chain the per-row masked tail below would run, so every
// output keeps its bits. A partial block reads its missing rows and
// columns as zeros from a stack copy and never uses them.
LAN_AVX512 void MatVecRowsInLanesAvx512(const float* a, int32_t m, int32_t k,
                                        const float* b, float* c) {
  for (int32_t i = 0; i < m; i += 16) {
    const int32_t rows = m - i < 16 ? m - i : 16;
    const __mmask16 mask = static_cast<__mmask16>((1u << rows) - 1u);
    const float* ai = a + static_cast<size_t>(i) * k;
    __m512 acc = _mm512_maskz_loadu_ps(mask, c + i);
    for (int32_t p = 0; p < k; p += 8) {
      const int32_t w = k - p < 8 ? k - p : 8;
      __m512 col[8];
      if (rows == 16 && w == 8) {
        LoadTransposed16x8(ai + p, k, col);
      } else {
        alignas(64) float buf[16][8] = {};
        for (int32_t r = 0; r < rows; ++r) {
          for (int32_t t = 0; t < w; ++t) {
            buf[r][t] = ai[static_cast<size_t>(r) * k + p + t];
          }
        }
        LoadTransposed16x8(buf[0], 8, col);
      }
      for (int32_t t = 0; t < w; ++t) {
        acc = _mm512_fmadd_ps(col[t], _mm512_set1_ps(b[p + t]), acc);
      }
    }
    _mm512_mask_storeu_ps(c + i, mask, acc);
  }
}

LAN_AVX512 void MatMulAccumulateAvx512(const float* a, int32_t m, int32_t k,
                                       const float* b, int32_t n, float* c) {
  if (n == 1) {
    MatVecRowsInLanesAvx512(a, m, k, b, c);
    return;
  }
  int32_t j0 = 0;
  // 32-column blocks, 4 rows at a time: 8 independent FMA chains.
  for (; j0 + 32 <= n; j0 += 32) {
    int32_t i = 0;
    for (; i + 4 <= m; i += 4) {
      __m512 acc[4][2];
      for (int32_t r = 0; r < 4; ++r) {
        const float* crow = c + static_cast<size_t>(i + r) * n + j0;
        acc[r][0] = _mm512_loadu_ps(crow);
        acc[r][1] = _mm512_loadu_ps(crow + 16);
      }
      for (int32_t p = 0; p < k; ++p) {
        const float* bp = b + static_cast<size_t>(p) * n + j0;
        const __m512 b0 = _mm512_loadu_ps(bp);
        const __m512 b1 = _mm512_loadu_ps(bp + 16);
        for (int32_t r = 0; r < 4; ++r) {
          const __m512 av =
              _mm512_set1_ps(a[static_cast<size_t>(i + r) * k + p]);
          acc[r][0] = _mm512_fmadd_ps(av, b0, acc[r][0]);
          acc[r][1] = _mm512_fmadd_ps(av, b1, acc[r][1]);
        }
      }
      for (int32_t r = 0; r < 4; ++r) {
        float* crow = c + static_cast<size_t>(i + r) * n + j0;
        _mm512_storeu_ps(crow, acc[r][0]);
        _mm512_storeu_ps(crow + 16, acc[r][1]);
      }
    }
    for (; i < m; ++i) {
      float* crow = c + static_cast<size_t>(i) * n + j0;
      const float* arow = a + static_cast<size_t>(i) * k;
      __m512 acc0 = _mm512_loadu_ps(crow);
      __m512 acc1 = _mm512_loadu_ps(crow + 16);
      for (int32_t p = 0; p < k; ++p) {
        const float* bp = b + static_cast<size_t>(p) * n + j0;
        const __m512 av = _mm512_set1_ps(arow[p]);
        acc0 = _mm512_fmadd_ps(av, _mm512_loadu_ps(bp), acc0);
        acc1 = _mm512_fmadd_ps(av, _mm512_loadu_ps(bp + 16), acc1);
      }
      _mm512_storeu_ps(crow, acc0);
      _mm512_storeu_ps(crow + 16, acc1);
    }
  }
  // At most one full 16-column block.
  if (j0 + 16 <= n) {
    int32_t i = 0;
    for (; i + 4 <= m; i += 4) {
      __m512 acc[4];
      for (int32_t r = 0; r < 4; ++r) {
        acc[r] = _mm512_loadu_ps(c + static_cast<size_t>(i + r) * n + j0);
      }
      for (int32_t p = 0; p < k; ++p) {
        const __m512 bv = _mm512_loadu_ps(b + static_cast<size_t>(p) * n + j0);
        for (int32_t r = 0; r < 4; ++r) {
          const __m512 av =
              _mm512_set1_ps(a[static_cast<size_t>(i + r) * k + p]);
          acc[r] = _mm512_fmadd_ps(av, bv, acc[r]);
        }
      }
      for (int32_t r = 0; r < 4; ++r) {
        _mm512_storeu_ps(c + static_cast<size_t>(i + r) * n + j0, acc[r]);
      }
    }
    for (; i < m; ++i) {
      float* crow = c + static_cast<size_t>(i) * n + j0;
      const float* arow = a + static_cast<size_t>(i) * k;
      __m512 acc = _mm512_loadu_ps(crow);
      for (int32_t p = 0; p < k; ++p) {
        acc = _mm512_fmadd_ps(
            _mm512_set1_ps(arow[p]),
            _mm512_loadu_ps(b + static_cast<size_t>(p) * n + j0), acc);
      }
      _mm512_storeu_ps(crow, acc);
    }
    j0 += 16;
  }
  // Masked tail: 1..15 columns (and the whole product when 1 < n < 16).
  if (j0 < n) {
    const __mmask16 mask =
        static_cast<__mmask16>((1u << (n - j0)) - 1u);
    for (int32_t i = 0; i < m; ++i) {
      float* crow = c + static_cast<size_t>(i) * n + j0;
      const float* arow = a + static_cast<size_t>(i) * k;
      __m512 acc = _mm512_maskz_loadu_ps(mask, crow);
      for (int32_t p = 0; p < k; ++p) {
        const __m512 bv =
            _mm512_maskz_loadu_ps(mask, b + static_cast<size_t>(p) * n + j0);
        acc = _mm512_fmadd_ps(_mm512_set1_ps(arow[p]), bv, acc);
      }
      _mm512_mask_storeu_ps(crow, mask, acc);
    }
  }
}

LAN_AVX512 float DotAvx512(const float* a, const float* b, int32_t n) {
  __m512 s0 = _mm512_setzero_ps();
  __m512 s1 = _mm512_setzero_ps();
  __m512 s2 = _mm512_setzero_ps();
  __m512 s3 = _mm512_setzero_ps();
  int32_t i = 0;
  for (; i + 64 <= n; i += 64) {
    s0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i), s0);
    s1 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 16),
                         _mm512_loadu_ps(b + i + 16), s1);
    s2 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 32),
                         _mm512_loadu_ps(b + i + 32), s2);
    s3 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 48),
                         _mm512_loadu_ps(b + i + 48), s3);
  }
  for (; i + 16 <= n; i += 16) {
    s0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i), s0);
  }
  float sum = ReduceAddPs(
      _mm512_add_ps(_mm512_add_ps(s0, s1), _mm512_add_ps(s2, s3)));
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

LAN_AVX512 void AxpyAvx512(float* y, float a, const float* x, int64_t n) {
  const __m512 av = _mm512_set1_ps(a);
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(
        y + i, _mm512_fmadd_ps(av, _mm512_loadu_ps(x + i),
                               _mm512_loadu_ps(y + i)));
  }
  if (i < n) {
    const __mmask16 mask = static_cast<__mmask16>((1u << (n - i)) - 1u);
    const __m512 xv = _mm512_maskz_loadu_ps(mask, x + i);
    const __m512 yv = _mm512_maskz_loadu_ps(mask, y + i);
    _mm512_mask_storeu_ps(y + i, mask, _mm512_fmadd_ps(av, xv, yv));
  }
}

LAN_AVX512 void ScaleAvx512(float* x, float a, int64_t n) {
  const __m512 av = _mm512_set1_ps(a);
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(x + i, _mm512_mul_ps(_mm512_loadu_ps(x + i), av));
  }
  if (i < n) {
    const __mmask16 mask = static_cast<__mmask16>((1u << (n - i)) - 1u);
    _mm512_mask_storeu_ps(
        x + i, mask, _mm512_mul_ps(_mm512_maskz_loadu_ps(mask, x + i), av));
  }
}

LAN_AVX512 double L2SqAvx512(const float* a, const float* b, int64_t n) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512d d0 = _mm512_sub_pd(LoadWidePd(a + i), LoadWidePd(b + i));
    const __m512d d1 =
        _mm512_sub_pd(LoadWidePd(a + i + 8), LoadWidePd(b + i + 8));
    acc0 = _mm512_fmadd_pd(d0, d0, acc0);
    acc1 = _mm512_fmadd_pd(d1, d1, acc1);
  }
  for (; i + 8 <= n; i += 8) {
    const __m512d d = _mm512_sub_pd(LoadWidePd(a + i), LoadWidePd(b + i));
    acc0 = _mm512_fmadd_pd(d, d, acc0);
  }
  double total = ReduceAddPd(_mm512_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    total += d * d;
  }
  return total;
}

LAN_AVX512 void ReluAvx512(float* x, int64_t n) {
  const __m512 zero = _mm512_setzero_ps();
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(x + i, MaxPs(_mm512_loadu_ps(x + i), zero));
  }
  if (i < n) {
    const __mmask16 mask = static_cast<__mmask16>((1u << (n - i)) - 1u);
    _mm512_mask_storeu_ps(
        x + i, mask,
        MaxPs(_mm512_maskz_loadu_ps(mask, x + i), zero));
  }
}

LAN_AVX512 void SoftmaxRowsAvx512(float* data, int32_t rows, int32_t cols) {
  const __m512 ninf = _mm512_set1_ps(-__builtin_huge_valf());
  for (int32_t i = 0; i < rows; ++i) {
    float* row = data + static_cast<size_t>(i) * cols;
    __m512 vmax = ninf;
    int32_t j = 0;
    for (; j + 16 <= cols; j += 16) {
      vmax = MaxPs(vmax, _mm512_loadu_ps(row + j));
    }
    if (j < cols) {
      const __mmask16 mask = static_cast<__mmask16>((1u << (cols - j)) - 1u);
      vmax = MaxPs(vmax, _mm512_mask_loadu_ps(ninf, mask, row + j));
    }
    const float row_max = ReduceMaxPs(vmax);
    float total = 0.0f;
    for (j = 0; j < cols; ++j) {
      const float e = std::exp(row[j] - row_max);
      row[j] = e;
      total += e;
    }
    const __m512 vt = _mm512_set1_ps(total);
    for (j = 0; j + 16 <= cols; j += 16) {
      _mm512_storeu_ps(row + j,
                       _mm512_div_ps(_mm512_loadu_ps(row + j), vt));
    }
    if (j < cols) {
      const __mmask16 mask = static_cast<__mmask16>((1u << (cols - j)) - 1u);
      _mm512_mask_storeu_ps(
          row + j, mask,
          _mm512_div_ps(_mm512_maskz_loadu_ps(mask, row + j), vt));
    }
  }
}

}  // namespace

namespace internal {

const KernelTable* Avx512Kernels() {
  static const KernelTable table = [] {
    KernelTable t = ScalarKernels();  // sigmoid stays scalar by design
    t.name = "avx512";
    t.matmul_accumulate = &MatMulAccumulateAvx512;
    t.dot = &DotAvx512;
    t.axpy = &AxpyAvx512;
    t.scale = &ScaleAvx512;
    t.l2sq = &L2SqAvx512;
    t.relu = &ReluAvx512;
    t.softmax_rows = &SoftmaxRowsAvx512;
    return t;
  }();
  return &table;
}

}  // namespace internal
}  // namespace lan

#else  // non-x86 builds: no AVX-512 table.

namespace lan {
namespace internal {
const KernelTable* Avx512Kernels() { return nullptr; }
}  // namespace internal
}  // namespace lan

#endif
