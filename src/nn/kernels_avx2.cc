// AVX2+FMA kernel table. Compiled in every build via function-level
// `target` attributes (no special per-file flags), selected at runtime only
// when cpuid reports avx2+fma. On non-x86 builds this TU is a stub.
//
// Bitwise notes (docs/kernels.md): each GEMM output element is one FMA
// chain in ascending k from its initial C (for n == 1, eight rows' chains
// share one register's lanes, which changes no bit); which chain shape an
// element gets depends only on (n, column index), never on m or the row
// index, so per-pair and batched inference agree bit for bit at this level. Elementwise kernels (scale,
// relu, softmax max/divide passes) are exact and match scalar bitwise;
// FMA-based kernels (matmul, dot, axpy, l2sq) differ from scalar only in
// rounding.

#include "nn/kernels.h"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))

#include <immintrin.h>

#include <cmath>

#define LAN_AVX2 __attribute__((target("avx2,fma")))

namespace lan {
namespace {

LAN_AVX2 inline float Hsum256(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 h = _mm_add_ps(lo, hi);
  h = _mm_add_ps(h, _mm_movehl_ps(h, h));
  h = _mm_add_ss(h, _mm_movehdup_ps(h));
  return _mm_cvtss_f32(h);
}

LAN_AVX2 inline double Hsum256d(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  __m128d h = _mm_add_pd(lo, hi);
  h = _mm_add_sd(h, _mm_unpackhi_pd(h, h));
  return _mm_cvtsd_f64(h);
}

LAN_AVX2 inline float Hmax256(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 h = _mm_max_ps(lo, hi);
  h = _mm_max_ps(h, _mm_movehl_ps(h, h));
  h = _mm_max_ss(h, _mm_movehdup_ps(h));
  return _mm_cvtss_f32(h);
}

LAN_AVX2 inline __m256i TailMask(int32_t rem) {
  alignas(32) int32_t buf[8];
  for (int32_t t = 0; t < 8; ++t) buf[t] = t < rem ? -1 : 0;
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(buf));
}

// Column t of the 8 x 8 block of A at `a` (row stride `lda`), one row per
// lane: out[t][r] = a[r * lda + t]. Rows r and r + 4 share a load pair, so
// the transpose costs 16 in-lane shuffles.
LAN_AVX2 inline void LoadTransposed8x8(const float* a, int32_t lda,
                                       __m256 out[8]) {
  __m256 t[8];
  for (int32_t h = 0; h < 2; ++h) {      // columns 0..3, then 4..7
    for (int32_t r = 0; r < 4; ++r) {  // rows r and r + 4
      const float* lo = a + static_cast<size_t>(r) * lda + 4 * h;
      const float* hi = a + static_cast<size_t>(r + 4) * lda + 4 * h;
      t[4 * h + r] = _mm256_insertf128_ps(
          _mm256_castps128_ps256(_mm_loadu_ps(lo)), _mm_loadu_ps(hi), 1);
    }
  }
  for (int32_t h = 0; h < 2; ++h) {
    const __m256* q = t + 4 * h;
    const __m256 u0 = _mm256_unpacklo_ps(q[0], q[1]);
    const __m256 u1 = _mm256_unpackhi_ps(q[0], q[1]);
    const __m256 u2 = _mm256_unpacklo_ps(q[2], q[3]);
    const __m256 u3 = _mm256_unpackhi_ps(q[2], q[3]);
    out[4 * h + 0] = _mm256_shuffle_ps(u0, u2, 0x44);
    out[4 * h + 1] = _mm256_shuffle_ps(u0, u2, 0xee);
    out[4 * h + 2] = _mm256_shuffle_ps(u1, u3, 0x44);
    out[4 * h + 3] = _mm256_shuffle_ps(u1, u3, 0xee);
  }
}

// The n == 1 product (attention scores, head outputs) with rows in lanes:
// each lane runs its row's FMA chain over ascending p from its initial C,
// exactly the chain the per-row masked tail below would run, so every
// output keeps its bits. Two 8-row blocks run side by side to overlap the
// FMA latency; a partial block reads its missing rows and columns as zeros
// from a stack copy and never uses them.
LAN_AVX2 void MatVecRowsInLanesAvx2(const float* a, int32_t m, int32_t k,
                                    const float* b, float* c) {
  int32_t i = 0;
  for (; i + 16 <= m; i += 16) {
    __m256 acc0 = _mm256_loadu_ps(c + i);
    __m256 acc1 = _mm256_loadu_ps(c + i + 8);
    const float* a0 = a + static_cast<size_t>(i) * k;
    const float* a1 = a0 + static_cast<size_t>(8) * k;
    int32_t p = 0;
    for (; p + 8 <= k; p += 8) {
      __m256 col0[8];
      __m256 col1[8];
      LoadTransposed8x8(a0 + p, k, col0);
      LoadTransposed8x8(a1 + p, k, col1);
      for (int32_t t = 0; t < 8; ++t) {
        const __m256 bv = _mm256_set1_ps(b[p + t]);
        acc0 = _mm256_fmadd_ps(col0[t], bv, acc0);
        acc1 = _mm256_fmadd_ps(col1[t], bv, acc1);
      }
    }
    if (p < k) {
      alignas(32) float buf[16][8] = {};
      for (int32_t r = 0; r < 16; ++r) {
        for (int32_t t = p; t < k; ++t) {
          buf[r][t - p] = a0[static_cast<size_t>(r) * k + t];
        }
      }
      __m256 col0[8];
      __m256 col1[8];
      LoadTransposed8x8(buf[0], 8, col0);
      LoadTransposed8x8(buf[8], 8, col1);
      for (int32_t t = 0; t < k - p; ++t) {
        const __m256 bv = _mm256_set1_ps(b[p + t]);
        acc0 = _mm256_fmadd_ps(col0[t], bv, acc0);
        acc1 = _mm256_fmadd_ps(col1[t], bv, acc1);
      }
    }
    _mm256_storeu_ps(c + i, acc0);
    _mm256_storeu_ps(c + i + 8, acc1);
  }
  for (; i < m; i += 8) {
    const int32_t rows = m - i < 8 ? m - i : 8;
    const __m256i mask = TailMask(rows);
    const float* ai = a + static_cast<size_t>(i) * k;
    __m256 acc = _mm256_maskload_ps(c + i, mask);
    for (int32_t p = 0; p < k; p += 8) {
      const int32_t w = k - p < 8 ? k - p : 8;
      __m256 col[8];
      if (rows == 8 && w == 8) {
        LoadTransposed8x8(ai + p, k, col);
      } else {
        alignas(32) float buf[8][8] = {};
        for (int32_t r = 0; r < rows; ++r) {
          for (int32_t t = 0; t < w; ++t) {
            buf[r][t] = ai[static_cast<size_t>(r) * k + p + t];
          }
        }
        LoadTransposed8x8(buf[0], 8, col);
      }
      for (int32_t t = 0; t < w; ++t) {
        acc = _mm256_fmadd_ps(col[t], _mm256_set1_ps(b[p + t]), acc);
      }
    }
    _mm256_maskstore_ps(c + i, mask, acc);
  }
}

LAN_AVX2 void MatMulAccumulateAvx2(const float* a, int32_t m, int32_t k,
                                   const float* b, int32_t n, float* c) {
  if (n == 1) {
    MatVecRowsInLanesAvx2(a, m, k, b, c);
    return;
  }
  int32_t j0 = 0;
  // 16-column blocks, 4 rows at a time: 8 independent FMA chains keep the
  // two FMA ports busy across the 4-cycle latency.
  for (; j0 + 16 <= n; j0 += 16) {
    int32_t i = 0;
    for (; i + 4 <= m; i += 4) {
      __m256 acc[4][2];
      for (int32_t r = 0; r < 4; ++r) {
        const float* crow = c + static_cast<size_t>(i + r) * n + j0;
        acc[r][0] = _mm256_loadu_ps(crow);
        acc[r][1] = _mm256_loadu_ps(crow + 8);
      }
      for (int32_t p = 0; p < k; ++p) {
        const float* bp = b + static_cast<size_t>(p) * n + j0;
        const __m256 b0 = _mm256_loadu_ps(bp);
        const __m256 b1 = _mm256_loadu_ps(bp + 8);
        for (int32_t r = 0; r < 4; ++r) {
          const __m256 av =
              _mm256_set1_ps(a[static_cast<size_t>(i + r) * k + p]);
          acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
          acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
        }
      }
      for (int32_t r = 0; r < 4; ++r) {
        float* crow = c + static_cast<size_t>(i + r) * n + j0;
        _mm256_storeu_ps(crow, acc[r][0]);
        _mm256_storeu_ps(crow + 8, acc[r][1]);
      }
    }
    for (; i < m; ++i) {
      float* crow = c + static_cast<size_t>(i) * n + j0;
      const float* arow = a + static_cast<size_t>(i) * k;
      __m256 acc0 = _mm256_loadu_ps(crow);
      __m256 acc1 = _mm256_loadu_ps(crow + 8);
      for (int32_t p = 0; p < k; ++p) {
        const float* bp = b + static_cast<size_t>(p) * n + j0;
        const __m256 av = _mm256_set1_ps(arow[p]);
        acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp), acc0);
        acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp + 8), acc1);
      }
      _mm256_storeu_ps(crow, acc0);
      _mm256_storeu_ps(crow + 8, acc1);
    }
  }
  // At most one full 8-column block.
  if (j0 + 8 <= n) {
    int32_t i = 0;
    for (; i + 4 <= m; i += 4) {
      __m256 acc[4];
      for (int32_t r = 0; r < 4; ++r) {
        acc[r] = _mm256_loadu_ps(c + static_cast<size_t>(i + r) * n + j0);
      }
      for (int32_t p = 0; p < k; ++p) {
        const __m256 bv = _mm256_loadu_ps(b + static_cast<size_t>(p) * n + j0);
        for (int32_t r = 0; r < 4; ++r) {
          const __m256 av =
              _mm256_set1_ps(a[static_cast<size_t>(i + r) * k + p]);
          acc[r] = _mm256_fmadd_ps(av, bv, acc[r]);
        }
      }
      for (int32_t r = 0; r < 4; ++r) {
        _mm256_storeu_ps(c + static_cast<size_t>(i + r) * n + j0, acc[r]);
      }
    }
    for (; i < m; ++i) {
      float* crow = c + static_cast<size_t>(i) * n + j0;
      const float* arow = a + static_cast<size_t>(i) * k;
      __m256 acc = _mm256_loadu_ps(crow);
      for (int32_t p = 0; p < k; ++p) {
        acc = _mm256_fmadd_ps(
            _mm256_set1_ps(arow[p]),
            _mm256_loadu_ps(b + static_cast<size_t>(p) * n + j0), acc);
      }
      _mm256_storeu_ps(crow, acc);
    }
    j0 += 8;
  }
  // Masked tail: 1..7 columns (also the whole product when 1 < n < 8).
  // Still one FMA chain per element, so the chain shape stays a function of
  // (k, n).
  if (j0 < n) {
    const __m256i mask = TailMask(n - j0);
    for (int32_t i = 0; i < m; ++i) {
      float* crow = c + static_cast<size_t>(i) * n + j0;
      const float* arow = a + static_cast<size_t>(i) * k;
      __m256 acc = _mm256_maskload_ps(crow, mask);
      for (int32_t p = 0; p < k; ++p) {
        const __m256 bv =
            _mm256_maskload_ps(b + static_cast<size_t>(p) * n + j0, mask);
        acc = _mm256_fmadd_ps(_mm256_set1_ps(arow[p]), bv, acc);
      }
      _mm256_maskstore_ps(crow, mask, acc);
    }
  }
}

LAN_AVX2 float DotAvx2(const float* a, const float* b, int32_t n) {
  __m256 s0 = _mm256_setzero_ps();
  __m256 s1 = _mm256_setzero_ps();
  __m256 s2 = _mm256_setzero_ps();
  __m256 s3 = _mm256_setzero_ps();
  int32_t i = 0;
  for (; i + 32 <= n; i += 32) {
    s0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), s0);
    s1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                         _mm256_loadu_ps(b + i + 8), s1);
    s2 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 16),
                         _mm256_loadu_ps(b + i + 16), s2);
    s3 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 24),
                         _mm256_loadu_ps(b + i + 24), s3);
  }
  for (; i + 8 <= n; i += 8) {
    s0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), s0);
  }
  float sum =
      Hsum256(_mm256_add_ps(_mm256_add_ps(s0, s1), _mm256_add_ps(s2, s3)));
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

LAN_AVX2 void AxpyAvx2(float* y, float a, const float* x, int64_t n) {
  const __m256 av = _mm256_set1_ps(a);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

LAN_AVX2 void ScaleAvx2(float* x, float a, int64_t n) {
  const __m256 av = _mm256_set1_ps(a);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), av));
  }
  for (; i < n; ++i) x[i] *= a;
}

LAN_AVX2 double L2SqAvx2(const float* a, const float* b, int64_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d d0 = _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i)),
                                     _mm256_cvtps_pd(_mm_loadu_ps(b + i)));
    const __m256d d1 =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i + 4)),
                      _mm256_cvtps_pd(_mm_loadu_ps(b + i + 4)));
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
    acc1 = _mm256_fmadd_pd(d1, d1, acc1);
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i)),
                                    _mm256_cvtps_pd(_mm_loadu_ps(b + i)));
    acc0 = _mm256_fmadd_pd(d, d, acc0);
  }
  double total = Hsum256d(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    total += d * d;
  }
  return total;
}

LAN_AVX2 void ReluAvx2(float* x, int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // maxps returns the second operand on equal or NaN, matching
    // std::max(0.0f, x) for -0.0 and NaN inputs bit for bit.
    _mm256_storeu_ps(x + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  for (; i < n; ++i) x[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

LAN_AVX2 void SoftmaxRowsAvx2(float* data, int32_t rows, int32_t cols) {
  for (int32_t i = 0; i < rows; ++i) {
    float* row = data + static_cast<size_t>(i) * cols;
    // Max pass: order-independent, bitwise equal to the scalar pass.
    __m256 vmax = _mm256_set1_ps(-__builtin_huge_valf());
    int32_t j = 0;
    for (; j + 8 <= cols; j += 8) {
      vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(row + j));
    }
    float row_max = Hmax256(vmax);
    for (; j < cols; ++j) row_max = row[j] > row_max ? row[j] : row_max;
    // Exp + ordered sum stay scalar: vectorizing either would change the
    // result, not just the speed.
    float total = 0.0f;
    for (j = 0; j < cols; ++j) {
      const float e = std::exp(row[j] - row_max);
      row[j] = e;
      total += e;
    }
    // Divide pass: elementwise IEEE divide, bitwise equal to scalar.
    const __m256 vt = _mm256_set1_ps(total);
    for (j = 0; j + 8 <= cols; j += 8) {
      _mm256_storeu_ps(row + j, _mm256_div_ps(_mm256_loadu_ps(row + j), vt));
    }
    for (; j < cols; ++j) row[j] /= total;
  }
}

}  // namespace

namespace internal {

const KernelTable* Avx2Kernels() {
  static const KernelTable table = [] {
    KernelTable t = ScalarKernels();  // sigmoid stays scalar by design
    t.name = "avx2";
    t.matmul_accumulate = &MatMulAccumulateAvx2;
    t.dot = &DotAvx2;
    t.axpy = &AxpyAvx2;
    t.scale = &ScaleAvx2;
    t.l2sq = &L2SqAvx2;
    t.relu = &ReluAvx2;
    t.softmax_rows = &SoftmaxRowsAvx2;
    return t;
  }();
  return &table;
}

}  // namespace internal
}  // namespace lan

#else  // non-x86 builds: no AVX2 table.

namespace lan {
namespace internal {
const KernelTable* Avx2Kernels() { return nullptr; }
}  // namespace internal
}  // namespace lan

#endif
