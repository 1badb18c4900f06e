#include "nn/kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace lan {
namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels. These are the pre-dispatch implementations moved
// here verbatim: under LAN_FORCE_SCALAR=1 every result in the repo is
// bit-for-bit what it was before the kernel layer existed.
// ---------------------------------------------------------------------------

// Register-tile sizes of the GEMM micro-kernel: a kRowBlock x kColTile
// block of C is held in registers while the full depth streams through it,
// so C costs one load and one store per tile instead of one per k-step.
// Every output element still sums its terms in ascending k through a
// single accumulator, so results are bitwise identical to the naive loop.
// Skipping a zero A entry only drops exact +-0.0f products, which never
// change an accumulator's bits (an accumulator seeded from +0.0 can never
// become -0.0 under round-to-nearest).
constexpr int32_t kRowBlock = 4;
constexpr int32_t kColTile = 8;

void MatMulAccumulateScalar(const float* a, int32_t m, int32_t k,
                            const float* b, int32_t n, float* c) {
  const int32_t tiled_cols = n - n % kColTile;
  for (int32_t j0 = 0; j0 < tiled_cols; j0 += kColTile) {
    int32_t i = 0;
    for (; i + kRowBlock <= m; i += kRowBlock) {
      float acc[kRowBlock][kColTile];
      for (int32_t r = 0; r < kRowBlock; ++r) {
        const float* crow = c + static_cast<size_t>(i + r) * n + j0;
        for (int32_t t = 0; t < kColTile; ++t) acc[r][t] = crow[t];
      }
      for (int32_t p = 0; p < k; ++p) {
        const float* bp = b + static_cast<size_t>(p) * n + j0;
        for (int32_t r = 0; r < kRowBlock; ++r) {
          // One-hot inputs and sparse attention rows make zeros common.
          const float av = a[static_cast<size_t>(i + r) * k + p];
          if (av == 0.0f) continue;
          for (int32_t t = 0; t < kColTile; ++t) acc[r][t] += av * bp[t];
        }
      }
      for (int32_t r = 0; r < kRowBlock; ++r) {
        float* crow = c + static_cast<size_t>(i + r) * n + j0;
        for (int32_t t = 0; t < kColTile; ++t) crow[t] = acc[r][t];
      }
    }
    for (; i < m; ++i) {
      const float* arow = a + static_cast<size_t>(i) * k;
      float* crow = c + static_cast<size_t>(i) * n + j0;
      float acc[kColTile];
      for (int32_t t = 0; t < kColTile; ++t) acc[t] = crow[t];
      for (int32_t p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        const float* bp = b + static_cast<size_t>(p) * n + j0;
        for (int32_t t = 0; t < kColTile; ++t) acc[t] += av * bp[t];
      }
      for (int32_t t = 0; t < kColTile; ++t) crow[t] = acc[t];
    }
  }
  // Rightmost n % kColTile columns (also the whole GEMV case n == 1 of the
  // attention score projections): four-lane dot products that break the
  // add-latency chain. The lane split is a fixed function of k alone, so
  // any two computations of the same logical element — per-pair or batched,
  // which stack rows and never columns — still agree bit for bit.
  for (int32_t i = 0; i < m; ++i) {
    const float* arow = a + static_cast<size_t>(i) * k;
    float* crow = c + static_cast<size_t>(i) * n;
    for (int32_t j = tiled_cols; j < n; ++j) {
      const float* bcol = b + j;
      float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
      int32_t p = 0;
      for (; p + 4 <= k; p += 4) {
        acc0 += arow[p] * bcol[static_cast<size_t>(p) * n];
        acc1 += arow[p + 1] * bcol[(static_cast<size_t>(p) + 1) * n];
        acc2 += arow[p + 2] * bcol[(static_cast<size_t>(p) + 2) * n];
        acc3 += arow[p + 3] * bcol[(static_cast<size_t>(p) + 3) * n];
      }
      float rest = 0.0f;
      for (; p < k; ++p) rest += arow[p] * bcol[static_cast<size_t>(p) * n];
      crow[j] += ((acc0 + acc1) + (acc2 + acc3)) + rest;
    }
  }
}

float DotScalar(const float* a, const float* b, int32_t n) {
  // Single ascending accumulator, matching the MatMulTransposedRhs inner
  // loop this kernel replaced.
  float sum = 0.0f;
  for (int32_t i = 0; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

void AxpyScalar(float* y, float a, const float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void ScaleScalar(float* x, float a, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] *= a;
}

double L2SqScalar(const float* a, const float* b, int64_t n) {
  double total = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    total += d * d;
  }
  return total;
}

void ReluScalar(float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] = std::max(0.0f, x[i]);
}

void SigmoidScalar(float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] = 1.0f / (1.0f + std::exp(-x[i]));
}

void SoftmaxRowsScalar(float* data, int32_t rows, int32_t cols) {
  for (int32_t i = 0; i < rows; ++i) {
    float* row = data + static_cast<size_t>(i) * cols;
    float row_max = -std::numeric_limits<float>::infinity();
    for (int32_t j = 0; j < cols; ++j) row_max = std::max(row_max, row[j]);
    float total = 0.0f;
    for (int32_t j = 0; j < cols; ++j) {
      const float e = std::exp(row[j] - row_max);
      row[j] = e;
      total += e;
    }
    for (int32_t j = 0; j < cols; ++j) row[j] /= total;
  }
}

}  // namespace

const KernelTable& ScalarKernels() {
  static const KernelTable table = {
      /*name=*/"scalar",
      /*matmul_accumulate=*/&MatMulAccumulateScalar,
      /*dot=*/&DotScalar,
      /*axpy=*/&AxpyScalar,
      /*scale=*/&ScaleScalar,
      /*l2sq=*/&L2SqScalar,
      /*relu=*/&ReluScalar,
      /*sigmoid=*/&SigmoidScalar,
      /*softmax_rows=*/&SoftmaxRowsScalar,
  };
  return table;
}

const KernelTable& KernelsFor(SimdLevel level) {
  if (level >= SimdLevel::kAvx512) {
    if (const KernelTable* t = internal::Avx512Kernels()) return *t;
    level = SimdLevel::kAvx2;  // demote: build has no avx512 table
  }
  if (level >= SimdLevel::kAvx2) {
    if (const KernelTable* t = internal::Avx2Kernels()) return *t;
  }
  return ScalarKernels();
}

const KernelTable& ActiveKernels() { return KernelsFor(ActiveSimdLevel()); }

}  // namespace lan
