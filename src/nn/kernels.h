#ifndef LAN_NN_KERNELS_H_
#define LAN_NN_KERNELS_H_

#include <cstdint>

#include "common/cpu_features.h"

namespace lan {

/// \brief Function-pointer table of the numeric hot loops. One table exists
/// per SIMD level (see `SimdLevel`); `ActiveKernels()` picks the table for
/// the level currently pinned by `ActiveSimdLevel()`.
///
/// Determinism contract (docs/kernels.md):
///  - The scalar table is bit-for-bit identical to the pre-dispatch code;
///    `LAN_FORCE_SCALAR=1` therefore reproduces historical results exactly.
///  - Different tables may round differently (FMA, vector reductions), so
///    cross-level equivalence is tolerance-based only.
///  - Within any one table, every kernel is a pure function of its operand
///    values and shapes, and `matmul_accumulate` orders each output
///    element's accumulation as a function of (k, n) alone — never of m or
///    the row index — so per-pair and batched inference (which stack rows,
///    never columns) agree bit for bit at any fixed level.
struct KernelTable {
  /// Display name ("scalar", "avx2", "avx512").
  const char* name;

  /// C += A * B over raw row-major buffers (a: m x k, b: k x n, c: m x n).
  void (*matmul_accumulate)(const float* a, int32_t m, int32_t k,
                            const float* b, int32_t n, float* c);

  /// Ascending-order float dot product of two length-n buffers.
  float (*dot)(const float* a, const float* b, int32_t n);

  /// y[i] += a * x[i] for i in [0, n).
  void (*axpy)(float* y, float a, const float* x, int64_t n);

  /// x[i] *= a.
  void (*scale)(float* x, float a, int64_t n);

  /// Squared L2 distance, accumulated in double (mirrors SquaredL2).
  double (*l2sq)(const float* a, const float* b, int64_t n);

  /// x[i] = max(0, x[i]) with std::max(0.0f, x) zero/NaN semantics.
  void (*relu)(float* x, int64_t n);

  /// x[i] = 1 / (1 + exp(-x[i])). Scalar at every level: a vector exp
  /// polynomial would change probabilities, not just rounding.
  void (*sigmoid)(float* x, int64_t n);

  /// Row-wise numerically-stable softmax in place over a row-major block.
  /// SIMD variants vectorize only the max and divide passes (both exact),
  /// keeping the scalar exp/sum pass, so results match scalar bitwise.
  void (*softmax_rows)(float* data, int32_t rows, int32_t cols);
};

/// The always-available reference table (the pre-dispatch scalar code).
const KernelTable& ScalarKernels();

/// Table for `level`, demoting to the next available level when this build
/// (or host) lacks one. Never fails: scalar is always present.
const KernelTable& KernelsFor(SimdLevel level);

/// Table for the current `ActiveSimdLevel()`. Re-reads the level on every
/// call (one relaxed atomic load), so `SetActiveSimdLevel` takes effect
/// immediately for subsequent kernel launches.
const KernelTable& ActiveKernels();

namespace internal {
/// Defined in kernels_avx2.cc / kernels_avx512.cc. Return nullptr when the
/// build targets a non-x86 architecture (the TUs then compile to stubs).
const KernelTable* Avx2Kernels();
const KernelTable* Avx512Kernels();
}  // namespace internal

}  // namespace lan

#endif  // LAN_NN_KERNELS_H_
