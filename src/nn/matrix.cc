#include "nn/matrix.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/string_util.h"
#include "nn/kernels.h"

namespace lan {

Matrix Matrix::XavierUniform(int32_t rows, int32_t cols, Rng* rng) {
  Matrix out(rows, cols);
  const float bound = std::sqrt(6.0f / static_cast<float>(rows + cols));
  for (int64_t i = 0; i < out.size(); ++i) {
    out.data()[i] = rng->NextFloat(-bound, bound);
  }
  return out;
}

Matrix Matrix::OneHotRows(const std::vector<int32_t>& ids, int32_t depth) {
  Matrix out(static_cast<int32_t>(ids.size()), depth);
  for (size_t i = 0; i < ids.size(); ++i) {
    LAN_CHECK_GE(ids[i], 0);
    LAN_CHECK_LT(ids[i], depth);
    out.at(static_cast<int32_t>(i), ids[i]) = 1.0f;
  }
  return out;
}

void Matrix::AddInPlace(const Matrix& other) {
  LAN_CHECK(SameShape(other));
  // axpy with a == 1.0f: 1.0f * x == x exactly, so this matches the plain
  // elementwise add bit for bit at every dispatch level.
  ActiveKernels().axpy(data_.data(), 1.0f, other.data_.data(),
                       static_cast<int64_t>(data_.size()));
}

void Matrix::ScaleInPlace(float scale) {
  ActiveKernels().scale(data_.data(), scale,
                        static_cast<int64_t>(data_.size()));
}

float Matrix::MaxAbsDiff(const Matrix& a, const Matrix& b) {
  LAN_CHECK(a.SameShape(b));
  float worst = 0.0f;
  for (size_t i = 0; i < a.data_.size(); ++i) {
    worst = std::max(worst, std::abs(a.data_[i] - b.data_[i]));
  }
  return worst;
}

float Matrix::Norm() const {
  double total = 0.0;
  for (float x : data_) total += static_cast<double>(x) * x;
  return static_cast<float>(std::sqrt(total));
}

std::string Matrix::ShapeString() const {
  return StrFormat("[%dx%d]", rows_, cols_);
}

void MatMulAccumulate(const float* a, int32_t m, int32_t k, const float* b,
                      int32_t n, float* c) {
  // The scalar reference micro-kernel lives in kernels.cc; SIMD variants in
  // kernels_avx2.cc / kernels_avx512.cc. Dispatch is one relaxed atomic
  // load plus an indirect call.
  ActiveKernels().matmul_accumulate(a, m, k, b, n, c);
}

Matrix MatMulValues(const Matrix& a, const Matrix& b) {
  LAN_CHECK_EQ(a.cols(), b.rows());
  Matrix c(a.rows(), b.cols());
  MatMulAccumulate(a.data(), a.rows(), a.cols(), b.data(), b.cols(), c.data());
  return c;
}

void ReluInPlace(Matrix* m) {
  ActiveKernels().relu(m->data(), m->size());
}

void SoftmaxRowsInPlace(float* data, int32_t rows, int32_t cols) {
  ActiveKernels().softmax_rows(data, rows, cols);
}

void WeightedMeanRowsInto(const float* data, int32_t rows, int32_t cols,
                          const float* weights, float* out) {
  float total = 0.0f;
  for (int32_t i = 0; i < rows; ++i) {
    LAN_CHECK_GE(weights[i], 0.0f);
    total += weights[i];
  }
  LAN_CHECK_GT(total, 0.0f);
  const KernelTable& kt = ActiveKernels();
  for (int32_t i = 0; i < rows; ++i) {
    const float norm = weights[i] / total;
    kt.axpy(out, norm, data + static_cast<size_t>(i) * cols, cols);
  }
}

Matrix MatMulTransposedLhs(const Matrix& a, const Matrix& b) {
  LAN_CHECK_EQ(a.rows(), b.rows());
  Matrix c(a.cols(), b.cols());
  const KernelTable& kt = ActiveKernels();
  for (int32_t k = 0; k < a.rows(); ++k) {
    const float* arow = a.data() + static_cast<size_t>(k) * a.cols();
    const float* brow = b.data() + static_cast<size_t>(k) * b.cols();
    for (int32_t i = 0; i < a.cols(); ++i) {
      const float aki = arow[i];
      if (aki == 0.0f) continue;
      float* crow = c.data() + static_cast<size_t>(i) * c.cols();
      kt.axpy(crow, aki, brow, b.cols());
    }
  }
  return c;
}

Matrix MatMulTransposedRhs(const Matrix& a, const Matrix& b) {
  LAN_CHECK_EQ(a.cols(), b.cols());
  Matrix c(a.rows(), b.rows());
  const KernelTable& kt = ActiveKernels();
  for (int32_t i = 0; i < a.rows(); ++i) {
    const float* arow = a.data() + static_cast<size_t>(i) * a.cols();
    for (int32_t j = 0; j < b.rows(); ++j) {
      const float* brow = b.data() + static_cast<size_t>(j) * b.cols();
      c.at(i, j) = kt.dot(arow, brow, a.cols());
    }
  }
  return c;
}

Matrix SparseMatrix::Apply(const Matrix& x) const {
  LAN_CHECK_EQ(cols, x.rows());
  Matrix out(rows, x.cols());
  const KernelTable& kt = ActiveKernels();
  for (const Entry& e : entries) {
    const float* xrow = x.data() + static_cast<size_t>(e.col) * x.cols();
    float* orow = out.data() + static_cast<size_t>(e.row) * out.cols();
    kt.axpy(orow, e.weight, xrow, x.cols());
  }
  return out;
}

Matrix SparseMatrix::ApplyTransposed(const Matrix& x) const {
  LAN_CHECK_EQ(rows, x.rows());
  Matrix out(cols, x.cols());
  const KernelTable& kt = ActiveKernels();
  for (const Entry& e : entries) {
    const float* xrow = x.data() + static_cast<size_t>(e.row) * x.cols();
    float* orow = out.data() + static_cast<size_t>(e.col) * out.cols();
    kt.axpy(orow, e.weight, xrow, x.cols());
  }
  return out;
}

}  // namespace lan
