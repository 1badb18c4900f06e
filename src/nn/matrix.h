#ifndef LAN_NN_MATRIX_H_
#define LAN_NN_MATRIX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"

namespace lan {

/// \brief Dense row-major float32 matrix: the single tensor type of the NN
/// substrate. All shapes in this repo are 2-D (vectors are 1 x d or n x 1).
class Matrix {
 public:
  Matrix() = default;
  Matrix(int32_t rows, int32_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * static_cast<size_t>(cols), fill) {}

  static Matrix Zeros(int32_t rows, int32_t cols) {
    return Matrix(rows, cols, 0.0f);
  }

  /// Xavier/Glorot uniform initialization.
  static Matrix XavierUniform(int32_t rows, int32_t cols, Rng* rng);

  /// Row one-hot matrix: out(i, ids[i]) = 1.
  static Matrix OneHotRows(const std::vector<int32_t>& ids, int32_t depth);

  int32_t rows() const { return rows_; }
  int32_t cols() const { return cols_; }
  int64_t size() const { return static_cast<int64_t>(rows_) * cols_; }
  bool empty() const { return data_.empty(); }

  float& at(int32_t r, int32_t c) {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  float at(int32_t r, int32_t c) const {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  void Fill(float value) { data_.assign(data_.size(), value); }
  /// Re-dimensions to rows x cols of zeros, reusing the storage (no
  /// allocation once it has held that many elements).
  void Reset(int32_t rows, int32_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(static_cast<size_t>(rows) * static_cast<size_t>(cols), 0.0f);
  }
  void SetZero() { Fill(0.0f); }

  /// this += other (same shape).
  void AddInPlace(const Matrix& other);
  /// this *= scale.
  void ScaleInPlace(float scale);

  /// Largest |a_ij - b_ij|; both shapes must match.
  static float MaxAbsDiff(const Matrix& a, const Matrix& b);

  /// Frobenius norm.
  float Norm() const;

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  std::string ShapeString() const;

 private:
  int32_t rows_ = 0;
  int32_t cols_ = 0;
  std::vector<float> data_;
};

/// C += A * B over raw row-major buffers (a: m x k, b: k x n, c: m x n).
/// Tiled multi-accumulator kernel shared by training and inference. Per
/// output element the k-terms accumulate in ascending order, so the result
/// is bit-for-bit identical to the naive triple loop.
void MatMulAccumulate(const float* a, int32_t m, int32_t k, const float* b,
                      int32_t n, float* c);

/// C = A * B.
Matrix MatMulValues(const Matrix& a, const Matrix& b);
/// C = A^T * B.
Matrix MatMulTransposedLhs(const Matrix& a, const Matrix& b);
/// C = A * B^T.
Matrix MatMulTransposedRhs(const Matrix& a, const Matrix& b);

/// max(x, 0) elementwise, in place (inference mirror of Tape::Relu).
void ReluInPlace(Matrix* m);
/// Row-wise stable softmax over a raw row-major block, in place
/// (inference mirror of Tape::SoftmaxRows).
void SoftmaxRowsInPlace(float* data, int32_t rows, int32_t cols);
/// out[j] += sum_i (w[i] / sum(w)) * data(i, j); caller zero-initializes
/// `out` (size cols). Inference mirror of Tape::WeightedMeanRows; weights
/// must be non-negative with a positive total.
void WeightedMeanRowsInto(const float* data, int32_t rows, int32_t cols,
                          const float* weights, float* out);

/// \brief Constant sparse matrix in triplet form, used for the (weighted)
/// neighborhood-aggregation operators of GIN / CG learning.
struct SparseMatrix {
  int32_t rows = 0;
  int32_t cols = 0;
  struct Entry {
    int32_t row;
    int32_t col;
    float weight;
  };
  std::vector<Entry> entries;

  /// out = S * x  (dense result).
  Matrix Apply(const Matrix& x) const;
  /// out = S^T * x (dense result).
  Matrix ApplyTransposed(const Matrix& x) const;
};

}  // namespace lan

#endif  // LAN_NN_MATRIX_H_
