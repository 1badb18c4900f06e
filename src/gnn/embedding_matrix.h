#ifndef LAN_GNN_EMBEDDING_MATRIX_H_
#define LAN_GNN_EMBEDDING_MATRIX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.h"

namespace lan {

/// \brief Row-major matrix of per-graph embedding vectors (and of the
/// KMeans centroids): row i is graph/centroid i's `dim`-float vector.
///
/// Replaces `std::vector<std::vector<float>>` so the whole corpus is one
/// contiguous allocation the SIMD kernels can address directly (the
/// online-insert path copies the published matrix, then appends).
class EmbeddingMatrix {
 public:
  EmbeddingMatrix() = default;
  EmbeddingMatrix(int64_t rows, int32_t dim)
      : data_(static_cast<size_t>(rows) * static_cast<size_t>(dim), 0.0f),
        rows_(rows),
        dim_(dim) {}

  /// Owned matrix from per-row vectors (each of length dim, which is
  /// taken from the first row; empty input yields an empty matrix).
  static EmbeddingMatrix FromRows(const std::vector<std::vector<float>>& rows) {
    EmbeddingMatrix m;
    if (rows.empty()) return m;
    m.dim_ = static_cast<int32_t>(rows[0].size());
    m.data_.reserve(rows.size() * rows[0].size());
    for (const std::vector<float>& r : rows) {
      LAN_CHECK_EQ(static_cast<int32_t>(r.size()), m.dim_);
      m.data_.insert(m.data_.end(), r.begin(), r.end());
    }
    m.rows_ = static_cast<int64_t>(rows.size());
    return m;
  }

  int64_t rows() const { return rows_; }
  int32_t dim() const { return dim_; }
  bool empty() const { return rows_ == 0; }
  size_t size() const {
    return static_cast<size_t>(rows_) * static_cast<size_t>(dim_);
  }
  const float* data() const { return data_.data(); }

  std::span<const float> Row(int64_t i) const {
    return {data() + static_cast<size_t>(i) * static_cast<size_t>(dim_),
            static_cast<size_t>(dim_)};
  }

  float* MutableRow(int64_t i) {
    return data_.data() + static_cast<size_t>(i) * static_cast<size_t>(dim_);
  }

  /// Pre-sizes the arena for `rows` rows of `dim` floats. An empty
  /// matrix adopts `dim`; otherwise `dim` must match the existing one —
  /// the old single-argument form silently reserved rows * 0 bytes when
  /// called before the dim was known.
  void Reserve(int64_t rows, int32_t dim) {
    LAN_CHECK_GT(dim, 0);
    if (rows_ == 0 && dim_ == 0) {
      dim_ = dim;
    }
    LAN_CHECK_EQ(dim, dim_);
    data_.reserve(static_cast<size_t>(rows) * static_cast<size_t>(dim_));
  }

  /// Appends one row. An empty matrix adopts the row's length as its dim.
  void AppendRow(std::span<const float> row) {
    if (rows_ == 0 && dim_ == 0) {
      dim_ = static_cast<int32_t>(row.size());
    }
    LAN_CHECK_EQ(static_cast<int32_t>(row.size()), dim_);
    data_.insert(data_.end(), row.begin(), row.end());
    ++rows_;
  }

  /// Bytes held by the f32 arena (diagnostics: lan_tool diagnose).
  size_t f32_bytes() const { return size() * sizeof(float); }

 private:
  std::vector<float> data_;
  int64_t rows_ = 0;
  int32_t dim_ = 0;
};

}  // namespace lan

#endif  // LAN_GNN_EMBEDDING_MATRIX_H_
