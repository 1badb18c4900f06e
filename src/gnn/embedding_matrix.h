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
/// contiguous allocation the SIMD kernels can address directly — and so a
/// snapshot can expose it zero-copy as a *view* over mapped memory. Like Graph, a view is read-only and copying
/// one materializes an owned matrix (the online-insert path copies the
/// published matrix, then appends).
class EmbeddingMatrix {
 public:
  EmbeddingMatrix() = default;
  EmbeddingMatrix(int64_t rows, int32_t dim)
      : owned_(static_cast<size_t>(rows) * static_cast<size_t>(dim), 0.0f),
        rows_(rows),
        dim_(dim) {}

  EmbeddingMatrix(const EmbeddingMatrix& other) { *this = other; }
  EmbeddingMatrix& operator=(const EmbeddingMatrix& other) {
    if (this == &other) return *this;
    rows_ = other.rows_;
    dim_ = other.dim_;
    owned_.assign(other.data(), other.data() + other.size());
    view_ = nullptr;
    return *this;
  }
  EmbeddingMatrix(EmbeddingMatrix&&) noexcept = default;
  EmbeddingMatrix& operator=(EmbeddingMatrix&&) noexcept = default;

  /// Wraps externally-owned row-major data (e.g. a mapped snapshot
  /// section); the memory must outlive the view.
  static EmbeddingMatrix FromView(int64_t rows, int32_t dim,
                                  const float* data) {
    EmbeddingMatrix m;
    m.rows_ = rows;
    m.dim_ = dim;
    m.view_ = data;
    return m;
  }

  /// Owned matrix from per-row vectors (each of length dim, which is
  /// taken from the first row; empty input yields an empty matrix).
  static EmbeddingMatrix FromRows(const std::vector<std::vector<float>>& rows) {
    EmbeddingMatrix m;
    if (rows.empty()) return m;
    m.dim_ = static_cast<int32_t>(rows[0].size());
    m.owned_.reserve(rows.size() * rows[0].size());
    for (const std::vector<float>& r : rows) {
      LAN_CHECK_EQ(static_cast<int32_t>(r.size()), m.dim_);
      m.owned_.insert(m.owned_.end(), r.begin(), r.end());
    }
    m.rows_ = static_cast<int64_t>(rows.size());
    return m;
  }

  bool is_view() const { return view_ != nullptr; }
  int64_t rows() const { return rows_; }
  int32_t dim() const { return dim_; }
  bool empty() const { return rows_ == 0; }
  size_t size() const {
    return static_cast<size_t>(rows_) * static_cast<size_t>(dim_);
  }
  const float* data() const { return is_view() ? view_ : owned_.data(); }

  std::span<const float> Row(int64_t i) const {
    return {data() + static_cast<size_t>(i) * static_cast<size_t>(dim_),
            static_cast<size_t>(dim_)};
  }

  float* MutableRow(int64_t i) {
    LAN_CHECK(!is_view());
    return owned_.data() + static_cast<size_t>(i) * static_cast<size_t>(dim_);
  }

  /// Pre-sizes the owned arena for `rows` rows of `dim` floats. An empty
  /// matrix adopts `dim`; otherwise `dim` must match the existing one —
  /// the old single-argument form silently reserved rows * 0 bytes when
  /// called before the dim was known.
  void Reserve(int64_t rows, int32_t dim) {
    LAN_CHECK(!is_view());
    LAN_CHECK_GT(dim, 0);
    if (rows_ == 0 && dim_ == 0) {
      dim_ = dim;
    }
    LAN_CHECK_EQ(dim, dim_);
    owned_.reserve(static_cast<size_t>(rows) * static_cast<size_t>(dim_));
  }

  /// Appends one row (owned matrices only; copy a view to materialize it
  /// first). An empty matrix adopts the row's length as its dim.
  void AppendRow(std::span<const float> row) {
    LAN_CHECK(!is_view());
    if (rows_ == 0 && dim_ == 0) {
      dim_ = static_cast<int32_t>(row.size());
    }
    LAN_CHECK_EQ(static_cast<int32_t>(row.size()), dim_);
    owned_.insert(owned_.end(), row.begin(), row.end());
    ++rows_;
  }

  /// Bytes held by the f32 arena (diagnostics: lan_tool diagnose).
  size_t f32_bytes() const { return size() * sizeof(float); }

 private:
  std::vector<float> owned_;
  const float* view_ = nullptr;
  int64_t rows_ = 0;
  int32_t dim_ = 0;
};

}  // namespace lan

#endif  // LAN_GNN_EMBEDDING_MATRIX_H_
