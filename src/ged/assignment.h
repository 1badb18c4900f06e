#ifndef LAN_GED_ASSIGNMENT_H_
#define LAN_GED_ASSIGNMENT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lan {

/// \brief Dense square cost matrix for assignment problems.
class CostMatrix {
 public:
  CostMatrix() = default;
  CostMatrix(int32_t n, double fill = 0.0)
      : n_(n), data_(static_cast<size_t>(n) * n, fill) {}

  /// Re-dimensions to n x n filled with `fill`, reusing the existing
  /// storage (no allocation once the matrix has reached its high-water
  /// size). Equivalent to assigning a freshly constructed matrix.
  void Reset(int32_t n, double fill = 0.0) {
    n_ = n;
    data_.assign(static_cast<size_t>(n) * n, fill);
  }

  /// Re-dimensions to n x n without filling: the caller writes every cell.
  void Resize(int32_t n) {
    n_ = n;
    data_.resize(static_cast<size_t>(n) * n);
  }

  double& at(int32_t r, int32_t c) {
    return data_[static_cast<size_t>(r) * n_ + c];
  }
  double at(int32_t r, int32_t c) const {
    return data_[static_cast<size_t>(r) * n_ + c];
  }
  /// Row r's n() costs, contiguous.
  const double* row(int32_t r) const {
    return data_.data() + static_cast<size_t>(r) * n_;
  }
  double* mutable_row(int32_t r) {
    return data_.data() + static_cast<size_t>(r) * n_;
  }
  int32_t n() const { return n_; }

 private:
  int32_t n_ = 0;
  std::vector<double> data_;
};

/// \brief Result of a linear assignment: row_to_col[r] = assigned column.
struct Assignment {
  std::vector<int32_t> row_to_col;
  double cost = 0.0;
};

/// \brief Optimal linear sum assignment via the Jonker–Volgenant
/// shortest-augmenting-path algorithm, O(n^3).
///
/// This is the solver behind both the `Hung` and `VJ` bipartite GED
/// approximations (they differ in the cost matrices they build, Sec. VII).
Assignment SolveAssignment(const CostMatrix& cost);

/// Allocation-free variant: writes into `out` (reusing its capacity) and
/// draws working arrays from the thread's GedScratch.
void SolveAssignmentInto(const CostMatrix& cost, Assignment* out);

/// \brief Greedy (suboptimal) assignment: repeatedly picks the globally
/// cheapest remaining cell, ties broken by row, then column. O(n^2) plus
/// a sort of the distinct costs. Used as a fast baseline and in tests as a
/// sanity upper bound for the optimal solver.
Assignment SolveAssignmentGreedy(const CostMatrix& cost);

/// Allocation-free variant of the greedy solver (see SolveAssignmentInto).
void SolveAssignmentGreedyInto(const CostMatrix& cost, Assignment* out);

}  // namespace lan

#endif  // LAN_GED_ASSIGNMENT_H_
