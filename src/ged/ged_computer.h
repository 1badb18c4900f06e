#ifndef LAN_GED_GED_COMPUTER_H_
#define LAN_GED_GED_COMPUTER_H_

#include <cstdint>

#include "ged/ged_costs.h"
#include "ged/ged_exact.h"
#include "graph/graph.h"

namespace lan {

/// \brief Which algorithm produced a distance.
enum class GedMethod : int {
  kExact = 0,
  kVj = 1,
  kHungarian = 2,
  kBeam = 3,
};

const char* GedMethodName(GedMethod method);

/// \brief Policy knobs for GedComputer.
struct GedOptions {
  /// Budget for the exact attempt. The paper uses a 10 s wall budget; we
  /// default to a much smaller one so end-to-end runs (which evaluate
  /// GED tens of thousands of times) stay laptop-scale. Raise for
  /// higher-fidelity ground truth.
  double exact_time_budget_seconds = 0.002;
  int64_t exact_max_expansions = 10'000;
  /// Beam width of the Beam fallback (<= 0 skips Beam entirely; index
  /// construction uses that for cheap distances).
  int beam_width = 4;
  /// If true, skip the exact attempt entirely (pure approximate mode, used
  /// when distances are evaluated millions of times).
  bool approximate_only = false;
  /// Skip the exact attempt when the upper-bound/lower-bound gap exceeds
  /// this (such proofs never finish within a small budget, so the attempt
  /// would just burn the full timeout). < 0 disables the heuristic.
  double skip_exact_gap = -1.0;
  /// Edit-operation costs. The learned components and benches assume the
  /// paper's uniform model; set custom costs only for direct GedComputer
  /// use.
  GedCosts costs;
};

/// \brief Distance with provenance.
struct GedValue {
  double distance = 0.0;
  GedMethod method = GedMethod::kExact;
  bool exact = false;
};

/// \brief The repository's single entry point for graph distances.
///
/// Implements the paper's ground-truth protocol (Sec. VII): try exact A*
/// within a budget; on timeout take the best (smallest) of the VJ,
/// Hungarian, and Beam upper bounds. The approximations are first run
/// anyway because their best value seeds the exact search's upper-bound
/// pruning.
class GedComputer {
 public:
  explicit GedComputer(GedOptions options = {}) : options_(options) {}

  /// Full protocol; never fails.
  GedValue Compute(const Graph& g1, const Graph& g2) const;

  /// Convenience: just the distance.
  double Distance(const Graph& g1, const Graph& g2) const {
    return Compute(g1, g2).distance;
  }

  const GedOptions& options() const { return options_; }

 private:
  GedOptions options_;
};

}  // namespace lan

#endif  // LAN_GED_GED_COMPUTER_H_
