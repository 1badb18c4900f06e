#ifndef LAN_GED_GED_COMPUTER_H_
#define LAN_GED_GED_COMPUTER_H_

#include <cstdint>
#include <span>

#include "ged/ged_costs.h"
#include "ged/ged_exact.h"
#include "graph/graph.h"
#include "graph/prepared_graph.h"

namespace lan {

class ThreadPool;

/// \brief Which algorithm produced a distance.
enum class GedMethod : int {
  kExact = 0,
  kVj = 1,
  kHungarian = 2,
  kBeam = 3,
};

const char* GedMethodName(GedMethod method);

/// \brief Policy knobs for GedComputer.
///
/// The defaults are the one query protocol the library runs: exact A* is
/// tried only when the best upper bound is within 3 of the lower bound, and
/// it is capped by expansions, never by wall-clock time, so every distance
/// is a pure function of its two graphs whatever the load. The paper's
/// ground-truth protocol (always try A*) is `skip_exact_gap = -1` with a
/// larger `exact_max_expansions`.
struct GedOptions {
  /// Ignored: GED has no wall-clock budget. Declared only because lanbench
  /// assigns it; it goes when lanbench stops doing so.
  double exact_time_budget_seconds = 0.0;
  /// Cap on A*'s expanded states; a capped attempt falls back to the best
  /// upper bound (<= 0: unlimited).
  int64_t exact_max_expansions = 10'000;
  /// Beam width of the Beam fallback (<= 0 skips Beam entirely; index
  /// construction uses that for cheap distances).
  int beam_width = 4;
  /// If true, skip the exact attempt entirely (pure approximate mode, used
  /// when distances are evaluated millions of times).
  bool approximate_only = false;
  /// Skip the exact attempt when the upper-bound/lower-bound gap exceeds
  /// this (such proofs rarely finish within the expansion cap, so the
  /// attempt would just burn it). < 0 always tries A*.
  double skip_exact_gap = 3.0;
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

/// \brief The second graph of one pair in a batch: the graph and its
/// prepared form (PrepareGraph of `graph`).
struct GedTarget {
  const Graph* graph;
  const PreparedGraph* prepared;
};

/// \brief The repository's single entry point for graph distances.
///
/// Implements the paper's ground-truth protocol (Sec. VII) under an
/// expansion cap: try exact A* when GedOptions lets it; otherwise, or when
/// the cap is hit, take the best (smallest) of the VJ, Hungarian, and Beam
/// upper bounds. The approximations are first run anyway because their
/// best value seeds the exact search's upper-bound pruning.
///
/// The unit of work is a batch: one first graph against a span of second
/// graphs. The upper-bound tiers are independent pure functions of their
/// two graphs, so every (pair, tier) item of a batch runs in one flat
/// ParallelFor on the pool, longest tier first: every pair's Hungarian,
/// then every pair's Beam, then every pair's VJ. Each pair's combination,
/// its lower-bound gate and its A* attempt run on the calling thread, in
/// span order. A single-pair Compute is the one-pair batch.
class GedComputer {
 public:
  explicit GedComputer(GedOptions options = {}) : options_(options) {}

  /// Full protocol for d(g1, targets[i]) into out[i] (`out` as long as
  /// `targets`); never fails. `p1` = PrepareGraph of `g1`; the Hungarian
  /// tier and the lower bounds read the prepared forms. With a `pool` the
  /// tiers of all pairs fan out on it in one ParallelFor; the values are the
  /// same bits either way, and the same as one Compute per pair.
  void ComputeBatch(const Graph& g1, const PreparedGraph& p1,
                    std::span<const GedTarget> targets, ThreadPool* pool,
                    std::span<GedValue> out) const;

  /// The one-pair batch. Prepares both graphs on the fly.
  GedValue Compute(const Graph& g1, const Graph& g2,
                   ThreadPool* pool = nullptr) const;

  /// The one-pair batch on graphs prepared ahead of time (`p1` =
  /// PrepareGraph of `g1`, `p2` of `g2`).
  GedValue Compute(const Graph& g1, const PreparedGraph& p1, const Graph& g2,
                   const PreparedGraph& p2, ThreadPool* pool = nullptr) const;

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
