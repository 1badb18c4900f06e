#ifndef LAN_LAN_EVALUATION_H_
#define LAN_LAN_EVALUATION_H_

#include <functional>
#include <string>
#include <vector>

#include "lan/ground_truth.h"
#include "lan/l2route.h"
#include "lan/lan_index.h"

namespace lan {

/// \brief One point of a QPS-vs-recall curve (Figs. 5-7).
struct SweepPoint {
  int beam = 0;          // beam size b / ef that produced this point
  double recall = 0.0;   // mean recall@k over the query set
  double qps = 0.0;      // queries per second
  double avg_ndc = 0.0;  // mean distance computations per query
  double avg_steps = 0.0;
  double avg_inferences = 0.0;
  double p50_seconds = 0.0;  // median per-query latency
  double p95_seconds = 0.0;
  SearchStats total_stats;  // summed over queries
};

/// \brief A labeled curve.
struct MethodCurve {
  std::string method;
  /// Threads each query of the curve ran on: the index's pool width for
  /// SweepIndex (QPS is per client thread, not per core), 1 for L2route.
  size_t threads = 1;
  std::vector<SweepPoint> points;
};

/// Ground truths for a query set (offline, exhaustive).
std::vector<KnnList> BuildTruths(const GraphDatabase& db,
                                 const std::vector<Graph>& queries, int k,
                                 const GedComputer& ged,
                                 ThreadPool* pool = nullptr);

/// Runs `search` over all queries and aggregates one sweep point. When
/// `registry` is non-null, every query is also recorded there (the
/// QueryHistograms set) so a bench can scrape one distribution snapshot
/// across its whole sweep.
SweepPoint EvaluatePoint(
    const std::function<SearchResult(const Graph&, int)>& search,
    const std::vector<Graph>& queries, const std::vector<KnnList>& truths,
    int k, MetricsRegistry* registry = nullptr);

/// QPS-vs-recall sweep of a LanIndex configuration over beam sizes.
MethodCurve SweepIndex(const LanIndex& index, RoutingMethod routing,
                       InitMethod init, const std::vector<Graph>& queries,
                       const std::vector<KnnList>& truths, int k,
                       const std::vector<int>& beams, std::string label,
                       MetricsRegistry* registry = nullptr);

/// QPS-vs-recall sweep of the L2route baseline over ef values.
MethodCurve SweepL2Route(const L2RouteIndex& l2, const GraphDatabase& db,
                         const GedComputer& ged,
                         const std::vector<Graph>& queries,
                         const std::vector<KnnList>& truths, int k,
                         const std::vector<int>& efs);

/// Prints a curve as aligned rows: method, beam, recall, QPS, the threads
/// behind that QPS, NDC, steps, inferences.
void PrintCurve(const MethodCurve& curve, int k);
void PrintCurveHeader(int k);

}  // namespace lan

#endif  // LAN_LAN_EVALUATION_H_
