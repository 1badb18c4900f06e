#include "lan/evaluation.h"

#include <cstdio>

#include "common/logging.h"
#include "common/stats.h"
#include "common/timer.h"

namespace lan {

std::vector<KnnList> BuildTruths(const GraphDatabase& db,
                                 const std::vector<Graph>& queries, int k,
                                 const GedComputer& ged, ThreadPool* pool) {
  std::vector<KnnList> truths;
  truths.reserve(queries.size());
  for (const Graph& q : queries) {
    truths.push_back(ComputeGroundTruth(db, q, k, ged, pool));
  }
  return truths;
}

SweepPoint EvaluatePoint(
    const std::function<SearchResult(const Graph&, int)>& search,
    const std::vector<Graph>& queries, const std::vector<KnnList>& truths,
    int k, MetricsRegistry* registry) {
  LAN_CHECK_EQ(queries.size(), truths.size());
  LAN_CHECK(!queries.empty());
  const QueryHistograms query_hists(registry);
  SweepPoint point;
  double recall_sum = 0.0;
  std::vector<double> latencies;
  latencies.reserve(queries.size());
  Timer timer;
  for (size_t i = 0; i < queries.size(); ++i) {
    Timer query_timer;
    SearchResult result = search(queries[i], k);
    LAN_CHECK(result.status.ok()) << result.status.ToString();
    latencies.push_back(query_timer.ElapsedSeconds());
    recall_sum += RecallAtK(result.results, truths[i], k);
    point.total_stats.Merge(result.stats);
    query_hists.Observe(result, latencies.back());
  }
  const double elapsed = timer.ElapsedSeconds();
  const double n = static_cast<double>(queries.size());
  point.recall = recall_sum / n;
  point.qps = elapsed > 0.0 ? n / elapsed : 0.0;
  point.avg_ndc = static_cast<double>(point.total_stats.ndc) / n;
  point.avg_steps = static_cast<double>(point.total_stats.routing_steps) / n;
  point.avg_inferences =
      static_cast<double>(point.total_stats.model_inferences) / n;
  point.p50_seconds = Percentile(latencies, 50);
  point.p95_seconds = Percentile(latencies, 95);
  return point;
}

MethodCurve SweepIndex(const LanIndex& index, RoutingMethod routing,
                       InitMethod init, const std::vector<Graph>& queries,
                       const std::vector<KnnList>& truths, int k,
                       const std::vector<int>& beams, std::string label,
                       MetricsRegistry* registry) {
  MethodCurve curve;
  curve.method = std::move(label);
  curve.threads = index.num_threads();
  for (int beam : beams) {
    SearchOptions options;
    options.k = k;
    options.beam = beam;
    options.routing = routing;
    options.init = init;
    SweepPoint point = EvaluatePoint(
        [&](const Graph& q, int kk) {
          SearchOptions per_query = options;
          per_query.k = kk;
          return index.Search(q, per_query);
        },
        queries, truths, k, registry);
    point.beam = beam;
    curve.points.push_back(point);
  }
  return curve;
}

MethodCurve SweepL2Route(const L2RouteIndex& l2, const GraphDatabase& db,
                         const GedComputer& ged,
                         const std::vector<Graph>& queries,
                         const std::vector<KnnList>& truths, int k,
                         const std::vector<int>& efs) {
  MethodCurve curve;
  curve.method = "L2route";
  for (int ef : efs) {
    SweepPoint point = EvaluatePoint(
        [&](const Graph& q, int kk) {
          SearchResult result;
          DistanceOracle oracle(&db, &q, &ged, &result.stats);
          result.results = l2.Search(&oracle, ef, kk).results;
          return result;
        },
        queries, truths, k);
    point.beam = ef;
    curve.points.push_back(point);
  }
  return curve;
}

void PrintCurveHeader(int k) {
  std::printf("%-28s %6s %10s %10s %8s %10s %10s %10s\n", "method", "beam",
              "recall@k", "QPS", "threads", "NDC", "steps", "inference");
  (void)k;
}

void PrintCurve(const MethodCurve& curve, int k) {
  for (const SweepPoint& p : curve.points) {
    std::printf("%-28s %6d %10.4f %10.3f %8zu %10.1f %10.1f %10.1f\n",
                curve.method.c_str(), p.beam, p.recall, p.qps, curve.threads,
                p.avg_ndc, p.avg_steps, p.avg_inferences);
  }
  (void)k;
}

}  // namespace lan
