// Reproduces Fig. 11: breakdown of k-ANN search time into GED distance
// computation, cross-graph learning (model inference), and everything
// else, before the CG acceleration is applied. The paper reports
// cross-graph learning at ~20-29% of query time.
//
// The split is read from the per-query stage profile: GED is the kGed
// stage, learning is kModelInference plus kRerank (M_rk's batch assembly),
// and other is the rest of the measured query latency. Queries run one at
// a time, so each latency is undisturbed; inside a query the GED tiers and
// the cross-encoding chunks fan out on the index's pool, whose width is
// printed with each row (the paper's split is per thread: width 1).

#include <algorithm>
#include <cstdio>

#include "bench_env.h"
#include "common/timer.h"

namespace lan {
namespace bench {
namespace {

int Main() {
  std::printf("=== Fig. 11: breakdown of k-ANN search time (no CG) ===\n");
  std::printf("%-8s %12s %12s %12s %12s %8s\n", "dataset", "GED %",
              "learning %", "other %", "sec/query", "threads");
  for (DatasetKind kind : BenchDatasets()) {
    std::unique_ptr<BenchEnv> env = MakeBenchEnv(
        kind, /*with_l2route=*/false, /*use_compressed_gnn=*/false);
    SearchOptions options;
    options.k = env->k;
    options.beam = 16;
    options.profile = true;
    MetricsRegistry registry;
    const QueryHistograms histograms(&registry);
    SearchStats totals;
    for (const Graph& query : env->test_queries) {
      Timer timer;
      const SearchResult result = env->index->Search(query, options);
      histograms.Observe(result, timer.ElapsedSeconds());
      totals.Merge(result.stats);
    }
    const MetricsSnapshot metrics = registry.Snapshot();
    const StageBreakdown& stages = totals.stages;
    const HistogramSnapshot* latency =
        metrics.FindHistogram("query_latency_seconds");
    const double ged = stages.SecondsOf(Stage::kGed);
    const double learning = stages.SecondsOf(Stage::kModelInference) +
                            stages.SecondsOf(Stage::kRerank);
    // Stage spans lie inside the timed query, so the latency sum bounds
    // them; the max only guards against clock rounding.
    const double all = std::max(latency != nullptr ? latency->sum : 0.0,
                                ged + learning);
    const double other = all - ged - learning;
    const double pct = all > 0.0 ? 100.0 / all : 0.0;
    std::printf("%-8s %11.1f%% %11.1f%% %11.1f%% %12.4f %8zu\n", env->name(),
                ged * pct, learning * pct, other * pct,
                all / static_cast<double>(env->test_queries.size()),
                env->index->num_threads());
    std::fprintf(stderr, "[bench] %s query metrics: %s\n", env->name(),
                 metrics.ToJson().c_str());
  }
  std::printf("(paper: cross-graph learning accounts for ~20-29%% of "
              "query time before acceleration)\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace lan

int main() { return lan::bench::Main(); }
