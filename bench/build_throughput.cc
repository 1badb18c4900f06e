// Microbench for index construction: build time vs. the width of the pool
// that computes each insertion step's missing distances (1/2/4/8), with
// recall checked against the 1-thread build. Insertion itself always runs
// in id order on one thread, so every row builds the same topology and
// the recall column reads +0.000.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_env.h"
#include "common/logging.h"
#include "common/timer.h"
#include "lan/ground_truth.h"

namespace lan {
namespace bench {
namespace {

/// Mean recall@k of one-by-one searches over the query set.
double MeasureRecall(const LanIndex& index, const std::vector<Graph>& queries,
                     const std::vector<KnnList>& truths, int k) {
  SearchOptions options;
  options.k = k;
  options.beam = 16;
  options.routing = RoutingMethod::kBaselineRoute;
  options.init = InitMethod::kHnswIs;
  double total = 0.0;
  for (size_t i = 0; i < queries.size(); ++i) {
    SearchResult result = index.Search(queries[i], options);
    LAN_CHECK(result.status.ok()) << result.status.ToString();
    total += RecallAtK(result.results, truths[i], k);
  }
  return total / static_cast<double>(queries.size());
}

int Main() {
  const double scale = BenchScale();
  const int64_t db_size =
      std::max<int64_t>(200, static_cast<int64_t>(400 * scale));
  const int k = 10;

  DatasetSpec spec = DatasetSpec::SynLike(db_size);
  GraphDatabase db = GenerateDatabase(spec, 2024);
  LanConfig base_config;
  base_config.hnsw.M = 8;
  base_config.hnsw.ef_construction = 24;
  base_config.query_ged = BenchQueryGed();
  base_config.scorer.gnn_dims = {16, 16};
  base_config.embedding.dim = 32;

  WorkloadOptions wopts;
  wopts.num_queries = 40;
  QueryWorkload workload = SampleWorkload(db, wopts, 2025);
  std::vector<Graph> queries = workload.train;

  std::fprintf(stderr, "[bench] computing ground truth over %lld graphs\n",
               static_cast<long long>(db_size));
  const GedComputer truth_ged(BenchQueryGed());
  ThreadPool truth_pool(DefaultThreadCount());
  std::vector<KnnList> truths;
  truths.reserve(queries.size());
  for (const Graph& query : queries) {
    truths.push_back(ComputeGroundTruth(db, query, k, truth_ged, &truth_pool));
  }

  std::printf("\n=== Build time vs. thread count ===\n");
  double serial_seconds = 0.0;
  double serial_recall = 0.0;
  const auto run = [&](const char* mode, int threads) {
    LanConfig config = base_config;
    config.num_threads = threads;
    LanIndex index(config);
    Timer timer;
    LAN_CHECK_OK(index.Build(&db));
    const double seconds = timer.ElapsedSeconds();
    const double recall = MeasureRecall(index, queries, truths, k);
    if (threads == 1) {
      serial_seconds = seconds;
      serial_recall = recall;
    }
    std::printf("threads=%d %-34s build %6.2fs, speedup %5.2fx, "
                "recall@%d %.3f (serial %+.3f)\n",
                threads, mode, seconds, serial_seconds / seconds, k, recall,
                recall - serial_recall);
  };
  run("serial", 1);
  for (const int threads : {2, 4, 8}) {
    run("pool distances", threads);
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace lan

int main() { return lan::bench::Main(); }
