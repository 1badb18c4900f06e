#include "bench_env.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "common/timer.h"

namespace lan {
namespace bench {

int64_t BaseDbSize(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::kAidsLike:
      return 300;
    case DatasetKind::kLinuxLike:
      return 250;
    case DatasetKind::kPubchemLike:
      return 200;
    case DatasetKind::kSynLike:
      return 500;
  }
  return 300;
}

double BenchScale() {
  const char* s = std::getenv("LAN_BENCH_SCALE");
  if (s == nullptr) return 1.0;
  const double v = std::atof(s);
  return std::clamp(v, 0.05, 100.0);
}

int BenchK() {
  const char* s = std::getenv("LAN_BENCH_K");
  if (s == nullptr) return 10;
  return std::max(1, std::atoi(s));
}

std::vector<int> BenchBeams() { return {4, 8, 16, 32, 64}; }

GedOptions BenchQueryGed() {
  GedOptions o;
  // Every distance evaluation pays an exact-GED attempt (as in the paper,
  // where a 20-ANN query costs ~40 s): this keeps distance computation the
  // dominant query cost, the regime LAN is designed for.
  o.skip_exact_gap = -1.0;
  o.exact_max_expansions = 2000;
  o.beam_width = 4;
  return o;
}

std::vector<DatasetKind> BenchDatasets() {
  if (std::getenv("LAN_BENCH_ALL") != nullptr) {
    return {DatasetKind::kAidsLike, DatasetKind::kLinuxLike,
            DatasetKind::kPubchemLike, DatasetKind::kSynLike};
  }
  return {DatasetKind::kAidsLike};
}

std::unique_ptr<BenchEnv> MakeBenchEnv(DatasetKind kind, bool with_l2route,
                                       bool use_compressed_gnn) {
  const double scale = BenchScale();
  auto env = std::make_unique<BenchEnv>();
  env->k = BenchK();

  const int64_t db_size =
      std::max<int64_t>(50, static_cast<int64_t>(BaseDbSize(kind) * scale));
  switch (kind) {
    case DatasetKind::kAidsLike:
      env->spec = DatasetSpec::AidsLike(db_size);
      break;
    case DatasetKind::kLinuxLike:
      env->spec = DatasetSpec::LinuxLike(db_size);
      break;
    case DatasetKind::kPubchemLike:
      env->spec = DatasetSpec::PubchemLike(db_size);
      break;
    case DatasetKind::kSynLike:
      env->spec = DatasetSpec::SynLike(db_size);
      break;
  }
  std::fprintf(stderr, "[bench] generating %s (%lld graphs, scale %.2f)\n",
               env->name(), static_cast<long long>(db_size), scale);
  env->db = GenerateDatabase(env->spec, /*seed=*/1234 + static_cast<int>(kind));

  WorkloadOptions wopts;
  wopts.num_queries =
      std::max<int64_t>(18, static_cast<int64_t>(30 * scale));
  env->workload = SampleWorkload(env->db, wopts, /*seed=*/77);
  const size_t num_test =
      std::max<size_t>(6, static_cast<size_t>(8 * scale));
  env->test_queries.assign(
      env->workload.test.begin(),
      env->workload.test.begin() +
          std::min(num_test, env->workload.test.size()));

  env->query_ged = GedComputer(BenchQueryGed());

  LanConfig config;
  config.hnsw.M = 8;
  config.hnsw.ef_construction = 24;
  config.query_ged = BenchQueryGed();
  config.scorer.gnn_dims = {16, 16};
  config.scorer.mlp_hidden = 32;
  config.rank.epochs = 8;
  config.nh.epochs = 6;
  config.cluster.epochs = 40;
  config.max_rank_examples = 2500;
  config.max_nh_examples = 1500;
  config.neighborhood_knn = std::max(20, 2 * env->k);
  config.embedding.dim = 32;
  config.default_beam = 16;
  config.use_compressed_gnn = use_compressed_gnn;
  config.seed = 999;

  Timer timer;
  env->index = std::make_unique<LanIndex>(config);
  LAN_CHECK_OK(env->index->Build(&env->db));
  std::fprintf(stderr, "[bench] %s: index built in %.1fs\n", env->name(),
               timer.ElapsedSeconds());
  timer.Restart();
  LAN_CHECK_OK(env->index->Train(env->workload.train));
  std::fprintf(stderr, "[bench] %s: models trained in %.1fs\n", env->name(),
               timer.ElapsedSeconds());

  timer.Restart();
  ThreadPool pool(DefaultThreadCount());
  env->truths = BuildTruths(env->db, env->test_queries, env->k,
                            env->query_ged, &pool);
  std::fprintf(stderr, "[bench] %s: ground truth for %zu queries in %.1fs\n",
               env->name(), env->test_queries.size(), timer.ElapsedSeconds());

  if (with_l2route) {
    L2RouteOptions l2opts;
    l2opts.embedding.dim = 32;
    l2opts.embedding.num_labels = env->db.num_labels();
    l2opts.hnsw.M = 8;
    l2opts.hnsw.ef_construction = 24;
    env->l2route = std::make_unique<L2RouteIndex>(
        L2RouteIndex::Build(env->db, l2opts, &pool));
  }
  return env;
}

void PrintFigureHeader(const std::string& title, const BenchEnv& env) {
  std::printf("\n=== %s — dataset %s (%d graphs, k=%d, scale %.2f) ===\n",
              title.c_str(), env.name(), env.db.size(), env.k, BenchScale());
}

}  // namespace bench
}  // namespace lan
