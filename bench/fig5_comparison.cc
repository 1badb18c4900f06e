// Reproduces Fig. 5: LAN vs HNSW vs L2route, QPS as a function of
// recall@k, per dataset. Each method sweeps its beam (b for the PG
// routers, ef for L2route); the paper reports LAN 3.6x-18.6x faster at
// recall 0.95 — at bench scale check that LAN dominates HNSW which
// dominates L2route in the high-recall region, and that LAN's NDC is a
// fraction of HNSW's. Every row prints the threads behind its QPS: LAN
// and HNSW fan each query's GED tiers and model chunks out on the index's
// pool, L2route runs on the calling thread alone.

#include <cstdio>

#include "bench_env.h"

namespace lan {
namespace bench {
namespace {

int Main() {
  for (DatasetKind kind : BenchDatasets()) {
    std::unique_ptr<BenchEnv> env = MakeBenchEnv(kind, /*with_l2route=*/true);
    PrintFigureHeader("Fig. 5: comparison with existing k-ANN methods",
                      *env);
    PrintCurveHeader(env->k);

    MethodCurve lan_curve = SweepIndex(
        *env->index, RoutingMethod::kLanRoute, InitMethod::kLanIs,
        env->test_queries, env->truths, env->k, BenchBeams(), "LAN");
    PrintCurve(lan_curve, env->k);

    MethodCurve hnsw_curve = SweepIndex(
        *env->index, RoutingMethod::kBaselineRoute, InitMethod::kHnswIs,
        env->test_queries, env->truths, env->k, BenchBeams(), "HNSW");
    PrintCurve(hnsw_curve, env->k);

    // L2route needs much wider beams to reach the same recall.
    std::vector<int> efs;
    for (int b : BenchBeams()) efs.push_back(b * 4);
    MethodCurve l2_curve =
        SweepL2Route(*env->l2route, env->db, env->query_ged,
                     env->test_queries, env->truths, env->k, efs);
    PrintCurve(l2_curve, env->k);
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace lan

int main() { return lan::bench::Main(); }
