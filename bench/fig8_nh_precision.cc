// Reproduces Fig. 8: accuracy (precision) of the initial-node prediction
// model M_nh on held-out test queries, plus the Lemma 2 arithmetic the
// paper derives from it: with precision p and s samples, the start node
// lands in N_Q with probability 1 - (1-p)^s.

#include <cmath>
#include <cstdio>

#include "bench_env.h"
#include "lan/ground_truth.h"
#include "lan/neighborhood_model.h"

namespace lan {
namespace bench {
namespace {

int Main() {
  std::printf("=== Fig. 8: accuracy of initial node prediction ===\n");
  std::printf("%-8s %10s %12s %14s\n", "dataset", "precision", "samples s",
              "P(hit N_Q)");
  for (DatasetKind kind : BenchDatasets()) {
    std::unique_ptr<BenchEnv> env = MakeBenchEnv(kind);

    // Label every (test query, db graph) pair by the trained gamma*.
    ThreadPool pool(DefaultThreadCount());
    std::vector<std::vector<double>> distances;
    for (const Graph& q : env->test_queries) {
      distances.push_back(
          ComputeAllDistances(env->db, q, env->query_ged, &pool));
    }
    const double gamma_star = env->index->gamma_star();
    std::vector<NeighborhoodExample> examples;
    for (size_t qi = 0; qi < distances.size(); ++qi) {
      for (size_t g = 0; g < distances[qi].size(); ++g) {
        NeighborhoodExample ex;
        ex.query_index = static_cast<int32_t>(qi);
        ex.graph = static_cast<GraphId>(g);
        ex.label = distances[qi][g] <= gamma_star ? 1.0f : 0.0f;
        examples.push_back(ex);
      }
    }
    std::vector<CompressedGnnGraph> query_cgs;
    for (const Graph& q : env->test_queries) {
      query_cgs.push_back(env->index->QueryCg(q).Get());
    }
    const int s = env->index->config().init.samples;
    for (float threshold : {0.5f, 0.6f, 0.7f}) {
      const double precision =
          env->index->neighborhood_model()->EvaluatePrecision(
              env->index->db_cgs(), query_cgs, examples, threshold);
      const double hit = 1.0 - std::pow(1.0 - precision, s);
      std::printf("%-8s %10.3f %12d %14.4f   (threshold %.1f)\n", env->name(),
                  precision, s, hit, threshold);
    }
  }
  std::printf("(paper: precision exceeds 0.7 on all datasets; "
              "1-(1-0.7)^4 > 0.99)\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace lan

int main() { return lan::bench::Main(); }
