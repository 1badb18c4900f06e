// Ablation walk-through of the Theorem 1 machinery: runs the same queries
// through (a) Algorithm 1, (b) np_route with the oracle ranker, and
// (c) np_route with the learned M_rk, printing per-query NDC side by side.
// Shows concretely that the oracle matches the baseline's answers at a
// fraction of the distance computations, and how close the learned ranker
// gets to that skyline.
//
//   ./oracle_ablation [db_size]

#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "graph/graph_generator.h"
#include "lan/ground_truth.h"
#include "lan/lan_index.h"
#include "lan/workload.h"

int main(int argc, char** argv) {
  const int64_t db_size = argc > 1 ? std::atoll(argv[1]) : 300;
  lan::GraphDatabase db =
      lan::GenerateDatabase(lan::DatasetSpec::AidsLike(db_size), 555);

  lan::LanConfig config;
  config.scorer.gnn_dims = {16, 16};
  config.rank.epochs = 4;
  config.nh.epochs = 4;
  config.max_rank_examples = 800;
  config.max_nh_examples = 800;
  lan::LanIndex index(config);
  LAN_CHECK_OK(index.Build(&db));
  lan::WorkloadOptions wopts;
  wopts.num_queries = 30;
  lan::QueryWorkload workload = lan::SampleWorkload(db, wopts, 66);
  LAN_CHECK_OK(index.Train(workload.train));

  lan::GedComputer ged(config.query_ged);
  constexpr int kK = 5;
  constexpr int kBeam = 16;
  std::printf("%-8s | %-22s | %-22s | %-22s\n", "query",
              "Algorithm 1 (baseline)", "np_route + oracle",
              "np_route + M_rk");
  std::printf("%-8s | %10s %11s | %10s %11s | %10s %11s\n", "", "NDC",
              "recall", "NDC", "recall", "NDC", "recall");

  lan::SearchStats totals[3];
  for (size_t qi = 0; qi < 6 && qi < workload.test.size(); ++qi) {
    const lan::Graph& query = workload.test[qi];
    lan::KnnList truth = lan::ComputeGroundTruth(db, query, kK, ged);

    const lan::RoutingMethod methods[3] = {
        lan::RoutingMethod::kBaselineRoute, lan::RoutingMethod::kOracleRoute,
        lan::RoutingMethod::kLanRoute};
    long long ndc[3];
    double recall[3];
    for (int m = 0; m < 3; ++m) {
      lan::SearchOptions options;
      options.k = kK;
      options.beam = kBeam;
      options.routing = methods[m];
      options.init = lan::InitMethod::kHnswIs;
      lan::SearchResult r = index.Search(query, options);
      ndc[m] = r.stats.ndc;
      recall[m] = lan::RecallAtK(r.results, truth, kK);
      totals[m].Merge(r.stats);
    }
    std::printf("%-8zu | %10lld %11.2f | %10lld %11.2f | %10lld %11.2f\n", qi,
                ndc[0], recall[0], ndc[1], recall[1], ndc[2], recall[2]);
  }
  std::printf("\ntotal NDC: baseline %lld, oracle %lld (%.0f%% saved), "
              "learned %lld (%.0f%% saved)\n",
              static_cast<long long>(totals[0].ndc),
              static_cast<long long>(totals[1].ndc),
              100.0 * (1.0 - static_cast<double>(totals[1].ndc) /
                                 static_cast<double>(totals[0].ndc)),
              static_cast<long long>(totals[2].ndc),
              100.0 * (1.0 - static_cast<double>(totals[2].ndc) /
                                 static_cast<double>(totals[0].ndc)));
  return 0;
}
