// Quickstart: build a LAN index over a small synthetic graph database,
// train the learned components, and run a k-ANN query — the minimal
// end-to-end use of the public API.
//
//   ./quickstart

#include <cstdio>

#include "graph/graph_generator.h"
#include "lan/ground_truth.h"
#include "lan/lan_index.h"
#include "lan/workload.h"

int main() {
  // 1) A graph database. Real users would load their own graphs with
  //    lan::ReadDatabaseFromFile; here we generate a molecule-like one.
  lan::DatasetSpec spec = lan::DatasetSpec::AidsLike(/*num_graphs=*/300);
  lan::GraphDatabase db = lan::GenerateDatabase(spec, /*seed=*/7);
  std::printf("database: %d graphs, avg |V| %.1f, avg |E| %.1f\n", db.size(),
              db.AverageNodes(), db.AverageEdges());

  // 2) Configure and build the index (offline).
  lan::LanConfig config;
  config.scorer.gnn_dims = {16, 16};  // 2-layer cross-graph GNN
  config.rank.epochs = 4;             // tiny training run for the demo
  config.nh.epochs = 4;
  config.max_rank_examples = 800;
  config.max_nh_examples = 800;
  lan::LanIndex index(config);
  if (lan::Status s = index.Build(&db); !s.ok()) {
    std::printf("Build failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // 3) Train M_rk / M_nh / M_c from a query workload (offline).
  lan::WorkloadOptions wopts;
  wopts.num_queries = 30;
  lan::QueryWorkload workload = lan::SampleWorkload(db, wopts, /*seed=*/9);
  if (lan::Status s = index.Train(workload.train); !s.ok()) {
    std::printf("Train failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // 4) Answer a k-ANN query. SearchOptions holds every per-query knob;
  //    attaching a QueryTrace records what the search actually did.
  const lan::Graph& query = workload.test.front();
  lan::QueryTrace trace;
  lan::SearchOptions search_options;
  search_options.k = 5;
  search_options.trace = &trace;
  const int kK = search_options.k;
  lan::SearchResult result = index.Search(query, search_options);
  if (!result.status.ok()) {
    std::printf("Search failed: %s\n", result.status.ToString().c_str());
    return 1;
  }
  std::printf("\nquery: %s\n", query.ToString().c_str());
  std::printf("top-%d approximate nearest neighbors (GED):\n", kK);
  for (const auto& [id, distance] : result.results) {
    std::printf("  graph %-5d distance %.0f\n", id, distance);
  }
  std::printf("stats: %lld GED computations (database scan would be %d), "
              "%lld routing steps, %lld model inferences\n",
              static_cast<long long>(result.stats.ndc), db.size(),
              static_cast<long long>(result.stats.routing_steps),
              static_cast<long long>(result.stats.model_inferences));
  std::printf(
      "trace: %zu events (%lld cluster prunes, %lld route steps, "
      "%lld distance computations)\n",
      trace.events().size(),
      static_cast<long long>(trace.CountOf(lan::TraceEventType::kClusterPrune)),
      static_cast<long long>(trace.CountOf(lan::TraceEventType::kRouteStep)),
      static_cast<long long>(trace.CountOf(lan::TraceEventType::kDistance)));

  // 5) Compare against the exact answer.
  lan::GedComputer ged(config.query_ged);
  lan::KnnList truth = lan::ComputeGroundTruth(db, query, kK, ged);
  std::printf("recall@%d vs exhaustive scan: %.2f\n", kK,
              lan::RecallAtK(result.results, truth, kK));
  return 0;
}
