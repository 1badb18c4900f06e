// Cheminformatics scenario (the paper's motivating application): given a
// database of molecule graphs and a query molecule, find structurally
// similar compounds — molecules with similar graph structure have similar
// function. Demonstrates:
//   * persisting / reloading a database (graph_io),
//   * k-ANN search vs the exact scan (time and NDC),
//   * interpreting GED as an edit count between molecules.
//
//   ./molecule_similarity [db_size]

#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "common/timer.h"
#include "graph/graph_generator.h"
#include "graph/graph_io.h"
#include "lan/ground_truth.h"
#include "lan/lan_index.h"
#include "lan/workload.h"

namespace {

/// Renders a molecule-ish summary: heavy-atom count, bonds, top labels.
void DescribeMolecule(const lan::Graph& g) {
  auto hist = g.LabelHistogram();
  lan::Label top_label = 0;
  int32_t top_count = 0;
  for (const auto& [label, count] : hist) {
    if (count > top_count) {
      top_count = count;
      top_label = label;
    }
  }
  std::printf("%d atoms, %lld bonds, %zu element types, dominant element #%d "
              "(x%d)",
              g.NumNodes(), static_cast<long long>(g.NumEdges()), hist.size(),
              top_label, top_count);
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t db_size = argc > 1 ? std::atoll(argv[1]) : 400;

  // Generate a PubChem-like compound library, round-trip it through the
  // text format (as a user loading their own data would), then index it.
  lan::GraphDatabase generated =
      lan::GenerateDatabase(lan::DatasetSpec::PubchemLike(db_size), 2024);
  const std::string path = "/tmp/lan_molecules.gdb";
  if (lan::Status s = lan::WriteDatabaseToFile(generated, path); !s.ok()) {
    std::printf("write failed: %s\n", s.ToString().c_str());
    return 1;
  }
  lan::Result<lan::GraphDatabase> loaded = lan::ReadDatabaseFromFile(path);
  if (!loaded.ok()) {
    std::printf("load failed: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  lan::GraphDatabase db = std::move(loaded).value();
  std::printf("compound library: %d molecules (reloaded from %s)\n", db.size(),
              path.c_str());

  lan::LanConfig config;
  config.scorer.gnn_dims = {16, 16};
  config.rank.epochs = 4;
  config.nh.epochs = 4;
  config.max_rank_examples = 1000;
  config.max_nh_examples = 1000;
  lan::LanIndex index(config);
  LAN_CHECK_OK(index.Build(&db));

  lan::WorkloadOptions wopts;
  wopts.num_queries = 30;
  lan::QueryWorkload workload = lan::SampleWorkload(db, wopts, 31);
  LAN_CHECK_OK(index.Train(workload.train));

  // Screen one query molecule.
  const lan::Graph& query = workload.test.front();
  std::printf("\nquery molecule: ");
  DescribeMolecule(query);
  std::printf("\n\n");

  constexpr int kK = 8;
  lan::SearchOptions search_options;
  search_options.k = kK;
  lan::Timer ann_timer;
  lan::SearchResult result = index.Search(query, search_options);
  const double ann_seconds = ann_timer.ElapsedSeconds();

  lan::GedComputer ged(config.query_ged);
  lan::Timer scan_timer;
  lan::KnnList truth = lan::ComputeGroundTruth(db, query, kK, ged);
  const double scan_seconds = scan_timer.ElapsedSeconds();

  std::printf("similar compounds (approximate, %lld GED evals, %.3fs):\n",
              static_cast<long long>(result.stats.ndc), ann_seconds);
  for (const auto& [id, distance] : result.results) {
    std::printf("  #%-5d %3.0f edits away: ", id, distance);
    DescribeMolecule(db.Get(id));
    std::printf("\n");
  }
  std::printf("\nexhaustive scan (%d GED evals, %.3fs) recall@%d = %.2f\n",
              db.size(), scan_seconds, kK,
              lan::RecallAtK(result.results, truth, kK));
  std::printf("speedup vs scan: %.1fx wall, %.1fx fewer distance "
              "computations\n",
              scan_seconds / ann_seconds,
              static_cast<double>(db.size()) /
                  static_cast<double>(result.stats.ndc));
  return 0;
}
