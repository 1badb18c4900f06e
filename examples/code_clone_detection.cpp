// Software-engineering scenario from the paper's introduction: model the
// control flow of code fragments as graphs and use k-ANN search to flag
// potential plagiarism/clones. A "plagiarized" fragment is a database CFG
// with a few cosmetic edits (renamed ops, an inserted block) — the query
// should retrieve its source as the nearest neighbor.
//
//   ./code_clone_detection [db_size]

#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "common/random.h"
#include "graph/graph_generator.h"
#include "lan/ground_truth.h"
#include "lan/lan_index.h"
#include "lan/workload.h"

int main(int argc, char** argv) {
  const int64_t db_size = argc > 1 ? std::atoll(argv[1]) : 400;

  // A corpus of control-flow graphs.
  lan::DatasetSpec spec = lan::DatasetSpec::LinuxLike(db_size);
  lan::GraphDatabase db = lan::GenerateDatabase(spec, 4242);
  std::printf("CFG corpus: %d functions, avg %.0f basic blocks\n", db.size(),
              db.AverageNodes());

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
  LAN_CHECK_OK(index.Train(lan::SampleWorkload(db, wopts, 11).train));

  // Simulate plagiarism: take functions from the corpus and apply light
  // obfuscation (relabel ops, insert/delete blocks and jumps).
  lan::Rng rng(99);
  int detected = 0;
  constexpr int kCases = 6;
  constexpr int kK = 5;
  std::printf("\nscreening %d suspicious fragments (top-%d retrieval):\n",
              kCases, kK);
  for (int c = 0; c < kCases; ++c) {
    const lan::GraphId source = static_cast<lan::GraphId>(
        rng.NextBounded(static_cast<uint64_t>(db.size())));
    const int edits = 1 + static_cast<int>(rng.NextBounded(4));
    lan::Graph suspicious =
        lan::PerturbGraph(db.Get(source), edits, db.num_labels(), &rng);

    lan::SearchOptions options;
    options.k = kK;
    options.beam = 32;  // generous beam: recall matters more than NDC here
    lan::SearchResult result = index.Search(suspicious, options);
    bool hit = false;
    for (const auto& [id, distance] : result.results) {
      if (id == source) hit = true;
    }
    detected += hit;
    std::printf("  fragment %d (source #%d, %d edits): %s; nearest #%d at "
                "%.0f edits, NDC %lld\n",
                c, source, edits, hit ? "MATCH FOUND" : "missed",
                result.results.empty() ? -1 : result.results[0].first,
                result.results.empty() ? -1.0 : result.results[0].second,
                static_cast<long long>(result.stats.ndc));
  }
  std::printf("\ndetected %d/%d planted clones without scanning the corpus "
              "(%d GED evals each would be needed for a scan)\n",
              detected, kCases, db.size());
  return detected > 0 ? 0 : 1;
}
