// Microbenchmark for the batched query-time inference path: per-pair
// (the taped training forward) vs batched (stacked-GEMM) forwards on a
// 32-neighbor candidate set, for M_rk (CG and raw; the batched arm takes
// the routing node's cached context row, the taped one encodes its graph),
// M_nh, and M_c. Reports pairs/sec and an effective GFLOP/s estimate from the
// dominant GEMM terms, one JSON line per configuration, and mirrors the
// lines into BENCH_model_inference.json in the working directory. Two more
// lines time M_rk at the dims the index serves with (GNN {16,16}, hidden
// 64, 4 heads) on AIDS-like and SYN-like CGs, on one thread: microseconds
// per cross row (InferCross, chunks as shipped) and per head row
// (InferHeads with a context row).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/timer.h"
#include "gnn/compressed_gnn_graph.h"
#include "graph/graph_generator.h"
#include "lan/cluster_model.h"
#include "lan/neighborhood_model.h"
#include "lan/pair_scorer.h"
#include "nn/autograd.h"

namespace lan {
namespace bench {
namespace {

constexpr int kNumNeighbors = 32;
constexpr int kGnnLayers = 2;

/// Best mean seconds per call over three repetitions, each repeating the
/// call until >= 0.2s of wall time (at least 5 iterations). Best-of-N
/// filters scheduler noise on busy machines. LAN_BENCH_SMOKE=1 shrinks
/// the windows (used by `ctest -L perf-smoke`).
double TimePerCall(const std::function<void()>& fn) {
  const char* smoke_env = std::getenv("LAN_BENCH_SMOKE");
  const bool smoke = smoke_env != nullptr && smoke_env[0] != '\0' &&
                     std::string(smoke_env) != "0";
  const double window = smoke ? 0.005 : 0.2;
  const int reps = smoke ? 1 : 3;
  fn();  // warmup
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    int iters = 0;
    Timer timer;
    do {
      fn();
      ++iters;
    } while (timer.ElapsedSeconds() < window || iters < 5);
    const double per_call = timer.ElapsedSeconds() / iters;
    if (rep == 0 || per_call < best) best = per_call;
  }
  return best;
}

/// Dominant-GEMM FLOP estimate for scoring one (G, Q) pair through the
/// cross-graph encoder plus the binary heads. `ng`/`nq` are the row
/// counts fed to each layer (group counts for CG, node counts for raw).
double PairFlops(const std::vector<int32_t>& ng, const std::vector<int32_t>& nq,
                 int32_t num_labels, const PairScorer& scorer) {
  const PairScorerOptions& options = scorer.options();
  double flops = 0.0;
  int32_t d_in = num_labels;
  for (size_t l = 0; l < options.gnn_dims.size(); ++l) {
    const double rows = ng[l] + nq[l];
    const int32_t d_out = options.gnn_dims[l];
    flops += 2.0 * rows * d_in;                          // attention scores
    flops += 4.0 * ng[l] * nq[l] * d_in;                 // messages (both sides)
    flops += 2.0 * rows * d_in * d_out;                  // layer projection
    d_in = d_out;
  }
  double feature_dim = options.gnn_dims.back();
  if (scorer.has_context()) feature_dim *= 2.0;
  flops += 2.0 * scorer.num_heads() *
           (feature_dim * options.mlp_hidden + options.mlp_hidden);  // heads
  return flops;
}

void Report(FILE* json, const char* model, const char* variant, int pairs,
            double per_pair_sec, double batched_sec, double flops_per_pair) {
  const double per_pair_rate = pairs / per_pair_sec;
  const double batched_rate = pairs / batched_sec;
  const double gflops = flops_per_pair * batched_rate / 1e9;
  char line[512];
  std::snprintf(
      line, sizeof(line),
      "{\"bench\":\"model_inference\",\"model\":\"%s\",\"variant\":\"%s\","
      "\"pairs\":%d,\"per_pair_pairs_per_sec\":%.1f,"
      "\"batched_pairs_per_sec\":%.1f,\"speedup\":%.2f,"
      "\"batched_gflops\":%.3f}",
      model, variant, pairs, per_pair_rate, batched_rate,
      batched_rate / per_pair_rate, gflops);
  std::printf("%s\n", line);
  if (json != nullptr) std::fprintf(json, "%s\n", line);
}

/// M_rk at the serving dims on `kNumNeighbors` CGs of `spec`: one thread,
/// InferCross in its shipped chunks, then InferHeads with a context row.
void ReportServingDims(FILE* json, const char* variant,
                       const DatasetSpec& spec) {
  GraphDatabase db = GenerateDatabase(spec, 53);
  std::vector<CompressedGnnGraph> cgs;
  for (GraphId id = 0; id < db.size(); ++id) {
    cgs.push_back(BuildCompressedGnnGraph(db.Get(id), kGnnLayers));
  }
  std::vector<const CompressedGnnGraph*> cand_cgs;
  for (GraphId id = 0; id < kNumNeighbors; ++id) {
    cand_cgs.push_back(&cgs[static_cast<size_t>(id)]);
  }
  PairScorerOptions options;
  options.gnn_dims = {16, 16};
  options.mlp_hidden = 64;
  PairScorer scorer(db.num_labels(), options, /*num_heads=*/4,
                    /*context=*/true);
  const Matrix context_row = scorer.ContextEmbedding(cgs[kNumNeighbors]);
  const std::span<const float> context_span(
      context_row.data(), static_cast<size_t>(context_row.cols()));
  const QueryEncodingCache cache =
      scorer.EncodeQuery(cgs[static_cast<size_t>(db.size()) - 1]);
  Matrix cross;
  std::vector<float> probs;
  const double cross_sec =
      TimePerCall([&] { scorer.InferCross(cand_cgs, cache, &cross); });
  const double head_sec =
      TimePerCall([&] { scorer.InferHeads(cross, context_span, &probs); });
  char line[512];
  std::snprintf(line, sizeof(line),
                "{\"bench\":\"model_inference\",\"model\":\"M_rk\","
                "\"variant\":\"%s\",\"pairs\":%d,\"labels\":%d,"
                "\"cross_row_us\":%.2f,\"head_row_us\":%.3f}",
                variant, kNumNeighbors, db.num_labels(),
                1e6 * cross_sec / kNumNeighbors,
                1e6 * head_sec / kNumNeighbors);
  std::printf("%s\n", line);
  if (json != nullptr) std::fprintf(json, "%s\n", line);
}

int Main() {
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(kNumNeighbors + 2),
                                      51);
  std::vector<CompressedGnnGraph> cgs;
  for (GraphId id = 0; id < db.size(); ++id) {
    cgs.push_back(BuildCompressedGnnGraph(db.Get(id), kGnnLayers));
  }
  const Graph& query = db.Get(db.size() - 1);
  const CompressedGnnGraph query_cg =
      BuildCompressedGnnGraph(query, kGnnLayers);

  std::vector<const CompressedGnnGraph*> cand_cgs;
  std::vector<const Graph*> cand_graphs;
  for (GraphId id = 0; id < kNumNeighbors; ++id) {
    cand_cgs.push_back(&cgs[static_cast<size_t>(id)]);
    cand_graphs.push_back(&db.Get(id));
  }

  FILE* json = std::fopen("BENCH_model_inference.json", "w");

  // ---- M_rk: paper-scale dims (Sec. IV-C: 128-dim GNN layers; y = 20% ->
  // 100/y - 1 = 4 heads), cached routing-node context row (the hot path
  // inside LearnedNeighborRanker).
  {
    PairScorerOptions options;
    options.gnn_dims = {128, 128};
    options.mlp_hidden = 128;
    PairScorer scorer(db.num_labels(), options, /*num_heads=*/4,
                      /*context=*/true);
    const CompressedGnnGraph& context_cg = cgs[kNumNeighbors];
    const Matrix context_row = scorer.ContextEmbedding(context_cg);
    const std::span<const float> context_span(
        context_row.data(), static_cast<size_t>(context_row.cols()));

    // Per-level row counts averaged over the candidate set, for FLOPs.
    std::vector<int32_t> ng_cg(kGnnLayers, 0), nq_cg(kGnnLayers, 0);
    std::vector<int32_t> ng_raw(kGnnLayers, 0), nq_raw(kGnnLayers, 0);
    for (int l = 0; l < kGnnLayers; ++l) {
      for (const CompressedGnnGraph* cg : cand_cgs) {
        ng_cg[l] += cg->NumGroups(l);
      }
      ng_cg[l] /= kNumNeighbors;
      nq_cg[l] = query_cg.NumGroups(l);
      ng_raw[l] = db.Get(0).NumNodes();
      nq_raw[l] = query.NumNodes();
    }

    const QueryEncodingCache cg_cache = scorer.EncodeQuery(query_cg);
    const double per_pair_cg = TimePerCall([&] {
      for (const CompressedGnnGraph* g : cand_cgs) {
        Tape tape(/*inference_mode=*/true);
        scorer.ForwardCompressed(&tape, *g, query_cg, &context_cg);
      }
    });
    Matrix cross;
    std::vector<float> probs;
    const double batched_cg = TimePerCall([&] {
      scorer.InferCross(cand_cgs, cg_cache, &cross);
      scorer.InferHeads(cross, context_span, &probs);
    });
    Report(json, "M_rk", "cg", kNumNeighbors, per_pair_cg, batched_cg,
           PairFlops(ng_cg, nq_cg, db.num_labels(), scorer));

    const QueryEncodingCache raw_cache = scorer.EncodeQuery(query);
    const double per_pair_raw = TimePerCall([&] {
      const Graph& context = db.Get(kNumNeighbors);
      for (const Graph* g : cand_graphs) {
        Tape tape(/*inference_mode=*/true);
        scorer.ForwardRaw(&tape, *g, query, &context);
      }
    });
    const double batched_raw = TimePerCall([&] {
      scorer.InferCross(cand_graphs, raw_cache, &cross);
      scorer.InferHeads(cross, context_span, &probs);
    });
    Report(json, "M_rk", "raw", kNumNeighbors, per_pair_raw, batched_raw,
           PairFlops(ng_raw, nq_raw, db.num_labels(), scorer));
  }

  // ---- M_nh: single head, no context (the LAN_IS candidate scan), at
  // paper-scale dims. Expect a modest ratio here: with one head and no
  // context both paths are dominated by cross-encoder GEMMs of identical
  // shapes, so batching mostly saves tape bookkeeping, not FLOPs.
  {
    PairScorerOptions options;
    options.gnn_dims = {128, 128};
    options.mlp_hidden = 128;
    NeighborhoodModel model(db.num_labels(), options);
    const PairScorer& scorer = model.scorer();
    const QueryEncodingCache cache = scorer.EncodeQuery(query_cg);
    const double per_pair = TimePerCall([&] {
      for (const CompressedGnnGraph* g : cand_cgs) {
        Tape tape(/*inference_mode=*/true);
        scorer.ForwardCompressed(&tape, *g, query_cg, nullptr);
      }
    });
    Matrix cross;
    std::vector<float> probs;
    const double batched = TimePerCall([&] {
      scorer.InferCross(cand_cgs, cache, &cross);
      model.PredictProbs(cross, &probs);
    });
    std::vector<int32_t> ng(kGnnLayers, 0), nq(kGnnLayers, 0);
    for (int l = 0; l < kGnnLayers; ++l) {
      for (const CompressedGnnGraph* cg : cand_cgs) ng[l] += cg->NumGroups(l);
      ng[l] /= kNumNeighbors;
      nq[l] = query_cg.NumGroups(l);
    }
    Report(json, "M_nh", "cg", kNumNeighbors, per_pair, batched,
           PairFlops(ng, nq, db.num_labels(), scorer));
  }

  // ---- M_c: 64 clusters scored per query.
  {
    const int32_t kDim = 16;
    const int kClusters = 64;
    ClusterModelOptions options;
    ClusterModel model(2 * kDim, options);
    Rng rng(7);
    std::vector<float> query_embedding(kDim);
    for (float& x : query_embedding) x = rng.NextFloat(-1.0f, 1.0f);
    EmbeddingMatrix centroids(kClusters, kDim);
    for (int c = 0; c < kClusters; ++c) {
      float* row = centroids.MutableRow(c);
      for (int32_t j = 0; j < kDim; ++j) row[j] = rng.NextFloat(-1.0f, 1.0f);
    }
    const double per_pair = TimePerCall(
        [&] { model.PredictCountsReference(query_embedding, centroids); });
    const double batched =
        TimePerCall([&] { model.PredictCounts(query_embedding, centroids); });
    const double flops =
        2.0 * (2.0 * kDim * options.mlp_hidden + options.mlp_hidden);
    Report(json, "M_c", "mlp", kClusters, per_pair, batched, flops);
  }

  ReportServingDims(json, "serving_aids",
                    DatasetSpec::AidsLike(kNumNeighbors + 2));
  ReportServingDims(json, "serving_syn",
                    DatasetSpec::SynLike(kNumNeighbors + 2));

  if (json != nullptr) std::fclose(json);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace lan

int main() { return lan::bench::Main(); }
