// Tests for parallel index construction: the serial (num_build_threads=1)
// build stays bit-for-bit on the golden topology hashes, multi-threaded
// builds match serial recall within a point, and epoch publication (a
// fresh base CSR per epoch) stays clean under active readers (the
// ParallelBuildConcurrencyTest cases also run under the asan/tsan presets
// via `ctest -L concurrency`).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "graph/graph_generator.h"
#include "lan/ground_truth.h"
#include "lan/lan_index.h"
#include "pg/beam_search.h"
#include "pg/hnsw.h"

namespace lan {
namespace {

// ---------------------------------------------------------------------------
// Golden topology: the serial path must not drift
// ---------------------------------------------------------------------------

uint64_t Fnv(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t TopologyHash(const HnswIndex& index) {
  uint64_t h = 1469598103934665603ull;
  h = Fnv(h, static_cast<uint64_t>(index.EntryPoint()));
  h = Fnv(h, static_cast<uint64_t>(index.NumLayers()));
  const ProximityGraph& base = index.BaseLayer();
  h = Fnv(h, static_cast<uint64_t>(base.NumNodes()));
  for (GraphId id = 0; id < base.NumNodes(); ++id) {
    for (GraphId n : base.NeighborSpan(id)) {
      h = Fnv(h, static_cast<uint64_t>(n));
    }
    h = Fnv(h, 0xfffffffffULL);
  }
  return h;
}

std::vector<double> GoldenPoints() {
  Rng rng(123);
  std::vector<double> points;
  for (int i = 0; i < 120; ++i) points.push_back(rng.NextDouble() * 1000.0);
  return points;
}

// Same corpus and hashes as mutable_index_test's golden test: the
// parallel-build refactor must leave the default (serial) builder
// bit-for-bit identical, whether num_build_threads is defaulted or set
// to 1 explicitly.
TEST(ParallelBuildGoldenTest, SerialBuildKeepsGoldenHashes) {
  const std::vector<double> points = GoldenPoints();
  auto distance = [&points](GraphId a, GraphId b) {
    return std::abs(points[static_cast<size_t>(a)] -
                    points[static_cast<size_t>(b)]);
  };
  for (const int explicit_serial : {0, 1}) {
    HnswOptions options;
    options.M = 4;
    options.ef_construction = 16;
    if (explicit_serial) options.num_build_threads = 1;
    EXPECT_EQ(TopologyHash(HnswIndex::BuildWithDistance(120, distance,
                                                        options)),
              0x72fc0fd77f61d7c9ULL);
  }
}

// ---------------------------------------------------------------------------
// Multi-threaded build: structural sanity + recall parity
// ---------------------------------------------------------------------------

/// A 1000-item corpus of 8-d points under L2: large enough that the
/// parallel builder sees real contention, cheap enough for a unit test.
struct VectorCorpus {
  static constexpr int kDim = 8;
  std::vector<std::vector<double>> items;
  std::vector<std::vector<double>> queries;

  explicit VectorCorpus(GraphId n, int num_queries, uint64_t seed) {
    Rng rng(seed);
    const auto draw = [&rng] {
      std::vector<double> v(kDim);
      for (double& x : v) x = rng.NextDouble();
      return v;
    };
    for (GraphId i = 0; i < n; ++i) items.push_back(draw());
    for (int i = 0; i < num_queries; ++i) queries.push_back(draw());
  }

  static double L2(const std::vector<double>& a,
                   const std::vector<double>& b) {
    double sum = 0.0;
    for (int d = 0; d < kDim; ++d) sum += (a[d] - b[d]) * (a[d] - b[d]);
    return std::sqrt(sum);
  }

  HnswIndex::PairDistanceFn Distance() const {
    return [this](GraphId a, GraphId b) {
      return L2(items[static_cast<size_t>(a)], items[static_cast<size_t>(b)]);
    };
  }

  KnnList Truth(const std::vector<double>& query, int k) const {
    KnnList all;
    for (size_t i = 0; i < items.size(); ++i) {
      all.emplace_back(static_cast<GraphId>(i), L2(query, items[i]));
    }
    std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second < b.second;
      return a.first < b.first;
    });
    all.resize(static_cast<size_t>(k));
    return all;
  }
};

double MeanRecall(const HnswIndex& index, const VectorCorpus& corpus, int k,
                  int beam) {
  double total = 0.0;
  for (const auto& query : corpus.queries) {
    const auto qdist = [&corpus, &query](GraphId id) {
      return VectorCorpus::L2(query, corpus.items[static_cast<size_t>(id)]);
    };
    const GraphId init = index.SelectInitialNodeFn(qdist);
    const RoutingResult routed =
        BeamSearchRouteFn(index.BaseLayer(), qdist, init, beam, k);
    total += RecallAtK(routed.results, corpus.Truth(query, k), k);
  }
  return total / static_cast<double>(corpus.queries.size());
}

TEST(ParallelBuildRecallTest, FourThreadsWithinOnePointOfSerial) {
  const VectorCorpus corpus(1000, 60, 7);
  HnswOptions options;
  options.M = 8;
  options.ef_construction = 32;

  HnswIndex serial =
      HnswIndex::BuildWithDistance(1000, corpus.Distance(), options);
  options.num_build_threads = 4;
  HnswIndex parallel =
      HnswIndex::BuildWithDistance(1000, corpus.Distance(), options);

  // Structural sanity on the concurrently built graph: in-range,
  // self-loop-free, duplicate-free rows.
  const ProximityGraph& base = parallel.BaseLayer();
  ASSERT_EQ(base.NumNodes(), 1000);
  for (GraphId id = 0; id < base.NumNodes(); ++id) {
    const std::span<const GraphId> row = base.NeighborSpan(id);
    for (const GraphId n : row) {
      EXPECT_NE(n, id);
      EXPECT_GE(n, 0);
      EXPECT_LT(n, base.NumNodes());
    }
    std::vector<GraphId> sorted(row.begin(), row.end());
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end())
        << "duplicate neighbor at node " << id;
  }

  const int k = 10;
  const int beam = 24;
  const double serial_recall = MeanRecall(serial, corpus, k, beam);
  const double parallel_recall = MeanRecall(parallel, corpus, k, beam);
  EXPECT_GE(serial_recall, 0.9);  // the corpus is easy; both should be high
  // "Within 1 pt" is inclusive; the 1e-12 slack keeps a gap of exactly
  // 0.01 (e.g. 1.00 vs 0.99) from failing on float rounding of the bound.
  EXPECT_GE(parallel_recall, serial_recall - 0.01 - 1e-12)
      << "serial " << serial_recall << " vs parallel " << parallel_recall;
}

// ---------------------------------------------------------------------------
// Shared index config
// ---------------------------------------------------------------------------

LanConfig TinyConfig() {
  LanConfig config;
  config.hnsw.M = 4;
  config.hnsw.ef_construction = 12;
  config.query_ged.approximate_only = true;
  config.query_ged.beam_width = 0;
  config.scorer.gnn_dims = {8, 8};
  config.scorer.mlp_hidden = 8;
  config.rank.epochs = 3;
  config.nh.epochs = 3;
  config.cluster.epochs = 10;
  config.max_rank_examples = 300;
  config.max_nh_examples = 300;
  config.neighborhood_knn = 10;
  config.embedding.dim = 16;
  config.default_beam = 8;
  config.num_threads = 2;
  return config;
}

// ---------------------------------------------------------------------------
// Concurrency: building while readers search (ctest -L concurrency)
// ---------------------------------------------------------------------------

TEST(ParallelBuildConcurrencyTest, BuildsAndPublishesUnderActiveReaders) {
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(60), 41);
  LanConfig config = TinyConfig();
  LanIndex index(config);
  ASSERT_TRUE(index.Build(&db).ok());

  std::vector<Graph> queries;
  Rng qgen(42);
  for (int i = 0; i < 6; ++i) {
    queries.push_back(PerturbGraph(
        db.Get(static_cast<GraphId>(qgen.NextBounded(60))), 2,
        db.num_labels(), &qgen));
  }

  std::atomic<bool> done{false};
  std::atomic<int> searches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      SearchOptions options;
      options.k = 5;
      options.beam = 8;
      options.routing = RoutingMethod::kBaselineRoute;
      options.init = InitMethod::kHnswIs;
      size_t i = static_cast<size_t>(r);
      while (!done.load(std::memory_order_acquire)) {
        const SearchResult result =
            index.Search(queries[i++ % queries.size()], options);
        if (!result.status.ok()) failures.fetch_add(1);
        searches.fetch_add(1);
      }
    });
  }

  // 1. A multi-threaded HnswIndex build runs to completion while the
  // readers hammer the published index: the node locks, the entry-point
  // mutex, and the readers' lock-free snapshot path all overlap (tsan
  // sees the real interleavings).
  const VectorCorpus corpus(300, 0, 43);
  HnswOptions hnsw_options;
  hnsw_options.M = 4;
  hnsw_options.ef_construction = 16;
  hnsw_options.num_build_threads = 4;
  const HnswIndex built =
      HnswIndex::BuildWithDistance(300, corpus.Distance(), hnsw_options);
  EXPECT_EQ(built.NumNodes(), 300);

  // 2. Online inserts re-publish the snapshot — a fresh base CSR at every
  // epoch — while the readers iterate the previous epoch's rows.
  Rng wrng(44);
  for (int i = 0; i < 8; ++i) {
    auto inserted = index.Insert(PerturbGraph(
        db.Get(static_cast<GraphId>(wrng.NextBounded(60))), 2,
        db.num_labels(), &wrng));
    ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  }

  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(searches.load(), 0);
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace lan
