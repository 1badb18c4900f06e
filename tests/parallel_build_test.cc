// Tests for index construction with a distance pool: the build stays
// bit-for-bit on the golden topology hashes whether or not a pool computes
// its distances, and epoch publication (a fresh base CSR per epoch) stays
// clean under active readers while a pool-backed build runs (the
// ParallelBuildConcurrencyTest cases also run under the asan/tsan presets
// via `ctest -L concurrency`).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "graph/graph_generator.h"
#include "lan/lan_index.h"
#include "pg/hnsw.h"

namespace lan {
namespace {

// ---------------------------------------------------------------------------
// Golden topology: the distance pool must not change it
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

// Same corpus and hashes as mutable_index_test's golden test: a pool that
// computes each insertion step's missing distances must leave the
// topology bit-for-bit identical to the build without one.
TEST(ParallelBuildGoldenTest, SerialBuildKeepsGoldenHashes) {
  const std::vector<double> points = GoldenPoints();
  auto distance = [&points](GraphId a, GraphId b) {
    return std::abs(points[static_cast<size_t>(a)] -
                    points[static_cast<size_t>(b)]);
  };
  HnswOptions options;
  options.M = 4;
  options.ef_construction = 16;
  ThreadPool four_workers(4);
  ThreadPool* const pools[] = {nullptr, &four_workers};
  for (ThreadPool* distance_pool : pools) {
    EXPECT_EQ(TopologyHash(HnswIndex::BuildWithDistance(120, distance,
                                                        options,
                                                        distance_pool)),
              0x72fc0fd77f61d7c9ULL)
        << (distance_pool == nullptr ? "no pool" : "4-worker pool");
  }
}

/// A corpus of 8-d points under L2, cheap enough for a unit test.
struct VectorCorpus {
  static constexpr int kDim = 8;
  std::vector<std::vector<double>> items;

  VectorCorpus(GraphId n, uint64_t seed) {
    Rng rng(seed);
    for (GraphId i = 0; i < n; ++i) {
      std::vector<double> v(kDim);
      for (double& x : v) x = rng.NextDouble();
      items.push_back(std::move(v));
    }
  }

  HnswIndex::PairDistanceFn Distance() const {
    return [this](GraphId a, GraphId b) {
      const std::vector<double>& x = items[static_cast<size_t>(a)];
      const std::vector<double>& y = items[static_cast<size_t>(b)];
      double sum = 0.0;
      for (int d = 0; d < kDim; ++d) sum += (x[d] - y[d]) * (x[d] - y[d]);
      return std::sqrt(sum);
    };
  }
};

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

  // 1. An HnswIndex build whose distances a 4-worker pool computes runs to
  // completion while the readers hammer the published index: the pool's
  // tasks, the inserting thread and the readers' lock-free snapshot path
  // all overlap (tsan sees the real interleavings).
  const VectorCorpus corpus(300, 43);
  HnswOptions hnsw_options;
  hnsw_options.M = 4;
  hnsw_options.ef_construction = 16;
  ThreadPool pool(4);
  const HnswIndex built = HnswIndex::BuildWithDistance(
      300, corpus.Distance(), hnsw_options, &pool);
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
