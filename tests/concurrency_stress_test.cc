// Stress test for the epoch-versioned index's central concurrency claim:
// one writer mutating (Insert/Remove) while several searchers serve, with
// searches never observing a torn state. Every returned id must have been
// live at the search's pinned epoch, which the test checks against a
// mutation schedule the writer publishes through atomics that are ordered
// before the corresponding snapshot publication. A second case has the
// writer's Insert and a SearchBatch share the index's resident pool. Run
// under the asan and tsan presets (ctest -L concurrency); TSan sees real
// concurrent Search/Insert interleavings here, so a missing fence is a
// failure, not a flake.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "graph/graph_generator.h"
#include "lan/ground_truth.h"
#include "lan/lan_index.h"

namespace lan {
namespace {

LanConfig StressConfig() {
  LanConfig config;
  config.hnsw.M = 4;
  config.hnsw.ef_construction = 12;
  config.query_ged.approximate_only = true;
  config.query_ged.beam_width = 0;
  config.scorer.gnn_dims = {8, 8};
  config.scorer.mlp_hidden = 8;
  config.cluster.epochs = 5;
  config.embedding.dim = 16;
  config.default_beam = 8;
  config.num_threads = 2;
  return config;
}

TEST(ConcurrencyStressTest, SearchersServeConsistentEpochsUnderMutation) {
  constexpr GraphId kInitial = 60;
  constexpr int kMutations = 60;  // alternating insert/remove
  constexpr int kSearchers = 4;
  constexpr GraphId kCapacity = kInitial + kMutations;  // upper bound on ids

  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(kInitial), 81);
  LanIndex index(StressConfig());
  ASSERT_TRUE(index.Build(&db).ok());

  // Mutation schedule, readable by searchers without locks. The writer
  // stores an id's epoch BEFORE performing the mutation, and the snapshot
  // publish/pin (release/acquire) orders that store before any search
  // that can observe the mutation — so a searcher holding epoch e reads
  // add_epoch[id] <= e for every id in its results, and a remove_epoch
  // either > e or not yet visible (both meaning "live at e").
  std::vector<std::atomic<uint64_t>> add_epoch(
      static_cast<size_t>(kCapacity));
  std::vector<std::atomic<uint64_t>> remove_epoch(
      static_cast<size_t>(kCapacity));
  for (size_t i = 0; i < add_epoch.size(); ++i) {
    add_epoch[i].store(i < static_cast<size_t>(kInitial)
                           ? 0
                           : std::numeric_limits<uint64_t>::max(),
                       std::memory_order_relaxed);
    remove_epoch[i].store(std::numeric_limits<uint64_t>::max(),
                          std::memory_order_relaxed);
  }

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::atomic<int> searches{0};

  std::vector<Graph> queries;
  Rng qgen(82);
  for (int i = 0; i < 8; ++i) {
    queries.push_back(PerturbGraph(
        db.Get(static_cast<GraphId>(qgen.NextBounded(kInitial))), 2,
        db.num_labels(), &qgen));
  }

  std::vector<std::thread> searchers;
  searchers.reserve(kSearchers);
  for (int t = 0; t < kSearchers; ++t) {
    searchers.emplace_back([&, t] {
      SearchOptions options;
      options.k = 5;
      options.routing = RoutingMethod::kBaselineRoute;
      options.init = InitMethod::kHnswIs;
      size_t next = static_cast<size_t>(t);
      while (!done.load(std::memory_order_acquire)) {
        const Graph& query = queries[next++ % queries.size()];
        SearchResult result = index.Search(query, options);
        if (!result.status.ok()) {
          violations.fetch_add(1);
          continue;
        }
        for (const auto& [id, distance] : result.results) {
          const bool in_range = id >= 0 && id < kCapacity;
          const bool added = in_range &&
                             add_epoch[static_cast<size_t>(id)].load(
                                 std::memory_order_acquire) <= result.epoch;
          const bool still_live =
              in_range && remove_epoch[static_cast<size_t>(id)].load(
                              std::memory_order_acquire) > result.epoch;
          if (!in_range || !added || !still_live) violations.fetch_add(1);
        }
        searches.fetch_add(1);
      }
    });
  }

  // Single writer: alternate insert and remove; epochs advance one per
  // mutation, so mutation m publishes epoch m+1. Failures break out
  // (instead of asserting mid-flight) so the searchers always get joined.
  Rng wrng(83);
  std::vector<GraphId> live;
  for (GraphId id = 0; id < kInitial; ++id) live.push_back(id);
  int writer_failures = 0;
  for (int m = 0; m < kMutations; ++m) {
    const uint64_t epoch = static_cast<uint64_t>(m) + 1;
    if (m % 2 == 0) {
      const GraphId base =
          live[static_cast<size_t>(wrng.NextBounded(live.size()))];
      Graph graph = PerturbGraph(db.Get(base), 2, db.num_labels(), &wrng);
      const GraphId id = db.size();
      add_epoch[static_cast<size_t>(id)].store(epoch,
                                               std::memory_order_release);
      auto inserted = index.Insert(std::move(graph));
      if (!inserted.ok() || inserted.value() != id) {
        ++writer_failures;
        break;
      }
      live.push_back(id);
    } else {
      const size_t pick = static_cast<size_t>(wrng.NextBounded(live.size()));
      const GraphId id = live[pick];
      remove_epoch[static_cast<size_t>(id)].store(epoch,
                                                  std::memory_order_release);
      if (!index.Remove(id).ok()) {
        ++writer_failures;
        break;
      }
      live[pick] = live.back();
      live.pop_back();
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& thread : searchers) thread.join();

  ASSERT_EQ(writer_failures, 0);
  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(searches.load(), 0);
  EXPECT_EQ(index.epoch(), static_cast<uint64_t>(kMutations));
  EXPECT_EQ(index.live_size(), kInitial);  // equal inserts and removes

  // Frozen final state: searches must still track brute force over the
  // live survivors.
  GedComputer ged(StressConfig().query_ged);
  SearchOptions options;
  options.k = 5;
  options.beam = 16;
  options.routing = RoutingMethod::kBaselineRoute;
  options.init = InitMethod::kHnswIs;
  double recall = 0.0;
  const int kRecallQueries = 5;
  for (int q = 0; q < kRecallQueries; ++q) {
    const Graph& query = queries[static_cast<size_t>(q)];
    KnnList truth;
    for (GraphId id = 0; id < db.size(); ++id) {
      if (!db.IsLive(id)) continue;
      truth.emplace_back(id, ged.Distance(query, db.Get(id)));
    }
    std::sort(truth.begin(), truth.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second < b.second;
                return a.first < b.first;
              });
    SearchResult result = index.Search(query, options);
    ASSERT_TRUE(result.status.ok());
    recall += RecallAtK(result.results, truth, options.k);
  }
  EXPECT_GE(recall / kRecallQueries, 0.6);
}

// An online Insert computes its distances ahead on the index's resident
// pool, the pool SearchBatch also runs on. With one thread inserting and
// another running batches, both must finish, and every batch answer must
// equal a sequential Search over the epoch that query pinned. The
// reference is a 1-thread index over the same database that takes the
// same inserts one epoch at a time.
TEST(ConcurrencyStressTest, InsertSharesThePoolWithSearchBatch) {
  constexpr GraphId kInitial = 60;
  constexpr int kInserts = 16;
  LanConfig config = StressConfig();
  config.num_threads = 4;
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(kInitial), 84);
  LanIndex index(config);
  ASSERT_TRUE(index.Build(&db).ok());

  Rng rng(85);
  std::vector<Graph> inserts;
  for (int i = 0; i < kInserts; ++i) {
    inserts.push_back(PerturbGraph(
        db.Get(static_cast<GraphId>(rng.NextBounded(kInitial))), 2,
        db.num_labels(), &rng));
  }
  std::vector<Graph> queries;
  for (int i = 0; i < 8; ++i) {
    queries.push_back(PerturbGraph(
        db.Get(static_cast<GraphId>(rng.NextBounded(kInitial))), 2,
        db.num_labels(), &rng));
  }
  SearchOptions options;
  options.k = 5;
  options.routing = RoutingMethod::kBaselineRoute;
  options.init = InitMethod::kHnswIs;

  std::atomic<bool> done{false};
  int writer_failures = 0;
  std::thread writer([&] {
    for (const Graph& graph : inserts) {
      if (!index.Insert(graph).ok()) {
        ++writer_failures;
        break;
      }
    }
    done.store(true, std::memory_order_release);
  });
  // served[i] answers queries[i % queries.size()].
  std::vector<SearchResult> served;
  do {
    BatchSearchResult batch = index.SearchBatch(queries, options);
    for (SearchResult& result : batch.results) {
      served.push_back(std::move(result));
    }
  } while (!done.load(std::memory_order_acquire));
  writer.join();
  ASSERT_EQ(writer_failures, 0);
  EXPECT_EQ(index.epoch(), static_cast<uint64_t>(kInserts));

  GraphDatabase reference_db =
      GenerateDatabase(DatasetSpec::SynLike(kInitial), 84);
  LanConfig reference_config = config;
  reference_config.num_threads = 1;
  LanIndex reference(reference_config);
  ASSERT_TRUE(reference.Build(&reference_db).ok());
  size_t checked = 0;
  for (uint64_t epoch = 0; epoch <= kInserts; ++epoch) {
    if (epoch > 0) {
      ASSERT_TRUE(reference.Insert(inserts[epoch - 1]).ok()) << epoch;
    }
    for (size_t i = 0; i < served.size(); ++i) {
      if (served[i].epoch != epoch) continue;
      const SearchResult expected =
          reference.Search(queries[i % queries.size()], options);
      ASSERT_TRUE(served[i].status.ok()) << i;
      EXPECT_EQ(served[i].results, expected.results)
          << "query " << i % queries.size() << " at epoch " << epoch;
      ++checked;
    }
  }
  EXPECT_EQ(checked, served.size());
}

}  // namespace
}  // namespace lan
