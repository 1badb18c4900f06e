// Thread-count identity of the query path. A Search fans the GED
// upper-bound tiers of each distance and the candidate chunks of each
// cross-encoding pass out on the index's resident pool; on any pool width
// it must return the answers, work counters and trace of a 1-worker index
// bit for bit. Registered under the ctest `concurrency` label, so the tsan
// preset (`ctest -L concurrency`) runs the fan-out, including queries that
// share the pool with a concurrent Insert.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "ged/ged_computer.h"
#include "gnn/compressed_gnn_graph.h"
#include "graph/graph_generator.h"
#include "lan/lan_index.h"
#include "lan/pair_scorer.h"
#include "lan/workload.h"

namespace lan {
namespace {

constexpr int kWide = 4;

/// A small trainable index under the default query protocol (VJ,
/// Hungarian, Beam4 and gated A*), answer cache off.
LanConfig FanoutConfig(int num_threads) {
  LanConfig config;
  config.hnsw.M = 4;
  config.hnsw.ef_construction = 12;
  config.scorer.gnn_dims = {8, 8};
  config.scorer.mlp_hidden = 8;
  config.rank.epochs = 2;
  config.nh.epochs = 2;
  config.cluster.epochs = 5;
  config.max_rank_examples = 150;
  config.max_nh_examples = 150;
  config.neighborhood_knn = 5;
  config.embedding.dim = 16;
  config.default_beam = 8;
  config.num_threads = num_threads;
  return config;
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

std::string Tag(const char* s) { return s == nullptr ? "" : s; }

struct Method {
  RoutingMethod routing;
  InitMethod init;
};

constexpr Method kMethods[] = {
    {RoutingMethod::kLanRoute, InitMethod::kLanIs},
    {RoutingMethod::kBaselineRoute, InitMethod::kHnswIs},
    {RoutingMethod::kOracleRoute, InitMethod::kHnswIs},
};

std::string Describe(const Method& m) {
  return std::string(RoutingMethodName(m.routing)) + "+" +
         InitMethodName(m.init);
}

/// One traced, profiled search: its answer and every event it emitted.
struct TracedSearch {
  SearchResult result;
  std::vector<TraceEvent> events;
};

TracedSearch RunTraced(const LanIndex& index, const Graph& query,
                       const Method& method) {
  QueryTrace trace;
  SearchOptions options;
  options.k = 5;
  options.routing = method.routing;
  options.init = method.init;
  options.profile = true;
  options.trace = &trace;
  TracedSearch out;
  out.result = index.Search(query, options);
  out.events = trace.events();
  return out;
}

/// Equal answers (ids and distance bits), epochs, work counters, stage
/// span counts and trace event sequences.
void ExpectIdentical(const TracedSearch& got, const TracedSearch& want,
                     const std::string& what) {
  ASSERT_TRUE(want.result.status.ok()) << what << ": "
                                       << want.result.status.ToString();
  ASSERT_TRUE(got.result.status.ok()) << what << ": "
                                      << got.result.status.ToString();
  EXPECT_EQ(got.result.epoch, want.result.epoch) << what;
  ASSERT_EQ(got.result.results.size(), want.result.results.size()) << what;
  for (size_t j = 0; j < want.result.results.size(); ++j) {
    EXPECT_EQ(got.result.results[j].first, want.result.results[j].first)
        << what << " rank " << j;
    EXPECT_EQ(Bits(got.result.results[j].second),
              Bits(want.result.results[j].second))
        << what << " rank " << j;
  }
  const SearchStats& g = got.result.stats;
  const SearchStats& w = want.result.stats;
  EXPECT_EQ(g.ndc, w.ndc) << what;
  EXPECT_EQ(g.routing_steps, w.routing_steps) << what;
  EXPECT_EQ(g.model_inferences, w.model_inferences) << what;
  EXPECT_EQ(g.cross_encodings, w.cross_encodings) << what;
  EXPECT_EQ(g.cache_hits, w.cache_hits) << what;
  EXPECT_EQ(g.stages.counts, w.stages.counts) << what;
  ASSERT_EQ(got.events.size(), want.events.size()) << what;
  for (size_t e = 0; e < want.events.size(); ++e) {
    const TraceEvent& a = got.events[e];
    const TraceEvent& b = want.events[e];
    EXPECT_TRUE(a.type == b.type && a.id == b.id && a.step == b.step &&
                Bits(a.value) == Bits(b.value) &&
                Bits(a.aux) == Bits(b.aux) &&
                Tag(a.detail) == Tag(b.detail) &&
                Tag(a.detail2) == Tag(b.detail2))
        << what << " event " << e << ": "
        << QueryTrace::EventToJson(a) << " vs " << QueryTrace::EventToJson(b);
  }
}

int64_t CountOf(const std::vector<TraceEvent>& events, TraceEventType type) {
  int64_t n = 0;
  for (const TraceEvent& e : events) n += e.type == type ? 1 : 0;
  return n;
}

// ---------- The helper and the two fanned-out loops ----------

TEST(QueryFanoutTest, NullPoolRunsInlineInOrder) {
  std::vector<size_t> order;
  const std::thread::id caller = std::this_thread::get_id();
  bool on_caller = true;
  ParallelFor(nullptr, 5, [&](size_t i) {
    order.push_back(i);
    on_caller = on_caller && std::this_thread::get_id() == caller;
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(on_caller);
}

TEST(QueryFanoutTest, PoolRunsEveryItemOnce) {
  ThreadPool pool(kWide);
  std::vector<std::atomic<int>> hits(97);
  ParallelFor(&pool, hits.size(), [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(QueryFanoutTest, GedTiersOnAPoolMatchTheCallingThread) {
  const GraphDatabase db = GenerateDatabase(DatasetSpec::AidsLike(24), 301);
  ThreadPool pool(kWide);
  GedOptions two_tiers;
  two_tiers.beam_width = 0;
  GedOptions approximate;
  approximate.approximate_only = true;
  for (const GedOptions& options : {GedOptions{}, two_tiers, approximate}) {
    const GedComputer ged(options);
    for (GraphId a = 0; a < db.size(); a += 3) {
      for (GraphId b = 1; b < db.size(); b += 2) {
        const GedValue inline_value = ged.Compute(db.Get(a), db.Get(b));
        const GedValue fanned = ged.Compute(db.Get(a), db.Get(b), &pool);
        EXPECT_EQ(Bits(fanned.distance), Bits(inline_value.distance))
            << a << " vs " << b;
        EXPECT_EQ(fanned.method, inline_value.method) << a << " vs " << b;
        EXPECT_EQ(fanned.exact, inline_value.exact) << a << " vs " << b;
      }
    }
  }
}

TEST(QueryFanoutTest, CrossEncodingChunksOnAPoolMatchTheCallingThread) {
  constexpr int kLayers = 2;
  const GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(14), 302);
  std::vector<CompressedGnnGraph> cgs;
  for (GraphId id = 0; id < db.size(); ++id) {
    cgs.push_back(BuildCompressedGnnGraph(db.Get(id), kLayers));
  }
  const Graph& query = db.Get(13);
  PairScorerOptions options;
  options.gnn_dims = {8, 8};
  options.mlp_hidden = 8;
  const PairScorer scorer(db.num_labels(), options, /*num_heads=*/1,
                          /*context=*/false);
  const QueryEncodingCache cg_query =
      scorer.EncodeQuery(BuildCompressedGnnGraph(query, kLayers));
  const QueryEncodingCache raw_query = scorer.EncodeQuery(query);
  ThreadPool pool(kWide);
  const auto expect_same = [](const Matrix& got, const Matrix& want,
                              size_t n) {
    ASSERT_EQ(got.rows(), want.rows()) << n;
    ASSERT_EQ(got.cols(), want.cols()) << n;
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(float)),
              0)
        << n << " candidates";
  };
  // 1..13 candidates: one partial chunk, exact multiples of the chunk
  // size and a partial tail.
  for (size_t n = 1; n <= 13; ++n) {
    std::vector<const CompressedGnnGraph*> cg_batch;
    std::vector<const Graph*> raw_batch;
    for (size_t i = 0; i < n; ++i) {
      cg_batch.push_back(&cgs[i]);
      raw_batch.push_back(&db.Get(static_cast<GraphId>(i)));
    }
    Matrix pooled, serial;
    scorer.InferCross(cg_batch, cg_query, &pooled, &pool);
    scorer.InferCross(cg_batch, cg_query, &serial);
    expect_same(pooled, serial, n);
    scorer.InferCross(raw_batch, raw_query, &pooled, &pool);
    scorer.InferCross(raw_batch, raw_query, &serial);
    expect_same(pooled, serial, n);
  }
}

// ---------- 1-worker vs 4-worker indexes over one snapshot ----------

struct FanoutCase {
  const char* name;
  DatasetSpec spec;
  uint64_t seed;
};

void PrintTo(const FanoutCase& c, std::ostream* os) { *os << c.name; }

class ThreadCountIdentityTest : public testing::TestWithParam<FanoutCase> {
 protected:
  void SetUp() override {
    const FanoutCase& c = GetParam();
    path_ = testing::TempDir() + "fanout_" + c.name + ".lansnap";
    GraphDatabase db = GenerateDatabase(c.spec, c.seed);
    WorkloadOptions wopts;
    wopts.num_queries = 16;
    workload_ = SampleWorkload(db, wopts, c.seed + 1);
    LanIndex built(FanoutConfig(2));
    ASSERT_TRUE(built.Build(&db).ok());
    ASSERT_TRUE(built.Train(workload_.train).ok());
    ASSERT_TRUE(built.SaveSnapshot(path_).ok());
    ASSERT_TRUE(narrow_.OpenSnapshot(path_).ok());
    ASSERT_TRUE(wide_.OpenSnapshot(path_).ok());
    ASSERT_FALSE(workload_.test.empty());
  }

  std::string path_;
  QueryWorkload workload_;
  LanIndex narrow_{FanoutConfig(1)};
  LanIndex wide_{FanoutConfig(kWide)};
};

TEST_P(ThreadCountIdentityTest, SearchIsBitwiseIdentical) {
  for (const Method& method : kMethods) {
    int64_t distances = 0;
    int64_t inferences = 0;
    for (size_t i = 0; i < workload_.test.size(); ++i) {
      const TracedSearch want = RunTraced(narrow_, workload_.test[i], method);
      const TracedSearch got = RunTraced(wide_, workload_.test[i], method);
      ExpectIdentical(got, want,
                      Describe(method) + " query " + std::to_string(i));
      EXPECT_EQ(CountOf(want.events, TraceEventType::kDistance),
                want.result.stats.ndc);
      distances += want.result.stats.ndc;
      inferences += CountOf(want.events, TraceEventType::kModelInference);
    }
    // The comparison covered real work: distances on every method, and
    // model passes wherever a learned component runs.
    EXPECT_GT(distances, 0) << Describe(method);
    if (method.routing == RoutingMethod::kLanRoute) {
      EXPECT_GT(inferences, 0) << Describe(method);
    }
  }
}

TEST_P(ThreadCountIdentityTest, WideSearchBatchMatchesPerQuerySearch) {
  SearchOptions options;
  options.k = 5;
  const std::vector<SearchResult> batch =
      wide_.SearchBatch(workload_.test, options).results;
  ASSERT_EQ(batch.size(), workload_.test.size());
  for (size_t i = 0; i < workload_.test.size(); ++i) {
    TracedSearch got;
    got.result = batch[i];
    TracedSearch want;
    want.result = wide_.Search(workload_.test[i], options);
    ExpectIdentical(got, want, "batch query " + std::to_string(i));
  }
}

TEST_P(ThreadCountIdentityTest, ConcurrentSearchesAndInsertShareThePool) {
  // The reference: a 1-worker index applies the inserts one at a time and
  // answers every query at every epoch.
  constexpr size_t kInserts = 3;
  constexpr size_t kQueries = 4;
  const Method methods[] = {kMethods[0], kMethods[1]};
  std::vector<Graph> inserts(workload_.test.end() - kInserts,
                             workload_.test.end());
  std::map<uint64_t, std::vector<TracedSearch>> reference;
  const auto answer_all = [&](const LanIndex& index) {
    std::vector<TracedSearch> out;
    for (const Method& method : methods) {
      for (size_t q = 0; q < kQueries; ++q) {
        out.push_back(RunTraced(index, workload_.test[q], method));
      }
    }
    return out;
  };
  reference[narrow_.Snapshot()->epoch] = answer_all(narrow_);
  for (const Graph& g : inserts) {
    ASSERT_TRUE(narrow_.Insert(g).ok());
    reference[narrow_.Snapshot()->epoch] = answer_all(narrow_);
  }

  // Two clients search the 4-worker index while a third thread inserts
  // into it: all three fan out on the one shared pool.
  std::atomic<bool> inserted{false};
  std::mutex mu;
  std::vector<TracedSearch> served;
  Status insert_status;
  const auto client = [&] {
    std::vector<TracedSearch> mine;
    bool last_round = false;
    while (!last_round) {
      last_round = inserted.load();
      std::vector<TracedSearch> round = answer_all(wide_);
      mine.insert(mine.end(), round.begin(), round.end());
    }
    std::lock_guard<std::mutex> lock(mu);
    served.insert(served.end(), mine.begin(), mine.end());
  };
  std::thread a(client);
  std::thread b(client);
  std::thread writer([&] {
    for (const Graph& g : inserts) {
      const Result<GraphId> id = wide_.Insert(g);
      if (!id.ok()) insert_status = id.status();
    }
    inserted.store(true);
  });
  writer.join();
  a.join();
  b.join();
  ASSERT_TRUE(insert_status.ok()) << insert_status.ToString();

  const size_t per_round = std::size(methods) * kQueries;
  ASSERT_EQ(served.size() % per_round, 0u);
  for (size_t s = 0; s < served.size(); ++s) {
    const TracedSearch& got = served[s];
    const auto it = reference.find(got.result.epoch);
    ASSERT_NE(it, reference.end()) << "epoch " << got.result.epoch;
    ExpectIdentical(got, it->second[s % per_round],
                    "served search " + std::to_string(s) + " at epoch " +
                        std::to_string(got.result.epoch));
  }
  EXPECT_EQ(wide_.Snapshot()->epoch, narrow_.Snapshot()->epoch);
}

INSTANTIATE_TEST_SUITE_P(
    Data, ThreadCountIdentityTest,
    testing::Values(FanoutCase{"aids", DatasetSpec::AidsLike(48), 311},
                    FanoutCase{"syn", DatasetSpec::SynLike(48), 321}),
    [](const testing::TestParamInfo<FanoutCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace lan
