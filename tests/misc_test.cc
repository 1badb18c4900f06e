#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "graph/graph_io.h"
#include "graph/graph_generator.h"
#include "lan/evaluation.h"
#include "lan/lan_index.h"
#include "pg/beam_search.h"
#include "pg/np_route.h"
#include "pg/proximity_graph.h"

namespace lan {
namespace {

// ---------- LanConfig validation ----------

TEST(LanConfigValidateTest, DefaultIsValid) {
  LanConfig config;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(LanConfigValidateTest, RejectsBadKnobs) {
  {
    LanConfig c;
    c.hnsw.M = 0;
    EXPECT_FALSE(c.Validate().ok());
  }
  {
    LanConfig c;
    c.batch_percent = 0;
    EXPECT_FALSE(c.Validate().ok());
  }
  {
    LanConfig c;
    c.batch_percent = 150;
    EXPECT_FALSE(c.Validate().ok());
  }
  {
    LanConfig c;
    c.step_size = 0.0;
    EXPECT_FALSE(c.Validate().ok());
  }
  {
    LanConfig c;
    c.neighborhood_coverage = 1.5;
    EXPECT_FALSE(c.Validate().ok());
  }
  {
    LanConfig c;
    c.scorer.gnn_dims = {};
    EXPECT_FALSE(c.Validate().ok());
  }
  {
    LanConfig c;
    c.scorer.gnn_dims = {16, -1};
    EXPECT_FALSE(c.Validate().ok());
  }
  {
    LanConfig c;
    c.init.samples = 0;
    EXPECT_FALSE(c.Validate().ok());
  }
}

TEST(LanConfigValidateTest, BuildRejectsInvalidConfig) {
  LanConfig config;
  config.default_beam = -3;
  LanIndex index(config);
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(5), 1);
  EXPECT_EQ(index.Build(&db).code(), StatusCode::kInvalidArgument);
}

// ---------- Latency percentiles in sweeps ----------

TEST(EvaluationPercentilesTest, PopulatedAndOrdered) {
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(20), 2);
  GedOptions ged_options;
  ged_options.approximate_only = true;
  ged_options.beam_width = 0;
  GedComputer ged(ged_options);
  std::vector<Graph> queries = {db.Get(0), db.Get(1), db.Get(2)};
  std::vector<KnnList> truths = BuildTruths(db, queries, 2, ged);
  SweepPoint point = EvaluatePoint(
      [&](const Graph& q, int k) {
        SearchResult r;
        DistanceOracle oracle(&db, &q, &ged, &r.stats);
        for (GraphId id = 0; id < db.size(); ++id) oracle.Distance(id);
        r.results = ComputeGroundTruth(db, q, k, ged);
        return r;
      },
      queries, truths, 2);
  EXPECT_GT(point.p50_seconds, 0.0);
  EXPECT_GE(point.p95_seconds, point.p50_seconds);
  EXPECT_DOUBLE_EQ(point.recall, 1.0);
}

// ---------- Routing traces ----------

TEST(RoutingTraceTest, NpRouteRecordsExplorationOrder) {
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(40), 3);
  GedOptions gopts;
  gopts.approximate_only = true;
  gopts.beam_width = 0;
  GedComputer ged(gopts);
  std::vector<std::pair<GraphId, GraphId>> edges;
  for (GraphId i = 0; i + 1 < db.size(); ++i) {
    edges.emplace_back(i, i + 1);
    if (i + 5 < db.size()) edges.emplace_back(i, i + 5);
  }
  const ProximityGraph pg = ProximityGraph::FromEdges(db.size(), edges).value();
  Graph query = db.Get(20);
  SearchStats stats;
  QueryTrace trace;
  DistanceOracle oracle(&db, &query, &ged, &stats, &trace);
  OracleRanker ranker(&db, &ged, 20);
  NpRouteOptions options;
  options.beam_size = 6;
  options.k = 3;
  RoutingResult result = NpRoute(pg, &oracle, &ranker, 0, options);
  std::vector<GraphId> explored;
  for (const TraceEvent& event : trace.events()) {
    if (event.type == TraceEventType::kRouteStep) explored.push_back(event.id);
  }
  EXPECT_EQ(static_cast<int64_t>(explored.size()), result.routing_steps);
  ASSERT_FALSE(explored.empty());
  EXPECT_EQ(explored.front(), 0);  // started at init
  // No node explored twice.
  std::set<GraphId> unique(explored.begin(), explored.end());
  EXPECT_EQ(unique.size(), explored.size());
}

TEST(RoutingTraceTest, BeamSearchTrace) {
  std::vector<std::pair<GraphId, GraphId>> edges;
  for (GraphId i = 0; i + 1 < 5; ++i) edges.emplace_back(i, i + 1);
  const ProximityGraph pg = ProximityGraph::FromEdges(5, edges).value();
  QueryTrace trace;
  auto result = BeamSearchRouteFn(
      pg, [](GraphId id) { return static_cast<double>(10 - id); },
      /*init=*/0, /*beam=*/5, /*k=*/2, &trace);
  EXPECT_EQ(trace.CountOf(TraceEventType::kRouteStep), result.routing_steps);
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.events().front().id, 0);
}

// ---------- Database I/O fuzz ----------

TEST(GraphIoFuzzTest, CorruptedStreamsFailCleanly) {
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(10), 4);
  std::stringstream good;
  ASSERT_TRUE(WriteDatabase(db, good).ok());
  const std::string bytes = good.str();

  Rng rng(5);
  int failures = 0, successes = 0;
  for (int trial = 0; trial < 40; ++trial) {
    std::string corrupted = bytes;
    // Random truncation or byte flips; loader must error or succeed, never
    // crash or hang.
    if (rng.NextBool(0.5)) {
      corrupted.resize(rng.NextBounded(corrupted.size()));
    } else {
      for (int flips = 0; flips < 5; ++flips) {
        const size_t pos = rng.NextBounded(corrupted.size());
        corrupted[pos] = static_cast<char>('0' + rng.NextBounded(10));
      }
    }
    std::stringstream in(corrupted);
    auto result = ReadDatabase(in);
    (result.ok() ? successes : failures) += 1;
  }
  EXPECT_GT(failures, 0);  // corruption is usually detected
}

}  // namespace
}  // namespace lan
