// Route goldens: what each routing method computes for a fixed set of
// queries on seeded AIDS- and SYN-like indexes, pinned against a recording
// in tests/testdata/route_golden.txt. Per query the recording holds the
// answers (ids and distance bits), NDC and routing steps, the kRouteStep
// per-step NDC (`aux`) sequence, and the sorted multiset of kDistance
// (id, value) pairs, so a change that computes the same distances in
// another order stays green while one that computes a different set (an
// extra batch, a skipped sweep) fails.
//
// Every kernel runs at the scalar level, so the recording does not depend
// on the host's SIMD support.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/cpu_features.h"
#include "common/trace.h"
#include "graph/graph_generator.h"
#include "lan/lan_index.h"
#include "lan/workload.h"

namespace lan {
namespace {

std::string GoldenPath() {
  return std::string(LAN_TESTDATA_DIR) + "/route_golden.txt";
}

LanConfig GoldenConfig() {
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
  config.num_threads = 1;
  return config;
}

struct Method {
  RoutingMethod routing;
  InitMethod init;
};

constexpr Method kMethods[] = {
    {RoutingMethod::kLanRoute, InitMethod::kLanIs},
    {RoutingMethod::kOracleRoute, InitMethod::kHnswIs},
    {RoutingMethod::kBaselineRoute, InitMethod::kHnswIs},
};

struct GoldenCase {
  const char* name;
  DatasetSpec spec;
  uint64_t seed;
};

const GoldenCase kCases[] = {
    {"aids", DatasetSpec::AidsLike(60), 611},
    {"syn", DatasetSpec::SynLike(60), 621},
};

constexpr int kBeams[] = {8, 16};

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

/// One line per (case, method, beam, query): everything the recording pins.
std::string DescribeQuery(const std::string& prefix, const SearchResult& r,
                          const std::vector<TraceEvent>& events) {
  std::ostringstream os;
  os << prefix << " ndc=" << r.stats.ndc << " steps=" << r.stats.routing_steps
     << " answers=";
  char buf[64];
  for (size_t i = 0; i < r.results.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%" PRId64 ":%016" PRIx64,
                  i == 0 ? "" : ",", static_cast<int64_t>(r.results[i].first),
                  Bits(r.results[i].second));
    os << buf;
  }
  os << " aux=";
  bool first = true;
  std::vector<std::pair<int64_t, uint64_t>> distances;
  for (const TraceEvent& e : events) {
    if (e.type == TraceEventType::kRouteStep) {
      os << (first ? "" : ",") << static_cast<int64_t>(e.aux);
      first = false;
    } else if (e.type == TraceEventType::kDistance) {
      distances.emplace_back(e.id, Bits(e.value));
    }
  }
  // The kDistance multiset, sorted, folded into an FNV-1a hash.
  std::sort(distances.begin(), distances.end());
  uint64_t hash = 14695981039346656037ull;
  const auto mix = [&hash](uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xff;
      hash *= 1099511628211ull;
    }
  };
  for (const auto& [id, value] : distances) {
    mix(static_cast<uint64_t>(id));
    mix(value);
  }
  std::snprintf(buf, sizeof(buf), " distances=%zu:%016" PRIx64,
                distances.size(), hash);
  os << buf;
  return os.str();
}

/// Builds each case's index and describes every test query under every
/// method and beam, in a fixed order.
std::vector<std::string> DescribeAll() {
  SetActiveSimdLevel(SimdLevel::kScalar);
  std::vector<std::string> lines;
  for (const GoldenCase& c : kCases) {
    GraphDatabase db = GenerateDatabase(c.spec, c.seed);
    WorkloadOptions wopts;
    wopts.num_queries = 60;
    const QueryWorkload workload = SampleWorkload(db, wopts, c.seed + 1);
    LanIndex index(GoldenConfig());
    EXPECT_TRUE(index.Build(&db).ok());
    EXPECT_TRUE(index.Train(workload.train).ok());
    for (const Method& m : kMethods) {
      for (const int beam : kBeams) {
        for (size_t q = 0; q < workload.test.size(); ++q) {
          QueryTrace trace;
          SearchOptions options;
          options.k = 5;
          options.beam = beam;
          options.routing = m.routing;
          options.init = m.init;
          options.trace = &trace;
          const SearchResult r = index.Search(workload.test[q], options);
          EXPECT_TRUE(r.status.ok()) << r.status.ToString();
          const std::string prefix =
              std::string(c.name) + " " + RoutingMethodName(m.routing) + "+" +
              InitMethodName(m.init) + " beam=" + std::to_string(beam) +
              " q" + std::to_string(q);
          lines.push_back(DescribeQuery(prefix, r, trace.events()));
        }
      }
    }
  }
  return lines;
}

TEST(RouteGoldenTest, EveryRouteMatchesTheRecording) {
  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.good()) << "missing " << GoldenPath();
  std::vector<std::string> want;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) want.push_back(line);
  }
  const std::vector<std::string> got = DescribeAll();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "line " << i + 1;
  }
}

/// Manual re-recording (only after an intentional change to what routing
/// computes): run route_golden_test with --gtest_also_run_disabled_tests
/// and --gtest_filter='*RecordRouteGolden'.
TEST(RouteGoldenTest, DISABLED_RecordRouteGolden) {
  std::ofstream out(GoldenPath());
  ASSERT_TRUE(out.good()) << GoldenPath();
  for (const std::string& line : DescribeAll()) out << line << "\n";
  std::printf("route golden written to %s\n", GoldenPath().c_str());
}

}  // namespace
}  // namespace lan
