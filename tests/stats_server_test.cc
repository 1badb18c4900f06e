// Tests for the serving observability plumbing: the embedded HTTP stats
// server (request handling over a real socket, Prometheus rendering), the
// slow-query ring (top-K retention, drain-on-read), the sampled trace
// sink (deterministic 1-in-N selection), and the serving loop's shape: one
// thread recording while another scrapes (ServingConcurrencyTest runs
// under the asan/tsan presets via `ctest -L concurrency`).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/profile.h"
#include "common/slow_query.h"
#include "common/trace.h"
#include "lan/lan_index.h"
#include "pg/result_cache.h"
#include "server/stats_server.h"

namespace lan {
namespace {

/// Blocking one-shot HTTP client against 127.0.0.1:`port` — raw sockets,
/// so the test exercises the server exactly the way curl would.
std::string Fetch(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buffer[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Get(int port, const std::string& path) {
  return Fetch(port,
               "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n");
}

TEST(StatsServerTest, ServesRegisteredPathsOnEphemeralPort) {
  StatsServer server(StatsServer::Options{});
  server.Handle("/metrics", [](const HttpRequest& request) {
    EXPECT_EQ(request.method, "GET");
    EXPECT_EQ(request.path, "/metrics");
    HttpResponse response;
    response.body = "queries 7\n";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  const std::string response = Get(server.port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Length: 10"), std::string::npos);
  EXPECT_NE(response.find("queries 7\n"), std::string::npos);
  server.Stop();
}

TEST(StatsServerTest, QueryStringIsSplitOffThePath) {
  StatsServer server(StatsServer::Options{});
  std::string seen_query;
  server.Handle("/slowz", [&seen_query](const HttpRequest& request) {
    seen_query = request.query;
    return HttpResponse{};
  });
  ASSERT_TRUE(server.Start().ok());
  const std::string response = Get(server.port(), "/slowz?limit=5");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_EQ(seen_query, "limit=5");
  server.Stop();
}

TEST(StatsServerTest, UnknownPathIs404AndBadMethodIs400) {
  StatsServer server(StatsServer::Options{});
  server.Handle("/metrics", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.Start().ok());
  EXPECT_NE(Get(server.port(), "/nope").find("404"), std::string::npos);
  EXPECT_NE(
      Fetch(server.port(), "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
          .find("400"),
      std::string::npos);
  server.Stop();
}

TEST(StatsServerTest, StopIsIdempotent) {
  auto server = std::make_unique<StatsServer>(StatsServer::Options{});
  server->Handle("/healthz", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server->Start().ok());
  server->Stop();
  server->Stop();        // second Stop is a no-op
  server.reset();        // destructor after Stop is safe too
}

TEST(StatsServerTest, RejectsPortAlreadyInUse) {
  StatsServer first(StatsServer::Options{});
  first.Handle("/x", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(first.Start().ok());
  StatsServer::Options clash;
  clash.port = first.port();
  StatsServer second(clash);
  EXPECT_FALSE(second.Start().ok());
  first.Stop();
}

// ---------------------------------------------------------------------------
// Prometheus rendering
// ---------------------------------------------------------------------------

TEST(RenderPrometheusTest, SanitizesDottedNamesAndKeepsOriginalInHelp) {
  MetricsRegistry registry;
  registry.Increment(registry.Counter("cache.hits"), 12);
  registry.SetGauge(registry.Gauge("cache.hit_rate"), 0.75);
  const std::string text = RenderPrometheus(registry.Snapshot());
  EXPECT_NE(text.find("# HELP cache_hits lan metric cache.hits"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE cache_hits counter"), std::string::npos);
  EXPECT_NE(text.find("\ncache_hits 12\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cache_hit_rate gauge"), std::string::npos);
  EXPECT_NE(text.find("cache_hit_rate 0.75"), std::string::npos);
  // The dotted spelling must never appear as a series name.
  EXPECT_EQ(text.find("\ncache.hits "), std::string::npos);
}

TEST(RenderPrometheusTest, HistogramsRenderCumulativeBuckets) {
  MetricsRegistry registry;
  const HistogramId hist =
      registry.Histogram("stage.ged_seconds", MetricsRegistry::LatencyBounds());
  registry.Observe(hist, 0.0001);
  registry.Observe(hist, 0.01);
  registry.Observe(hist, 100.0);  // overflow bucket
  const std::string text = RenderPrometheus(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE stage_ged_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("stage_ged_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("stage_ged_seconds_count 3"), std::string::npos);
  EXPECT_NE(text.find("stage_ged_seconds_sum"), std::string::npos);

  // Cumulative: bucket values must be monotonically non-decreasing.
  std::istringstream lines(text);
  std::string line;
  int64_t previous = 0;
  int buckets = 0;
  while (std::getline(lines, line)) {
    const std::string prefix = "stage_ged_seconds_bucket{le=\"";
    if (line.rfind(prefix, 0) != 0) continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos);
    const int64_t value = std::stoll(line.substr(space + 1));
    EXPECT_GE(value, previous) << line;
    previous = value;
    ++buckets;
  }
  EXPECT_GT(buckets, 2);
  EXPECT_EQ(previous, 3);  // the +Inf bucket holds everything
}

TEST(RenderPrometheusTest, EmptySnapshotRendersEmptyString) {
  MetricsSnapshot snapshot;
  EXPECT_EQ(RenderPrometheus(snapshot), "");
}

// ---------------------------------------------------------------------------
// SlowQueryRing
// ---------------------------------------------------------------------------

SlowQueryRecord MakeRecord(int64_t query_id, double latency) {
  SlowQueryRecord record;
  record.query_id = query_id;
  record.latency_seconds = latency;
  TraceEvent event;
  event.type = TraceEventType::kQueryBegin;
  record.trace.Record(event);
  return record;
}

TEST(SlowQueryRingTest, RetainsTheSlowestKAndDrainsSortedDescending) {
  SlowQueryRing ring(/*capacity=*/4);
  for (int64_t i = 0; i < 20; ++i) {
    // Latency grows with the id: ids 16..19 are the slowest.
    ring.Offer(MakeRecord(i, 0.001 * static_cast<double>(i + 1)));
  }
  std::vector<SlowQueryRecord> drained = ring.Drain();
  ASSERT_EQ(drained.size(), 4u);
  std::set<int64_t> ids;
  for (size_t i = 0; i < drained.size(); ++i) {
    ids.insert(drained[i].query_id);
    if (i > 0) {
      EXPECT_LE(drained[i].latency_seconds, drained[i - 1].latency_seconds);
    }
  }
  EXPECT_EQ(ids, (std::set<int64_t>{16, 17, 18, 19}));

  // Drain-on-read: the ring resets and starts collecting fresh.
  EXPECT_TRUE(ring.Drain().empty());
  ring.Offer(MakeRecord(99, 0.5));
  std::vector<SlowQueryRecord> second = ring.Drain();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].query_id, 99);
}

TEST(SlowQueryRingTest, FastQueriesNeverEvictSlowOnes) {
  SlowQueryRing ring(/*capacity=*/2);
  ring.Offer(MakeRecord(1, 1.0));
  ring.Offer(MakeRecord(2, 2.0));
  for (int64_t i = 10; i < 40; ++i) {
    ring.Offer(MakeRecord(i, 0.001));  // all faster than the retained floor
  }
  std::vector<SlowQueryRecord> drained = ring.Drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].query_id, 2);
  EXPECT_EQ(drained[1].query_id, 1);
}

TEST(SlowQueryRingTest, JsonLinesCarryHeaderStagesAndTrace) {
  SlowQueryRing ring(/*capacity=*/2);
  SlowQueryRecord record = MakeRecord(7, 0.25);
  record.stats.ndc = 11;
  record.stats.stages.seconds[static_cast<size_t>(Stage::kGed)] = 0.2;
  record.stats.stages.counts[static_cast<size_t>(Stage::kGed)] = 11;
  ring.Offer(std::move(record));
  std::ostringstream out;
  WriteSlowQueryJsonLines(ring.Drain(), out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"type\":\"slow_query\""), std::string::npos);
  EXPECT_NE(text.find("\"query_id\":7"), std::string::npos);
  EXPECT_NE(text.find("\"latency_seconds\":0.25"), std::string::npos);
  EXPECT_NE(text.find("\"ndc\":11"), std::string::npos);
  EXPECT_NE(text.find("\"stages\":"), std::string::npos);
  // The retained trace follows the header as ordinary trace JSON lines.
  EXPECT_NE(text.find("\"type\":\"query_begin\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// SamplingTraceSink
// ---------------------------------------------------------------------------

TEST(SamplingTraceSinkTest, SamplesDeterministicallyOneInN) {
  const SamplingTraceSink sink(4);
  std::vector<int64_t> sampled;
  for (int64_t qid = 0; qid < 12; ++qid) {
    if (sink.Sampled(qid)) sampled.push_back(qid);
  }
  EXPECT_EQ(sampled, (std::vector<int64_t>{0, 4, 8}));
}

TEST(SamplingTraceSinkTest, EveryOneTracesEveryQuery) {
  const SamplingTraceSink sink(1);
  for (int64_t qid = 0; qid < 5; ++qid) EXPECT_TRUE(sink.Sampled(qid)) << qid;
}

TEST(SamplingTraceSinkTest, NeverSamplesAnonymousQueries) {
  const SamplingTraceSink sink(1);
  EXPECT_EQ(sink.every(), 1);
  EXPECT_TRUE(sink.Sampled(3));
  // Negative query ids (anonymous) are never sampled.
  EXPECT_FALSE(sink.Sampled(-1));
}

// ---------------------------------------------------------------------------
// The serving loop's shape: one recorder, one scraper
// ---------------------------------------------------------------------------

TEST(ServingConcurrencyTest, RecorderAndScraperShareRegistryAndRing) {
  // As in `lan_tool serve`: the loop thread observes each query and offers
  // it to the slow ring; the stats server's thread snapshots the registry,
  // folds cache counters into it and drains the ring.
  constexpr int64_t kQueries = 20000;
  constexpr int64_t kSlowest = kQueries / 2;
  constexpr size_t kRing = 8;
  MetricsRegistry registry;
  const QueryHistograms query_hists(&registry);
  const StageHistograms stage_hists(&registry);
  SlowQueryRing ring(kRing);
  std::atomic<bool> done{false};

  std::vector<int64_t> drained_ids;
  int64_t last_queries = 0;
  std::thread scraper([&] {
    ShardCacheStats cache;
    for (bool last = false; !last;) {
      last = done.load();
      const MetricsSnapshot snapshot = registry.Snapshot();
      const int64_t queries = *snapshot.FindCounter("queries");
      EXPECT_GE(queries, last_queries);
      last_queries = queries;
      ++cache.hits;
      AppendCacheMetrics(cache, 1 << 20, &registry);
      const std::vector<SlowQueryRecord> records = ring.Drain();
      EXPECT_LE(records.size(), kRing);
      for (size_t i = 0; i < records.size(); ++i) {
        if (i > 0) {
          EXPECT_GE(records[i - 1].latency_seconds,
                    records[i].latency_seconds);
        }
        drained_ids.push_back(records[i].query_id);
      }
    }
  });

  const SamplingTraceSink sampler(4);
  for (int64_t qid = 0; qid < kQueries; ++qid) {
    SlowQueryRecord record;
    record.query_id = qid;
    record.latency_seconds =
        qid == kSlowest ? 1.0 : 1e-6 * static_cast<double>(qid % 997 + 1);
    record.stats.ndc = qid % 50;
    record.stats.stages.seconds[static_cast<size_t>(Stage::kGed)] =
        record.latency_seconds;
    record.stats.stages.counts[static_cast<size_t>(Stage::kGed)] = 1;
    if (sampler.Sampled(qid)) {
      TraceEvent event;
      event.type = TraceEventType::kQueryBegin;
      record.trace.Record(event);
    }
    SearchResult result;
    result.stats = record.stats;
    query_hists.Observe(result, record.latency_seconds);
    stage_hists.Observe(result.stats.stages);
    ring.Offer(std::move(record));
  }
  done.store(true);
  scraper.join();

  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(*snapshot.FindCounter("queries"), kQueries);
  EXPECT_EQ(last_queries, kQueries);  // the last scrape saw every query
  EXPECT_EQ(snapshot.FindHistogram("query_latency_seconds")->count, kQueries);
  EXPECT_EQ(snapshot.FindHistogram("stage.ged_seconds")->count, kQueries);
  EXPECT_DOUBLE_EQ(snapshot.FindHistogram("query_latency_seconds")->max, 1.0);
  EXPECT_GT(*snapshot.FindCounter("cache.hits"), 0);
  // No record is drained twice, and the slowest query is drained once.
  const std::set<int64_t> unique(drained_ids.begin(), drained_ids.end());
  EXPECT_EQ(unique.size(), drained_ids.size());
  EXPECT_EQ(unique.count(kSlowest), 1u);
}

}  // namespace
}  // namespace lan
