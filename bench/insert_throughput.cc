// Microbench for the epoch-versioned mutable index: online insert
// throughput with a 1- and a 4-thread resident pool, and search tail
// latency with the writer idle vs actively mutating. The insert rows feed
// one seeded stream to two identical indexes, alternating index per
// insert, and print the inserts/s ratio and whether both grew the same
// topology (the pool only computes distances ahead, so it must not
// change it). The search headline is the p99 ratio — the search hot path
// takes no lock, so a busy writer should move the search p99 by well
// under 10% (COW publication costs land on the writer).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_env.h"
#include "common/logging.h"
#include "common/timer.h"

namespace lan {
namespace bench {
namespace {

double Percentile(std::vector<double> values, double p) {
  LAN_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      p * static_cast<double>(values.size() - 1) / 100.0 + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

/// Runs `seconds` worth of searches on one thread, returns latencies.
std::vector<double> MeasureSearches(const LanIndex& index,
                                    const std::vector<Graph>& queries,
                                    double seconds) {
  SearchOptions options;
  options.k = 10;
  options.beam = 16;
  options.routing = RoutingMethod::kBaselineRoute;
  options.init = InitMethod::kHnswIs;
  std::vector<double> latencies;
  Timer wall;
  size_t next = 0;
  while (wall.ElapsedSeconds() < seconds) {
    const Graph& query = queries[next++ % queries.size()];
    Timer timer;
    SearchResult result = index.Search(query, options);
    LAN_CHECK(result.status.ok()) << result.status.ToString();
    latencies.push_back(timer.ElapsedSeconds());
  }
  return latencies;
}

/// FNV-1a over the index's entry point, layer count and every core row.
uint64_t TopologyHash(const HnswIndex& hnsw) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<uint64_t>(hnsw.EntryPoint()));
  mix(static_cast<uint64_t>(hnsw.NumLayers()));
  for (int l = 0; l < hnsw.NumLayers(); ++l) {
    for (GraphId id = 0; id < hnsw.NumNodes(); ++id) {
      for (GraphId n : hnsw.CoreRow(l, id)) mix(static_cast<uint64_t>(n));
      mix(~0ull);
    }
  }
  return h;
}

int Main() {
  const double scale = BenchScale();
  const int64_t db_size =
      std::max<int64_t>(150, static_cast<int64_t>(300 * scale));
  const int64_t warm_inserts =
      std::max<int64_t>(30, static_cast<int64_t>(60 * scale));

  DatasetSpec spec = DatasetSpec::SynLike(db_size);
  GraphDatabase db = GenerateDatabase(spec, 2024);
  GraphDatabase serial_db = GenerateDatabase(spec, 2024);
  LanConfig config;
  config.hnsw.M = 8;
  config.hnsw.ef_construction = 24;
  config.query_ged = BenchQueryGed();
  config.scorer.gnn_dims = {16, 16};
  config.embedding.dim = 32;
  config.num_threads = 4;
  LanIndex index(config);
  LanConfig serial_config = config;
  serial_config.num_threads = 1;
  LanIndex serial(serial_config);
  std::fprintf(stderr, "[bench] building two mutable indexes over %lld "
               "graphs\n", static_cast<long long>(db_size));
  LAN_CHECK_OK(index.Build(&db));
  LAN_CHECK_OK(serial.Build(&serial_db));

  WorkloadOptions wopts;
  wopts.num_queries = 40;
  QueryWorkload workload = SampleWorkload(db, wopts, 2025);
  std::vector<Graph> queries = workload.train;

  std::printf("\n=== Online insert throughput + search tail latency ===\n");

  // 1. Pure insert throughput (writer only), 1- vs 4-thread pool back to
  // back: each graph of the stream goes to both indexes, in alternating
  // order, so host load drifts over both alike.
  Rng rng(77);
  {
    double seconds[2] = {0.0, 0.0};  // [0] 1 thread, [1] 4 threads
    LanIndex* const indexes[2] = {&serial, &index};
    for (int64_t i = 0; i < warm_inserts; ++i) {
      const GraphId base =
          static_cast<GraphId>(rng.NextBounded(static_cast<uint64_t>(db_size)));
      const Graph graph = PerturbGraph(db.Get(base), 2, db.num_labels(), &rng);
      for (int k = 0; k < 2; ++k) {
        const int side = static_cast<int>((i + k) % 2);
        Timer timer;
        auto inserted = indexes[side]->Insert(graph);
        seconds[side] += timer.ElapsedSeconds();
        LAN_CHECK(inserted.ok()) << inserted.status().ToString();
      }
    }
    for (int side = 0; side < 2; ++side) {
      std::printf("%-28s %10.1f inserts/sec (%lld inserts, %.2fs)\n",
                  side == 0 ? "insert, 1-thread pool:"
                            : "insert, 4-thread pool:",
                  static_cast<double>(warm_inserts) / seconds[side],
                  static_cast<long long>(warm_inserts), seconds[side]);
    }
    const bool same = TopologyHash(serial.hnsw()) == TopologyHash(index.hnsw());
    std::printf("%-28s inserts/s ratio %.2fx, topology %s\n",
                "4 vs 1 thread:", seconds[0] / seconds[1],
                same ? "identical" : "DIFFERS");
    LAN_CHECK(same) << "pool width changed the inserted topology";
  }

  // 2. Search latency, writer idle.
  const double kMeasureSeconds = 3.0;
  std::vector<double> idle = MeasureSearches(index, queries, kMeasureSeconds);

  // 3. Search latency with a concurrent writer alternating insert/remove
  // (keeps the live size steady so the workloads stay comparable).
  std::atomic<bool> done{false};
  std::atomic<int64_t> mutations{0};
  std::thread writer([&] {
    Rng wrng(78);
    std::vector<GraphId> inserted_ids;
    while (!done.load(std::memory_order_acquire)) {
      const GraphId base = static_cast<GraphId>(
          wrng.NextBounded(static_cast<uint64_t>(db_size)));
      auto inserted =
          index.Insert(PerturbGraph(db.Get(base), 2, db.num_labels(), &wrng));
      LAN_CHECK(inserted.ok()) << inserted.status().ToString();
      inserted_ids.push_back(inserted.value());
      if (inserted_ids.size() > 1) {
        const size_t pick =
            static_cast<size_t>(wrng.NextBounded(inserted_ids.size()));
        LAN_CHECK_OK(index.Remove(inserted_ids[pick]));
        inserted_ids[pick] = inserted_ids.back();
        inserted_ids.pop_back();
      }
      mutations.fetch_add(2);
    }
  });
  std::vector<double> busy = MeasureSearches(index, queries, kMeasureSeconds);
  done.store(true, std::memory_order_release);
  writer.join();

  const double idle_p50 = Percentile(idle, 50) * 1e3;
  const double idle_p99 = Percentile(idle, 99) * 1e3;
  const double busy_p50 = Percentile(busy, 50) * 1e3;
  const double busy_p99 = Percentile(busy, 99) * 1e3;
  std::printf("%-28s %8zu searches, p50 %.3fms, p99 %.3fms\n",
              "writer idle:", idle.size(), idle_p50, idle_p99);
  std::printf("%-28s %8zu searches, p50 %.3fms, p99 %.3fms "
              "(%lld concurrent mutations)\n",
              "writer busy:", busy.size(), busy_p50, busy_p99,
              static_cast<long long>(mutations.load()));
  std::printf("%-28s p99 ratio %.2fx (target: <= 1.10x — the search hot "
              "path takes no lock)\n",
              "impact:", busy_p99 / idle_p99);
  if (std::thread::hardware_concurrency() < 2) {
    std::printf("note: only one hardware thread — the writer and searcher "
                "time-slice one core, so the ratio measures CPU contention, "
                "not locking; rerun on a multi-core host for the 1.10x "
                "target.\n");
  }
  std::printf("final state: %d graphs, %d live, epoch %llu\n",
              index.db().size(), index.live_size(),
              static_cast<unsigned long long>(index.epoch()));
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace lan

int main() { return lan::bench::Main(); }
