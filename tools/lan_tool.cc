// lan_tool — command-line front end for the LAN library.
//
//   lan_tool generate --kind aids --count 300 --seed 7 --out db.gdb
//   lan_tool stats    --db db.gdb
//   lan_tool build    --db db.gdb --out idx.lansnap [--queries 30] [--seed 9]
//   lan_tool search   --snapshot idx.lansnap --k 10 [--queries 3]
//   lan_tool eval     --snapshot idx.lansnap --k 10 [--queries 6]
//   lan_tool diagnose --snapshot idx.lansnap
//   lan_tool insert   --snapshot idx.lansnap --count 20 --out idx2.lansnap
//   lan_tool remove   --snapshot idx2.lansnap --count 10 --out idx3.lansnap
//   lan_tool inspect  --snapshot idx.lansnap
//   lan_tool serve    --snapshot idx.lansnap --stats-port 8080
//
// Every index lives in one self-contained `.lansnap` file (database,
// embeddings, clusters, CGs, HNSW, tombstones, epoch and, if trained, the
// models). `build` constructs (and by default trains) an index and writes
// it; every other index command mmaps a snapshot into a ready index, so
// the expensive offline phases run once. `insert`/`remove` exercise the
// online maintenance path: they mutate the index (new epoch per mutation)
// and write the result to `--out` for the next command. `inspect` prints
// the section table. `serve` runs a self-generated query loop with the
// embedded stats server attached (/metrics, /statusz, /slowz, /healthz)
// until SIGTERM/SIGINT; `--stats-port` also attaches the server to
// `search` and `eval` for long runs. Untrained snapshots (`build
// --queries 0`) serve through the baseline routing in `search`/`serve`.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>
#include <chrono>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cpu_features.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/profile.h"
#include "common/slow_query.h"
#include "common/timer.h"
#include "common/trace.h"
#include "graph/graph_generator.h"
#include "graph/graph_io.h"
#include "lan/evaluation.h"
#include "lan/lan_index.h"
#include "lan/workload.h"
#include "server/stats_server.h"
#include "store/snapshot.h"

namespace lan {
namespace tool {
namespace {

using FlagSet = std::set<std::string>;

/// Minimal --flag value parser. `known` holds every flag the subcommand
/// reads: any other flag, or a trailing flag with no value, exits 2 and
/// names it, so a mistyped or retired option never quietly falls back to
/// its default.
class Flags {
 public:
  Flags(int argc, char** argv, int first, const std::string& command,
        FlagSet known)
      : command_(command), known_(std::move(known)) {
    for (int i = first; i < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        std::fprintf(stderr, "expected --flag, got '%s'\n", argv[i]);
        std::exit(2);
      }
      const std::string key = argv[i] + 2;
      if (!known_.contains(key)) {
        std::fprintf(stderr, "%s: unknown flag --%s\n", command.c_str(),
                     key.c_str());
        std::exit(2);
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: flag --%s has no value\n", command.c_str(),
                     key.c_str());
        std::exit(2);
      }
      values_[key] = argv[i + 1];
    }
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = Find(key);
    return it == values_.end() ? fallback : it->second;
  }
  int64_t GetInt(const std::string& key, int64_t fallback) const {
    auto it = Find(key);
    return it == values_.end() ? fallback : std::atoll(it->second.c_str());
  }
  /// A count or size in [1, INT_MAX]: zero, a negative, an overflowing or
  /// a non-numeric value exits 2 naming the flag.
  int GetPositive(const std::string& key, int fallback) const {
    const int64_t value = GetInt(key, fallback);
    if (value <= 0 || value > std::numeric_limits<int>::max()) {
      std::fprintf(stderr, "%s: --%s must be a positive integer, got '%s'\n",
                   command_.c_str(), key.c_str(),
                   Get(key, std::to_string(fallback)).c_str());
      std::exit(2);
    }
    return static_cast<int>(value);
  }
  bool Has(const std::string& key) const { return Find(key) != values_.end(); }
  /// Whether the subcommand declares `key` at all.
  bool Takes(const std::string& key) const { return known_.contains(key); }

 private:
  // Reading a flag absent from the subcommand's table is a bug in this
  // file: the table would reject that flag on the command line.
  std::map<std::string, std::string>::const_iterator Find(
      const std::string& key) const {
    LAN_CHECK(known_.contains(key)) << "undeclared flag --" << key;
    return values_.find(key);
  }

  std::string command_;
  FlagSet known_;
  std::map<std::string, std::string> values_;
};

int Usage() {
  std::fprintf(stderr,
               "usage: lan_tool "
               "<generate|stats|build|search|eval|diagnose|insert|remove|"
               "inspect|serve> [--flag value ...]\n"
               "  global   --force-scalar 1     pin scalar kernels "
               "(bit-reproducible; same as LAN_FORCE_SCALAR=1)\n"
               "           a flag the command does not take, or one with "
               "no value, exits 2\n"
               "  generate --kind aids|linux|pubchem|syn --count N "
               "[--seed S] --out FILE\n"
               "  stats    --db FILE\n"
               "  build    --db FILE --out FILE [--queries N] [--seed S]\n"
               "           (--queries 0 skips model training)\n"
               "           [--build-threads N]   distance/training pool size, "
               "0 = hardware\n"
               "                                 concurrency; never changes "
               "the snapshot\n"
               "  search   --snapshot FILE [--k K] [--queries N]\n"
               "           [--trace-out FILE]    per-query trace, JSON lines\n"
               "           [--metrics-out FILE]  metrics snapshot, JSON\n"
               "           [--ged-cache-mb N]    answer cache budget in MiB "
               "(0 = off): a query\n"
               "                                 repeated with the same "
               "options is served its\n"
               "                                 stored answer\n"
               "           [--stats-port P]      embedded stats server "
               "(0 = ephemeral port)\n"
               "  eval     --snapshot FILE [--k K] [--queries N]\n"
               "           [--trace-out FILE] [--metrics-out FILE]\n"
               "           [--ged-cache-mb N]\n"
               "           [--stats-port P]\n"
               "  diagnose --snapshot FILE\n"
               "  insert   --snapshot FILE --count N [--seed S] [--edits E]\n"
               "           [--out FILE]          write the mutated index\n"
               "  remove   --snapshot FILE (--id G | --count N [--seed S])\n"
               "           [--out FILE]\n"
               "  inspect  --snapshot FILE\n"
               "  serve    --snapshot FILE [--stats-port P] [--k K]\n"
               "           [--ged-cache-mb N]\n"
               "           [--port-file FILE]    write the bound port\n"
               "           [--queries N]         query pool size (default 8)\n"
               "           [--max-queries N]     stop after N (0 = until "
               "SIGTERM)\n"
               "           [--trace-sample N]    trace 1-in-N queries "
               "(default 1)\n"
               "           [--slow-queries K]    /slowz ring size "
               "(default 16)\n"
               "           [--slow-inject-every N] widen every Nth query's "
               "beam\n"
               "           [--throttle-ms N]     sleep between queries\n");
  return 2;
}

DatasetSpec SpecFor(const std::string& kind, int64_t count) {
  if (kind == "aids") return DatasetSpec::AidsLike(count);
  if (kind == "linux") return DatasetSpec::LinuxLike(count);
  if (kind == "pubchem") return DatasetSpec::PubchemLike(count);
  if (kind == "syn") return DatasetSpec::SynLike(count);
  std::fprintf(stderr, "unknown dataset kind '%s'\n", kind.c_str());
  std::exit(2);
}

/// Shared tool-scale index configuration (must match between `build` and
/// the commands that open the snapshot). The query GED protocol is the
/// library default.
///
/// `--build-threads N` sizes the worker pool (N = 0 follows the hardware
/// count) that computes PG construction and insert distances, derives CGs
/// and trains. It never changes a snapshot's bytes: the PG is inserted in
/// id order on one thread whatever N is.
LanConfig ToolConfig(const Flags& flags) {
  LanConfig config;
  config.scorer.gnn_dims = {16, 16};
  config.rank.epochs = 5;
  config.nh.epochs = 5;
  config.max_rank_examples = 1500;
  config.max_nh_examples = 1500;
  if (flags.Has("build-threads")) {
    const int threads = static_cast<int>(flags.GetInt("build-threads", 0));
    config.num_threads = threads;
  }
  // `--ged-cache-mb N` opts into the answer cache (docs/caching.md) with
  // an N MiB budget (0 keeps it off). Only the commands that run queries
  // (search, eval, serve) take it: nothing else reads the cache.
  if (flags.Takes("ged-cache-mb") && flags.Has("ged-cache-mb")) {
    const int64_t mb = flags.GetInt("ged-cache-mb", 0);
    config.cache.enabled = mb > 0;
    config.cache.capacity_bytes = static_cast<size_t>(mb) << 20;
  }
  return config;
}

Result<GraphDatabase> LoadDb(const Flags& flags) {
  const std::string path = flags.Get("db", "");
  if (path.empty()) {
    return Status::InvalidArgument("--db is required");
  }
  return ReadDatabaseFromFile(path);
}

int Generate(const Flags& flags) {
  const std::string out = flags.Get("out", "");
  if (out.empty() || !flags.Has("count")) {
    std::fprintf(stderr, "generate: --count and --out are required\n");
    return 2;
  }
  DatasetSpec spec =
      SpecFor(flags.Get("kind", "aids"), flags.GetPositive("count", 0));
  GraphDatabase db = GenerateDatabase(
      spec, static_cast<uint64_t>(flags.GetInt("seed", 1)));
  if (Status s = WriteDatabaseToFile(db, out); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %d graphs (%s) to %s\n", db.size(), db.name().c_str(),
              out.c_str());
  return 0;
}

int Stats(const Flags& flags) {
  auto db = LoadDb(flags);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  std::printf("%s: %d graphs, avg |V| %.1f, avg |E| %.1f, %d labels used "
              "(alphabet %d)\n",
              db->name().c_str(), db->size(), db->AverageNodes(),
              db->AverageEdges(), db->DistinctLabelsUsed(), db->num_labels());
  return 0;
}

int Build(const Flags& flags) {
  const std::string out = flags.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "build: --out is required\n");
    return 2;
  }
  auto db = LoadDb(flags);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  LanIndex index(ToolConfig(flags));
  if (Status s = index.Build(&*db); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  const int64_t num_queries = flags.GetInt("queries", 30);
  if (num_queries > 0) {
    WorkloadOptions wopts;
    wopts.num_queries = num_queries;
    QueryWorkload workload = SampleWorkload(
        *db, wopts, static_cast<uint64_t>(flags.GetInt("seed", 9)));
    if (Status s = index.Train(workload.train); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("trained on %zu queries (gamma* = %.1f)\n",
                workload.train.size(), index.gamma_star());
  }
  if (Status s = index.SaveSnapshot(out); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("snapshot (%d graphs%s) written to %s\n", db->size(),
              index.trained() ? ", trained models" : ", untrained",
              out.c_str());
  return 0;
}

/// Opens `--snapshot` into a ready index; null after reporting the error.
std::unique_ptr<LanIndex> OpenIndex(const Flags& flags) {
  const std::string path = flags.Get("snapshot", "");
  if (path.empty()) {
    std::fprintf(stderr, "--snapshot is required\n");
    return nullptr;
  }
  auto index = std::make_unique<LanIndex>(ToolConfig(flags));
  Timer timer;
  if (Status s = index->OpenSnapshot(path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return nullptr;
  }
  std::printf("opened %s in %.3fs: %d graphs (%d live), epoch %llu, %s\n",
              path.c_str(), timer.ElapsedSeconds(), index->db().size(),
              index->live_size(),
              static_cast<unsigned long long>(index->epoch()),
              index->trained() ? "trained" : "untrained");
  return index;
}

/// Sampled perturbations of database graphs: every split of a
/// `num_queries` workload, concatenated (tiny counts land in `train`).
std::vector<Graph> SampleQueries(const GraphDatabase& db,
                                 int64_t num_queries, uint64_t seed) {
  WorkloadOptions wopts;
  wopts.num_queries = num_queries;
  QueryWorkload workload = SampleWorkload(db, wopts, seed);
  std::vector<Graph> queries = std::move(workload.train);
  queries.insert(queries.end(), workload.validation.begin(),
                 workload.validation.end());
  queries.insert(queries.end(), workload.test.begin(), workload.test.end());
  return queries;
}

/// Search options for the tool's query loops: full LAN search on a trained
/// index, the baseline route + HNSW descent on an untrained one.
SearchOptions DefaultSearchOptions(const LanIndex& index, int k) {
  SearchOptions options;
  options.k = k;
  options.profile = true;
  if (!index.trained()) {
    options.routing = RoutingMethod::kBaselineRoute;
    options.init = InitMethod::kHnswIs;
  }
  return options;
}

/// Writes the mutated index to `--out` when given; shared by `insert`
/// and `remove`.
int SaveMutation(const Flags& flags, const LanIndex& index) {
  if (!flags.Has("out")) return 0;
  const std::string out = flags.Get("out", "");
  if (Status s = index.SaveSnapshot(out); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("snapshot saved to %s\n", out.c_str());
  return 0;
}

int InsertCmd(const Flags& flags) {
  if (!flags.Has("count")) {
    std::fprintf(stderr, "insert: --count is required\n");
    return 2;
  }
  const int count = flags.GetPositive("count", 0);
  auto index = OpenIndex(flags);
  if (index == nullptr) return 1;
  const GraphDatabase& db = index->db();
  const int edits = static_cast<int>(flags.GetInt("edits", 3));
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 99)));
  Timer timer;
  for (int64_t i = 0; i < count; ++i) {
    // New graphs are perturbations of existing ones, like the paper's
    // query workloads — they stay on the database's distribution.
    const GraphId base = static_cast<GraphId>(
        rng.NextBounded(static_cast<uint64_t>(db.size())));
    Graph graph = PerturbGraph(db.Get(base), edits, db.num_labels(), &rng);
    auto inserted = index->Insert(std::move(graph));
    if (!inserted.ok()) {
      std::fprintf(stderr, "insert %lld failed: %s\n",
                   static_cast<long long>(i),
                   inserted.status().ToString().c_str());
      return 1;
    }
  }
  std::printf("inserted %lld graphs in %.2fs; db now %d graphs "
              "(%d live, %d tombstones), epoch %llu\n",
              static_cast<long long>(count), timer.ElapsedSeconds(),
              db.size(), index->live_size(), index->tombstones(),
              static_cast<unsigned long long>(index->epoch()));
  return SaveMutation(flags, *index);
}

int RemoveCmd(const Flags& flags) {
  if (!flags.Has("id") && !flags.Has("count")) {
    std::fprintf(stderr, "remove: --id or --count is required\n");
    return 2;
  }
  const int requested = flags.Has("id") ? 0 : flags.GetPositive("count", 0);
  auto index = OpenIndex(flags);
  if (index == nullptr) return 1;
  const GraphDatabase& db = index->db();
  std::vector<GraphId> targets;
  if (flags.Has("id")) {
    targets.push_back(static_cast<GraphId>(flags.GetInt("id", -1)));
  } else {
    // Random live ids, sampled without replacement via retry.
    Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 99)));
    const int64_t count = std::min<int64_t>(requested, index->live_size());
    std::vector<uint8_t> picked(static_cast<size_t>(db.size()), 0);
    while (static_cast<int64_t>(targets.size()) < count) {
      const GraphId id = static_cast<GraphId>(
          rng.NextBounded(static_cast<uint64_t>(db.size())));
      if (picked[static_cast<size_t>(id)] || !db.IsLive(id)) continue;
      picked[static_cast<size_t>(id)] = 1;
      targets.push_back(id);
    }
  }
  for (const GraphId id : targets) {
    if (Status s = index->Remove(id); !s.ok()) {
      std::fprintf(stderr, "remove #%d failed: %s\n", id,
                   s.ToString().c_str());
      return 1;
    }
  }
  std::printf("removed %zu graphs; db now %d graphs "
              "(%d live, %d tombstones), epoch %llu\n",
              targets.size(), db.size(), index->live_size(),
              index->tombstones(),
              static_cast<unsigned long long>(index->epoch()));
  return SaveMutation(flags, *index);
}

/// Opens `path` for writing or returns null after reporting the error
/// (with errno, so "permission denied" and "no such directory" are
/// distinguishable).
std::unique_ptr<std::ofstream> OpenOut(const std::string& path) {
  auto out = std::make_unique<std::ofstream>(path);
  if (!out->is_open()) {
    std::fprintf(stderr, "%s\n",
                 ErrnoIoError("cannot open for writing", path)
                     .ToString()
                     .c_str());
    return nullptr;
  }
  return out;
}

/// Final-write check for an output stream: flushes and reports a failed
/// write (ENOSPC and friends surface here, not at open).
int CloseOut(std::ofstream* out, const std::string& path) {
  out->flush();
  if (!out->good()) {
    std::fprintf(stderr, "%s\n",
                 ErrnoIoError("write failed", path).ToString().c_str());
    return 1;
  }
  return 0;
}

/// Writes the bound stats port to `--port-file` so scripts launching the
/// tool with an ephemeral port (--stats-port 0) can learn where it landed.
int WritePortFile(const Flags& flags, int port) {
  if (!flags.Has("port-file")) return 0;
  const std::string path = flags.Get("port-file", "");
  auto out = OpenOut(path);
  if (out == nullptr) return 1;
  *out << port << "\n";
  return CloseOut(out.get(), path);
}

/// Attaches the embedded stats server to a long-running command when
/// `--stats-port P` is present (0 = kernel-assigned; the bound port is
/// printed and written to `--port-file`). Serves /metrics, /statusz and
/// /healthz straight off `registry`, which must outlive the returned
/// server. Returns null without the flag; exits on bind failure so a
/// mistyped port fails loudly instead of running unobserved.
std::unique_ptr<StatsServer> StartStatsServer(const Flags& flags,
                                              MetricsRegistry* registry) {
  if (!flags.Has("stats-port")) return nullptr;
  StatsServer::Options options;
  options.port = static_cast<int>(flags.GetInt("stats-port", 0));
  auto server = std::make_unique<StatsServer>(options);
  server->Handle("/metrics", [registry](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = RenderPrometheus(registry->Snapshot());
    return response;
  });
  server->Handle("/healthz", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "ok\n";
    return response;
  });
  auto uptime = std::make_shared<Timer>();
  server->Handle("/statusz", [registry, uptime](const HttpRequest&) {
    std::ostringstream body;
    body << "{\"uptime_seconds\":" << uptime->ElapsedSeconds()
         << ",\"simd\":{\"detected\":\"" << SimdLevelName(DetectedSimdLevel())
         << "\",\"active\":\"" << SimdLevelName(ActiveSimdLevel()) << "\"}"
         << ",\"metrics\":" << registry->Snapshot().ToJson() << "}\n";
    HttpResponse response;
    response.content_type = "application/json";
    response.body = body.str();
    return response;
  });
  if (Status s = server->Start(); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    std::exit(1);
  }
  if (WritePortFile(flags, server->port()) != 0) std::exit(1);
  std::printf("stats server on http://%s:%d\n", options.bind_address.c_str(),
              server->port());
  std::fflush(stdout);
  return server;
}

int SearchCmd(const Flags& flags) {
  const int num_queries = flags.GetPositive("queries", 3);
  const int k = flags.GetPositive("k", 10);
  auto index = OpenIndex(flags);
  if (index == nullptr) return 1;
  const std::vector<Graph> queries =
      SampleQueries(index->db(), num_queries,
                    static_cast<uint64_t>(flags.GetInt("seed", 123)));
  const SearchOptions base_options = DefaultSearchOptions(*index, k);

  std::unique_ptr<std::ofstream> trace_out;
  if (flags.Has("trace-out")) {
    trace_out = OpenOut(flags.Get("trace-out", ""));
    if (trace_out == nullptr) return 1;
  }
  std::unique_ptr<std::ofstream> metrics_out;
  if (flags.Has("metrics-out")) {
    metrics_out = OpenOut(flags.Get("metrics-out", ""));
    if (metrics_out == nullptr) return 1;
  }
  MetricsRegistry registry;
  const QueryHistograms query_hists(&registry);
  StageHistograms stage_hists;
  stage_hists.Register(&registry);
  auto stats_server = StartStatsServer(flags, &registry);

  QueryTrace trace;
  for (size_t i = 0; i < queries.size(); ++i) {
    SearchOptions options = base_options;
    if (trace_out != nullptr) {
      trace.Clear();
      options.trace = &trace;
    }
    Timer timer;
    SearchResult result = index->Search(queries[i], options);
    query_hists.Observe(result, timer.ElapsedSeconds());
    stage_hists.Observe(result.stats.stages);
    if (!result.status.ok()) {
      std::fprintf(stderr, "query %zu failed: %s\n", i,
                   result.status.ToString().c_str());
      return 1;
    }
    std::printf("query %zu (%s): NDC %lld, steps %lld\n", i,
                queries[i].ToString().c_str(),
                static_cast<long long>(result.stats.ndc),
                static_cast<long long>(result.stats.routing_steps));
    for (const auto& [id, d] : result.results) {
      std::printf("  #%-6d GED %.0f\n", id, d);
    }
    if (trace_out != nullptr) {
      trace.WriteJsonLines(*trace_out, static_cast<int64_t>(i));
    }
  }
  if (trace_out != nullptr) {
    if (CloseOut(trace_out.get(), flags.Get("trace-out", "")) != 0) return 1;
    std::printf("trace written to %s\n", flags.Get("trace-out", "").c_str());
  }
  if (ResultCache* cache = index->result_cache()) {
    cache->AppendMetrics(&registry);
    const ShardCacheStats stats = cache->Stats();
    const int64_t lookups = stats.hits + stats.misses;
    std::printf("answer cache: %lld/%lld hits (%.0f%%), %lld entries\n",
                static_cast<long long>(stats.hits),
                static_cast<long long>(lookups),
                lookups > 0 ? 100.0 * static_cast<double>(stats.hits) /
                                  static_cast<double>(lookups)
                            : 0.0,
                static_cast<long long>(stats.entries));
  }
  if (metrics_out != nullptr) {
    *metrics_out << registry.Snapshot().ToJson() << "\n";
    if (CloseOut(metrics_out.get(), flags.Get("metrics-out", "")) != 0) {
      return 1;
    }
    std::printf("metrics written to %s\n",
                flags.Get("metrics-out", "").c_str());
  }
  return 0;
}

int Diagnose(const Flags& flags) {
  auto opened = OpenIndex(flags);
  if (opened == nullptr) return 1;
  const LanIndex& index = *opened;
  const GraphDatabase& db = index.db();
  std::printf("simd: detected %s, active %s\n",
              SimdLevelName(DetectedSimdLevel()),
              SimdLevelName(ActiveSimdLevel()));
  std::printf("database: %d graphs, avg |V| %.1f, avg |E| %.1f\n",
              db.size(), db.AverageNodes(), db.AverageEdges());
  std::printf("PG: %lld edges, avg degree %.1f, connected: %s\n",
              static_cast<long long>(index.pg().NumEdges()),
              index.pg().AverageDegree(),
              index.pg().IsConnected() ? "yes" : "NO");
  std::printf("HNSW: %d layers, entry point #%d\n", index.hnsw().NumLayers(),
              index.hnsw().EntryPoint());
  const EmbeddingMatrix& embeddings = index.embeddings();
  std::printf("embeddings: %lld x %d, f32 %zu bytes\n",
              static_cast<long long>(embeddings.rows()), embeddings.dim(),
              embeddings.f32_bytes());
  std::printf("clusters: %zu (largest %zu, smallest %zu members)\n",
              static_cast<size_t>(index.clusters().centroids.rows()),
              [&] {
                size_t largest = 0;
                for (const auto& m : index.clusters().members) {
                  largest = std::max(largest, m.size());
                }
                return largest;
              }(),
              [&] {
                size_t smallest = static_cast<size_t>(-1);
                for (const auto& m : index.clusters().members) {
                  smallest = std::min(smallest, m.size());
                }
                return smallest;
              }());
  if (!index.trained()) {
    std::printf("models: untrained\n");
    return 0;
  }
  std::printf("gamma* = %.2f; M_nh threshold = %.2f\n", index.gamma_star(),
              index.neighborhood_model()->calibrated_threshold());
  // Neighborhood-size distribution over a few probe queries.
  WorkloadOptions wopts;
  wopts.num_queries = 6;
  QueryWorkload probes = SampleWorkload(db, wopts, 777);
  GedComputer ged(ToolConfig(flags).query_ged);
  std::printf("|N_Q| over %zu probe queries:", probes.train.size());
  for (const Graph& q : probes.train) {
    int64_t in_neighborhood = 0;
    for (GraphId id = 0; id < db.size(); ++id) {
      if (ged.Distance(q, db.Get(id)) <= index.gamma_star()) {
        ++in_neighborhood;
      }
    }
    std::printf(" %lld", static_cast<long long>(in_neighborhood));
  }
  std::printf(" (of %d)\n", db.size());
  return 0;
}

int Eval(const Flags& flags) {
  const int k = flags.GetPositive("k", 10);
  WorkloadOptions wopts;
  // 1/5 become test queries.
  wopts.num_queries = static_cast<int64_t>(flags.GetPositive("queries", 6)) * 5;
  auto index = OpenIndex(flags);
  if (index == nullptr) return 1;
  if (!index->trained()) {
    std::fprintf(stderr,
                 "eval: the LAN sweep needs a trained snapshot "
                 "(build with --queries > 0)\n");
    return 1;
  }
  QueryWorkload workload = SampleWorkload(
      index->db(), wopts, static_cast<uint64_t>(flags.GetInt("seed", 321)));
  GedComputer ged(ToolConfig(flags).query_ged);
  std::vector<KnnList> truths =
      BuildTruths(index->db(), workload.test, k, ged);
  MetricsRegistry registry;
  auto stats_server = StartStatsServer(flags, &registry);
  PrintCurveHeader(k);
  PrintCurve(SweepIndex(*index, RoutingMethod::kLanRoute,
                        InitMethod::kLanIs, workload.test, truths, k,
                        {8, 16, 32}, "LAN", &registry),
             k);
  PrintCurve(SweepIndex(*index, RoutingMethod::kBaselineRoute,
                        InitMethod::kHnswIs, workload.test, truths, k,
                        {8, 16, 32}, "HNSW", &registry),
             k);
  if (flags.Has("metrics-out")) {
    auto out = OpenOut(flags.Get("metrics-out", ""));
    if (out == nullptr) return 1;
    if (ResultCache* cache = index->result_cache()) {
      cache->AppendMetrics(&registry);
    }
    *out << registry.Snapshot().ToJson() << "\n";
    if (CloseOut(out.get(), flags.Get("metrics-out", "")) != 0) return 1;
    std::printf("metrics written to %s\n",
                flags.Get("metrics-out", "").c_str());
  }
  if (flags.Has("trace-out")) {
    auto out = OpenOut(flags.Get("trace-out", ""));
    if (out == nullptr) return 1;
    // One parallel batch over the test queries, one private sink per query
    // (a shared sink would interleave events across workers).
    std::vector<QueryTrace> traces(workload.test.size());
    SearchOptions options;
    options.k = k;
    options.trace_factory = [&traces](size_t i) { return &traces[i]; };
    BatchSearchResult batch = index->SearchBatch(workload.test, options);
    for (size_t i = 0; i < batch.results.size(); ++i) {
      if (!batch.results[i].status.ok()) {
        std::fprintf(stderr, "query %zu failed: %s\n", i,
                     batch.results[i].status.ToString().c_str());
        return 1;
      }
      traces[i].WriteJsonLines(*out, static_cast<int64_t>(i));
    }
    if (CloseOut(out.get(), flags.Get("trace-out", "")) != 0) return 1;
    std::printf("trace (%zu queries) written to %s\n", traces.size(),
                flags.Get("trace-out", "").c_str());
  }
  return 0;
}

int Inspect(const Flags& flags) {
  const std::string path = flags.Get("snapshot", "");
  if (path.empty()) {
    std::fprintf(stderr, "inspect: --snapshot is required\n");
    return 2;
  }
  auto snapshot = Snapshot::Open(path);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "%s\n", snapshot.status().ToString().c_str());
    return 1;
  }
  std::printf("%s: %zu bytes, format v%u\n%s", path.c_str(),
              snapshot->size(), snapshot->version(),
              snapshot->Describe().c_str());
  return 0;
}

/// SIGTERM/SIGINT latch for `serve`: the handler only sets a flag; the
/// query loop notices it between queries and shuts down cleanly (stats
/// server joined, summary printed).
volatile std::sig_atomic_t g_stop = 0;
void HandleStopSignal(int) { g_stop = 1; }

/// `serve`: opens a snapshot and runs a self-generated query loop with the
/// embedded stats server attached until SIGTERM/SIGINT (or --max-queries).
/// Every query runs with the stage profiler on; 1-in-`--trace-sample`
/// queries carry a full trace, and the slowest land in the /slowz ring
/// with their trace and per-stage breakdown.
int Serve(const Flags& flags) {
  const std::string path = flags.Get("snapshot", "");
  const int num_queries = flags.GetPositive("queries", 8);
  const int k = flags.GetPositive("k", 10);
  auto opened = OpenIndex(flags);
  if (opened == nullptr) return 1;
  LanIndex& index = *opened;

  // The query pool: sampled perturbations of database graphs, cycled
  // forever. The snapshot is self-contained — no --db needed.
  const std::vector<Graph> queries =
      SampleQueries(index.db(), num_queries,
                    static_cast<uint64_t>(flags.GetInt("seed", 123)));
  if (queries.empty()) {
    std::fprintf(stderr, "serve: empty query pool\n");
    return 1;
  }

  const int64_t max_queries = flags.GetInt("max-queries", 0);
  const int64_t slow_inject_every = flags.GetInt("slow-inject-every", 0);
  const int64_t throttle_ms = flags.GetInt("throttle-ms", 0);
  const SearchOptions base_options = DefaultSearchOptions(index, k);

  MetricsRegistry registry;
  const QueryHistograms query_hists(&registry);
  StageHistograms stage_hists;
  stage_hists.Register(&registry);
  registry.SetGauge(registry.Gauge("index_live_size"),
                    static_cast<double>(index.live_size()));
  registry.SetGauge(registry.Gauge("index_tombstones"),
                    static_cast<double>(index.tombstones()));
  registry.SetGauge(registry.Gauge("index_epoch"),
                    static_cast<double>(index.epoch()));

  SamplingTraceSink sampler(flags.GetInt("trace-sample", 1));
  SlowQueryRing slow_ring(static_cast<size_t>(
      std::max<int64_t>(1, flags.GetInt("slow-queries", 16))));
  std::atomic<int64_t> served{0};
  Timer uptime;

  // Repeated /metrics scrapes must export cache counter deltas, not
  // re-add lifetime totals (AppendCacheMetrics increments), so the scrape
  // keeps a moving baseline under its own mutex.
  std::mutex scrape_mu;
  ShardCacheStats cache_baseline;

  StatsServer::Options server_options;
  server_options.port = static_cast<int>(flags.GetInt("stats-port", 0));
  StatsServer server(server_options);
  server.Handle("/metrics", [&](const HttpRequest&) {
    std::lock_guard<std::mutex> lock(scrape_mu);
    if (ResultCache* cache = index.result_cache()) {
      const ShardCacheStats now = cache->Stats();
      AppendCacheMetrics(SubtractCacheCounters(now, cache_baseline),
                         cache->capacity_bytes(), &registry);
      cache_baseline = now;
    }
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = RenderPrometheus(registry.Snapshot());
    return response;
  });
  server.Handle("/healthz", [&](const HttpRequest&) {
    HttpResponse response;
    if (const Status ready = index.Ready(base_options); ready.ok()) {
      response.body = "ok\n";
    } else {
      response.status = 503;
      response.body = ready.ToString() + "\n";
    }
    return response;
  });
  server.Handle("/statusz", [&](const HttpRequest&) {
    const ResultCache* cache = index.result_cache();
    std::ostringstream body;
    body << "{\"uptime_seconds\":" << uptime.ElapsedSeconds()
         << ",\"snapshot\":\"" << path << "\""
         << ",\"queries_served\":" << served.load()
         << ",\"epoch\":" << index.epoch()
         << ",\"live_graphs\":" << index.live_size()
         << ",\"tombstones\":" << index.tombstones()
         << ",\"trained\":" << (index.trained() ? "true" : "false")
         << ",\"trace_sample\":" << sampler.every()
         << ",\"slow_ring_capacity\":" << slow_ring.capacity()
         << ",\"simd\":{\"detected\":\"" << SimdLevelName(DetectedSimdLevel())
         << "\",\"active\":\"" << SimdLevelName(ActiveSimdLevel()) << "\"}"
         << ",\"cache_bytes\":" << (cache != nullptr ? cache->Stats().bytes : 0)
         << ",\"build\":{\"compiler\":\"" << __VERSION__ << "\"}"
         << ",\"metrics\":" << registry.Snapshot().ToJson() << "}\n";
    HttpResponse response;
    response.content_type = "application/json";
    response.body = body.str();
    return response;
  });
  server.Handle("/slowz", [&](const HttpRequest&) {
    // Drain-on-read, like a counter delta: each fetch returns the slowest
    // queries since the previous fetch and resets the ring.
    std::ostringstream body;
    WriteSlowQueryJsonLines(slow_ring.Drain(), body);
    HttpResponse response;
    response.content_type = "application/x-ndjson";
    response.body = body.str();
    return response;
  });

  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  if (WritePortFile(flags, server.port()) != 0) return 1;
  std::printf(
      "stats server on http://%s:%d (/metrics /statusz /slowz /healthz)\n",
      server_options.bind_address.c_str(), server.port());
  std::fflush(stdout);
  std::signal(SIGTERM, HandleStopSignal);
  std::signal(SIGINT, HandleStopSignal);

  int64_t errors = 0;
  while (g_stop == 0 && (max_queries == 0 || served.load() < max_queries)) {
    const int64_t qid = served.load(std::memory_order_relaxed);
    const Graph& query = queries[static_cast<size_t>(qid) % queries.size()];
    SearchOptions options = base_options;
    // An injected slow query: widen the beam far past the default so the
    // query is genuinely slower and lands in the /slowz ring with a full
    // breakdown — the acceptance probe for slow-query capture.
    if (slow_inject_every > 0 &&
        qid % slow_inject_every == slow_inject_every - 1) {
      options.beam = static_cast<int>(flags.GetInt("slow-beam", 64));
    }
    QueryTrace* trace = sampler.Begin(qid);
    options.trace = trace;
    Timer timer;
    SearchResult result = index.Search(query, options);
    const double latency = timer.ElapsedSeconds();
    query_hists.Observe(result, latency);
    stage_hists.Observe(result.stats.stages);
    if (!result.status.ok()) {
      ++errors;
      if (errors == 1) {
        std::fprintf(stderr, "query %lld failed: %s\n",
                     static_cast<long long>(qid),
                     result.status.ToString().c_str());
      }
      if (qid == 0) {  // immediate config error, not a transient
        server.Stop();
        return 1;
      }
    }
    SlowQueryRecord record;
    record.query_id = qid;
    record.latency_seconds = latency;
    record.epoch = result.epoch;
    record.stats = result.stats;
    if (trace != nullptr) record.trace = std::move(*trace);
    slow_ring.Offer(std::move(record));
    sampler.End(trace);
    served.fetch_add(1, std::memory_order_relaxed);
    if (throttle_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(throttle_ms));
    }
  }

  server.Stop();
  std::printf("served %lld queries (%lld errors) in %.1fs; shutting down\n",
              static_cast<long long>(served.load()),
              static_cast<long long>(errors), uptime.ElapsedSeconds());
  return errors == 0 ? 0 : 1;
}

FlagSet Union(FlagSet a, const FlagSet& b) {
  a.insert(b.begin(), b.end());
  return a;
}

struct Subcommand {
  int (*run)(const Flags&);
  FlagSet flags;  // every flag `run` reads, besides --force-scalar
};

const std::map<std::string, Subcommand>& Subcommands() {
  // ToolConfig's flags, read by every command that builds or opens an
  // index; `open` adds OpenIndex's --snapshot, and `serving` the result
  // cache and the stats server of the commands that run queries.
  static const FlagSet config = {"build-threads"};
  static const FlagSet open = Union(config, {"snapshot"});
  static const FlagSet serving =
      Union(open, {"ged-cache-mb", "stats-port", "port-file"});
  static const std::map<std::string, Subcommand> commands = {
      {"generate", {&Generate, {"kind", "count", "seed", "out"}}},
      {"stats", {&Stats, {"db"}}},
      {"build", {&Build, Union(config, {"db", "out", "queries", "seed"})}},
      {"search",
       {&SearchCmd, Union(serving, {"k", "queries", "seed", "trace-out",
                                    "metrics-out"})}},
      {"eval",
       {&Eval, Union(serving, {"k", "queries", "seed", "trace-out",
                               "metrics-out"})}},
      {"diagnose", {&Diagnose, open}},
      {"insert", {&InsertCmd, Union(open, {"count", "edits", "seed", "out"})}},
      {"remove", {&RemoveCmd, Union(open, {"id", "count", "seed", "out"})}},
      {"inspect", {&Inspect, {"snapshot"}}},
      {"serve",
       {&Serve,
        Union(serving, {"k", "queries", "seed", "max-queries", "trace-sample",
                        "slow-queries", "slow-inject-every", "slow-beam",
                        "throttle-ms"})}},
  };
  return commands;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const auto it = Subcommands().find(command);
  if (it == Subcommands().end()) return Usage();
  Flags flags(argc, argv, 2, command,
              Union(it->second.flags, {"force-scalar"}));
  // `--force-scalar 1` pins the scalar kernel table (same effect as
  // LAN_FORCE_SCALAR=1): bit-for-bit reproducible results across hosts.
  if (flags.GetInt("force-scalar", 0) != 0) {
    SetActiveSimdLevel(SimdLevel::kScalar);
  }
  return it->second.run(flags);
}

}  // namespace
}  // namespace tool
}  // namespace lan

int main(int argc, char** argv) { return lan::tool::Main(argc, argv); }
