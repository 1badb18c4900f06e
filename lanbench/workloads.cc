#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <limits>
#include <memory>
#include <thread>

#include "common/random.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"
#include "ged/ged_beam.h"
#include "ged/ged_bipartite.h"
#include "ged/ged_computer.h"
#include "ged/ged_exact.h"
#include "ged/ged_lower_bounds.h"
#include "graph/graph_generator.h"
#include "lan/lan_index.h"
#include "lan/workload.h"

namespace lanbench {

using lan::GraphId;
using lan::KnnList;
using lan::Result;
using lan::Status;

namespace {

enum class Kind { kAidsLan, kAidsRepeat, kSynWrites };

// Independent random streams derived from the one --seed.
enum Stream : uint64_t {
  kDatabaseStream = 1,
  kTrainStream,
  kWarmupStream,
  kOpStream,
  kPoolStream,
  kSampleStream,
  kOverheadStream,
};

uint64_t StreamSeed(uint64_t seed, Stream stream) {
  // splitmix64 finalizer over (seed, stream).
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// The database and the training queries come from this fixed seed, so
// every run serves the same index and runs with different --seed values
// differ only in the queries and operations they send. Seed-to-seed spread
// of the end-to-end metrics is then query sampling, which a run averages
// out, rather than a different dataset and different trained models.
constexpr uint64_t kDatasetSeed = 2022;

// Sizes of one run: the committed benchmark, and a tiny preset
// (BenchParams::small) that lets lanbench_test run every workload in
// seconds.
struct Scale {
  int aids_graphs;
  int syn_graphs;
  // Workload size handed to lan::SampleWorkload for Train (60% are used).
  int train_workload;
  int beam;
  // Searches served after set-up, before anything is timed.
  int warmup_searches;
  // aids-lan: searches whose NDC and trace counts are scored. The untraced
  // window runs at least this many and keeps going until --seconds pass;
  // the traced run runs exactly this many.
  int scored_searches;
  // aids-repeat: distinct queries in the pool (recall is scored over it),
  // and scored passes over it.
  int repeat_pool;
  int repeat_scored_passes;
  // Traced run: queries searched both untraced and traced for
  // trace.overhead_ratio, and kDistance pairs replayed tier by tier.
  int overhead_queries;
  int replay_pairs;
};

constexpr Scale kFullScale = {.aids_graphs = 200,
                              .syn_graphs = 500,
                              .train_workload = 30,
                              .beam = 32,
                              .warmup_searches = 8,
                              .scored_searches = 150,
                              .repeat_pool = 40,
                              .repeat_scored_passes = 8,
                              .overhead_queries = 16,
                              .replay_pairs = 1200};

// Every untraced window still needs 100 searches for its p90.
constexpr Scale kSmallScale = {.aids_graphs = 60,
                               .syn_graphs = 120,
                               .train_workload = 10,
                               .beam = 12,
                               .warmup_searches = 2,
                               .scored_searches = 100,
                               .repeat_pool = 4,
                               .repeat_scored_passes = 25,
                               .overhead_queries = 2,
                               .replay_pairs = 150};

constexpr int kK = 10;
// Scored searches (an evenly spaced subset) whose recall is measured
// against exhaustive ground truth.
constexpr int kRecallSearches = 60;
// syn-writes issues its operations in blocks of this mix, at this many
// operations per second of --seconds. Both are assumptions, not taken from
// a measured or published write workload: reads dominate, the live set
// grows by one graph per block, and a 10 s run holds 210 searches (twice
// the 100 a p90 needs).
constexpr int kBlockSearches = 7;
constexpr int kBlockInserts = 2;
constexpr int kBlockRemoves = 1;
constexpr int kBlockSize = kBlockSearches + kBlockInserts + kBlockRemoves;
constexpr int kSynOpsPerSecond = 30;
// Returned distances recomputed from scratch per run.
constexpr int kDistanceSamples = 32;
// Traced aids-* runs: Inserts and Removes made after everything else.
constexpr int kProbeWrites = 8;

int BenchThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp<unsigned>(hw, 1, 4));
}

// The GED protocol every workload pins: lan_tool's gap gate and expansion
// cap, with the wall-clock budget off, so each distance is a pure function
// of its two graphs.
lan::GedOptions PinnedGed() {
  lan::GedOptions options;
  options.skip_exact_gap = 3.0;
  options.exact_max_expansions = 10'000;
  options.exact_time_budget_seconds = 0.0;
  return options;
}

// lan_tool's ToolConfig values plus the pinned protocol.
lan::LanConfig ServingConfig(bool cache) {
  lan::LanConfig config;
  config.query_ged = PinnedGed();
  config.scorer.gnn_dims = {16, 16};
  config.rank.epochs = 5;
  config.nh.epochs = 5;
  config.max_rank_examples = 1500;
  config.max_nh_examples = 1500;
  config.num_threads = BenchThreads();
  config.cache.enabled = cache;
  // Holds the whole aids-repeat pool with room to spare (no evictions).
  config.cache.capacity_bytes = 256ull << 20;
  return config;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double Mean(double sum, int64_t count) {
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

struct ServingIndex {
  std::unique_ptr<lan::LanIndex> index;
  double build_s = 0.0;
  double train_s = 0.0;
  double save_s = 0.0;
  double open_s = 0.0;
  double snapshot_mb = 0.0;
};

// Generation, Build, Train, SaveSnapshot, OpenSnapshot: the path
// `lan_tool snapshot save` + `lan_tool serve` takes.
Result<ServingIndex> SetUp(const lan::DatasetSpec& spec, uint64_t seed,
                           const lan::LanConfig& config, const Scale& scale,
                           const std::string& work_dir) {
  ServingIndex out;
  const std::string path =
      (std::filesystem::path(work_dir) / "lanbench.lansnap").string();
  {
    lan::GraphDatabase db =
        lan::GenerateDatabase(spec, StreamSeed(seed, kDatabaseStream));
    lan::LanIndex builder(config);
    lan::Timer timer;
    if (Status s = builder.Build(static_cast<const lan::GraphDatabase*>(&db));
        !s.ok()) {
      return s;
    }
    out.build_s = timer.ElapsedSeconds();
    lan::WorkloadOptions train_options;
    train_options.num_queries = scale.train_workload;
    const lan::QueryWorkload train = lan::SampleWorkload(
        db, train_options, StreamSeed(seed, kTrainStream));
    timer.Restart();
    if (Status s = builder.Train(train.train); !s.ok()) return s;
    out.train_s = timer.ElapsedSeconds();
    timer.Restart();
    if (Status s = builder.SaveSnapshot(path); !s.ok()) return s;
    out.save_s = timer.ElapsedSeconds();
  }
  std::error_code ec;
  out.snapshot_mb =
      static_cast<double>(std::filesystem::file_size(path, ec)) / (1 << 20);
  out.index = std::make_unique<lan::LanIndex>(config);
  lan::Timer timer;
  Status s = out.index->OpenSnapshot(path);
  out.open_s = timer.ElapsedSeconds();
  // The index keeps its own mapping; the file is not needed any more.
  std::filesystem::remove(path, ec);
  if (!s.ok()) return s;
  return out;
}

enum class OpKind { kSearch, kInsert, kRemove };

struct SearchRecord {
  int64_t op = -1;
  const lan::Graph* query = nullptr;
  /// aids-repeat: the pool member this search served.
  size_t pool_index = 0;
  KnnList results;
  /// Live bitmap of the epoch the search pinned.
  std::shared_ptr<const std::vector<uint8_t>> live;
  /// Part of the seeded subset whose recall is scored.
  bool recall_scored = false;
};

// Per-layer counts and times gathered from the traced searches.
struct TraceTotals {
  lan::StageBreakdown stages;
  double wall_s = 0.0;
  int64_t searches = 0;
  int64_t distance_events = 0;
  int64_t forward_passes = 0;
  double forward_rows = 0.0;
  int64_t model_inferences = 0;
  int64_t routing_steps = 0;
  int64_t batches_opened = 0;
  int64_t gamma_prunes = 0;
  int64_t clusters_kept = 0;
  int64_t clusters_pruned = 0;
};

// The (query, graph) pair behind one kDistance event.
struct DistancePair {
  const lan::Graph* query = nullptr;
  GraphId id = 0;
  double value = 0.0;
  /// Distance of the query's k-th answer (infinite with fewer answers).
  double kth = 0.0;
  /// Ledger operation charged when the pair's replay disagrees.
  int64_t op = -1;
};

double KthDistance(const KnnList& results, int k) {
  return static_cast<int>(results.size()) == k
             ? results.back().second
             : std::numeric_limits<double>::infinity();
}

class Runner {
 public:
  Runner(const BenchParams& params, Kind kind)
      : params_(params),
        scale_(params.small ? kSmallScale : kFullScale),
        kind_(kind),
        op_rng_(StreamSeed(params.seed, kOpStream)) {}

  Result<RunReport> Run() {
    lan::Timer setup_timer;
    const bool syn = kind_ == Kind::kSynWrites;
    const lan::DatasetSpec spec =
        syn ? lan::DatasetSpec::SynLike(scale_.syn_graphs)
            : lan::DatasetSpec::AidsLike(scale_.aids_graphs);
    Result<ServingIndex> setup =
        SetUp(spec, kDatasetSeed, ServingConfig(kind_ == Kind::kAidsRepeat),
              scale_, params_.work_dir);
    if (!setup.ok()) return setup.status();
    serving_ = std::move(setup).value();
    index_ = serving_.index.get();
    // Everything up to here is a function of the fixed dataset; the
    // largest exact-GED attempt among the seed's queries sets any later
    // peak, which is reported per layer instead.
    setup_peak_rss_mb_ = PeakRssMb();
    const lan::GraphDatabase& db = index_->db();
    live_ = std::make_shared<const std::vector<uint8_t>>(
        static_cast<size_t>(db.size()), uint8_t{1});
    for (GraphId id = 0; id < db.size(); ++id) live_ids_.push_back(id);
    initial_size_ = db.size();

    if (Status s = WarmUp(); !s.ok()) return s;
    setup_s_ = setup_timer.ElapsedSeconds();

    if (params_.trace) {
      host_before_ms_ = HostLoopMillis();
      MeasureTraceOverhead();
      RunWindow(/*traced=*/true);
      host_after_ms_ = HostLoopMillis();
      window_peak_rss_mb_ = PeakRssMb();
      lan::Timer checks;
      CheckSampledDistances();
      ReplayGedTiers();
      if (kind_ != Kind::kSynWrites) ProbeWrites();
      checks_s_ = checks.ElapsedSeconds();
      return TracedReport();
    }
    host_before_ms_ = HostLoopMillis();
    RunWindow(/*traced=*/false);
    host_after_ms_ = HostLoopMillis();
    lan::Timer checks;
    ScoreRecall();
    CheckSampledDistances();
    checks_s_ = checks.ElapsedSeconds();
    return EndToEndReport();
  }

 private:
  lan::SearchOptions Options() const {
    lan::SearchOptions options;
    options.k = kK;
    options.beam = scale_.beam;
    options.routing = lan::RoutingMethod::kLanRoute;
    options.init = lan::InitMethod::kLanIs;
    return options;
  }

  // Query `i` of a stream that spreads `per_pass` queries over the
  // database: a perturbed copy of the graph at an even stride. Every run's
  // queries then share the database's size mix, which sets much of a
  // query's cost, and the seed only draws the edits.
  const lan::Graph& StratifiedQuery(int64_t i, int64_t per_pass,
                                    lan::Rng* rng) {
    const lan::GraphDatabase& db = index_->db();
    queries_.push_back(lan::PerturbGraph(db.Get(StrideSource(i, per_pass)),
                                         2, db.num_labels(), rng));
    return queries_.back();
  }

  // Item `i` of `per_pass` spread evenly over the initial database; later
  // passes shift by one.
  GraphId StrideSource(int64_t i, int64_t per_pass) const {
    per_pass = std::max<int64_t>(1, per_pass);
    const int64_t step = std::max<int64_t>(1, initial_size_ / per_pass);
    return static_cast<GraphId>((i * step + i / per_pass) % initial_size_);
  }

  Status WarmUp() {
    const lan::SearchOptions options = Options();
    if (kind_ == Kind::kAidsRepeat) {
      // The pool is served once cold (the reference answers the hot window
      // must reproduce) and once hot, before anything is timed.
      lan::Rng rng(StreamSeed(params_.seed, kPoolStream));
      for (int i = 0; i < scale_.repeat_pool; ++i) {
        pool_.push_back(&StratifiedQuery(i, scale_.repeat_pool, &rng));
      }
      // The hot window computes no GED at all, so the traced run replays
      // the cold pass's distance pairs instead.
      lan::QueryTrace trace;
      lan::SearchOptions cold_options = options;
      if (params_.trace) cold_options.trace = &trace;
      for (const lan::Graph* query : pool_) {
        trace.Clear();
        lan::SearchResult r = index_->Search(*query, cold_options);
        if (!r.status.ok()) return r.status;
        SearchRecord cold;
        cold.query = query;
        cold.results = std::move(r.results);
        CollectPairs(trace, cold);
        cold_results_.push_back(std::move(cold.results));
        cold_ndc_.push_back(r.stats.ndc);
      }
      for (const lan::Graph* query : pool_) {
        lan::SearchResult r = index_->Search(*query, options);
        if (!r.status.ok()) return r.status;
      }
      return Status::OK();
    }
    lan::Rng rng(StreamSeed(params_.seed, kWarmupStream));
    for (int i = 0; i < scale_.warmup_searches; ++i) {
      lan::SearchResult r = index_->Search(
          StratifiedQuery(i, scale_.warmup_searches, &rng), options);
      if (!r.status.ok()) return r.status;
    }
    return Status::OK();
  }

  // syn-writes: every block of ops holds the same mix in a seeded order,
  // so each run does the same number of each kind.
  OpKind NextKind() {
    if (kind_ != Kind::kSynWrites) return OpKind::kSearch;
    if (block_.empty()) {
      block_.assign(static_cast<size_t>(kBlockSearches),
                    OpKind::kSearch);
      block_.insert(block_.end(), static_cast<size_t>(kBlockInserts),
                    OpKind::kInsert);
      block_.insert(block_.end(), static_cast<size_t>(kBlockRemoves),
                    OpKind::kRemove);
      op_rng_.Shuffle(&block_);
    }
    const OpKind kind = block_.back();
    block_.pop_back();
    return kind;
  }

  // One search; checks its status, epoch and result list immediately.
  // Only scored searches keep their record (for the checks that follow the
  // window), so what the benchmark itself holds in memory does not grow
  // with host speed.
  void Search(const lan::Graph& query, size_t pool_index, bool traced,
              bool scored, bool recall_scored, lan::QueryTrace* trace) {
    SearchRecord record;
    record.op = ledger_.Attempt();
    record.query = &query;
    record.pool_index = pool_index;
    record.live = live_;
    record.recall_scored = recall_scored;
    lan::SearchOptions options = Options();
    if (traced) {
      trace->Clear();
      options.profile = true;
      options.trace = trace;
    }
    lan::Timer timer;
    lan::SearchResult r = index_->Search(query, options);
    const double seconds = timer.ElapsedSeconds();
    search_ms_.push_back(seconds * 1e3);
    if (!r.status.ok()) {
      ledger_.Fail(record.op, "search: " + r.status.ToString());
    } else if (r.epoch != epoch_) {
      ledger_.Fail(record.op, "search pinned epoch " +
                                  std::to_string(r.epoch) + ", expected " +
                                  std::to_string(epoch_));
    } else if (std::string why = CheckResultList(r.results, kK, *live_);
               !why.empty()) {
      ledger_.Fail(record.op, why);
    } else if (kind_ == Kind::kAidsRepeat &&
               r.results != cold_results_[pool_index]) {
      ledger_.Fail(record.op, "hot answer differs from the cold answer");
    }
    if (!scored) return;
    // A hot aids-repeat search computes no GED; it reports the GED calls
    // its pool member made when it was served cold.
    scored_ndc_ += kind_ == Kind::kAidsRepeat ? cold_ndc_[pool_index]
                                               : r.stats.ndc;
    ++scored_searches_;
    record.results = std::move(r.results);
    records_.push_back(std::move(record));
    if (traced) {
      Digest(*trace, r.stats, seconds);
      CollectPairs(*trace, records_.back());
    }
  }

  void Digest(const lan::QueryTrace& trace, const lan::SearchStats& stats,
              double seconds) {
    using lan::TraceEventType;
    TraceTotals& t = trace_totals_;
    t.stages.Merge(stats.stages);
    t.wall_s += seconds;
    ++t.searches;
    t.model_inferences += stats.model_inferences;
    t.routing_steps += stats.routing_steps;
    for (const lan::TraceEvent& e : trace.events()) {
      switch (e.type) {
        case TraceEventType::kDistance:
          ++t.distance_events;
          break;
        case TraceEventType::kModelInference:
          ++t.forward_passes;
          t.forward_rows += e.aux;
          break;
        case TraceEventType::kBatchOpen:
          ++t.batches_opened;
          break;
        case TraceEventType::kGammaPrune:
          ++t.gamma_prunes;
          break;
        case TraceEventType::kClusterScore:
          ++t.clusters_kept;
          break;
        case TraceEventType::kClusterPrune:
          ++t.clusters_pruned;
          break;
        default:
          break;
      }
    }
  }

  void CollectPairs(const lan::QueryTrace& trace, const SearchRecord& record) {
    const double kth = KthDistance(record.results, kK);
    for (const lan::TraceEvent& e : trace.events()) {
      if (e.type == lan::TraceEventType::kDistance) {
        pairs_.push_back({record.query, static_cast<GraphId>(e.id), e.value,
                          kth, record.op});
      }
    }
  }

  // Inserts a perturbed copy of a database graph; like the queries, the
  // sources are spread over the database at an even stride and the seed
  // draws the edits.
  void Insert(int64_t planned) {
    const int64_t op = ledger_.Attempt();
    const lan::GraphDatabase& db = index_->db();
    const GraphId source = StrideSource(inserts_++, planned);
    lan::Graph graph =
        lan::PerturbGraph(db.Get(source), 2, db.num_labels(), &op_rng_);
    const GraphId expected = db.size();
    lan::Timer timer;
    Result<GraphId> id = index_->Insert(std::move(graph));
    insert_ms_.push_back(timer.ElapsedMillis());
    if (!id.ok()) {
      ledger_.Fail(op, "insert: " + id.status().ToString());
      return;
    }
    if (*id != expected) {
      ledger_.Fail(op, "insert returned id " + std::to_string(*id));
    }
    auto live = std::make_shared<std::vector<uint8_t>>(*live_);
    live->resize(static_cast<size_t>(*id) + 1, 0);
    (*live)[static_cast<size_t>(*id)] = 1;
    live_ = std::move(live);
    live_ids_.push_back(*id);
    ++epoch_;
  }

  // Victims come from the benchmark's own live-id list, so a Remove never
  // targets an id that is already gone.
  void Remove() {
    const int64_t op = ledger_.Attempt();
    // A fixed stride through the list rather than a random pick: which
    // graph goes is then the same whatever the seed, only the order of
    // operations around it changes.
    const size_t slot = static_cast<size_t>(removes_++ * 7919) %
                        live_ids_.size();
    const GraphId victim = live_ids_[slot];
    lan::Timer timer;
    const Status s = index_->Remove(victim);
    remove_ms_.push_back(timer.ElapsedMillis());
    if (!s.ok()) {
      ledger_.Fail(op, "remove: " + s.ToString());
      return;
    }
    live_ids_[slot] = live_ids_.back();
    live_ids_.pop_back();
    auto live = std::make_shared<std::vector<uint8_t>>(*live_);
    (*live)[static_cast<size_t>(victim)] = 0;
    live_ = std::move(live);
    ++epoch_;
  }

  // syn-writes runs a fixed operation sequence whose length --seconds sets
  // at a nominal rate: its index changes with every write, so a window
  // bounded by time would let host speed decide which index the later
  // searches see.
  int64_t SynBlocks() const {
    // At least enough searches for a p90.
    const int64_t min_blocks =
        (10 * kMinTailSamples + kBlockSearches - 1) / kBlockSearches;
    return std::max<int64_t>(
        min_blocks,
        static_cast<int64_t>(params_.seconds * kSynOpsPerSecond) /
            kBlockSize);
  }
  int64_t SynOps() const { return SynBlocks() * kBlockSize; }

  // Searches whose NDC (and trace counts) are scored: a pure function of
  // the seed.
  int64_t ScoredSearches() const {
    switch (kind_) {
      case Kind::kAidsLan:
        return scale_.scored_searches;
      case Kind::kAidsRepeat:
        return static_cast<int64_t>(pool_.size()) *
               scale_.repeat_scored_passes;
      case Kind::kSynWrites:
        return SynBlocks() * kBlockSearches;
    }
    return 0;
  }

  bool RecallScored(int64_t search) const {
    if (kind_ == Kind::kAidsRepeat) {
      return search < static_cast<int64_t>(pool_.size());  // one pass
    }
    // recall_searches of the scored searches, evenly spaced.
    const int64_t scored = ScoredSearches();
    return search < scored && (search * kRecallSearches) % scored <
                                  kRecallSearches;
  }

  // The measured window: a closed loop of one client. Its first
  // ScoredSearches() searches, and the writes between them, are a pure
  // function of the seed. The untraced window of the read-only workloads
  // then keeps searching until --seconds have passed.
  void RunWindow(bool traced) {
    const int64_t target = ScoredSearches();
    const bool timed = !traced && kind_ != Kind::kSynWrites;
    lan::Rng query_rng(StreamSeed(params_.seed, kOpStream) + 1);
    lan::QueryTrace trace;
    int64_t searches = 0;
    search_ms_.clear();
    lan::Timer window;
    const int64_t planned_ops = kind_ == Kind::kSynWrites ? SynOps() : 0;
    const int64_t planned_inserts = SynBlocks() * kBlockInserts;
    int64_t ops = 0;
    while (searches < target || ops < planned_ops ||
           (timed && window.ElapsedSeconds() < params_.seconds)) {
      ++ops;
      switch (NextKind()) {
        case OpKind::kInsert:
          Insert(planned_inserts);
          break;
        case OpKind::kRemove:
          Remove();
          break;
        case OpKind::kSearch: {
          const bool scored = searches < target;
          const bool recall_scored = RecallScored(searches);
          if (kind_ == Kind::kAidsRepeat) {
            const size_t i = static_cast<size_t>(searches) % pool_.size();
            Search(*pool_[i], i, traced, scored, recall_scored, &trace);
          } else {
            Search(StratifiedQuery(searches, target, &query_rng), 0, traced,
                   scored, recall_scored, &trace);
            if (!scored) queries_.pop_back();
          }
          ++searches;
          break;
        }
      }
    }
    window_s_ = window.ElapsedSeconds();
    window_searches_ = searches;
  }

  // Exact distances of every scored query to every graph, under the pinned
  // protocol; recall is scored against the live set of the epoch each
  // search pinned, and every returned distance must match its true value.
  void ScoreRecall() {
    std::vector<const SearchRecord*> scored;
    std::vector<const lan::Graph*> queries;
    for (const SearchRecord& r : records_) {
      if (!r.recall_scored) continue;
      scored.push_back(&r);
      if (kind_ != Kind::kAidsRepeat) queries.push_back(r.query);
    }
    if (kind_ == Kind::kAidsRepeat) queries = pool_;
    const lan::GraphDatabase& db = index_->db();
    const lan::GedComputer ged(PinnedGed());
    std::vector<std::vector<double>> dist(queries.size());
    lan::ThreadPool pool(static_cast<size_t>(BenchThreads()));
    pool.ParallelFor(queries.size(), [&](size_t i) {
      dist[i] = lan::ComputeAllDistances(db, *queries[i], ged);
    });
    double recall_sum = 0.0;
    for (size_t i = 0; i < scored.size(); ++i) {
      const SearchRecord& r = *scored[i];
      const std::vector<double>& d =
          dist[kind_ == Kind::kAidsRepeat ? r.pool_index : i];
      recall_sum += RecallAgainstLive(r.results, d, *r.live, kK);
      for (const auto& [id, value] : r.results) {
        if (id >= 0 && static_cast<size_t>(id) < d.size() &&
            d[static_cast<size_t>(id)] != value) {
          ledger_.Fail(r.op, "returned distance of id " + std::to_string(id) +
                                 " differs from its exact value");
          break;
        }
      }
    }
    recall_ = Mean(recall_sum, static_cast<int64_t>(scored.size()));
  }

  // A seeded sample of the scored answers' distances, recomputed by a fresh
  // GedComputer under the pinned protocol.
  void CheckSampledDistances() {
    std::vector<std::pair<size_t, size_t>> entries;
    for (size_t i = 0; i < records_.size(); ++i) {
      for (size_t j = 0; j < records_[i].results.size(); ++j) {
        entries.emplace_back(i, j);
      }
    }
    lan::Rng rng(StreamSeed(params_.seed, kSampleStream));
    const lan::GedComputer ged(PinnedGed());
    const lan::GraphDatabase& db = index_->db();
    for (int s = 0; s < kDistanceSamples && !entries.empty(); ++s) {
      const auto [i, j] =
          entries[static_cast<size_t>(rng.NextBounded(entries.size()))];
      const SearchRecord& r = records_[i];
      const auto& [id, value] = r.results[j];
      if (ged.Distance(*r.query, db.Get(id)) != value) {
        ledger_.Fail(r.op, "recomputed distance of id " + std::to_string(id) +
                               " differs");
      }
    }
  }

  // trace.overhead_ratio: the same queries searched untraced and traced,
  // alternating per query so host drift hits both sides alike.
  void MeasureTraceOverhead() {
    lan::Rng rng(StreamSeed(params_.seed, kOverheadStream));
    lan::QueryTrace trace;
    double untraced_s = 0.0;
    double traced_s = 0.0;
    for (int i = 0; i < scale_.overhead_queries; ++i) {
      const size_t pool_index = pool_.empty() ? 0 : i % pool_.size();
      const lan::Graph& query =
          pool_.empty() ? StratifiedQuery(i, scale_.overhead_queries, &rng)
                        : *pool_[pool_index];
      const int64_t op = ledger_.Attempt();
      lan::SearchOptions options = Options();
      lan::Timer timer;
      lan::SearchResult plain = index_->Search(query, options);
      untraced_s += timer.ElapsedSeconds();
      trace.Clear();
      options.profile = true;
      options.trace = &trace;
      timer.Restart();
      lan::SearchResult traced = index_->Search(query, options);
      traced_s += timer.ElapsedSeconds();
      if (!plain.status.ok() || !traced.status.ok()) {
        ledger_.Fail(op, "search: " + plain.status.ToString() + " / " +
                             traced.status.ToString());
      } else if (plain.results != traced.results) {
        ledger_.Fail(op, "tracing changed a search answer");
      }
    }
    overhead_ratio_ = untraced_s > 0.0 ? traced_s / untraced_s : 0.0;
  }

  // Replays the public GED tier functions on a seeded sample of the traced
  // (query, graph) pairs behind kDistance events, timing each tier, and
  // checks that the protocol's pick among the tiers equals the recorded
  // distance.
  void ReplayGedTiers() {
    std::vector<size_t> sample(pairs_.size());
    for (size_t i = 0; i < sample.size(); ++i) sample[i] = i;
    if (sample.size() > static_cast<size_t>(scale_.replay_pairs)) {
      lan::Rng rng(StreamSeed(params_.seed, kSampleStream) + 1);
      rng.Shuffle(&sample);
      sample.resize(static_cast<size_t>(scale_.replay_pairs));
      std::sort(sample.begin(), sample.end());
    }
    const lan::GedOptions protocol = PinnedGed();
    const lan::GedCosts& costs = protocol.costs;
    const double min_cost =
        std::min({costs.node_insert, costs.node_delete, costs.node_relabel,
                  costs.edge_insert, costs.edge_delete});
    const lan::GraphDatabase& db = index_->db();
    ReplayTotals& t = replay_;
    for (size_t index : sample) {
      const DistancePair& pair = pairs_[index];
      const lan::Graph& q = *pair.query;
      const lan::Graph& g = db.Get(pair.id);
      lan::Timer timer;
      const double vj = lan::BipartiteGedVj(q, g, costs).distance;
      t.vj_s += timer.ElapsedSeconds();
      timer.Restart();
      const double hung = lan::BipartiteGedHungarian(q, g, costs).distance;
      t.hungarian_s += timer.ElapsedSeconds();
      timer.Restart();
      const double beam =
          lan::BeamGed(q, g, protocol.beam_width, costs).distance;
      t.beam_s += timer.ElapsedSeconds();
      timer.Restart();
      const double lb = lan::BestLowerBound(q, g);
      t.lb_s += timer.ElapsedSeconds();

      // GedComputer's pick: the smallest upper bound (earlier tier on
      // ties), replaced by a proven exact value when the gap gate lets the
      // A* attempt run.
      double best = vj;
      lan::GedMethod method = lan::GedMethod::kVj;
      if (hung < best) {
        best = hung;
        method = lan::GedMethod::kHungarian;
      }
      if (beam < best) {
        best = beam;
        method = lan::GedMethod::kBeam;
      }
      if (best - lb * min_cost <= protocol.skip_exact_gap) {
        ++t.exact_tried;
        lan::ExactGedOptions exact_options;
        exact_options.max_expansions = protocol.exact_max_expansions;
        exact_options.time_budget_seconds = 0.0;
        exact_options.upper_bound = best;
        exact_options.costs = costs;
        timer.Restart();
        Result<lan::ExactGedResult> exact = lan::ExactGed(q, g, exact_options);
        t.exact_s += timer.ElapsedSeconds();
        if (exact.ok()) {
          ++t.exact_proven;
          t.exact_expansions += exact->expansions;
          best = exact->distance;
          method = lan::GedMethod::kExact;
        } else {
          t.exact_expansions += protocol.exact_max_expansions;
        }
      }
      ++t.best[static_cast<size_t>(method)];
      ++t.pairs;
      if (best != pair.value) {
        // Cold-pass pairs (aids-repeat) are charged to the window's first
        // search of the same pool member, whose answer they produced.
        const int64_t op = pair.op >= 0 ? pair.op : FirstSearchOf(pair.query);
        ledger_.Fail(op, "GED tier replay of id " + std::to_string(pair.id) +
                             " disagrees with the traced distance");
      }
      if (lb * min_cost > pair.kth) ++t.lb_prunable;
    }
  }

  int64_t FirstSearchOf(const lan::Graph* query) const {
    for (const SearchRecord& r : records_) {
      if (r.query == query) return r.op;
    }
    return -1;
  }

  // The aids workloads have no writes in their window; their traced run
  // ends with a few writes of perturbed copies so the mutation layer is
  // timed on AIDS-like graphs too. Nothing else runs after them.
  void ProbeWrites() {
    for (int i = 0; i < kProbeWrites; ++i) Insert(kProbeWrites);
    for (int i = 0; i < kProbeWrites; ++i) Remove();
  }

  RunReport BaseReport() const {
    RunReport report;
    report.attempted = ledger_.attempted();
    report.failed = ledger_.failed();
    char line[160];
    std::snprintf(line, sizeof(line),
                  "host loop: %.3f ms before the window, %.3f ms after "
                  "(diagnostic only)",
                  host_before_ms_, host_after_ms_);
    report.notes.push_back(line);
    std::snprintf(line, sizeof(line),
                  "phases: set-up %.2f s, window %.2f s, checks %.2f s",
                  setup_s_, window_s_, checks_s_);
    report.notes.push_back(line);
    const auto& reasons = ledger_.reasons();
    for (size_t i = 0; i < reasons.size() && i < 10; ++i) {
      report.notes.push_back("failed " + reasons[i]);
    }
    return report;
  }

  Result<RunReport> EndToEndReport() const {
    const std::optional<double> p90 = TailPercentile(search_ms_, 90.0);
    if (!p90.has_value()) {
      return Status::Internal("too few searches for a p90: " +
                              std::to_string(search_ms_.size()));
    }
    RunReport report = BaseReport();
    report.metrics = {
        {"qps", static_cast<double>(window_searches_) / window_s_, "1/s"},
        {"latency_p50_ms", NearestRank(search_ms_, 50.0), "ms"},
        {"latency_p90_ms", *p90, "ms"},
        {"recall_at_10", recall_, "ratio", true},
        {"ndc_per_query", Mean(static_cast<double>(scored_ndc_),
                               scored_searches_),
         "count", true},
        {"setup_s", setup_s_, "s"},
        {"peak_rss_mb", setup_peak_rss_mb_, "MB"},
    };
    return report;
  }

  Result<RunReport> TracedReport() const {
    const TraceTotals& t = trace_totals_;
    const ReplayTotals& r = replay_;
    const int64_t n = t.searches;
    auto stage_ms = [&](lan::Stage stage) {
      return Mean(t.stages.SecondsOf(stage) * 1e3, n);
    };
    auto median = [](const std::vector<double>& v) {
      return v.empty() ? 0.0 : NearestRank(v, 50.0);
    };
    auto share = [&](int64_t part) {
      return Mean(static_cast<double>(part), r.pairs);
    };
    auto tier = [&](lan::GedMethod m) {
      return share(r.best[static_cast<size_t>(m)]);
    };
    const lan::ShardCacheStats cache = CacheStats();
    RunReport report = BaseReport();
    report.metrics = {
        {"stage.ged_ms", stage_ms(lan::Stage::kGed), "ms"},
        {"stage.model_inference_ms", stage_ms(lan::Stage::kModelInference),
         "ms"},
        {"stage.routing_ms", stage_ms(lan::Stage::kRouting), "ms"},
        {"stage.rerank_ms", stage_ms(lan::Stage::kRerank), "ms"},
        {"stage.init_selection_ms", stage_ms(lan::Stage::kInitSelection),
         "ms"},
        {"stage.cache_lookup_ms", stage_ms(lan::Stage::kCacheLookup), "ms"},
        {"trace.stage_coverage_ratio",
         t.wall_s > 0.0 ? t.stages.TotalSeconds() / t.wall_s : 0.0, "ratio"},
        {"trace.overhead_ratio", overhead_ratio_, "ratio"},
        {"ged.calls_per_query",
         Mean(static_cast<double>(t.distance_events), n), "count", true},
        {"ged.replayed_pairs", static_cast<double>(r.pairs), "count", true},
        {"ged.vj_us", Mean(r.vj_s * 1e6, r.pairs), "us"},
        {"ged.hungarian_us", Mean(r.hungarian_s * 1e6, r.pairs), "us"},
        {"ged.beam_us", Mean(r.beam_s * 1e6, r.pairs), "us"},
        {"ged.lb_us", Mean(r.lb_s * 1e6, r.pairs), "us"},
        {"ged.exact_us", Mean(r.exact_s * 1e6, r.exact_tried), "us"},
        {"ged.exact_tried_ratio", share(r.exact_tried), "ratio", true},
        {"ged.exact_proven_ratio", share(r.exact_proven), "ratio", true},
        {"ged.exact_expansions",
         Mean(static_cast<double>(r.exact_expansions), r.exact_tried),
         "count", true},
        {"ged.best_tier_share.vj", tier(lan::GedMethod::kVj), "ratio", true},
        {"ged.best_tier_share.hungarian", tier(lan::GedMethod::kHungarian),
         "ratio", true},
        {"ged.best_tier_share.beam", tier(lan::GedMethod::kBeam), "ratio",
         true},
        {"ged.best_tier_share.exact", tier(lan::GedMethod::kExact), "ratio",
         true},
        {"ged.lb_prunable_ratio", share(r.lb_prunable), "ratio", true},
        {"nn.forward_passes", Mean(static_cast<double>(t.forward_passes), n),
         "count", true},
        {"nn.rows_per_pass", Mean(t.forward_rows, t.forward_passes), "count",
         true},
        {"nn.model_inferences",
         Mean(static_cast<double>(t.model_inferences), n), "count", true},
        {"pg.routing_steps", Mean(static_cast<double>(t.routing_steps), n),
         "count", true},
        {"pg.batches_opened", Mean(static_cast<double>(t.batches_opened), n),
         "count", true},
        {"pg.gamma_prunes", Mean(static_cast<double>(t.gamma_prunes), n),
         "count", true},
        {"init.clusters_kept_ratio",
         Mean(static_cast<double>(t.clusters_kept),
              t.clusters_kept + t.clusters_pruned),
         "ratio", true},
        {"cache.hit_ratio",
         Mean(static_cast<double>(cache.hits), cache.hits + cache.misses),
         "ratio", true},
        {"cache.evictions", static_cast<double>(cache.evictions), "count",
         true},
        {"cache.mb", static_cast<double>(cache.bytes) / (1 << 20), "MB",
         true},
        {"lan.insert_ms", median(insert_ms_), "ms"},
        {"lan.remove_ms", median(remove_ms_), "ms"},
        {"index.epoch", static_cast<double>(epoch_), "count", true},
        {"setup.build_s", serving_.build_s, "s"},
        {"setup.train_s", serving_.train_s, "s"},
        {"store.save_s", serving_.save_s, "s"},
        {"store.open_s", serving_.open_s, "s"},
        {"store.snapshot_mb", serving_.snapshot_mb, "MB", true},
        {"mem.window_peak_rss_mb", window_peak_rss_mb_, "MB"},
        {"host.loop_before_ms", host_before_ms_, "ms"},
        {"host.loop_after_ms", host_after_ms_, "ms"},
    };
    return report;
  }

  // Lifetime counters of the result cache (zero when it is off); the
  // traced run serves exactly the warm-up and the scored window, so they
  // are a function of the seed.
  lan::ShardCacheStats CacheStats() const {
    const lan::ResultCache* cache = index_->result_cache();
    return cache != nullptr ? cache->Stats() : lan::ShardCacheStats{};
  }

  struct ReplayTotals {
    int64_t pairs = 0;
    double vj_s = 0.0;
    double hungarian_s = 0.0;
    double beam_s = 0.0;
    double lb_s = 0.0;
    double exact_s = 0.0;
    int64_t exact_tried = 0;
    int64_t exact_proven = 0;
    int64_t exact_expansions = 0;
    int64_t best[4] = {0, 0, 0, 0};
    int64_t lb_prunable = 0;
  };

  const BenchParams& params_;
  const Scale scale_;
  const Kind kind_;
  lan::Rng op_rng_;
  ServingIndex serving_;
  lan::LanIndex* index_ = nullptr;

  /// Every query graph the run generated (stable addresses).
  std::deque<lan::Graph> queries_;
  std::vector<const lan::Graph*> pool_;
  std::vector<OpKind> block_;
  std::vector<KnnList> cold_results_;
  std::vector<int64_t> cold_ndc_;

  /// The benchmark's own view of the index: epoch, live bitmap, live ids.
  uint64_t epoch_ = 0;
  int64_t initial_size_ = 0;
  int64_t inserts_ = 0;
  int64_t removes_ = 0;
  std::shared_ptr<const std::vector<uint8_t>> live_;
  std::vector<GraphId> live_ids_;

  OpLedger ledger_;
  std::vector<SearchRecord> records_;
  std::vector<double> search_ms_;
  std::vector<double> insert_ms_;
  std::vector<double> remove_ms_;
  double window_s_ = 0.0;
  int64_t window_searches_ = 0;
  int64_t scored_ndc_ = 0;
  int64_t scored_searches_ = 0;
  double recall_ = 0.0;
  double setup_peak_rss_mb_ = 0.0;
  double window_peak_rss_mb_ = 0.0;

  double setup_s_ = 0.0;
  double checks_s_ = 0.0;
  double host_before_ms_ = 0.0;
  double host_after_ms_ = 0.0;
  double overhead_ratio_ = 0.0;
  TraceTotals trace_totals_;
  std::vector<DistancePair> pairs_;
  ReplayTotals replay_;
};

Result<Kind> ParseKind(const std::string& name) {
  if (name == "aids-lan") return Kind::kAidsLan;
  if (name == "aids-repeat") return Kind::kAidsRepeat;
  if (name == "syn-writes") return Kind::kSynWrites;
  return Status::InvalidArgument("unknown workload '" + name + "'");
}

}  // namespace

Result<RunReport> RunWorkload(const BenchParams& params) {
  Result<Kind> kind = ParseKind(params.workload);
  if (!kind.ok()) return kind.status();
  Runner runner(params, *kind);
  return runner.Run();
}

}  // namespace lanbench
