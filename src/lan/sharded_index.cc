#include "lan/sharded_index.h"

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <span>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "store/snapshot.h"

namespace lan {

ShardedLanIndex::ShardedLanIndex(ShardedIndexOptions options)
    : options_(std::move(options)) {
  LAN_CHECK_GT(options_.num_shards, 0);
}

ShardedLanIndex::~ShardedLanIndex() = default;

std::shared_ptr<const ShardedLanIndex::ShardMaps> ShardedLanIndex::Maps()
    const {
  return std::atomic_load_explicit(&maps_, std::memory_order_acquire);
}

void ShardedLanIndex::PublishMaps(std::shared_ptr<const ShardMaps> maps) {
  std::atomic_store_explicit(&maps_, std::move(maps),
                             std::memory_order_release);
}

Status ShardedLanIndex::Build(const GraphDatabase& db) {
  if (db.empty()) return Status::InvalidArgument("Build: empty database");
  const int shards = std::min<int>(options_.num_shards, db.size());

  auto maps = std::make_shared<ShardMaps>();
  maps->total_size = db.size();
  maps->global_ids.assign(static_cast<size_t>(shards), {});
  maps->owner.assign(static_cast<size_t>(db.size()), {0, kInvalidGraphId});

  shard_dbs_.clear();
  shard_dbs_.reserve(static_cast<size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    GraphDatabase shard_db(db.num_labels());
    shard_db.set_name(db.name() + StrFormat("/shard%d", s));
    shard_dbs_.push_back(std::move(shard_db));
  }
  // Round-robin partition ("randomly split into equal-size sub-datasets";
  // our generators emit i.i.d. graphs, so round-robin is a random split).
  for (GraphId id = 0; id < db.size(); ++id) {
    const int s = static_cast<int>(id % shards);
    auto added = shard_dbs_[static_cast<size_t>(s)].Add(db.Get(id));
    if (!added.ok()) return added.status();
    maps->owner[static_cast<size_t>(id)] = {s, added.value()};
    maps->global_ids[static_cast<size_t>(s)].push_back(id);
  }

  // Construct every shard index first (cheap), then build them
  // concurrently: shards are independent, so shard-level parallelism
  // stacks on top of whatever per-shard threading each LanIndex uses.
  // Bound the total thread footprint: each LanIndex owns a resident pool
  // (num_threads == 0 means hardware width), so letting every shard build
  // at once would run shards x hardware_concurrency threads. At most
  // `concurrent` shards build simultaneously, and auto-sized shard pools
  // split the hardware width between them.
  const size_t hw = DefaultThreadCount();
  const size_t concurrent = std::min<size_t>(static_cast<size_t>(shards), hw);
  shards_.clear();
  for (int s = 0; s < shards; ++s) {
    shards_.push_back(
        std::make_unique<LanIndex>(ShardConfig(s, shards, concurrent)));
  }
  std::vector<Status> statuses(static_cast<size_t>(shards), Status::OK());
  ThreadPool::ParallelFor(
      static_cast<size_t>(shards), concurrent, [this, &statuses](size_t s) {
        statuses[s] = shards_[s]->Build(&shard_dbs_[s]);
      });
  for (const Status& status : statuses) LAN_RETURN_NOT_OK(status);
  PublishMaps(std::move(maps));
  return Status::OK();
}

LanConfig ShardedLanIndex::ShardConfig(int s, int shards,
                                       size_t concurrent) const {
  LanConfig config = options_.shard_config;
  config.seed += static_cast<uint64_t>(s) * 7919;
  // The configured cache budget is for the whole sharded index; each
  // shard's private cache gets an equal slice.
  if (config.cache.enabled && shards > 0) {
    config.cache.capacity_bytes = std::max<size_t>(
        1 << 20, config.cache.capacity_bytes / static_cast<size_t>(shards));
  }
  if (config.num_threads <= 0) {
    config.num_threads = static_cast<int>(
        std::max<size_t>(1, DefaultThreadCount() / concurrent));
  }
  return config;
}

Status ShardedLanIndex::Train(const std::vector<Graph>& train_queries) {
  if (shards_.empty()) return Status::FailedPrecondition("Train before Build");
  for (auto& shard : shards_) {
    LAN_RETURN_NOT_OK(shard->Train(train_queries));
  }
  return Status::OK();
}

namespace {

std::string ShardFileName(int s) { return StrFormat("shard-%03d.lansnap", s); }

constexpr char kManifestFileName[] = "manifest.lansnap";

}  // namespace

Status ShardedLanIndex::SaveSnapshot(const std::string& dir) const {
  if (shards_.empty()) {
    return Status::FailedPrecondition("SaveSnapshot before Build");
  }
  // Hold the writer lock so the manifest's id maps describe exactly the
  // shard states being written (no Insert/Remove can slip between files).
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return ErrnoIoError("cannot create snapshot directory", dir);
  }
  const auto maps = Maps();

  SnapshotWriter writer;
  SectionBuilder* b = writer.AddSection(SectionKind::kShardManifest);
  b->Pod<int32_t>(num_shards());
  b->Pod<int64_t>(maps->total_size);
  for (int s = 0; s < num_shards(); ++s) {
    const std::string file = ShardFileName(s);
    b->Pod<int64_t>(static_cast<int64_t>(file.size()));
    b->Bytes(file.data(), file.size());
    const auto& ids = maps->global_ids[static_cast<size_t>(s)];
    b->Pod<int64_t>(static_cast<int64_t>(ids.size()));
    b->Array(ids.data(), ids.size());
  }

  for (int s = 0; s < num_shards(); ++s) {
    LAN_RETURN_NOT_OK(shards_[static_cast<size_t>(s)]->SaveSnapshot(
        dir + "/" + ShardFileName(s)));
  }
  // Manifest last: its presence marks the directory complete, so a crash
  // mid-save never leaves something OpenSnapshot would accept.
  return writer.WriteToFile(dir + "/" + kManifestFileName);
}

Status ShardedLanIndex::OpenSnapshot(const std::string& dir) {
  if (!shards_.empty()) {
    return Status::FailedPrecondition(
        "OpenSnapshot: index already built; use a fresh instance");
  }
  LAN_ASSIGN_OR_RETURN(Snapshot manifest,
                       Snapshot::Open(dir + "/" + kManifestFileName));
  if (!manifest.Has(SectionKind::kShardManifest)) {
    return Status::IoError("snapshot manifest: missing shard_manifest section");
  }
  SectionReader r(manifest.Section(SectionKind::kShardManifest));
  int32_t shards = 0;
  int64_t total = 0;
  LAN_RETURN_NOT_OK(r.Pod(&shards));
  LAN_RETURN_NOT_OK(r.Pod(&total));
  if (shards <= 0 || total < shards) {
    return Status::IoError(
        StrFormat("snapshot manifest: implausible shape (%d shards, %lld "
                  "graphs)",
                  shards, static_cast<long long>(total)));
  }

  // Decode the per-shard id maps first, rejecting structural corruption
  // (out-of-range, duplicated or missing global ids) before paying for
  // any shard open.
  auto maps = std::make_shared<ShardMaps>();
  maps->total_size = static_cast<GraphId>(total);
  maps->global_ids.assign(static_cast<size_t>(shards), {});
  maps->owner.assign(static_cast<size_t>(total), {-1, kInvalidGraphId});
  std::vector<std::string> files(static_cast<size_t>(shards));
  int64_t assigned = 0;
  for (int s = 0; s < shards; ++s) {
    int64_t name_len = 0;
    LAN_RETURN_NOT_OK(r.Pod(&name_len));
    if (name_len <= 0 || name_len > 4096) {
      return Status::IoError("snapshot manifest: bad shard file name length");
    }
    LAN_ASSIGN_OR_RETURN(
        std::span<const char> name,
        r.Array<char>(static_cast<size_t>(name_len)));
    std::string file(name.data(), name.size());
    // The name joins onto `dir`; a separator would let a crafted manifest
    // escape the snapshot directory.
    if (file.find('/') != std::string::npos || file == "." || file == "..") {
      return Status::IoError(
          StrFormat("snapshot manifest: invalid shard file name '%s'",
                    file.c_str()));
    }
    files[static_cast<size_t>(s)] = std::move(file);
    int64_t count = 0;
    LAN_RETURN_NOT_OK(r.Pod(&count));
    if (count <= 0 || count > total) {
      return Status::IoError(
          StrFormat("snapshot manifest: shard %d has bad graph count %lld", s,
                    static_cast<long long>(count)));
    }
    LAN_ASSIGN_OR_RETURN(std::span<const GraphId> ids,
                         r.Array<GraphId>(static_cast<size_t>(count)));
    auto& shard_ids = maps->global_ids[static_cast<size_t>(s)];
    shard_ids.assign(ids.begin(), ids.end());
    for (GraphId local = 0; local < count; ++local) {
      const GraphId gid = ids[static_cast<size_t>(local)];
      if (gid < 0 || static_cast<int64_t>(gid) >= total) {
        return Status::IoError(
            StrFormat("snapshot manifest: shard %d global id %d outside "
                      "[0,%lld)",
                      s, gid, static_cast<long long>(total)));
      }
      auto& owner = maps->owner[static_cast<size_t>(gid)];
      if (owner.first != -1) {
        return Status::IoError(
            StrFormat("snapshot manifest: duplicate global id %d (shards %d "
                      "and %d)",
                      gid, owner.first, s));
      }
      owner = {s, local};
    }
    assigned += count;
  }
  if (assigned != total) {
    return Status::IoError(
        StrFormat("snapshot manifest: shards cover %lld of %lld global ids",
                  static_cast<long long>(assigned),
                  static_cast<long long>(total)));
  }

  // Open every shard with the same config derivation Build uses, and with
  // the same bounded shard-level parallelism (opens are mmap + checksum
  // validation, so they are I/O cheap but still hash the whole file).
  const size_t concurrent =
      std::min<size_t>(static_cast<size_t>(shards), DefaultThreadCount());
  shards_.clear();
  for (int s = 0; s < shards; ++s) {
    shards_.push_back(
        std::make_unique<LanIndex>(ShardConfig(s, shards, concurrent)));
  }
  std::vector<Status> statuses(static_cast<size_t>(shards), Status::OK());
  ThreadPool::ParallelFor(
      static_cast<size_t>(shards), concurrent,
      [this, &dir, &files, &statuses](size_t s) {
        statuses[s] = shards_[s]->OpenSnapshot(dir + "/" + files[s]);
      });
  for (const Status& status : statuses) {
    if (!status.ok()) {
      shards_.clear();
      return status;
    }
  }
  for (int s = 0; s < shards; ++s) {
    const GraphId expect = static_cast<GraphId>(
        maps->global_ids[static_cast<size_t>(s)].size());
    const GraphId got = shards_[static_cast<size_t>(s)]->db().size();
    if (got != expect) {
      shards_.clear();
      return Status::IoError(StrFormat(
          "snapshot manifest: shard %d maps %d graphs but its snapshot "
          "holds %d",
          s, expect, got));
    }
  }
  PublishMaps(std::move(maps));
  return Status::OK();
}

GraphId ShardedLanIndex::live_size() const {
  GraphId live = 0;
  for (const auto& shard : shards_) live += shard->live_size();
  return live;
}

uint64_t ShardedLanIndex::epoch() const {
  uint64_t max_epoch = 0;
  for (const auto& shard : shards_) {
    max_epoch = std::max(max_epoch, shard->epoch());
  }
  return max_epoch;
}

ShardCacheStats ShardedLanIndex::CacheStats() const {
  ShardCacheStats total;
  for (const auto& shard : shards_) {
    if (const ResultCache* cache = shard->result_cache()) {
      total.Merge(cache->Stats());
    }
  }
  return total;
}

void ShardedLanIndex::AppendCacheMetrics(
    MetricsRegistry* registry, const ShardCacheStats* baseline) const {
  ShardCacheStats stats = CacheStats();
  if (baseline != nullptr) stats = SubtractCacheCounters(stats, *baseline);
  size_t capacity = 0;
  for (const auto& shard : shards_) {
    if (const ResultCache* cache = shard->result_cache()) {
      capacity += cache->capacity_bytes();
    }
  }
  lan::AppendCacheMetrics(stats, capacity, registry);
}

Result<GraphId> ShardedLanIndex::Insert(Graph graph) {
  if (shards_.empty()) {
    return Status::FailedPrecondition("Insert before Build");
  }
  std::lock_guard<std::mutex> lock(writer_mu_);

  // Smallest live shard keeps the split balanced as graphs come and go.
  int target = 0;
  for (int s = 1; s < num_shards(); ++s) {
    if (shards_[static_cast<size_t>(s)]->live_size() <
        shards_[static_cast<size_t>(target)]->live_size()) {
      target = s;
    }
  }

  const auto old_maps = Maps();
  const GraphId global_id = old_maps->total_size;
  const GraphId local_id = shards_[static_cast<size_t>(target)]->db().size();

  // Publish the grown map first: a search observing the new node in the
  // shard (possible only after the shard publishes its next epoch, which
  // happens after this) must be able to translate its local id.
  auto maps = std::make_shared<ShardMaps>(*old_maps);
  maps->total_size = global_id + 1;
  maps->owner.push_back({target, local_id});
  maps->global_ids[static_cast<size_t>(target)].push_back(global_id);
  PublishMaps(std::move(maps));

  auto inserted = shards_[static_cast<size_t>(target)]->Insert(std::move(graph));
  if (!inserted.ok()) {
    // Roll the map back (no search can have seen the unpublished node).
    PublishMaps(old_maps);
    return inserted.status();
  }
  LAN_CHECK_EQ(inserted.value(), local_id);
  return global_id;
}

Status ShardedLanIndex::Remove(GraphId global_id) {
  if (shards_.empty()) {
    return Status::FailedPrecondition("Remove before Build");
  }
  std::lock_guard<std::mutex> lock(writer_mu_);
  const auto maps = Maps();
  if (global_id < 0 ||
      static_cast<size_t>(global_id) >= maps->owner.size()) {
    return Status::OutOfRange(
        StrFormat("remove id %d outside [0,%d)", global_id,
                  maps->total_size));
  }
  const auto [shard, local] = maps->owner[static_cast<size_t>(global_id)];
  return shards_[static_cast<size_t>(shard)]->Remove(local);
}

SearchResult ShardedLanIndex::Search(const Graph& query,
                                     const SearchOptions& options,
                                     int max_shards) const {
  SearchResult merged;
  if (shards_.empty()) {
    merged.status = Status::FailedPrecondition("Search before Build()");
    return merged;
  }
  // Every shard shares the database alphabet; reject before any shard
  // runs (or records trace events).
  merged.status = shards_.front()->db().CheckGraph(query);
  if (!merged.status.ok()) return merged;
  const int use = max_shards <= 0
                      ? num_shards()
                      : std::min(max_shards, num_shards());
  for (int s = 0; s < use; ++s) {
    if (options.trace != nullptr) {
      TraceEvent event;
      event.type = TraceEventType::kShard;
      event.id = s;
      event.aux = static_cast<double>(use);
      options.trace->Record(event);
    }
    SearchResult local = shards_[static_cast<size_t>(s)]->Search(query, options);
    if (!local.status.ok()) {
      // One failing shard fails the query: a partial top-k silently missing
      // shards would be indistinguishable from a correct answer.
      merged.status = local.status;
      merged.results.clear();
      return merged;
    }
    merged.stats.Merge(local.stats);
    merged.epoch = std::max(merged.epoch, local.epoch);
    // Read the map AFTER the shard search: the acquire of the shard's
    // snapshot ordered the matching map publish before it, so every local
    // id in `local.results` is translatable.
    const auto maps = Maps();
    for (const auto& [local_id, distance] : local.results) {
      merged.results.emplace_back(
          maps->global_ids[static_cast<size_t>(s)]
                          [static_cast<size_t>(local_id)],
          distance);
    }
  }
  std::sort(merged.results.begin(), merged.results.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second < b.second;
              return a.first < b.first;
            });
  if (merged.results.size() > static_cast<size_t>(options.k)) {
    merged.results.resize(static_cast<size_t>(options.k));
  }
  return merged;
}

}  // namespace lan
