#include "graph/graph_database.h"

#include <unordered_set>
#include <utility>

#include "common/string_util.h"

namespace lan {
namespace {

constexpr size_t kInitialSlotCapacity = 64;

}  // namespace

GraphDatabase::GraphDatabase(const GraphDatabase& other) { *this = other; }

GraphDatabase& GraphDatabase::operator=(const GraphDatabase& other) {
  if (this == &other) return *this;
  graphs_ = other.graphs_;
  live_ = other.live_;
  num_removed_ = other.num_removed_;
  num_labels_ = other.num_labels_;
  name_ = other.name_;
  slots_.store(nullptr, std::memory_order_relaxed);
  size_.store(0, std::memory_order_relaxed);
  slot_capacity_ = 0;
  slot_arrays_.clear();
  RepublishSlots();
  return *this;
}

GraphDatabase::GraphDatabase(GraphDatabase&& other) noexcept {
  *this = std::move(other);
}

GraphDatabase& GraphDatabase::operator=(GraphDatabase&& other) noexcept {
  if (this == &other) return *this;
  graphs_ = std::move(other.graphs_);
  live_ = std::move(other.live_);
  num_removed_ = other.num_removed_;
  num_labels_ = other.num_labels_;
  name_ = std::move(other.name_);
  // Deque elements keep their addresses across the move, so the
  // moved-from object's slot arrays stay valid for this one.
  slot_arrays_ = std::move(other.slot_arrays_);
  slot_capacity_ = other.slot_capacity_;
  slots_.store(other.slots_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  size_.store(other.size_.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
  other.slots_.store(nullptr, std::memory_order_relaxed);
  other.size_.store(0, std::memory_order_relaxed);
  other.slot_capacity_ = 0;
  other.num_removed_ = 0;
  return *this;
}

void GraphDatabase::RepublishSlots() {
  const size_t n = graphs_.size();
  if (n > slot_capacity_) {
    size_t cap = slot_capacity_ == 0 ? kInitialSlotCapacity : slot_capacity_;
    while (cap < n) cap *= 2;
    auto fresh = std::make_unique<const Entry*[]>(cap);
    for (size_t i = 0; i < n; ++i) fresh[i] = &graphs_[i];
    slot_capacity_ = cap;
    slots_.store(fresh.get(), std::memory_order_release);
    slot_arrays_.push_back(std::move(fresh));
  } else if (n > 0) {
    // In-capacity append: fill the new tail slot, then publish the size.
    // slot_arrays_.back() is the live array; writing an index >= size_ is
    // invisible to readers until the release store below.
    slot_arrays_.back()[n - 1] = &graphs_.back();
  }
  size_.store(static_cast<GraphId>(n), std::memory_order_release);
}

Status GraphDatabase::CheckGraph(const Graph& graph) const {
  if (graph.NumNodes() == 0) {
    return Status::InvalidArgument("graph has no nodes");
  }
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    const Label l = graph.label(v);
    if (l < 0 || l >= num_labels_) {
      return Status::InvalidArgument(
          StrFormat("label %d of node %d outside alphabet [0,%d)", l, v,
                    num_labels_));
    }
  }
  return Status::OK();
}

Result<GraphId> GraphDatabase::Add(Graph graph) {
  LAN_RETURN_NOT_OK(CheckGraph(graph));
  Entry entry;
  PrepareGraph(graph, &entry.prepared);
  entry.graph = std::move(graph);
  graphs_.push_back(std::move(entry));
  live_.push_back(1);
  RepublishSlots();
  return size() - 1;
}

Status GraphDatabase::Remove(GraphId id) {
  if (id < 0 || id >= size()) {
    return Status::OutOfRange(
        StrFormat("remove id %d outside [0,%d)", id, size()));
  }
  if (live_[static_cast<size_t>(id)] == 0) {
    return Status::FailedPrecondition(
        StrFormat("graph %d already removed", id));
  }
  live_[static_cast<size_t>(id)] = 0;
  ++num_removed_;
  return Status::OK();
}

double GraphDatabase::AverageNodes() const {
  const GraphId n = size();
  if (n == 0) return 0.0;
  double total = 0.0;
  for (GraphId id = 0; id < n; ++id) total += Get(id).NumNodes();
  return total / static_cast<double>(n);
}

double GraphDatabase::AverageEdges() const {
  const GraphId n = size();
  if (n == 0) return 0.0;
  double total = 0.0;
  for (GraphId id = 0; id < n; ++id) {
    total += static_cast<double>(Get(id).NumEdges());
  }
  return total / static_cast<double>(n);
}

int32_t GraphDatabase::DistinctLabelsUsed() const {
  std::unordered_set<Label> seen;
  for (GraphId id = 0; id < size(); ++id) {
    for (Label l : Get(id).labels()) seen.insert(l);
  }
  return static_cast<int32_t>(seen.size());
}

Status GraphDatabase::Truncate(GraphId count) {
  if (count < 0 || count > size()) {
    return Status::OutOfRange(
        StrFormat("truncate to %d outside [0,%d]", count, size()));
  }
  for (size_t i = static_cast<size_t>(count); i < live_.size(); ++i) {
    if (live_[i] == 0) --num_removed_;
  }
  graphs_.resize(static_cast<size_t>(count));
  live_.resize(static_cast<size_t>(count));
  size_.store(count, std::memory_order_release);
  return Status::OK();
}

}  // namespace lan
