#include "pg/candidate_pool.h"

#include <algorithm>

#include "common/logging.h"

namespace lan {

bool CandidatePool::Before(const PoolEntry& a, const PoolEntry& b) const {
  if (a.distance != b.distance) return a.distance < b.distance;
  const bool ea = Explored(a.id);
  const bool eb = Explored(b.id);
  if (ea != eb) return !ea;  // unexplored first (the paper's rule)
  if (!ea) return a.id < b.id;  // both unexplored: smaller id first
  return ExploredAt(a.id) > ExploredAt(b.id);  // recently explored first
}

void CandidatePool::Resize(int beam_size) {
  LAN_CHECK_GT(beam_size, 0);
  const size_t keep = static_cast<size_t>(beam_size);
  if (entries_->size() <= keep) return;
  // Ids are unique in W and Before is a strict total order over them, so
  // the best `keep` form one well-defined set, and partial selection finds
  // it without ordering it.
  std::nth_element(entries_->begin(),
                   entries_->begin() + static_cast<ptrdiff_t>(keep),
                   entries_->end(),
                   [this](const PoolEntry& a, const PoolEntry& b) {
                     return Before(a, b);
                   });
  for (size_t i = keep; i < entries_->size(); ++i) {
    states_->SetInPool((*entries_)[i].id, false);
  }
  entries_->resize(keep);
}

GraphId CandidatePool::BestUnexplored() const {
  GraphId best = kInvalidGraphId;
  double best_d = 0.0;
  for (const PoolEntry& e : *entries_) {
    if (Explored(e.id)) continue;
    if (best == kInvalidGraphId || e.distance < best_d ||
        (e.distance == best_d && e.id < best)) {
      best = e.id;
      best_d = e.distance;
    }
  }
  return best;
}

GraphId CandidatePool::BestUnexploredWithin(double gamma) const {
  GraphId best = kInvalidGraphId;
  double best_d = 0.0;
  for (const PoolEntry& e : *entries_) {
    if (e.distance > gamma || Explored(e.id)) continue;
    if (best == kInvalidGraphId || e.distance < best_d ||
        (e.distance == best_d && e.id < best)) {
      best = e.id;
      best_d = e.distance;
    }
  }
  return best;
}

GraphId CandidatePool::Best() const {
  if (entries_->empty()) return kInvalidGraphId;
  const PoolEntry* best = &(*entries_)[0];
  for (const PoolEntry& e : *entries_) {
    if (Before(e, *best)) best = &e;
  }
  return best->id;
}

bool CandidatePool::AllExplored() const {
  for (const PoolEntry& e : *entries_) {
    if (!Explored(e.id)) return false;
  }
  return true;
}

double CandidatePool::DistanceOf(GraphId id) const {
  for (const PoolEntry& e : *entries_) {
    if (e.id == id) return e.distance;
  }
  LAN_LOG(Fatal) << "DistanceOf: id " << id << " not in pool";
  return 0.0;
}

void CandidatePool::TopKInto(
    int k, const std::vector<uint8_t>* live, std::vector<PoolEntry>* sort_buf,
    std::vector<std::pair<GraphId, double>>* out) const {
  sort_buf->clear();
  for (const PoolEntry& e : *entries_) {
    if (live != nullptr && static_cast<size_t>(e.id) < live->size() &&
        !(*live)[static_cast<size_t>(e.id)]) {
      continue;
    }
    sort_buf->push_back(e);
  }
  std::sort(sort_buf->begin(), sort_buf->end(),
            [](const PoolEntry& a, const PoolEntry& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.id < b.id;
            });
  out->clear();
  const size_t limit = std::min(sort_buf->size(), static_cast<size_t>(k));
  for (size_t i = 0; i < limit; ++i) {
    out->emplace_back((*sort_buf)[i].id, (*sort_buf)[i].distance);
  }
}

std::vector<std::pair<GraphId, double>> CandidatePool::TopK(
    int k, const std::vector<uint8_t>* live) const {
  std::vector<PoolEntry> sort_buf;
  sort_buf.reserve(entries_->size());
  std::vector<std::pair<GraphId, double>> out;
  TopKInto(k, live, &sort_buf, &out);
  return out;
}

}  // namespace lan
