#include "pg/neighbor_ranker.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace lan {

void SplitIntoBatches(std::span<const GraphId> ranked, int batch_percent,
                      RankedBatches* out) {
  LAN_CHECK_GT(batch_percent, 0);
  LAN_CHECK_LE(batch_percent, 100);
  if (ranked.empty()) return;
  const size_t batch_size = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(static_cast<double>(ranked.size()) *
                                       batch_percent / 100.0)));
  for (size_t start = 0; start < ranked.size(); start += batch_size) {
    const size_t end = std::min(start + batch_size, ranked.size());
    out->AppendBatch(ranked.subspan(start, end - start));
  }
}

OracleRanker::OracleRanker(const GraphDatabase* db, const GedComputer* ged,
                           int batch_percent)
    : db_(db), ged_(ged), batch_percent_(batch_percent) {}

void OracleRanker::RankNeighbors(const ProximityGraph& pg, GraphId node,
                                 const Graph& query, RankedBatches* out) {
  const std::span<const GraphId> row = pg.NeighborSpan(node);
  std::vector<GraphId> ranked(row.begin(), row.end());
  std::vector<double> dist(ranked.size());
  for (size_t i = 0; i < ranked.size(); ++i) {
    dist[i] = ged_->Distance(query, db_->Get(ranked[i]));
  }
  std::vector<size_t> order(ranked.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (dist[a] != dist[b]) return dist[a] < dist[b];
    return ranked[a] < ranked[b];
  });
  std::vector<GraphId> sorted;
  sorted.reserve(ranked.size());
  for (size_t i : order) sorted.push_back(ranked[i]);
  SplitIntoBatches(sorted, batch_percent_, out);
}

}  // namespace lan
