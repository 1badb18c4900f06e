#include "common/stats.h"

#include <algorithm>

#include "common/logging.h"

namespace lan {

double Percentile(std::vector<double> values, double pct) {
  LAN_CHECK(!values.empty());
  LAN_CHECK_GE(pct, 0.0);
  LAN_CHECK_LE(pct, 100.0);
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values[0];
  const double rank = pct / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

}  // namespace lan
