#include "ged/assignment.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

#include "common/cpu_features.h"
#include "common/logging.h"
#include "ged/ged_scratch.h"
#include "ged/jv_scan.h"

namespace lan {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The portable column scan (see JvScanFn): free columns in ascending order,
// eight columns per byte of the used mask.
int32_t JvScanScalar(const JvScanArgs& a, double* delta_out) {
  double delta = kInf;
  int32_t j1 = 0;
  for (int32_t base = 1; base <= a.n; base += 8) {
    unsigned free_bits =
        ~static_cast<unsigned>(a.used[(base - 1) / 8]) & 0xffu;
    for (; free_bits != 0; free_bits &= free_bits - 1) {
      const int32_t j = base + std::countr_zero(free_bits);
      double m = a.minv[j] - a.last_delta;
      const double cur = a.row[j - 1] - a.u_i0 - a.v[j];
      if (cur < m) {
        m = cur;
        a.way[j] = a.j0;
      }
      a.minv[j] = m;
      if (m < delta) {
        delta = m;
        j1 = j;
      }
    }
  }
  *delta_out = delta;
  return j1;
}

JvScanFn ActiveJvScan() {
  if (ActiveSimdLevel() >= SimdLevel::kAvx512) {
    if (JvScanFn scan = internal::Avx512JvScan()) return scan;
  }
  return &JvScanScalar;
}

}  // namespace

// Jonker–Volgenant style shortest augmenting path (a.k.a. the "lap"
// algorithm as used by scipy.optimize.linear_sum_assignment).
void SolveAssignmentInto(const CostMatrix& cost, Assignment* out) {
  const int32_t n = cost.n();
  out->cost = 0.0;
  out->row_to_col.assign(static_cast<size_t>(n), -1);
  if (n == 0) return;

  GedScratch& s = ThreadGedScratch();
  // Potentials for rows (u) and columns (v); 1-indexed internally with a
  // virtual row/column 0 to simplify the augmenting loop.
  s.jv_u.assign(static_cast<size_t>(n) + 1, 0.0);
  s.jv_v.assign(static_cast<size_t>(n) + 1, 0.0);
  s.jv_col_to_row.assign(static_cast<size_t>(n) + 1, 0);
  s.jv_way.assign(static_cast<size_t>(n) + 1, 0);
  s.jv_minv.resize(static_cast<size_t>(n) + 1);
  s.jv_used.resize(static_cast<size_t>(n) + 1);
  const size_t mask_bytes = static_cast<size_t>(n + 7) / 8;
  s.jv_used_mask.resize(mask_bytes);
  double* u = s.jv_u.data();
  double* v = s.jv_v.data();
  int32_t* col_to_row = s.jv_col_to_row.data();
  int32_t* way = s.jv_way.data();
  double* minv = s.jv_minv.data();
  // The columns on the alternating tree, in the order they joined it, and
  // the same set as a bit mask (plus the padding bits past column n).
  int32_t* used_cols = s.jv_used.data();
  uint8_t* used_mask = s.jv_used_mask.data();
  const uint8_t tail_bits = static_cast<uint8_t>(0xff << ((n - 1) % 8 + 1));

  const JvScanFn scan = ActiveJvScan();
  JvScanArgs args{.row = nullptr,
                  .u_i0 = 0.0,
                  .last_delta = 0.0,
                  .v = v,
                  .minv = minv,
                  .way = way,
                  .used = used_mask,
                  .n = n,
                  .j0 = 0};
  for (int32_t i = 1; i <= n; ++i) {
    col_to_row[0] = i;
    int32_t j0 = 0;
    std::fill(minv, minv + n + 1, kInf);
    std::fill(used_mask, used_mask + mask_bytes, uint8_t{0});
    used_mask[mask_bytes - 1] = tail_bits;
    int32_t num_used = 0;
    // Each step lowers the free columns' minv by the previous step's
    // delta; that subtraction is folded into the next scan, which is the
    // only reader.
    args.last_delta = 0.0;
    do {
      used_cols[num_used++] = j0;
      const int32_t i0 = col_to_row[j0];
      args.row = cost.row(i0 - 1);
      args.u_i0 = u[i0];
      args.j0 = j0;
      double delta = kInf;
      const int32_t j1 = scan(args, &delta);
      LAN_CHECK_GT(j1, 0);
      for (int32_t k = 0; k < num_used; ++k) {
        const int32_t j = used_cols[k];
        u[col_to_row[j]] += delta;
        v[j] -= delta;
      }
      args.last_delta = delta;
      j0 = j1;
      used_mask[(j0 - 1) / 8] |= static_cast<uint8_t>(1u << ((j0 - 1) % 8));
    } while (col_to_row[j0] != 0);
    // Augment along the alternating path.
    do {
      const int32_t j1 = way[j0];
      col_to_row[j0] = col_to_row[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  for (int32_t j = 1; j <= n; ++j) {
    const int32_t i = col_to_row[j];
    if (i > 0) {
      out->row_to_col[static_cast<size_t>(i - 1)] = j - 1;
      out->cost += cost.at(i - 1, j - 1);
    }
  }
}

Assignment SolveAssignment(const CostMatrix& cost) {
  Assignment result;
  SolveAssignmentInto(cost, &result);
  return result;
}

void SolveAssignmentGreedyInto(const CostMatrix& cost, Assignment* out) {
  const int32_t n = cost.n();
  out->cost = 0.0;
  out->row_to_col.assign(static_cast<size_t>(n), -1);
  if (n == 0) return;

  // The greedy visits the cells in (cost, row, col) order, i.e. the
  // row-major cells sorted stably by cost. A counting sort over the
  // distinct costs produces that order in O(n^2 + D log D); a bipartite GED
  // matrix has only a few dozen distinct costs D.
  GedScratch& s = ThreadGedScratch();
  const size_t num_cells = static_cast<size_t>(n) * static_cast<size_t>(n);
  // Cell positions are int32 (a matrix past this is > 17 GB anyway).
  LAN_CHECK_LE(num_cells,
               static_cast<size_t>(std::numeric_limits<int32_t>::max()));

  // 1. The distinct costs, and each cell's index among them: open
  // addressing on the cost's bits (Fibonacci-hashed into the top bits),
  // doubling the table whenever it gets half full.
  std::vector<double>& values = s.greedy_values;
  std::vector<int32_t>& slots = s.greedy_slots;
  std::vector<int32_t>& cell_value = s.greedy_cell_value;
  values.clear();
  slots.assign(64, -1);
  int shift = 64 - 6;
  auto slot_of = [&](double x) {
    uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    size_t h = static_cast<size_t>((bits * 0x9e3779b97f4a7c15ull) >> shift);
    while (slots[h] >= 0 && values[static_cast<size_t>(slots[h])] != x) {
      h = (h + 1) & (slots.size() - 1);
    }
    return h;
  };
  cell_value.resize(num_cells);
  for (int32_t r = 0, i = 0; r < n; ++r) {
    for (int32_t c = 0; c < n; ++c, ++i) {
      // + 0.0 folds -0.0 into 0.0, which the tuple order ties it with.
      const double x = cost.at(r, c) + 0.0;
      const size_t h = slot_of(x);
      int32_t d = slots[h];
      if (d < 0) {
        d = static_cast<int32_t>(values.size());
        values.push_back(x);
        slots[h] = d;
        if (2 * values.size() > slots.size()) {
          slots.assign(2 * slots.size(), -1);
          --shift;
          for (size_t e = 0; e < values.size(); ++e) {
            slots[slot_of(values[e])] = static_cast<int32_t>(e);
          }
        }
      }
      cell_value[static_cast<size_t>(i)] = d;
    }
  }

  // 2. Counting sort: each distinct cost's first position in the sorted
  // order, then the cells scattered there in row-major order.
  const size_t num_values = values.size();
  std::vector<int32_t>& by_cost = s.greedy_by_cost;
  std::vector<int32_t>& next = s.greedy_next;
  by_cost.resize(num_values);
  for (size_t d = 0; d < num_values; ++d) by_cost[d] = static_cast<int32_t>(d);
  std::sort(by_cost.begin(), by_cost.end(), [&values](int32_t a, int32_t b) {
    return values[static_cast<size_t>(a)] < values[static_cast<size_t>(b)];
  });
  next.assign(num_values, 0);
  for (int32_t d : cell_value) ++next[static_cast<size_t>(d)];
  int32_t position = 0;
  for (int32_t d : by_cost) {
    const int32_t count = next[static_cast<size_t>(d)];
    next[static_cast<size_t>(d)] = position;
    position += count;
  }
  std::vector<GreedyCell>& cells = s.greedy_cells;
  cells.resize(num_cells);
  for (int32_t r = 0, i = 0; r < n; ++r) {
    for (int32_t c = 0; c < n; ++c, ++i) {
      const size_t d = static_cast<size_t>(cell_value[static_cast<size_t>(i)]);
      cells[static_cast<size_t>(next[d]++)] = GreedyCell{r, c};
    }
  }

  // 3. The greedy walk.
  std::vector<uint8_t>& row_used = s.greedy_row_used;
  std::vector<uint8_t>& col_used = s.greedy_col_used;
  row_used.assign(static_cast<size_t>(n), 0);
  col_used.assign(static_cast<size_t>(n), 0);
  int32_t assigned = 0;
  for (const auto [r, c] : cells) {
    if (row_used[static_cast<size_t>(r)] || col_used[static_cast<size_t>(c)])
      continue;
    row_used[static_cast<size_t>(r)] = 1;
    col_used[static_cast<size_t>(c)] = 1;
    out->row_to_col[static_cast<size_t>(r)] = c;
    out->cost += cost.at(r, c);
    if (++assigned == n) break;
  }
}

Assignment SolveAssignmentGreedy(const CostMatrix& cost) {
  Assignment result;
  SolveAssignmentGreedyInto(cost, &result);
  return result;
}

}  // namespace lan
