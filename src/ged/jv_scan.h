#ifndef LAN_GED_JV_SCAN_H_
#define LAN_GED_JV_SCAN_H_

#include <cstdint>

namespace lan {

/// \brief One step's column scan of the Jonker–Volgenant solver
/// (SolveAssignmentInto), the only part of it dispatched by SIMD level.
///
/// Columns are 1-indexed. Column j is free when bit (j - 1) % 8 of
/// `used[(j - 1) / 8]` is clear; the bits past column n are set, so a
/// scan reads no cell, potential or minv past the matrix row.
struct JvScanArgs {
  const double* row;  // the step's cost row; column j is row[j - 1]
  double u_i0;        // the step row's potential
  double last_delta;  // the previous step's delta, not yet taken off minv
  const double* v;    // column potentials
  double* minv;       // per-column slack
  int32_t* way;       // per-column predecessor
  const uint8_t* used;
  int32_t n;
  int32_t j0;  // the step's column (the predecessor to record)
};

/// For every free column j, in ascending order and with exactly these IEEE
/// double operations (no FMA, no reassociation):
///
///   m = minv[j] - last_delta;  cur = (row[j-1] - u_i0) - v[j];
///   if (cur < m) { m = cur; way[j] = j0; }  minv[j] = m;
///
/// then returns the first (lowest) free column whose minv compares lowest
/// and sets *delta to that column's minv (so a -0.0 or +0.0 delta is that
/// column's own). Returns 0 when no free column's minv is below +inf. Every
/// level's scan therefore leaves bitwise identical state.
using JvScanFn = int32_t (*)(const JvScanArgs& args, double* delta);

namespace internal {
/// The AVX-512 scan, or nullptr when the build has none (non-x86).
JvScanFn Avx512JvScan();
}  // namespace internal

}  // namespace lan

#endif  // LAN_GED_JV_SCAN_H_
