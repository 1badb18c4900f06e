// Microbenchmark for the runtime-dispatched SIMD kernel layer: times each
// kernel at every ISA level the host supports (scalar always; AVX2 /
// AVX-512 when detected) at paper-scale shapes — 128-dim GNN layers
// stacked over a 32-candidate batch — and reports throughput plus the
// speedup over the scalar reference. One JSON line per (kernel, level),
// mirrored into BENCH_kernels.json in the working directory. The
// `jv_rb_aids` row times the Jonker–Volgenant solver, whose column scan is
// dispatched the same way, on the Riesen–Bunke matrices of seeded
// AIDS-like pairs (the Hungarian GED tier's work).
//
// LAN_BENCH_SMOKE=1 shrinks the timing windows (used by `ctest -L
// perf-smoke` to verify the bench binaries stay runnable).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "common/cpu_features.h"
#include "common/random.h"
#include "common/timer.h"
#include "ged/assignment.h"
#include "ged/ged_bipartite.h"
#include "ged/ged_scratch.h"
#include "graph/graph_generator.h"
#include "nn/kernels.h"

namespace lan {
namespace bench {
namespace {

// Paper-scale shapes: M_rk / M_nh run 128x128 layer GEMMs over the
// stacked rows of ~32 candidate graphs (Sec. IV-C / V-B).
constexpr int32_t kRows = 160;  // stacked node/group rows of a batch
constexpr int32_t kInner = 128;
constexpr int32_t kCols = 128;
constexpr int64_t kVecLen = 128;
// AIDS-like pairs behind the jv_rb_aids row (n1 + n2 ~ 50 per matrix).
constexpr int kJvPairs = 64;

bool SmokeMode() {
  const char* s = std::getenv("LAN_BENCH_SMOKE");
  return s != nullptr && s[0] != '\0' && std::string(s) != "0";
}

/// Best mean seconds per call over three repetitions (one in smoke mode),
/// each repeating the call until the window is filled. Best-of-N filters
/// scheduler noise on busy machines.
double TimePerCall(const std::function<void()>& fn) {
  const bool smoke = SmokeMode();
  const double window = smoke ? 0.005 : 0.2;
  const int reps = smoke ? 1 : 3;
  fn();  // warmup
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    int iters = 0;
    Timer timer;
    do {
      fn();
      ++iters;
    } while (timer.ElapsedSeconds() < window || iters < 5);
    const double per_call = timer.ElapsedSeconds() / iters;
    if (rep == 0 || per_call < best) best = per_call;
  }
  return best;
}

/// `flops` <= 0 omits the gflops field (the JV row counts no flops).
void Report(FILE* json, const char* kernel, const char* level,
            double per_call_sec, double flops, double scalar_sec) {
  char gflops[64] = "";
  if (flops > 0.0) {
    std::snprintf(gflops, sizeof(gflops), "\"gflops\":%.3f,",
                  flops / per_call_sec / 1e9);
  }
  char line[512];
  std::snprintf(line, sizeof(line),
                "{\"bench\":\"kernels\",\"kernel\":\"%s\",\"level\":\"%s\","
                "\"seconds_per_call\":%.3e,%s\"speedup_vs_scalar\":%.2f}",
                kernel, level, per_call_sec, gflops,
                scalar_sec / per_call_sec);
  std::printf("%s\n", line);
  if (json != nullptr) std::fprintf(json, "%s\n", line);
}

std::vector<float> RandomVec(size_t n, Rng* rng) {
  std::vector<float> out(n);
  for (float& x : out) x = rng->NextFloat(-1.0f, 1.0f);
  return out;
}

/// The Hungarian tier's cost matrices of `kJvPairs` seeded AIDS-like pairs.
std::vector<CostMatrix> AidsHungarianMatrices() {
  const DatasetSpec spec = DatasetSpec::AidsLike(1);
  Rng rng(2022);
  std::vector<CostMatrix> matrices;
  for (int p = 0; p < kJvPairs; ++p) {
    const Graph g1 = GenerateGraph(spec, &rng);
    const Graph g2 = GenerateGraph(spec, &rng);
    BipartiteGedHungarian(g1, g2);  // leaves its matrix in the scratch
    matrices.push_back(ThreadGedScratch().cost_matrix);
  }
  return matrices;
}

int Main() {
  Rng rng(4711);
  const std::vector<float> a = RandomVec(
      static_cast<size_t>(kRows) * kInner, &rng);
  const std::vector<float> b = RandomVec(
      static_cast<size_t>(kInner) * kCols, &rng);
  std::vector<float> c(static_cast<size_t>(kRows) * kCols, 0.0f);
  const std::vector<float> x = RandomVec(static_cast<size_t>(kVecLen), &rng);
  std::vector<float> y = RandomVec(static_cast<size_t>(kVecLen), &rng);
  std::vector<float> soft = RandomVec(
      static_cast<size_t>(kRows) * kCols, &rng);

  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (DetectedSimdLevel() >= SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kAvx2);
  }
  if (DetectedSimdLevel() >= SimdLevel::kAvx512) {
    levels.push_back(SimdLevel::kAvx512);
  }

  FILE* json = std::fopen("BENCH_kernels.json", "w");
  std::printf("detected SIMD level: %s\n",
              SimdLevelName(DetectedSimdLevel()));

  struct Case {
    const char* name;
    double flops;
    std::function<void(const KernelTable&)> run;
  };
  const std::vector<Case> cases = {
      {"matmul_128x128", 2.0 * kRows * kInner * kCols,
       [&](const KernelTable& kt) {
         std::fill(c.begin(), c.end(), 0.0f);
         kt.matmul_accumulate(a.data(), kRows, kInner, b.data(), kCols,
                              c.data());
       }},
      {"dot_128", 2.0 * kVecLen,
       [&](const KernelTable& kt) {
         volatile float sink = kt.dot(x.data(), y.data(),
                                      static_cast<int32_t>(kVecLen));
         (void)sink;
       }},
      {"axpy_128", 2.0 * kVecLen,
       [&](const KernelTable& kt) {
         kt.axpy(y.data(), 0.5f, x.data(), kVecLen);
       }},
      {"l2sq_128", 3.0 * kVecLen,
       [&](const KernelTable& kt) {
         volatile double sink = kt.l2sq(x.data(), y.data(), kVecLen);
         (void)sink;
       }},
      {"softmax_rows_160x128", 4.0 * kRows * kCols,
       [&](const KernelTable& kt) {
         kt.softmax_rows(soft.data(), kRows, kCols);
       }},
  };

  for (const Case& cs : cases) {
    double scalar_sec = 0.0;
    for (SimdLevel level : levels) {
      const KernelTable& kt = KernelsFor(level);
      const double sec = TimePerCall([&] { cs.run(kt); });
      if (level == SimdLevel::kScalar) scalar_sec = sec;
      Report(json, cs.name, kt.name, sec, cs.flops, scalar_sec);
    }
  }

  // The JV solver dispatches on the active level, not on a table.
  const std::vector<CostMatrix> matrices = AidsHungarianMatrices();
  const SimdLevel saved = ActiveSimdLevel();
  Assignment assignment;
  double scalar_sec = 0.0;
  for (SimdLevel level : levels) {
    SetActiveSimdLevel(level);
    const double sec = TimePerCall([&] {
                         for (const CostMatrix& m : matrices) {
                           SolveAssignmentInto(m, &assignment);
                         }
                       }) /
                       kJvPairs;
    if (level == SimdLevel::kScalar) scalar_sec = sec;
    Report(json, "jv_rb_aids", SimdLevelName(level), sec, 0.0, scalar_sec);
  }
  SetActiveSimdLevel(saved);

  if (json != nullptr) std::fclose(json);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace lan

int main() { return lan::bench::Main(); }
