// Microbenchmark of every GED algorithm in the repository over generated
// dataset pairs — the substrate cost table behind all QPS numbers. Also
// reports (to stderr at startup) the mean distance each approximation
// produces relative to the exact value on small pairs, so speed can be
// weighed against tightness.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/random.h"
#include "common/timer.h"
#include "ged/ged_beam.h"
#include "ged/ged_bipartite.h"
#include "ged/ged_computer.h"
#include "ged/ged_exact.h"
#include "ged/ged_lower_bounds.h"
#include "graph/graph_database.h"
#include "graph/graph_generator.h"

namespace lan {
namespace {

std::vector<std::pair<Graph, Graph>>& AidsPairs() {
  static auto* pairs = [] {
    auto* out = new std::vector<std::pair<Graph, Graph>>();
    Rng rng(1001);
    DatasetSpec spec = DatasetSpec::AidsLike(1);
    for (int i = 0; i < 16; ++i) {
      Graph a = GenerateGraph(spec, &rng);
      Graph b = PerturbGraph(a, 3, spec.num_labels, &rng);
      out->emplace_back(std::move(a), std::move(b));
    }
    return out;
  }();
  return *pairs;
}

void BM_GedVj(benchmark::State& state) {
  size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = AidsPairs()[i++ % AidsPairs().size()];
    benchmark::DoNotOptimize(BipartiteGedVj(a, b).distance);
  }
}
BENCHMARK(BM_GedVj);

void BM_GedHungarian(benchmark::State& state) {
  size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = AidsPairs()[i++ % AidsPairs().size()];
    benchmark::DoNotOptimize(BipartiteGedHungarian(a, b).distance);
  }
}
BENCHMARK(BM_GedHungarian);

void BM_GedBeam(benchmark::State& state) {
  size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = AidsPairs()[i++ % AidsPairs().size()];
    benchmark::DoNotOptimize(
        BeamGed(a, b, static_cast<int>(state.range(0))).distance);
  }
}
BENCHMARK(BM_GedBeam)->Arg(4)->Arg(8)->Arg(16);

void BM_GedExactBudgeted(benchmark::State& state) {
  ExactGedOptions options;
  options.max_expansions = 2000;
  size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = AidsPairs()[i++ % AidsPairs().size()];
    auto r = ExactGed(a, b, options);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_GedExactBudgeted);

void BM_GedProtocol(benchmark::State& state) {
  GedOptions options;
  options.skip_exact_gap = -1.0;  // every pair pays an A* attempt
  options.exact_max_expansions = 2000;
  options.beam_width = 4;
  GedComputer ged(options);
  size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = AidsPairs()[i++ % AidsPairs().size()];
    benchmark::DoNotOptimize(ged.Distance(a, b));
  }
}
BENCHMARK(BM_GedProtocol);

/// Query-database pairs the default protocol sends to A*: 2-edit perturbed
/// copies of AIDS-like database graphs against the whole database, kept
/// where the best VJ/Hungarian/Beam4 bound is within 3 of the lower bound.
struct GatedPair {
  Graph query, graph;
  double upper_bound;
};

std::vector<GatedPair>& AidsGatedPairs() {
  static auto* pairs = [] {
    const GraphDatabase db =
        GenerateDatabase(DatasetSpec::AidsLike(200), 1003);
    auto* out = new std::vector<GatedPair>();
    Rng rng(1004);
    for (GraphId qid = 0; qid < db.size(); qid += 4) {
      const Graph q = PerturbGraph(db.Get(qid), 2, db.num_labels(), &rng);
      for (GraphId id = 0; id < db.size(); ++id) {
        const Graph& g = db.Get(id);
        const double best = std::min({BipartiteGedVj(q, g).distance,
                                      BipartiteGedHungarian(q, g).distance,
                                      BeamGed(q, g, 4).distance});
        if (best - BestLowerBound(q, g) <= 3.0) out->push_back({q, g, best});
      }
    }
    return out;
  }();
  return *pairs;
}

/// The exact tier as the default protocol runs it (10k expansions, upper
/// bound from the shipped tiers). `us_per_expansion` charges a capped
/// attempt its 10k expansions.
void BM_GedExactGated(benchmark::State& state) {
  const std::vector<GatedPair>& pairs = AidsGatedPairs();
  ExactGedOptions options;
  options.max_expansions = 10'000;
  int64_t expansions = 0;
  size_t i = 0;
  Timer timer;
  for (auto _ : state) {
    const GatedPair& pair = pairs[i++ % pairs.size()];
    options.upper_bound = pair.upper_bound;
    auto r = ExactGed(pair.query, pair.graph, options);
    expansions += r.ok() ? r->expansions : options.max_expansions;
  }
  const double us = timer.ElapsedSeconds() * 1e6;
  state.counters["pairs"] = static_cast<double>(pairs.size());
  state.counters["us_per_expansion"] =
      expansions > 0 ? us / static_cast<double>(expansions) : 0.0;
}
BENCHMARK(BM_GedExactGated);

/// Tightness report: approximation mean overshoot vs exact on small pairs.
void PrintTightness() {
  Rng rng(1002);
  DatasetSpec spec = DatasetSpec::SynLike(1);
  spec.avg_nodes = 7;
  spec.avg_edges = 9;
  double exact_total = 0, vj_total = 0, hung_total = 0, beam_total = 0;
  int count = 0;
  ExactGedOptions generous;
  generous.max_expansions = 2'000'000;
  for (int i = 0; i < 20; ++i) {
    Graph a = GenerateGraph(spec, &rng);
    Graph b = GenerateGraph(spec, &rng);
    auto exact = ExactGed(a, b, generous);
    if (!exact.ok()) continue;
    exact_total += exact->distance;
    vj_total += BipartiteGedVj(a, b).distance;
    hung_total += BipartiteGedHungarian(a, b).distance;
    beam_total += BeamGed(a, b, 8).distance;
    ++count;
  }
  std::fprintf(stderr,
               "[tightness over %d small pairs] exact %.2f | Hung %.2f | "
               "Beam8 %.2f | VJ %.2f (mean distances; lower = tighter)\n",
               count, exact_total / count, hung_total / count,
               beam_total / count, vj_total / count);
}

}  // namespace
}  // namespace lan

int main(int argc, char** argv) {
  lan::PrintTightness();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
