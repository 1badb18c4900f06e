// Microbenchmark of every GED algorithm in the repository over generated
// dataset pairs — the substrate cost table behind all QPS numbers — and of
// the batch entry point a search evaluates its distances through. Also
// reports (to stderr at startup) the mean distance each approximation
// produces relative to the exact value on small pairs, so speed can be
// weighed against tightness.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "ged/ged_beam.h"
#include "ged/ged_bipartite.h"
#include "ged/ged_computer.h"
#include "ged/ged_exact.h"
#include "ged/ged_lower_bounds.h"
#include "graph/graph_database.h"
#include "graph/graph_generator.h"
#include "graph/prepared_graph.h"

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

/// Query-database pairs as a search meets them: 2-edit perturbed copies of
/// database graphs (prepared once, like the query in DistanceOracle)
/// against a prepared 200-graph database.
struct QueryPairs {
  GraphDatabase db;
  std::vector<Graph> queries;
  std::vector<PreparedGraph> prepared;
};

const QueryPairs& BatchPairs(bool syn) {
  static auto* both = [] {
    auto* out = new std::vector<QueryPairs>(2);
    for (int kind = 0; kind < 2; ++kind) {
      QueryPairs& p = (*out)[static_cast<size_t>(kind)];
      p.db = GenerateDatabase(kind == 0 ? DatasetSpec::AidsLike(200)
                                        : DatasetSpec::SynLike(200),
                              1005);
      Rng rng(1006);
      for (GraphId id = 0; id < p.db.size(); id += 25) {
        p.queries.push_back(
            PerturbGraph(p.db.Get(id), 2, p.db.num_labels(), &rng));
      }
      p.prepared.resize(p.queries.size());
      for (size_t q = 0; q < p.queries.size(); ++q) {
        PrepareGraph(p.queries[q], &p.prepared[q]);
      }
    }
    return out;
  }();
  return (*both)[syn ? 1 : 0];
}

/// GedComputer::ComputeBatch under the default protocol: m database graphs
/// against one query per call, inline (workers = 0) or with every pair's
/// tiers fanned out on a pool. `us_per_pair` is wall time per distance, so
/// m = 1 on the pool is the per-distance fan-out a search paid when each
/// distance was its own batch.
void BM_GedBatch(benchmark::State& state) {
  const QueryPairs& p = BatchPairs(state.range(0) != 0);
  const size_t m = static_cast<size_t>(state.range(1));
  const int workers = static_cast<int>(state.range(2));
  std::unique_ptr<ThreadPool> pool;
  if (workers > 0) pool = std::make_unique<ThreadPool>(workers);
  const GedComputer ged;
  std::vector<GedTarget> targets(m);
  std::vector<GedValue> values(m);
  size_t q = 0;
  GraphId next = 0;
  int64_t pairs = 0;
  Timer timer;
  for (auto _ : state) {
    const size_t query = q++ % p.queries.size();
    for (GedTarget& t : targets) {
      t = {&p.db.Get(next), &p.db.Prepared(next)};
      next = (next + 1) % p.db.size();
    }
    ged.ComputeBatch(p.queries[query], p.prepared[query], targets, pool.get(),
                     values);
    benchmark::DoNotOptimize(values.data());
    benchmark::ClobberMemory();
    pairs += static_cast<int64_t>(m);
  }
  state.counters["us_per_pair"] =
      pairs > 0 ? timer.ElapsedSeconds() * 1e6 / static_cast<double>(pairs)
                : 0.0;
}
BENCHMARK(BM_GedBatch)
    ->ArgNames({"syn", "m", "workers"})
    ->ArgsProduct({{0, 1}, {1, 2, 4, 8}, {0, 4}})
    ->UseRealTime();

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
