// SAT-core benchmark: the arena-backed solver (src/sat/solver.h) vs the
// preserved pre-refactor engine (tests/support/legacy_solver.h) on an
// identical decomposition-scale CPS/COP clause stream, single-threaded.
//
// Like bench_serve this is plain C++ (no Google Benchmark dependency):
// it must A/B two engines in one process, self-check that every verdict
// agrees, emit machine-readable JSON for scripts/bench.sh
// (BENCH_sat.json), and enforce a propagation-throughput floor
// (--require-speedup=F fails the run when arena props/sec < F × legacy
// props/sec) — so its ctest smoke registration doubles as a correctness
// test.  The baseline is MEASURED in the same run, not a snapshot.
//
// Workload: the order-literal CNF that src/core/encoder.h emits for the
// sharded master/replica shape of bench_scale_decomposition, generated
// directly at the SAT level so both engines see byte-identical input.
// Per entity (a group of 4 tuples × 2 attributes): one Boolean per
// same-entity tuple pair and attribute (true = u ≺ v for u < v),
// transitivity clauses over all ordered triples, planted-satisfiable
// ternary "denial" clauses on attribute A (identity order wins),
// copy-compatibility binaries A→B, and is-last selector definitions
// (binary + long clauses).  Entities are chained into ONE coupled
// component via B→A' binaries — the paper's worst case, where a giant
// component solves on a single thread and raw propagation speed is the
// only lever (see ROADMAP "Parallel scaling beyond components").
//
// Phases per engine: build (AddClause stream), base solve (must be SAT),
// COP-style assumption probes (reversed-pair refutations, mixed SAT/
// UNSAT), and a DCIP/CCQA-flavored projected enumeration burst on the
// selector variables.  propagations/sec is computed over the search
// phases (solve + probes + enumeration), where the engines do identical
// logical work modulo their own search choices.
//
// Flags: --entities=N --probes=Q --enum-budget=M --require-speedup=F
//        --out=FILE

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "src/sat/solver.h"
#include "tests/support/legacy_solver.h"

namespace {

using namespace currency;  // NOLINT

constexpr int kGroup = 4;          // tuples per entity
constexpr int kPairs = 6;          // kGroup choose 2
constexpr int kPuzzleClauses = 10; // planted denial clauses per entity

/// Canonical pair index for u < v among kGroup tuples: (0,1)=0, (0,2)=1,
/// (0,3)=2, (1,2)=3, (1,3)=4, (2,3)=5.
int PairIndex(int u, int v) {
  static const int index[kGroup][kGroup] = {{-1, 0, 1, 2},
                                            {-1, -1, 3, 4},
                                            {-1, -1, -1, 5},
                                            {-1, -1, -1, -1}};
  return index[u][v];
}

/// Variable ids for one entity: pair vars for attributes A and B, then
/// is-last selector vars for both attributes.
struct EntityVars {
  int pair_a[kPairs];
  int pair_b[kPairs];
  int last_a[kGroup];
  int last_b[kGroup];
};

/// Literal asserting "x ≺ y" (x != y) over a pair-var block.
sat::Lit OrdLit(const int* pair_vars, int x, int y) {
  return x < y ? sat::MakeLit(pair_vars[PairIndex(x, y)])
               : sat::MakeLit(pair_vars[PairIndex(y, x)], /*negated=*/true);
}

/// The full clause stream, generated once and fed to both engines.
struct Workload {
  int num_vars = 0;
  std::vector<std::vector<sat::Lit>> clauses;
  std::vector<EntityVars> entities;
};

Workload BuildWorkload(int num_entities, unsigned seed) {
  Workload w;
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> tup(0, kGroup - 1);
  std::uniform_int_distribution<int> coin(0, 1);
  w.entities.resize(num_entities);
  for (int e = 0; e < num_entities; ++e) {
    EntityVars& ev = w.entities[e];
    for (int p = 0; p < kPairs; ++p) ev.pair_a[p] = w.num_vars++;
    for (int p = 0; p < kPairs; ++p) ev.pair_b[p] = w.num_vars++;
    for (int u = 0; u < kGroup; ++u) ev.last_a[u] = w.num_vars++;
    for (int u = 0; u < kGroup; ++u) ev.last_b[u] = w.num_vars++;

    const int* blocks[2] = {ev.pair_a, ev.pair_b};
    const int* lasts[2] = {ev.last_a, ev.last_b};
    for (int attr = 0; attr < 2; ++attr) {
      const int* pv = blocks[attr];
      // Transitivity over every ordered triple of distinct tuples.
      for (int a = 0; a < kGroup; ++a) {
        for (int b = 0; b < kGroup; ++b) {
          for (int c = 0; c < kGroup; ++c) {
            if (a == b || b == c || a == c) continue;
            w.clauses.push_back({sat::Negate(OrdLit(pv, a, b)),
                                 sat::Negate(OrdLit(pv, b, c)),
                                 OrdLit(pv, a, c)});
          }
        }
      }
      // Is-last selectors: L_u ⇔ ⋀_{v≠u} v ≺ u (binaries + one long).
      for (int u = 0; u < kGroup; ++u) {
        std::vector<sat::Lit> definition{sat::MakeLit(lasts[attr][u])};
        for (int v = 0; v < kGroup; ++v) {
          if (v == u) continue;
          w.clauses.push_back(
              {sat::MakeLit(lasts[attr][u], true), OrdLit(pv, v, u)});
          definition.push_back(sat::Negate(OrdLit(pv, v, u)));
        }
        w.clauses.push_back(std::move(definition));
      }
    }
    // Planted-satisfiable ternary denial clauses on attribute A: each
    // literal orders a random pair either identically (lo ≺ hi, true in
    // the identity model) or reversed; the third literal is forced
    // identical when needed, so the identity order satisfies every
    // clause (same scheme as bench_serve's puzzle constraints).
    for (int c = 0; c < kPuzzleClauses; ++c) {
      std::vector<sat::Lit> clause;
      bool any_identity = false;
      for (int k = 0; k < 3; ++k) {
        int lo = tup(rng), hi = tup(rng);
        while (hi == lo) hi = tup(rng);
        if (lo > hi) std::swap(lo, hi);
        bool identity = coin(rng) == 1;
        if (k == 2 && !any_identity) identity = true;
        any_identity |= identity;
        clause.push_back(identity ? OrdLit(ev.pair_a, lo, hi)
                                  : OrdLit(ev.pair_a, hi, lo));
      }
      w.clauses.push_back(std::move(clause));
    }
    // Copy ≺-compatibility inside the entity (A orders imply B orders) …
    for (int p = 0; p < kPairs; ++p) {
      w.clauses.push_back(
          {sat::MakeLit(ev.pair_a[p], true), sat::MakeLit(ev.pair_b[p])});
    }
    // … and a chain edge to the previous entity, coupling all entities
    // into one giant component.
    if (e > 0) {
      w.clauses.push_back({sat::MakeLit(w.entities[e - 1].pair_b[0], true),
                           sat::MakeLit(ev.pair_a[0])});
    }
  }
  return w;
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-engine measurements.  The probe verdicts and enumeration count are
/// compared across engines by the caller (they are search-path
/// independent).
struct EngineRun {
  std::string name;
  double build_ms = 0;
  double solve_ms = 0;
  double probe_ms = 0;
  double enum_ms = 0;
  int64_t propagations = 0;
  int64_t conflicts = 0;
  int64_t decisions = 0;
  int64_t arena_bytes = 0;
  int64_t gc_runs = 0;
  int64_t reductions = 0;
  int64_t minimized_literals = 0;
  int64_t demotions = 0;
  int64_t tier_core = 0;
  int64_t tier_mid = 0;
  int64_t tier_local = 0;
  std::vector<bool> probe_verdicts;
  int64_t enumerated = 0;
  bool base_sat = false;

  double SearchMs() const { return solve_ms + probe_ms + enum_ms; }
  double PropsPerSec() const {
    double ms = SearchMs();
    return ms > 0 ? 1000.0 * static_cast<double>(propagations) / ms : 0;
  }
  double ConflictsPerSec() const {
    double ms = SearchMs();
    return ms > 0 ? 1000.0 * static_cast<double>(conflicts) / ms : 0;
  }
  std::string ToJson() const {
    char buf[768];
    std::snprintf(
        buf, sizeof buf,
        "{\"engine\": \"%s\", \"build_ms\": %.2f, \"solve_ms\": %.2f, "
        "\"probe_ms\": %.2f, \"enum_ms\": %.2f, \"propagations\": %lld, "
        "\"conflicts\": %lld, \"decisions\": %lld, "
        "\"props_per_sec\": %.0f, \"conflicts_per_sec\": %.0f, "
        "\"arena_bytes\": %lld, \"gc_runs\": %lld, "
        "\"minimized_literals\": %lld, \"demotions\": %lld, "
        "\"tiers\": {\"core\": %lld, \"mid\": %lld, \"local\": %lld}}",
        name.c_str(), build_ms, solve_ms, probe_ms, enum_ms,
        static_cast<long long>(propagations),
        static_cast<long long>(conflicts), static_cast<long long>(decisions),
        PropsPerSec(), ConflictsPerSec(),
        static_cast<long long>(arena_bytes), static_cast<long long>(gc_runs),
        static_cast<long long>(minimized_literals),
        static_cast<long long>(demotions), static_cast<long long>(tier_core),
        static_cast<long long>(tier_mid), static_cast<long long>(tier_local));
    return buf;
  }
};

/// Drives the identical workload through either engine (both expose the
/// same public surface).  Enumeration is inlined (blocking clauses on
/// the projection) so both engines run the same loop.
template <typename SolverT>
EngineRun RunEngine(const char* name, const Workload& w, int probes,
                    int64_t enum_budget) {
  EngineRun run;
  run.name = name;

  SolverT solver;
  double t0 = NowMs();
  for (int i = 0; i < w.num_vars; ++i) solver.NewVar();
  for (const auto& clause : w.clauses) (void)solver.AddClause(clause);
  run.build_ms = NowMs() - t0;

  t0 = NowMs();
  run.base_sat = solver.Solve() == sat::SolveResult::kSat;
  run.solve_ms = NowMs() - t0;

  // COP-style probes: assume a reversed pair (sometimes two) and let the
  // solver refute or complete it.  Entities rotate so probes spread over
  // the whole chained component.
  int num_entities = static_cast<int>(w.entities.size());
  t0 = NowMs();
  for (int q = 0; q < probes; ++q) {
    int e = static_cast<int>(
        (static_cast<int64_t>(q) * num_entities) / (probes > 0 ? probes : 1));
    const EntityVars& ev = w.entities[e];
    std::vector<sat::Lit> assumptions{
        sat::MakeLit(ev.pair_a[PairIndex(0, 1)], true)};
    if (q % 2 == 1) {
      assumptions.push_back(sat::MakeLit(ev.pair_b[PairIndex(2, 3)], true));
    }
    run.probe_verdicts.push_back(solver.SolveWithAssumptions(assumptions) ==
                                 sat::SolveResult::kSat);
  }
  run.probe_ms = NowMs() - t0;

  // DCIP/CCQA-flavored burst: enumerate the projected models over entity
  // 0's attribute-A selector variables, blocking each.
  t0 = NowMs();
  const sat::Var* projection = w.entities[0].last_a;
  while (run.enumerated < enum_budget &&
         solver.Solve() == sat::SolveResult::kSat) {
    ++run.enumerated;
    std::vector<sat::Lit> block;
    for (int u = 0; u < kGroup; ++u) {
      block.push_back(
          sat::MakeLit(projection[u], solver.ModelValue(projection[u])));
    }
    if (!solver.AddClause(std::move(block))) break;
  }
  run.enum_ms = NowMs() - t0;

  run.propagations = solver.stats().propagations;
  run.conflicts = solver.stats().conflicts;
  run.decisions = solver.stats().decisions;
  run.arena_bytes = solver.stats().arena_bytes;
  run.gc_runs = solver.stats().gc_runs;
  run.reductions = solver.stats().reductions;
  run.minimized_literals = solver.stats().minimized_literals;
  run.demotions = solver.stats().demotions;
  run.tier_core = solver.stats().tier_core;
  run.tier_mid = solver.stats().tier_tier2;
  run.tier_local = solver.stats().tier_local;
  return run;
}

int Fail(const char* what) {
  std::fprintf(stderr, "bench_sat_core: FAILED: %s\n", what);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  int entities = 256;
  int probes = 512;
  int64_t enum_budget = 64;
  double require_speedup = 0.0;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--entities=", 11) == 0) {
      entities = std::atoi(argv[i] + 11);
    } else if (std::strncmp(argv[i], "--probes=", 9) == 0) {
      probes = std::atoi(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--enum-budget=", 14) == 0) {
      enum_budget = std::atoll(argv[i] + 14);
    } else if (std::strncmp(argv[i], "--require-speedup=", 18) == 0) {
      require_speedup = std::atof(argv[i] + 18);
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "bench_sat_core: unknown flag %s\n", argv[i]);
      return 1;
    }
  }

  Workload w = BuildWorkload(entities, /*seed=*/17);
  EngineRun arena = RunEngine<sat::Solver>("arena", w, probes, enum_budget);
  EngineRun legacy =
      RunEngine<sat::LegacySolver>("legacy", w, probes, enum_budget);

  // Self-checks: every search-path-independent output must agree.
  if (!arena.base_sat || !legacy.base_sat) {
    return Fail("planted workload must be SAT on both engines");
  }
  if (arena.probe_verdicts != legacy.probe_verdicts) {
    return Fail("probe verdicts diverge between arena and legacy engines");
  }
  if (arena.enumerated != legacy.enumerated) {
    return Fail("projected enumeration counts diverge between engines");
  }
  if (arena.gc_runs != arena.reductions) {
    // Every learnt-clause reduction must end in a compaction (and
    // nothing else compacts outside the test hooks).
    return Fail("arena compactions out of sync with ReduceDB runs");
  }

  double speedup = legacy.PropsPerSec() > 0
                       ? arena.PropsPerSec() / legacy.PropsPerSec()
                       : 0.0;
  std::string json = "{\n  \"bench\": \"bench_sat_core\",\n  \"workload\": {";
  json += "\"entities\": " + std::to_string(entities) +
          ", \"vars\": " + std::to_string(w.num_vars) +
          ", \"clauses\": " + std::to_string(w.clauses.size()) +
          ", \"probes\": " + std::to_string(probes) +
          ", \"enum_budget\": " + std::to_string(enum_budget) +
          "},\n  \"results\": [\n    " + arena.ToJson() + ",\n    " +
          legacy.ToJson() + "\n  ],\n";
  char tail[64];
  std::snprintf(tail, sizeof tail, "  \"speedup_props_per_sec\": %.2f\n}\n",
                speedup);
  json += tail;
  if (out_path.empty()) {
    std::fputs(json.c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) return Fail("cannot open --out file");
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("bench_sat_core: wrote %s (speedup %.2fx)\n", out_path.c_str(),
                speedup);
  }
  if (require_speedup > 0 && speedup < require_speedup) {
    std::fprintf(stderr,
                 "bench_sat_core: FAILED: propagation throughput %.2fx of "
                 "legacy, below the required %.2fx\n",
                 speedup, require_speedup);
    return 1;
  }
  return 0;
}
