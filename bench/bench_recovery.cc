// Durability benchmark: what the command log (src/wal) costs on the hot
// path and what warm snapshots buy on restart.
//
// Like bench_serve this is a plain binary (no Google Benchmark): it
// reports latency percentiles and machine-readable JSON for
// scripts/bench.sh (BENCH_wal.json), self-checks every recovered state
// against the live one, and (via --require-speedup=F) enforces the
// snapshot-assisted-restart speedup floor, so its ctest smoke
// registration doubles as a correctness test.
//
// Measured series:
//   * inmemory_mutate     — Mutate latency on a Create() manager
//                           (no log): the baseline.
//   * durable_mutate      — Mutate latency on an Open(dir) manager:
//                           baseline + encode + append + fsync.  The
//                           ratio is the price of fsync-before-
//                           acknowledge on this filesystem.
//   * replay_restart      — Open(dir) + first CpsCheck with the full
//                           history in the log: replays one register +
//                           M mutations (each a full epoch rebuild),
//                           then base-solves every component.
//   * snapshot_restart    — the same state behind a warm snapshot:
//                           Open parses the snapshot, registers once,
//                           adopts the solved verdicts by content
//                           fingerprint, and the first CpsCheck answers
//                           from cache with ZERO base solves (checked).
//
// Replay applies the logged commands one at a time and the first
// CpsCheck solves on a pool of --threads (1 by default), so absolute
// times understate a parallel restart, but the replay-vs-snapshot ratio
// — the number the floor guards — does not depend on the thread count.
// The report carries no host caveat of its own; scripts/bench.sh stamps
// the host.
//
// Workload: the sharded shape of bench_serve without the copy instance —
// R holds `entities` four-tuple entities, each carrying a small planted-
// satisfiable order puzzle, so every coupling component pays a genuine
// SAT solve on a cold start.  Mutations edit the constraint-free B
// attribute round-robin across entities.
//
// Flags: --entities=N --mutations=M --iters=K --threads=T
//        --require-speedup=F --dir=PATH --out=FILE

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/serve/session_manager.h"
#include "src/wire/spec.h"

namespace {

using namespace currency;  // NOLINT

constexpr int kGroup = 4;     // tuples per R entity
constexpr int kClauses = 10;  // puzzle clauses per entity

/// Zero-padded ids keep Value order aligned with creation order.
std::string PadId(const char* prefix, int e) {
  std::string digits = std::to_string(e);
  return std::string(prefix) + std::string(6 - digits.size(), '0') + digits;
}

/// Planted-satisfiable ternary clauses over the A-order literals of a
/// four-tuple entity, pinned to concrete tuples through the P attribute
/// (the bench_serve scheme): each grounds to one clause per entity group,
/// giving every component a few genuine CDCL conflicts on its base solve.
std::vector<std::string> MakePuzzleConstraints(unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> tup(0, kGroup - 1);
  std::uniform_int_distribution<int> coin(0, 1);
  const char* vars[] = {"a", "b", "c", "d", "e", "f"};
  std::vector<std::string> out;
  while (static_cast<int>(out.size()) < kClauses) {
    struct Literal {
      int lo, hi;
      bool identity;
    };
    std::vector<Literal> lits;
    bool any_identity = false;
    for (int k = 0; k < 3; ++k) {
      int lo = tup(rng), hi = tup(rng);
      while (hi == lo) hi = tup(rng);
      if (lo > hi) std::swap(lo, hi);
      bool identity = coin(rng) == 1;
      if (k == 2 && !any_identity) identity = true;  // plant satisfiability
      any_identity |= identity;
      lits.push_back({lo, hi, identity});
    }
    std::string text = "FORALL a, b, c, d, e, f IN R: ";
    for (int k = 0; k < 3; ++k) {
      text += std::string(vars[2 * k]) + ".P = " + std::to_string(lits[k].lo) +
              " AND " + vars[2 * k + 1] + ".P = " +
              std::to_string(lits[k].hi) + " AND ";
    }
    for (int k = 0; k < 3; ++k) {
      std::string lo = vars[2 * k], hi = vars[2 * k + 1];
      text += lits[k].identity ? hi + " PREC[A] " + lo
                               : lo + " PREC[A] " + hi;
      text += (k < 2) ? " AND " : " -> a PREC[A] a";  // pure denial
    }
    out.push_back(std::move(text));
  }
  return out;
}

core::Specification MakeShardedSpec(int entities) {
  core::Specification spec;
  Schema rs = Schema::Make("R", {"P", "A", "B"}).value();
  Relation r(rs);
  for (int e = 0; e < entities; ++e) {
    Value eid(PadId("e", e));
    for (int k = 0; k < kGroup; ++k) {
      (void)r.AppendValues({eid, Value(k), Value(k), Value(k % 2)});
    }
  }
  (void)spec.AddInstance(core::TemporalInstance(std::move(r)));
  for (const std::string& text : MakePuzzleConstraints(/*seed=*/11)) {
    (void)spec.AddConstraintText(text);
  }
  return spec;
}

/// The m-th mutation of the deterministic edit stream: a B-attribute
/// rewrite (constraint-free, so answers and satisfiability are
/// unaffected) rotating across entities.
std::vector<core::TupleEdit> MutationAt(int m, int entities) {
  int e = m % entities;
  return {core::TupleEdit{0, e * kGroup + (m / entities) % kGroup, 3,
                          Value(100 + m)}};
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Series {
  std::string name;
  std::vector<double> samples_ms;

  double Total() const {
    double t = 0;
    for (double s : samples_ms) t += s;
    return t;
  }
  double Percentile(double q) const {
    if (samples_ms.empty()) return 0;
    std::vector<double> sorted = samples_ms;
    std::sort(sorted.begin(), sorted.end());
    size_t rank = static_cast<size_t>(q * (sorted.size() - 1) + 0.5);
    return sorted[std::min(rank, sorted.size() - 1)];
  }
  std::string ToJson() const {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"n\": %zu, \"ops_per_sec\": %.3f, "
                  "\"p50_ms\": %.4f, \"p95_ms\": %.4f, \"mean_ms\": %.4f}",
                  name.c_str(), samples_ms.size(),
                  samples_ms.empty() || Total() <= 0
                      ? 0.0
                      : 1000.0 * samples_ms.size() / Total(),
                  Percentile(0.50), Percentile(0.95),
                  samples_ms.empty() ? 0.0 : Total() / samples_ms.size());
    return buf;
  }
};

int Fail(const char* what) {
  std::fprintf(stderr, "bench_recovery: FAILED: %s\n", what);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  int entities = 64;
  int mutations = 128;
  int iters = 5;
  int threads = 1;
  double require_speedup = 0.0;
  std::string dir = "bench_recovery_dirs";
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--entities=", 11) == 0) {
      entities = std::atoi(argv[i] + 11);
    } else if (std::strncmp(argv[i], "--mutations=", 12) == 0) {
      mutations = std::atoi(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--iters=", 8) == 0) {
      iters = std::atoi(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--require-speedup=", 18) == 0) {
      require_speedup = std::atof(argv[i] + 18);
    } else if (std::strncmp(argv[i], "--dir=", 6) == 0) {
      dir = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "bench_recovery: unknown flag %s\n", argv[i]);
      return 1;
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  core::Specification spec = MakeShardedSpec(entities);
  serve::ManagerOptions options;
  options.num_threads = threads;

  // Baseline: the same mutation stream against an in-memory manager.
  Series inmemory{"inmemory_mutate", {}};
  bool reference_consistent = false;
  {
    auto manager = serve::SessionManager::Create(options);
    if (!manager.ok()) return Fail(manager.status().ToString().c_str());
    core::Specification copy = spec;
    Status st = (*manager)->Register("bench", std::move(copy), {});
    if (!st.ok()) return Fail(st.ToString().c_str());
    for (int m = 0; m < mutations; ++m) {
      auto edits = MutationAt(m, entities);
      double t0 = NowMs();
      st = (*manager)->Mutate("bench", edits);
      inmemory.samples_ms.push_back(NowMs() - t0);
      if (!st.ok()) return Fail(st.ToString().c_str());
    }
    auto consistent = (*manager)->CpsCheck("bench");
    if (!consistent.ok() || !*consistent) return Fail("workload must be SAT");
    reference_consistent = *consistent;
  }

  // Durable manager: same stream, every Mutate appended + fsynced before
  // it acknowledges.  The log keeps the full history (no snapshot yet).
  Series durable{"durable_mutate_fsync", {}};
  std::string live_wire;
  {
    auto manager = serve::SessionManager::Open(dir, options);
    if (!manager.ok()) return Fail(manager.status().ToString().c_str());
    core::Specification copy = spec;
    Status st = (*manager)->Register("bench", std::move(copy), {});
    if (!st.ok()) return Fail(st.ToString().c_str());
    for (int m = 0; m < mutations; ++m) {
      auto edits = MutationAt(m, entities);
      double t0 = NowMs();
      st = (*manager)->Mutate("bench", edits);
      durable.samples_ms.push_back(NowMs() - t0);
      if (!st.ok()) return Fail(st.ToString().c_str());
    }
    auto session = (*manager)->Lookup("bench");
    if (!session.ok()) return Fail(session.status().ToString().c_str());
    live_wire = wire::SerializeSpecification((*session)->spec());
  }

  // Replay restart: Open replays the register + M mutations through
  // ApplyCommand, then the first CpsCheck base-solves every component.
  Series replay{"replay_restart_open_plus_cps", {}};
  for (int it = 0; it < iters; ++it) {
    double t0 = NowMs();
    auto manager = serve::SessionManager::Open(dir, options);
    if (!manager.ok()) return Fail(manager.status().ToString().c_str());
    auto consistent = (*manager)->CpsCheck("bench");
    replay.samples_ms.push_back(NowMs() - t0);
    if (!consistent.ok()) return Fail(consistent.status().ToString().c_str());
    if (*consistent != reference_consistent) {
      return Fail("replay restart changed the CPS answer");
    }
    auto session = (*manager)->Lookup("bench");
    if (!session.ok()) return Fail(session.status().ToString().c_str());
    if (wire::SerializeSpecification((*session)->spec()) != live_wire) {
      return Fail("replay restart recovered a different specification");
    }
  }

  // Write the warm snapshot the way a serving process would: after the
  // caches are hot (the timed CpsCheck above warmed them on the last
  // reopen; do it once more on a manager we then snapshot).
  {
    auto manager = serve::SessionManager::Open(dir, options);
    if (!manager.ok()) return Fail(manager.status().ToString().c_str());
    auto consistent = (*manager)->CpsCheck("bench");
    if (!consistent.ok()) return Fail(consistent.status().ToString().c_str());
    Status st = (*manager)->Snapshot();
    if (!st.ok()) return Fail(st.ToString().c_str());
  }

  // Snapshot-assisted restart: Open parses the snapshot, registers the
  // tenant once, adopts every solved verdict by content fingerprint —
  // the first CpsCheck must do ZERO base solves.
  Series snapshot{"snapshot_restart_open_plus_cps", {}};
  for (int it = 0; it < iters; ++it) {
    double t0 = NowMs();
    auto manager = serve::SessionManager::Open(dir, options);
    if (!manager.ok()) return Fail(manager.status().ToString().c_str());
    auto consistent = (*manager)->CpsCheck("bench");
    snapshot.samples_ms.push_back(NowMs() - t0);
    if (!consistent.ok()) return Fail(consistent.status().ToString().c_str());
    if (*consistent != reference_consistent) {
      return Fail("snapshot restart changed the CPS answer");
    }
    auto session = (*manager)->Lookup("bench");
    if (!session.ok()) return Fail(session.status().ToString().c_str());
    if (wire::SerializeSpecification((*session)->spec()) != live_wire) {
      return Fail("snapshot restart recovered a different specification");
    }
    // Registry snapshot, not SessionStats: the same series the exposition
    // endpoint reports (each reopened manager owns a fresh registry).
    int64_t base_solves =
        (*manager)
            ->registry()
            ->GetCounter("currency_serve_component_base_solves_total",
                         {{"tenant", "bench"}, {"routing", "sat"}})
            ->Value();
    if (base_solves != 0) {
      return Fail("snapshot restart paid base solves (verdict adoption "
                  "failed)");
    }
  }
  std::filesystem::remove_all(dir, ec);

  double fsync_overhead = inmemory.Percentile(0.5) > 0
                              ? durable.Percentile(0.5) / inmemory.Percentile(0.5)
                              : 0.0;
  double speedup = snapshot.Percentile(0.5) > 0
                       ? replay.Percentile(0.5) / snapshot.Percentile(0.5)
                       : 0.0;
  std::string json = "{\n  \"bench\": \"bench_recovery\",\n  \"workload\": {";
  json += "\"entities\": " + std::to_string(entities) +
          ", \"mutations\": " + std::to_string(mutations) +
          ", \"iters\": " + std::to_string(iters) +
          ", \"threads\": " + std::to_string(threads) + "},\n" +
          "  \"results\": [";
  const Series* all[] = {&inmemory, &durable, &replay, &snapshot};
  for (size_t k = 0; k < 4; ++k) {
    json += std::string(k ? "," : "") + "\n    " + all[k]->ToJson();
  }
  char tail[160];
  std::snprintf(tail, sizeof tail,
                "\n  ],\n  \"fsync_overhead_mutate_p50\": %.2f,\n"
                "  \"speedup_snapshot_vs_replay_restart_p50\": %.2f\n}\n",
                fsync_overhead, speedup);
  json += tail;
  if (out_path.empty()) {
    std::fputs(json.c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) return Fail("cannot open --out file");
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("bench_recovery: wrote %s (restart speedup %.2fx, fsync "
                "overhead %.2fx)\n",
                out_path.c_str(), speedup, fsync_overhead);
  }
  if (require_speedup > 0 && speedup < require_speedup) {
    std::fprintf(stderr,
                 "bench_recovery: FAILED: snapshot-restart speedup %.2fx "
                 "below the required %.2fx\n",
                 speedup, require_speedup);
    return 1;
  }
  return 0;
}
