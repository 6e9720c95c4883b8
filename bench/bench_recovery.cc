// Durability benchmark: what the command log (src/wal) costs on the hot
// path and what warm snapshots buy on restart.
//
// Like bench_serve this is plain C++ on the shared harness
// (bench/harness.h): it reports latency percentiles and machine-readable
// JSON for scripts/bench.sh (BENCH_wal.json), self-checks every recovered
// state against the live one, and (via --require-speedup=F) enforces the
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
//
// Workload: the harness's sharded shape of bench_serve without the copy
// instance — R holds `entities` four-tuple entities, each carrying a
// small planted-satisfiable order puzzle, so every coupling component
// pays a genuine SAT solve on a cold start.  Mutations edit the
// constraint-free B attribute round-robin across entities.
//
// Flags: --entities=N --mutations=M --iters=K --threads=T
//        --require-speedup=F --dir=PATH --out=FILE

#include <filesystem>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/obs/metrics.h"
#include "src/serve/session_manager.h"
#include "src/wire/spec.h"

namespace {

using namespace currency;  // NOLINT

constexpr bench::ShardShape kShape{.replica = false};

/// The m-th mutation of the deterministic edit stream: a B-attribute
/// rewrite (constraint-free, so answers and satisfiability are
/// unaffected) rotating across entities.
std::vector<core::TupleEdit> MutationAt(int m, int entities) {
  int e = m % entities;
  return {core::TupleEdit{
      0, e * kShape.group + (m / entities) % kShape.group, 3,
      Value(100 + m)}};
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("bench_recovery");
  int entities = 64;
  int mutations = 128;
  int iters = 5;
  int threads = 1;
  double require_speedup = 0.0;
  std::string dir = "bench_recovery_dirs";
  if (!report.ParseFlags(argc, argv,
                         {{"entities", &entities},
                          {"mutations", &mutations},
                          {"iters", &iters},
                          {"threads", &threads},
                          {"require-speedup", &require_speedup},
                          {"dir", &dir}})) {
    return 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  core::Specification spec = bench::MakeShardedSpec(entities, kShape);
  serve::ManagerOptions options;
  options.num_threads = threads;

  // Baseline: the same mutation stream against an in-memory manager.
  bench::Series inmemory{"inmemory_mutate"};
  bool reference_consistent = false;
  {
    auto manager = serve::SessionManager::Create(options);
    if (!manager.ok()) return report.Fail(manager.status().ToString());
    core::Specification copy = spec;
    Status st = (*manager)->Register("bench", std::move(copy), {});
    if (!st.ok()) return report.Fail(st.ToString());
    for (int m = 0; m < mutations; ++m) {
      auto edits = MutationAt(m, entities);
      double t0 = bench::NowMs();
      st = (*manager)->Mutate("bench", edits);
      inmemory.samples_ms.push_back(bench::NowMs() - t0);
      if (!st.ok()) return report.Fail(st.ToString());
    }
    auto consistent = (*manager)->CpsCheck("bench");
    if (!consistent.ok() || !*consistent) {
      return report.Fail("workload must be SAT");
    }
    reference_consistent = *consistent;
  }

  // Durable manager: same stream, every Mutate appended + fsynced before
  // it acknowledges.  The log keeps the full history (no snapshot yet).
  bench::Series durable{"durable_mutate_fsync"};
  std::string live_wire;
  {
    auto manager = serve::SessionManager::Open(dir, options);
    if (!manager.ok()) return report.Fail(manager.status().ToString());
    core::Specification copy = spec;
    Status st = (*manager)->Register("bench", std::move(copy), {});
    if (!st.ok()) return report.Fail(st.ToString());
    for (int m = 0; m < mutations; ++m) {
      auto edits = MutationAt(m, entities);
      double t0 = bench::NowMs();
      st = (*manager)->Mutate("bench", edits);
      durable.samples_ms.push_back(bench::NowMs() - t0);
      if (!st.ok()) return report.Fail(st.ToString());
    }
    auto session = (*manager)->Lookup("bench");
    if (!session.ok()) return report.Fail(session.status().ToString());
    live_wire = wire::SerializeSpecification((*session)->spec());
  }

  // Replay restart: Open replays the register + M mutations through
  // ApplyCommand, then the first CpsCheck base-solves every component.
  bench::Series replay{"replay_restart_open_plus_cps"};
  for (int it = 0; it < iters; ++it) {
    double t0 = bench::NowMs();
    auto manager = serve::SessionManager::Open(dir, options);
    if (!manager.ok()) return report.Fail(manager.status().ToString());
    auto consistent = (*manager)->CpsCheck("bench");
    replay.samples_ms.push_back(bench::NowMs() - t0);
    if (!consistent.ok()) return report.Fail(consistent.status().ToString());
    if (*consistent != reference_consistent) {
      return report.Fail("replay restart changed the CPS answer");
    }
    auto session = (*manager)->Lookup("bench");
    if (!session.ok()) return report.Fail(session.status().ToString());
    if (wire::SerializeSpecification((*session)->spec()) != live_wire) {
      return report.Fail(
          "replay restart recovered a different specification");
    }
  }

  // Write the warm snapshot the way a serving process would: after the
  // caches are hot (the timed CpsCheck above warmed them on the last
  // reopen; do it once more on a manager we then snapshot).
  {
    auto manager = serve::SessionManager::Open(dir, options);
    if (!manager.ok()) return report.Fail(manager.status().ToString());
    auto consistent = (*manager)->CpsCheck("bench");
    if (!consistent.ok()) return report.Fail(consistent.status().ToString());
    Status st = (*manager)->Snapshot();
    if (!st.ok()) return report.Fail(st.ToString());
  }

  // Snapshot-assisted restart: Open parses the snapshot, registers the
  // tenant once, adopts every solved verdict by content fingerprint —
  // the first CpsCheck must do ZERO base solves.
  bench::Series snapshot{"snapshot_restart_open_plus_cps"};
  for (int it = 0; it < iters; ++it) {
    double t0 = bench::NowMs();
    auto manager = serve::SessionManager::Open(dir, options);
    if (!manager.ok()) return report.Fail(manager.status().ToString());
    auto consistent = (*manager)->CpsCheck("bench");
    snapshot.samples_ms.push_back(bench::NowMs() - t0);
    if (!consistent.ok()) return report.Fail(consistent.status().ToString());
    if (*consistent != reference_consistent) {
      return report.Fail("snapshot restart changed the CPS answer");
    }
    auto session = (*manager)->Lookup("bench");
    if (!session.ok()) return report.Fail(session.status().ToString());
    if (wire::SerializeSpecification((*session)->spec()) != live_wire) {
      return report.Fail(
          "snapshot restart recovered a different specification");
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
      return report.Fail(
          "snapshot restart paid base solves (verdict adoption failed)");
    }
  }
  std::filesystem::remove_all(dir, ec);

  report.Workload("entities", entities);
  report.Workload("mutations", mutations);
  report.Workload("iters", iters);
  report.Workload("threads", threads);
  for (const bench::Series* series :
       {&inmemory, &durable, &replay, &snapshot}) {
    report.Row(*series);
  }
  report.Ratio("fsync_overhead_mutate_p50",
               inmemory.Percentile(0.5) > 0
                   ? durable.Percentile(0.5) / inmemory.Percentile(0.5)
                   : 0.0);
  report.Ratio("speedup_snapshot_vs_replay_restart_p50",
               snapshot.Percentile(0.5) > 0
                   ? replay.Percentile(0.5) / snapshot.Percentile(0.5)
                   : 0.0);
  report.Floor("speedup_snapshot_vs_replay_restart_p50", require_speedup,
               "snapshot-restart speedup %.2fx below the required %.2fx");
  return report.Write();
}
