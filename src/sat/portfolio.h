// Verdict-deterministic portfolio solving: race N diversified CDCL
// solvers over one CNF, first verdict wins, losers are cancelled.
//
// Why this is safe where the parallel layer's other tricks are not:
// SAT/UNSAT is a property of the FORMULA, not of the search path, so
// every sound solver returns the same verdict no matter which one
// finishes first — the race is nondeterministic in *time* but
// deterministic in *answer*.  That is exactly the contract CPS base
// solves and COP/DCIP refutation probes need.  What a race does NOT
// preserve is the model: the winning solver's model depends on who won,
// so anything that reads a witness (CPS want_witness completions, CCQA
// model enumeration) must stay on the deterministic single-solver path,
// and a rival's model never enters the primary's remembered models
// (Solver::SeenInModel).  Callers re-establish a model with a plain
// Solve() on the primary when they need one after a race.
//
// Topology: one Portfolio fronts one PRIMARY solver (the caller's
// long-lived, stats-bearing encoder solver) plus rival solvers spawned
// lazily over the same CNF with diversified Solver::Options (seed, phase
// init, restart profile).  Races run as a ParallelFor region on the
// caller's shared exec::ThreadPool; the first task to finish sets a stop
// flag (polled by Solver::SolveLimited) and cancels the region's
// unclaimed tasks.  Race accounting lands in the primary's SolverStats
// (portfolio_races / portfolio_cancelled), so the serving layer's
// solve-boundary delta sampling exports it for free.
//
// Single-thread pass-through: when the pool cannot actually run rivals
// concurrently (num_threads() <= 1, or the portfolio is sized to one
// solver), Solve() calls the primary directly — no rivals are ever
// spawned, no stop flag is polled, no region is opened.  Portfolio-on at
// one thread is therefore byte-identical (answers, stats, overhead) to
// portfolio-off, which is what makes it safe to leave enabled on 1-CPU
// hosts.
//
// Nesting: Portfolio::Solve opens a ParallelFor region, so per the exec
// contract it must NOT be called from inside another region on the same
// pool.  The one caller, core::DecomposedEncoder, therefore races dominant
// components sequentially from the region-owning thread, outside its
// per-component fan-out (DecomposedEncoder::ForEachComponent).

#ifndef CURRENCY_SRC_SAT_PORTFOLIO_H_
#define CURRENCY_SRC_SAT_PORTFOLIO_H_

#include <functional>
#include <vector>

#include "src/common/result.h"
#include "src/exec/thread_pool.h"
#include "src/sat/solver.h"

namespace currency::sat {

/// Caller-facing knobs.  Carried by CpsOptions/CopOptions/DcipOptions and
/// serve::SessionOptions; disabled by default everywhere.
struct PortfolioOptions {
  /// Master switch.  Off keeps every solve on the single-solver path.
  bool enabled = false;
  /// Solvers per race, INCLUDING the primary (config 0).  Clamped to the
  /// pool's thread count — a rival that could never run concurrently is
  /// never built.
  int num_solvers = 4;
  /// Only components with at least this many entity groups are routed
  /// through the portfolio; smaller ones stay on the (cheaper, already
  /// parallel-across-components) single-solver path.
  int min_component_size = 8;
};

/// A reusable verdict race over one fixed CNF.
class Portfolio {
 public:
  /// Builds the rival solver for diversified configuration `config`
  /// (1-based; config 0 is the primary).  The callee owns the returned
  /// solver's storage and must keep it alive as long as the Portfolio —
  /// encoder-backed callers stash the rival Encoder and return
  /// &encoder->solver().  Called lazily, once per config, on the first
  /// multi-threaded Solve; never called on the pass-through path.
  using Spawn = std::function<Result<Solver*>(int config,
                                              const Solver::Options& options)>;

  /// `primary` and `pool` are borrowed and must outlive the Portfolio.
  Portfolio(Solver* primary, Spawn spawn, const PortfolioOptions& options,
            exec::ThreadPool* pool)
      : primary_(primary),
        spawn_(std::move(spawn)),
        options_(options),
        pool_(pool) {}

  /// Races the configured solvers on SolveWithAssumptions(assumptions)
  /// and returns the (race-independent) verdict.  Pass-through to the
  /// primary when the pool is single-threaded or the portfolio is sized
  /// to one solver.  After a race the primary may hold NO model even on
  /// kSat — callers needing a witness must re-Solve() on the primary.
  Result<SolveResult> Solve(const std::vector<Lit>& assumptions = {});

  /// Diversified configurations for configs 1..n-1 (config 0 is the
  /// primary's own options and is not returned).  Deterministic; spans
  /// phase inits × restart profiles × seeds.
  static std::vector<Solver::Options> DiversifiedConfigs(int num_rivals);

  /// Solvers a race would use right now (pass-through reports 1).
  int RaceWidth() const;

 private:
  Solver* primary_;
  Spawn spawn_;
  PortfolioOptions options_;
  exec::ThreadPool* pool_;
  std::vector<Solver*> rivals_;  ///< borrowed; storage owned by spawn_'s captor
  bool spawned_ = false;
};

}  // namespace currency::sat

#endif  // CURRENCY_SRC_SAT_PORTFOLIO_H_
