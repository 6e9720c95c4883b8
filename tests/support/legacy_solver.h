// The pre-arena CDCL solver, preserved verbatim as a reference engine.
//
// This is the solver exactly as it shipped before the arena-backed
// rewrite of src/sat/solver.h: one heap-allocated std::vector<Lit> per
// clause, watch lists of bare clause indices with no blocker literals,
// binary clauses paying the full clause dereference, and a lazy
// std::priority_queue VSIDS order (stale entries re-pushed on every
// bump).  It exists for two purposes only:
//
//  * bench/bench_sat_core runs the same CNF workload through this engine
//    and the arena engine in one process, so the reported speedup is a
//    measured pre-refactor baseline, not a snapshot that rots;
//  * tests/sat_metamorphic_test.cc replays every clause and assumption
//    stream through both engines and asserts the verdicts agree (and
//    that both models satisfy the formula), giving the arena engine an
//    independent same-algorithm-family oracle.
//
// It is NOT part of the production pipeline: core/encoder and everything
// above it use sat::Solver.  Do not "improve" this class — its value is
// being the unchanged baseline.  (The debug thread-confinement guard of
// the original was dropped: this engine is only ever driven from one
// test or bench thread.)

#ifndef CURRENCY_TESTS_SUPPORT_LEGACY_SOLVER_H_
#define CURRENCY_TESTS_SUPPORT_LEGACY_SOLVER_H_

#include <cstdint>
#include <queue>
#include <vector>

#include "src/sat/clause.h"
#include "src/sat/solver.h"

namespace currency::sat {

/// A disjunction of literals with its own heap-allocated literal vector —
/// the pre-arena clause representation.
struct LegacyClause {
  std::vector<Lit> lits;
  bool learnt = false;
  /// Bumped when the clause participates in conflict analysis; learnt
  /// clauses with low activity are candidates for deletion (ReduceDB).
  double activity = 0.0;
  /// Literal block distance at learn time: number of distinct decision
  /// levels among the clause's literals.  Low-LBD ("glue") clauses are
  /// never deleted.
  int lbd = 0;
};

/// The pre-refactor CDCL solver (see the file comment).  Public API is
/// the subset of sat::Solver the reference workloads need.
class LegacySolver {
 public:
  LegacySolver() = default;

  Var NewVar();
  int NumVars() const { return static_cast<int>(assign_.size()); }
  bool AddClause(std::vector<Lit> lits);
  SolveResult Solve() { return SolveWithAssumptions({}); }
  SolveResult SolveWithAssumptions(const std::vector<Lit>& assumptions);
  bool ModelValue(Var v) const { return model_[v] == 1; }
  const std::vector<int8_t>& model() const { return model_; }
  bool IsUnsatForever() const { return !ok_; }
  const SolverStats& stats() const { return stats_; }

 private:
  int DecisionLevel() const { return static_cast<int>(trail_lim_.size()); }
  void NewDecisionLevel() {
    trail_lim_.push_back(static_cast<int>(trail_.size()));
  }
  int LitValue(Lit l) const {
    int8_t v = assign_[LitVar(l)];
    return LitIsNeg(l) ? -v : v;
  }
  void UncheckedEnqueue(Lit l, int reason_clause);
  void CancelUntil(int level);
  int Propagate();
  int Analyze(int conflict_clause, std::vector<Lit>* learnt);
  void Attach(int ci);
  Lit PickBranchLit();
  void BumpVar(Var v);
  void BumpClause(int ci);
  void DecayActivities() {
    var_inc_ /= 0.95;
    cla_inc_ /= 0.999;
  }
  int LearntLbd(const std::vector<Lit>& learnt);
  void ReduceDB();
  void MaybeReduceDB();
  static double Luby(double y, int x);

  bool ok_ = true;
  std::vector<LegacyClause> clauses_;
  /// watches_[lit]: clause indices watching `lit` (i.e. containing it among
  /// their first two literals).
  std::vector<std::vector<int>> watches_;
  std::vector<int8_t> assign_;    // per var: +1 / -1 / 0
  std::vector<int> reason_;       // per var: clause index or -1
  std::vector<int> level_;        // per var
  std::vector<double> activity_;  // per var
  std::vector<int8_t> phase_;     // per var: last assigned sign (+1/-1)
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  size_t qhead_ = 0;
  double var_inc_ = 1.0;
  double cla_inc_ = 1.0;
  int64_t num_learnts_ = 0;
  int64_t max_learnts_ = 512;
  std::priority_queue<std::pair<double, Var>> order_heap_;
  std::vector<int8_t> model_;
  std::vector<int8_t> seen_;    // scratch for Analyze
  std::vector<char> lbd_seen_;  // scratch for LearntLbd
  SolverStats stats_;
};

}  // namespace currency::sat

#endif  // CURRENCY_TESTS_SUPPORT_LEGACY_SOLVER_H_
