// A compact CDCL SAT solver: two-watched-literal propagation with blocker
// literals, binary-clause specialization, 1UIP clause learning with
// backjumping, VSIDS activities on an indexed mutable heap with phase
// saving, Luby restarts, and activity/LBD-guided learnt-clause deletion
// with arena garbage collection.  Supports incremental solving under
// assumptions and incremental clause addition between calls — exactly
// what the currency solvers (CPS/COP/DCIP/CCQA) need.
//
// This is the engine realizing the paper's upper bounds (Theorems 3.1,
// 3.4, 3.5): the NP/Σ₂ᵖ search over consistent completions runs as CDCL
// on the order encoding from src/core/encoder.h.
//
// Memory layout (the hot-path story; see src/sat/clause.h for the word
// format):
//
//  * All clauses live inline in one flat uint32_t ClauseArena and are
//    addressed by CRef offsets.  Propagation's clause dereference is a
//    single indexed load instead of the two dependent misses of a
//    vector<Clause>-of-vector<Lit> layout.
//  * Watchers carry a BLOCKER literal — a literal of the clause (the
//    other watched literal, possibly stale) whose truth proves the
//    clause satisfied.  Watch lists are arrays of {CRef, blocker}, so a
//    satisfied clause is skipped by reading only the watcher itself,
//    never touching the arena.  A stale blocker is safe in both
//    directions: true ⇒ the clause is satisfied (skip is sound); false
//    or unset ⇒ we dereference the clause as usual.
//  * BINARY clauses live in separate per-literal watcher lists whose
//    entry stores the other literal as the payload: propagation of a
//    binary clause — skip, enqueue, or conflict — never touches the
//    arena at all.  The CRef rides along purely as the reason/conflict
//    handle for Analyze.  Binary watches never move, so these lists are
//    append-only between deletions.
//
// CRef lifetime and GC: ReduceDB marks deleted learnt clauses dead,
// unhooks their watchers, and then compacts the arena (two-space copy).
// Compaction translates every held CRef — clause list, watcher lists,
// reason slots — IN PLACE, preserving list order and clause literal
// order, so a relocation-only GC is bit-for-bit transparent to the
// search: same decisions, same models, same statistics (the metamorphic
// suite asserts this).  GC runs only at decision level 0; no CRef may be
// held across ReduceDB by callers (none of the public API exposes one).
//
// Retractable scopes (MiniSat-style activation literals).  NewScope()
// returns an activation literal a; until CloseScope(), every clause C the
// caller adds is attached as (¬a ∨ C) and every solve assumes a ahead of
// the caller's assumptions.  The contract callers rely on: after
// CloseScope(), the solver answers every later call exactly as it would
// have without the scope.  Two facts carry it:
//  * a occurs only negatively in the formula, so setting it false
//    satisfies every scoped clause: any clause derived during the scope
//    that does not mention a is implied by the unscoped formula alone.
//  * a is an assumption decision (no reason clause), so every learnt
//    clause whose derivation used a scoped clause keeps ¬a — 1UIP
//    analysis cannot resolve it away and minimization cannot drop it.
// CloseScope() (at level 0) deletes every clause, problem or learnt,
// binary or long, that mentions a; drops the reason of the level-0 unit ¬a
// that a scope refuted under its assumption leaves behind; and compacts
// the arena through the same purge-and-GC path ReduceDB uses.  The
// variable then stays parked false at level 0 — no clause mentions it, so
// it propagates nothing and never becomes a decision — until the next
// NewScope() clears that unit and reuses it: NumVars() stays flat across
// any number of open/close cycles.  Scopes do not nest.
//
// Remembered models.  Every kSat answer also records, per variable, which
// phases the model gave it (2 bits: seen true, seen false), and
// SeenInModel(l) reports whether l was true in some recorded model.  The
// contract callers rely on: every remembered literal is true in some
// model of the UNSCOPED formula (the clauses added outside any scope).
// Three facts carry it:
//  * a model found inside a scope satisfies the scoped formula, which
//    contains the unscoped one;
//  * learnt clauses are implied, and ReduceDB, GC and CloseScope only
//    delete learnt or scoped clauses, so none of them shrinks the set of
//    models of the unscoped formula — they keep the record;
//  * an unscoped AddClause can remove models, so it clears the record.
// RootValue(l) is the other half: a literal fixed at decision level 0 is
// implied by the unscoped formula (a scope's literal is an assumption
// decision, so no level-0 unit depends on a scoped clause), i.e. true in
// every model of it — except a scope variable's own parked unit, which no
// clause mentions.  Together they let a caller settle "does l hold in
// every model?" without a solve: no if ¬l was seen, yes if l is fixed.
// The record is solver state, so it moves with the solver.
//
// Thread confinement: a Solver is NOT thread-safe — no internal locking,
// and every entry point (NewVar, AddClause, Solve, SolveWithAssumptions,
// ModelValue) mutates or reads search state.  The parallel execution
// layer (src/exec) therefore confines each solver to one task at a time:
// concurrent use of *distinct* solvers is fine, sequential hand-off of
// one solver between threads is fine when a happens-before edge orders
// the calls (ThreadPool::ParallelFor's fork and join provide one), but
// two threads inside one solver at once is a bug.  Debug builds enforce
// this with a cheap overlapping-call assert; ThreadSanitizer (see
// CURRENCY_TSAN) catches the rest.

#ifndef CURRENCY_SRC_SAT_SOLVER_H_
#define CURRENCY_SRC_SAT_SOLVER_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/sat/clause.h"

namespace currency::sat {

/// Outcome of a Solve() call.
enum class SolveResult { kSat, kUnsat };

/// Counters exposed for the ablation benchmarks.
struct SolverStats {
  int64_t decisions = 0;
  int64_t propagations = 0;
  int64_t conflicts = 0;
  int64_t restarts = 0;
  int64_t learnt_clauses = 0;
  int64_t deleted_clauses = 0;
  int64_t reductions = 0;
  /// Arena compactions run (every ReduceDB that deletes compacts).
  int64_t gc_runs = 0;
  /// Current size of the flat clause buffer, in bytes.
  int64_t arena_bytes = 0;
  /// Literals removed from learnt clauses before attachment (recursive
  /// litRedundant minimization + binary self-subsumption combined).
  int64_t minimized_literals = 0;
  /// Live learnt clauses (longer than binary) currently in each tier.
  int64_t tier_core = 0;
  int64_t tier_tier2 = 0;
  int64_t tier_local = 0;
  /// TIER2 clauses demoted to LOCAL for going untouched across a
  /// reduction.
  int64_t demotions = 0;
};

/// A CDCL solver.  Typical use:
///   Solver s;
///   Var a = s.NewVar(), b = s.NewVar();
///   s.AddClause({MakeLit(a), MakeLit(b, true)});
///   if (s.Solve() == SolveResult::kSat) { bool va = s.ModelValue(a); ... }
class Solver {
 public:
  /// Allocates a fresh variable and returns it.
  Var NewVar();

  /// Number of allocated variables.
  int NumVars() const { return static_cast<int>(assign_.size()); }

  /// Adds a clause (disjunction of literals).  The literal list is
  /// simplified at level 0 before anything is attached: literals are
  /// sorted and deduplicated, tautologies (p ∨ ¬p) and clauses already
  /// satisfied at level 0 are dropped entirely, and false-at-level-0
  /// literals are removed — so the encoder's generated clause stream
  /// never watches redundant literals.  The literals are copied into
  /// solver-owned buffers that every call reuses, so a call allocates only
  /// when the arena, the clause list or a watch list grows.  Returns false
  /// if the solver is already in an UNSAT state after the simplification
  /// (adding the empty clause, or a unit that contradicts level-0
  /// knowledge).  Outside a scope it also clears the remembered models.
  bool AddClause(std::span<const Lit> lits);
  bool AddClause(std::initializer_list<Lit> lits) {
    return AddClause(std::span<const Lit>(lits.begin(), lits.size()));
  }

  /// Opens a retractable clause scope and returns its activation literal
  /// a (see the header comment for the contract).  Until CloseScope(),
  /// AddClause(C) attaches (¬a ∨ C) and every solve assumes a first.
  /// Requires no scope to be open.
  Lit NewScope();

  /// Retracts the open scope: deletes every clause mentioning the scope
  /// variable, learnt clauses included, and compacts the arena.  Runs at
  /// decision level 0 (it backtracks there first).
  void CloseScope();

  /// True between NewScope() and CloseScope().
  bool scope_open() const { return scope_ != kLitUndef; }

  /// True iff some live clause (problem or learnt, binaries included)
  /// contains `v` or ¬v.  A linear scan of the clause DB, for tests and
  /// debug checks — never on a solving path.
  bool AnyClauseMentions(Var v);

  /// Solves the current formula.
  SolveResult Solve() { return SolveWithAssumptions({}); }

  /// Solves under the given assumption literals.  The assumptions are not
  /// added to the formula; they only constrain this call.
  SolveResult SolveWithAssumptions(const std::vector<Lit>& assumptions) {
    return *SolveLimited(assumptions, nullptr);
  }

  /// Interruptible variant: `stop` (may be null) is polled every few
  /// hundred search loop iterations; once it reads true the search
  /// unwinds to level 0 and returns nullopt — no verdict.  The solver
  /// stays fully usable: clauses learnt before the interrupt are implied
  /// by the formula, so later calls remain sound and verdict-correct.
  /// This is the hook a per-request deadline or conflict budget raises to
  /// stop a solve.
  std::optional<SolveResult> SolveLimited(const std::vector<Lit>& assumptions,
                                          const std::atomic<bool>* stop);

  /// Value of `v` in the most recent satisfying model.  Requires the last
  /// Solve call to have returned kSat.
  bool ModelValue(Var v) const { return model_[v] == 1; }

  /// The full model (indexed by Var) from the last kSat call.
  const std::vector<int8_t>& model() const { return model_; }

  /// True iff `l` was true in some model recorded since the last unscoped
  /// AddClause (see "Remembered models" in the header comment).
  bool SeenInModel(Lit l) const {
    return (seen_phase_[LitVar(l)] & (LitIsNeg(l) ? kSeenFalse : kSeenTrue)) !=
           0;
  }

  /// True iff at least one model is recorded.
  bool HasRememberedModel() const { return model_remembered_; }

  /// +1 if `l` is fixed true at decision level 0, -1 if fixed false, 0 if
  /// open.  A fixed literal is implied by the unscoped formula.
  int RootValue(Lit l) const {
    const Var v = LitVar(l);
    return assign_[v] != 0 && level_[v] == 0 ? LitValue(l) : 0;
  }

  /// True once the formula is known unsatisfiable regardless of assumptions.
  bool IsUnsatForever() const { return !ok_; }

  const SolverStats& stats() const { return stats_; }

  // --- test hooks (process-wide, off by default) ---
  /// When on, every Solve entry and every restart additionally compacts
  /// the arena.  Relocation is required to be bit-for-bit transparent,
  /// so any observable difference under this hook is a GC bug — the
  /// metamorphic suite runs workloads with and without it and asserts
  /// identical models, enumeration orders, and search statistics.
  static void SetGcStressForTesting(bool on);
  /// Overrides the adaptive learnt-clause limit with a fixed one (pass
  /// -1 to restore the default), forcing frequent ReduceDB + GC cycles
  /// mid-search.  Unlike the GC-stress hook this legitimately changes
  /// the search path; tests using it compare against independent oracles
  /// rather than against un-hooked runs.
  static void SetReduceLimitForTesting(int64_t limit);

 private:
  /// A long-clause watcher: the clause plus a blocker literal whose
  /// truth proves the clause satisfied without dereferencing it.
  struct Watcher {
    CRef cref;
    Lit blocker;
  };
  /// A binary-clause watcher: the other literal IS the payload; the
  /// CRef is only the reason/conflict handle for Analyze.
  struct BinWatcher {
    Lit other;
    CRef cref;
  };

  /// Indexed mutable binary max-heap over variable activities: BumpVar
  /// percolates the entry in place instead of re-pushing stale copies
  /// the way the old lazy priority_queue did.
  class VarOrderHeap {
   public:
    void Grow(int num_vars) {
      indices_.resize(static_cast<size_t>(num_vars), -1);
    }
    bool Empty() const { return heap_.empty(); }
    bool Contains(Var v) const { return indices_[v] >= 0; }
    void Insert(Var v, const std::vector<double>& act);
    Var PopMax(const std::vector<double>& act);
    /// Restores the heap property after act[v] increased (no-op when v
    /// is not currently in the heap).
    void Increased(Var v, const std::vector<double>& act) {
      if (Contains(v)) Up(indices_[v], act);
    }

   private:
    void Up(int i, const std::vector<double>& act);
    void Down(int i, const std::vector<double>& act);
    std::vector<Var> heap_;
    std::vector<int> indices_;  ///< per var: heap position or -1
  };

  // --- assignment trail ---
  int DecisionLevel() const { return static_cast<int>(trail_lim_.size()); }
  void NewDecisionLevel() {
    trail_lim_.push_back(static_cast<int>(trail_.size()));
  }
  /// Current value of a literal: +1 true, -1 false, 0 unassigned.
  int LitValue(Lit l) const {
    int8_t v = assign_[LitVar(l)];
    return LitIsNeg(l) ? -v : v;
  }
  void UncheckedEnqueue(Lit l, CRef reason);
  void CancelUntil(int level);

  // --- search ---
  /// Propagates all pending assignments; returns the conflicting clause
  /// or kCRefUndef.  Binary watchers first (no arena access), then long
  /// watchers (arena touched only when the blocker fails).
  CRef Propagate();
  /// 1UIP conflict analysis; fills `learnt` (learnt[0] is the asserting
  /// literal) and returns the backjump level.  Skips the resolved
  /// literal by value, not by position — binary reasons keep their
  /// stored literal order.  Before returning, the learnt clause is
  /// minimized (LitRedundant + MinimizeWithBinaryResolution); the
  /// asserting literal learnt[0] is never removed.
  int Analyze(CRef conflict, std::vector<Lit>* learnt);
  /// True iff learnt literal `p` is redundant: implied by the remaining
  /// learnt literals through the implication graph (MiniSat's recursive
  /// litRedundant, run as an explicit-frame DFS so deep implication
  /// chains cannot overflow the native stack).  Requires reason_[var(p)]
  /// != kCRefUndef.  Marks visited vars removable/failed in seen_ for
  /// memoization across the literals of one learnt clause; every mark is
  /// registered in analyze_toclear_ for Analyze to wipe.
  bool LitRedundant(Lit p);
  /// Self-subsumption against the binary clauses of the asserting
  /// literal a = learnt[0]: (a ∨ q ∨ R) resolved with a binary (a ∨ ¬q)
  /// drops q.  Never touches learnt[0].
  void MinimizeWithBinaryResolution(std::vector<Lit>* learnt);
  /// Attaches a clause to the (binary or long) watch lists.
  void Attach(CRef cref);
  /// Picks the next branching literal (VSIDS + saved phase), or kLitUndef.
  Lit PickBranchLit();
  void BumpVar(Var v);
  void BumpClause(CRef cref);
  void DecayActivities() {
    var_inc_ /= 0.95;
    cla_inc_ /= 0.999;
  }
  /// Literal block distance of a freshly learnt clause: the number of
  /// distinct decision levels among its literals.
  int LearntLbd(const std::vector<Lit>& learnt);

  // --- three-tier learnt-clause DB (Glucose/Chanseok-Oh style) ---
  // CORE (LBD <= kCoreLbdMax): kept forever.  TIER2 (LBD <=
  // kMidLbdMax): kept while touched; demoted to LOCAL when untouched
  // across a reduction.  LOCAL: activity-ranked, worst half deleted at
  // every reduction.  Tier tags live in the arena header word and so
  // survive GC relocation verbatim.  Learnt binaries stay outside the
  // tiered DB entirely (they are never deletable).
  static constexpr int kTierCore = 0;
  static constexpr int kTierMid = 1;
  static constexpr int kTierLocal = 2;
  static constexpr int kCoreLbdMax = 3;
  static constexpr int kMidLbdMax = 6;
  int64_t* TierCounter(int tier) {
    return tier == kTierCore   ? &stats_.tier_core
           : tier == kTierMid ? &stats_.tier_tier2
                               : &stats_.tier_local;
  }
  void MoveTier(ClauseView c, int to) {
    --*TierCounter(c.tier());
    ++*TierCounter(to);
    c.set_tier(to);
  }
  /// Marks a learnt clause touched (it participated in conflict
  /// analysis), recomputes its LBD against current levels, and promotes
  /// it on improvement (to CORE, or LOCAL -> TIER2).
  void TouchLearnt(CRef cref);
  /// LBD of an attached clause whose literals are all assigned.
  int ClauseLbd(ClauseView c);

  /// Tier-driven reduction: demotes untouched TIER2 clauses to LOCAL,
  /// then deletes the lowest-activity half of the unlocked LOCAL pool
  /// (CORE and binaries are never deleted) and compacts the arena.
  /// Requires decision level 0 with propagation complete.  Without this,
  /// learnt clauses and the model enumerator's long blocking-clause runs
  /// (DCIP/CCQA) degrade propagation and memory without bound.
  void ReduceDB();
  /// Runs ReduceDB when the learnt-clause count exceeds the adaptive
  /// limit, growing the limit after each reduction.
  void MaybeReduceDB();
  /// Unhooks the watchers of every clause marked dead (in place, so the
  /// survivors keep their order), drops the dead from clauses_, and
  /// compacts the arena.  `binaries` also sweeps the binary watch lists
  /// (only CloseScope deletes binary clauses).  Level 0 only; callers
  /// must have unlocked every dead clause.
  void PurgeDeadClauses(bool binaries);
  /// True iff clause `cref` contains `v` or ¬v.
  bool Mentions(CRef cref, Var v);
  /// `assumptions` with the open scope's activation literal in front
  /// (reuses scoped_assumptions_).
  const std::vector<Lit>& WithScopeLiteral(const std::vector<Lit>& assumptions);
  /// Two-space arena compaction: relocates every live clause and
  /// translates the clause list, reason slots, and watcher lists in
  /// place (order preserved — relocation is bit-for-bit transparent to
  /// the search).  Level 0 only.
  void GarbageCollect();
  void SyncArenaStats() { stats_.arena_bytes = arena_.size_bytes(); }
  /// Luby sequence value for restart scheduling.
  static double Luby(double y, int x);
  /// Conflicts allotted to restart number `restart_count` (Luby-100).
  static int64_t RestartInterval(int restart_count) {
    return static_cast<int64_t>(100 * Luby(2.0, restart_count));
  }

  bool ok_ = true;
  ClauseArena arena_;
  /// Live clauses (problem + learnt) in insertion order.
  std::vector<CRef> clauses_;
  /// watches_[lit]: watchers of long clauses whose watched literal ¬lit
  /// just became false when lit was enqueued.
  std::vector<std::vector<Watcher>> watches_;
  /// bin_watches_[lit]: binary watchers, processed before long ones.
  std::vector<std::vector<BinWatcher>> bin_watches_;
  std::vector<int8_t> assign_;    // per var: +1 / -1 / 0
  std::vector<CRef> reason_;      // per var: reason clause or kCRefUndef
  std::vector<int> level_;        // per var
  std::vector<double> activity_;  // per var
  std::vector<int8_t> phase_;     // per var: last assigned sign (+1/-1)
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  size_t qhead_ = 0;
  double var_inc_ = 1.0;
  double cla_inc_ = 1.0;
  int64_t num_learnts_ = 0;
  /// Learnt-clause count that triggers the next ReduceDB; adapted as the
  /// formula grows and after each reduction.
  int64_t max_learnts_ = 512;
  VarOrderHeap order_heap_;
  std::vector<int8_t> model_;
  /// Per var: the phases recorded models gave it (kSeenTrue | kSeenFalse).
  static constexpr uint8_t kSeenTrue = 1;
  static constexpr uint8_t kSeenFalse = 2;
  std::vector<uint8_t> seen_phase_;
  /// True once a model is recorded; an unscoped AddClause clears both.
  bool model_remembered_ = false;
  /// Scratch for Analyze/LitRedundant.  Values: 0 unvisited, 1 in the
  /// learnt clause (source), 2 proven removable, 3 proven not removable.
  std::vector<int8_t> seen_;
  std::vector<char> lbd_seen_;  // scratch for LearntLbd/ClauseLbd
  /// Every literal whose seen_ mark must be wiped at the end of Analyze
  /// (learnt literals plus LitRedundant's memoization marks).
  std::vector<Lit> analyze_toclear_;
  /// Explicit DFS frames for LitRedundant: (resume index, literal).
  std::vector<std::pair<int, Lit>> analyze_frames_;
  /// Per-literal generation stamps for MinimizeWithBinaryResolution.
  std::vector<uint64_t> lit_stamp_;
  uint64_t stamp_gen_ = 0;

  /// Activation literal of the open scope, or kLitUndef.
  Lit scope_ = kLitUndef;
  /// A closed scope's variable, parked false at level 0 for the next
  /// NewScope to reuse; -1 when none.
  Var parked_scope_var_ = -1;
  /// Scratch: the scope literal followed by the caller's assumptions.
  std::vector<Lit> scoped_assumptions_;
  /// Scratch for AddClause: the caller's literals (plus the scope's
  /// guard), then the simplified clause.
  std::vector<Lit> add_lits_;
  std::vector<Lit> add_out_;

  SolverStats stats_;

  /// Debug-only confinement guard: set while a mutating entry point
  /// (AddClause / SolveWithAssumptions) runs; overlapping entries from a
  /// second thread — or reentrancy — trip an assert.  Sequential hand-off
  /// between threads (the exec layer's fork/join) never overlaps, so it
  /// passes.  See ConfinementGuard in solver.cc.
  mutable std::atomic<bool> in_call_{false};
  friend class ConfinementGuard;
};

}  // namespace currency::sat

#endif  // CURRENCY_SRC_SAT_SOLVER_H_
