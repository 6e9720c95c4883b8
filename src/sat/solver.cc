#include "src/sat/solver.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace currency::sat {

namespace {
/// Process-wide test hooks (see the header).  Relaxed atomics: the hooks
/// are flipped from test set-up code, never raced against a running
/// solve.
std::atomic<bool> g_gc_stress{false};
std::atomic<int64_t> g_reduce_limit_override{-1};
}  // namespace

void Solver::SetGcStressForTesting(bool on) {
  g_gc_stress.store(on, std::memory_order_relaxed);
}

void Solver::SetReduceLimitForTesting(int64_t limit) {
  g_reduce_limit_override.store(limit, std::memory_order_relaxed);
}

/// Debug-only thread-confinement guard (see the header's confinement
/// contract): flags the solver busy for the duration of a mutating entry
/// point and asserts no second entry overlaps.  The exchange is relaxed —
/// the guard detects misuse, it does not synchronize; compiled out of the
/// hot path entirely under NDEBUG.
class ConfinementGuard {
#ifndef NDEBUG
 public:
  explicit ConfinementGuard(const Solver& solver) : solver_(solver) {
    bool was_busy = solver_.in_call_.exchange(true, std::memory_order_relaxed);
    assert(!was_busy &&
           "sat::Solver entered from two threads at once (or reentrantly); "
           "solvers must stay confined to one task at a time");
  }
  ~ConfinementGuard() {
    solver_.in_call_.store(false, std::memory_order_relaxed);
  }

 private:
  const Solver& solver_;
#else
 public:
  // Release builds: no state, no work (an unused reference member would
  // trip clang's -Wunused-private-field under -Werror).
  explicit ConfinementGuard(const Solver&) {}
#endif
};

// --- indexed mutable heap ---

void Solver::VarOrderHeap::Insert(Var v, const std::vector<double>& act) {
  if (Contains(v)) return;
  indices_[v] = static_cast<int>(heap_.size());
  heap_.push_back(v);
  Up(indices_[v], act);
}

Var Solver::VarOrderHeap::PopMax(const std::vector<double>& act) {
  Var top = heap_[0];
  indices_[top] = -1;
  Var last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    indices_[last] = 0;
    Down(0, act);
  }
  return top;
}

void Solver::VarOrderHeap::Up(int i, const std::vector<double>& act) {
  Var v = heap_[i];
  while (i > 0) {
    int parent = (i - 1) >> 1;
    if (act[heap_[parent]] >= act[v]) break;
    heap_[i] = heap_[parent];
    indices_[heap_[i]] = i;
    i = parent;
  }
  heap_[i] = v;
  indices_[v] = i;
}

void Solver::VarOrderHeap::Down(int i, const std::vector<double>& act) {
  Var v = heap_[i];
  int n = static_cast<int>(heap_.size());
  while (true) {
    int child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && act[heap_[child + 1]] > act[heap_[child]]) ++child;
    if (act[heap_[child]] <= act[v]) break;
    heap_[i] = heap_[child];
    indices_[heap_[i]] = i;
    i = child;
  }
  heap_[i] = v;
  indices_[v] = i;
}

// --- solver ---

Var Solver::NewVar() {
  Var v = static_cast<Var>(assign_.size());
  assign_.push_back(0);
  reason_.push_back(kCRefUndef);
  level_.push_back(0);
  activity_.push_back(0.0);
  phase_.push_back(-1);
  seen_phase_.push_back(0);
  seen_.push_back(0);
  lit_stamp_.push_back(0);
  lit_stamp_.push_back(0);
  watches_.emplace_back();
  watches_.emplace_back();
  bin_watches_.emplace_back();
  bin_watches_.emplace_back();
  order_heap_.Grow(v + 1);
  order_heap_.Insert(v, activity_);
  return v;
}

void Solver::UncheckedEnqueue(Lit l, CRef reason) {
  Var v = LitVar(l);
  assign_[v] = LitIsNeg(l) ? -1 : 1;
  phase_[v] = assign_[v];
  reason_[v] = reason;
  level_[v] = DecisionLevel();
  trail_.push_back(l);
}

void Solver::CancelUntil(int level) {
  if (DecisionLevel() <= level) return;
  int bound = trail_lim_[level];
  for (int i = static_cast<int>(trail_.size()) - 1; i >= bound; --i) {
    Var v = LitVar(trail_[i]);
    assign_[v] = 0;
    reason_[v] = kCRefUndef;
    order_heap_.Insert(v, activity_);
  }
  trail_.resize(bound);
  trail_lim_.resize(level);
  qhead_ = trail_.size();
}

Lit Solver::NewScope() {
  ConfinementGuard guard(*this);
  assert(scope_ == kLitUndef && "solver scopes do not nest");
  CancelUntil(0);
  Var v = parked_scope_var_;
  if (v < 0) {
    v = NewVar();
  } else {
    // Revive the parked variable: clear its level-0 unit ¬v.  No clause
    // mentions v, so nothing on the trail depends on that unit.
    assert(!AnyClauseMentions(v));
    trail_.erase(std::remove(trail_.begin(), trail_.end(), MakeLit(v, true)),
                 trail_.end());
    qhead_ = trail_.size();
    assign_[v] = 0;
    order_heap_.Insert(v, activity_);
    parked_scope_var_ = -1;
  }
  scope_ = MakeLit(v);
  return scope_;
}

void Solver::CloseScope() {
  ConfinementGuard guard(*this);
  assert(scope_ != kLitUndef && "CloseScope without an open scope");
  const Var v = LitVar(scope_);
  scope_ = kLitUndef;
  CancelUntil(0);
  // Park v false at level 0.  A refuted scope already left ¬v there;
  // its reason may be one of the clauses deleted below, so drop it.
  // Either way ¬v propagates nothing once those clauses are gone.
  if (assign_[v] == 0) {
    UncheckedEnqueue(MakeLit(v, true), kCRefUndef);
    qhead_ = trail_.size();
  }
  reason_[v] = kCRefUndef;
  parked_scope_var_ = v;
  // Only ¬v can have a reason mentioning v (a reason's other literals are
  // false, and v is never true at level 0), so no dead clause stays
  // locked.
  int64_t deleted = 0;
  for (CRef cref : clauses_) {
    if (!Mentions(cref, v)) continue;
    ClauseView c = arena_.View(cref);
    if (c.learnt()) {
      --num_learnts_;
      if (c.size() > 2) --*TierCounter(c.tier());
    }
    arena_.Free(cref);
    ++deleted;
  }
  stats_.deleted_clauses += deleted;
  PurgeDeadClauses(/*binaries=*/true);
}

bool Solver::Mentions(CRef cref, Var v) {
  ClauseView c = arena_.View(cref);
  for (int i = 0; i < c.size(); ++i) {
    if (LitVar(c.lit(i)) == v) return true;
  }
  return false;
}

bool Solver::AnyClauseMentions(Var v) {
  for (CRef cref : clauses_) {
    if (Mentions(cref, v)) return true;
  }
  return false;
}

const std::vector<Lit>& Solver::WithScopeLiteral(
    const std::vector<Lit>& assumptions) {
  scoped_assumptions_.assign(1, scope_);
  scoped_assumptions_.insert(scoped_assumptions_.end(), assumptions.begin(),
                             assumptions.end());
  return scoped_assumptions_;
}

bool Solver::AddClause(std::span<const Lit> lits) {
  ConfinementGuard guard(*this);
  if (!ok_) return false;
  CancelUntil(0);
  add_lits_.assign(lits.begin(), lits.end());
  if (scope_ != kLitUndef) {
    add_lits_.push_back(Negate(scope_));
  } else if (model_remembered_) {
    // The clause may exclude a recorded model.
    std::fill(seen_phase_.begin(), seen_phase_.end(), 0);
    model_remembered_ = false;
  }
  // Level-0 simplification: drop false literals, detect satisfied clauses
  // and tautologies, deduplicate.
  std::sort(add_lits_.begin(), add_lits_.end());
  std::vector<Lit>& out = add_out_;
  out.clear();
  Lit prev = kLitUndef;
  for (Lit l : add_lits_) {
    if (l == prev) continue;
    if (prev != kLitUndef && l == Negate(prev)) {
      return true;  // tautology: p ∨ ¬p (adjacent after the sort)
    }
    int val = LitValue(l);
    if (val > 0) return true;  // already satisfied at level 0
    if (val < 0) {
      prev = l;
      continue;  // false at level 0: drop
    }
    out.push_back(l);
    prev = l;
  }
  if (out.empty()) {
    ok_ = false;
    return false;
  }
  if (out.size() == 1) {
    UncheckedEnqueue(out[0], kCRefUndef);
    if (Propagate() != kCRefUndef) {
      ok_ = false;
      return false;
    }
    return true;
  }
  CRef cref = arena_.Alloc(out, /*learnt=*/false, /*lbd=*/0, /*activity=*/0.0f);
  clauses_.push_back(cref);
  Attach(cref);
  SyncArenaStats();
  return true;
}

void Solver::Attach(CRef cref) {
  ClauseView c = arena_.View(cref);
  Lit l0 = c.lit(0);
  Lit l1 = c.lit(1);
  if (c.size() == 2) {
    bin_watches_[Negate(l0)].push_back(BinWatcher{l1, cref});
    bin_watches_[Negate(l1)].push_back(BinWatcher{l0, cref});
  } else {
    watches_[Negate(l0)].push_back(Watcher{cref, l1});
    watches_[Negate(l1)].push_back(Watcher{cref, l0});
  }
}

CRef Solver::Propagate() {
  while (qhead_ < trail_.size()) {
    Lit p = trail_[qhead_++];  // p is now true
    ++stats_.propagations;
    // Binary clauses: the watcher IS the clause — skip, enqueue, or
    // conflict without touching the arena.
    {
      const std::vector<BinWatcher>& bins = bin_watches_[p];
      for (size_t wi = 0; wi < bins.size(); ++wi) {
        const BinWatcher w = bins[wi];
        int val = LitValue(w.other);
        if (val < 0) {
          qhead_ = trail_.size();
          return w.cref;
        }
        if (val == 0) UncheckedEnqueue(w.other, w.cref);
      }
    }
    // Long clauses: the blocker check skips satisfied clauses with no
    // arena access; only a failed blocker dereferences the clause.
    std::vector<Watcher>& watch_list = watches_[p];
    size_t keep = 0;
    for (size_t wi = 0; wi < watch_list.size(); ++wi) {
      Watcher w = watch_list[wi];
      // Blocker-aware prefetch: while this watcher is processed, pull
      // the NEXT watcher's clause toward the cache — but only when its
      // blocker fails, because a true blocker means that clause is
      // skipped without ever being dereferenced.  Entries at wi+1 are
      // not yet compacted (keep <= wi), so the read is safe.
      if (wi + 1 < watch_list.size()) {
        const Watcher& next = watch_list[wi + 1];
        if (LitValue(next.blocker) <= 0) arena_.Prefetch(next.cref);
      }
      if (LitValue(w.blocker) > 0) {
        watch_list[keep++] = w;
        continue;
      }
      ClauseView c = arena_.View(w.cref);
      // Ensure the false watched literal (¬p) is at position 1.
      Lit false_lit = Negate(p);
      if (c.lit(0) == false_lit) c.swap_lits(0, 1);
      Lit first = c.lit(0);
      // If the other watch is true, the clause is satisfied; cache it as
      // the new blocker.
      if (first != w.blocker && LitValue(first) > 0) {
        watch_list[keep++] = Watcher{w.cref, first};
        continue;
      }
      // Look for a new literal to watch.
      int size = c.size();
      bool moved = false;
      for (int k = 2; k < size; ++k) {
        if (LitValue(c.lit(k)) >= 0) {
          c.swap_lits(1, k);
          watches_[Negate(c.lit(1))].push_back(Watcher{w.cref, first});
          moved = true;
          break;
        }
      }
      if (moved) continue;  // watch moved elsewhere; drop from this list
      // Clause is unit or conflicting.
      watch_list[keep++] = Watcher{w.cref, first};
      if (LitValue(first) < 0) {
        // Conflict: copy the rest of the watch list and bail out.
        for (size_t rest = wi + 1; rest < watch_list.size(); ++rest) {
          watch_list[keep++] = watch_list[rest];
        }
        watch_list.resize(keep);
        qhead_ = trail_.size();
        return w.cref;
      }
      UncheckedEnqueue(first, w.cref);
    }
    watch_list.resize(keep);
  }
  return kCRefUndef;
}

void Solver::BumpVar(Var v) {
  activity_[v] += var_inc_;
  if (activity_[v] > 1e100) {
    // Uniform rescale preserves the relative order, so the heap needs no
    // repair.
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  order_heap_.Increased(v, activity_);
}

void Solver::BumpClause(CRef cref) {
  ClauseView c = arena_.View(cref);
  float act = c.activity() + static_cast<float>(cla_inc_);
  c.set_activity(act);
  if (act > 1e20f) {
    for (CRef other : clauses_) {
      ClauseView o = arena_.View(other);
      if (o.learnt()) o.set_activity(o.activity() * 1e-20f);
    }
    cla_inc_ *= 1e-20;
  }
}

int Solver::ClauseLbd(ClauseView c) {
  lbd_seen_.assign(static_cast<size_t>(DecisionLevel()) + 1, 0);
  int lbd = 0;
  int size = c.size();
  for (int i = 0; i < size; ++i) {
    int lv = level_[LitVar(c.lit(i))];
    if (!lbd_seen_[lv]) {
      lbd_seen_[lv] = 1;
      ++lbd;
    }
  }
  return lbd;
}

void Solver::TouchLearnt(CRef cref) {
  ClauseView c = arena_.View(cref);
  c.set_used(true);
  if (c.tier() == kTierCore) return;  // binaries land here too (tier bits 0)
  // Glucose-style dynamic LBD: a clause resolved in conflict analysis
  // has all literals assigned, so its LBD against the current levels is
  // well defined; an improvement promotes it up the tier ladder.
  int lbd = ClauseLbd(c);
  if (lbd >= c.lbd()) return;
  c.set_lbd(lbd);
  if (lbd <= kCoreLbdMax) {
    MoveTier(c, kTierCore);
  } else if (lbd <= kMidLbdMax && c.tier() == kTierLocal) {
    MoveTier(c, kTierMid);
  }
}

int Solver::LearntLbd(const std::vector<Lit>& learnt) {
  // Must run before backjumping: the literals' levels are still current.
  lbd_seen_.assign(static_cast<size_t>(DecisionLevel()) + 1, 0);
  int lbd = 0;
  for (Lit l : learnt) {
    int lv = level_[LitVar(l)];
    if (!lbd_seen_[lv]) {
      lbd_seen_[lv] = 1;
      ++lbd;
    }
  }
  return lbd;
}

void Solver::MaybeReduceDB() {
  // Let the learnt store grow with the problem (a third of the original
  // clauses) before pruning, and raise the bar after every reduction so
  // long runs converge instead of thrashing.
  int64_t limit;
  int64_t override_limit = g_reduce_limit_override.load(std::memory_order_relaxed);
  if (override_limit >= 0) {
    limit = override_limit;  // test hook: force frequent ReduceDB + GC
  } else {
    int64_t problem_clauses =
        static_cast<int64_t>(clauses_.size()) - num_learnts_;
    limit = std::max(max_learnts_, problem_clauses / 3);
  }
  if (num_learnts_ <= limit) return;
  ReduceDB();
  max_learnts_ += max_learnts_ / 2;
}

void Solver::ReduceDB() {
  if (DecisionLevel() != 0) return;
  // Locked clauses are the reason of a (level-0) trail literal; deleting
  // one would dangle reason_.
  std::vector<CRef> locked;
  for (Lit l : trail_) {
    CRef r = reason_[LitVar(l)];
    if (r != kCRefUndef) locked.push_back(r);
  }
  std::sort(locked.begin(), locked.end());
  auto is_locked = [&locked](CRef c) {
    return std::binary_search(locked.begin(), locked.end(), c);
  };
  // One sweep does the tier maintenance and collects the deletable pool:
  //  * CORE is kept forever.
  //  * TIER2 clauses touched since the last reduction stay (used-bit
  //    rearmed); untouched ones demote to LOCAL and compete there.
  //  * LOCAL clauses that are not locked are the candidates.
  std::vector<CRef> candidates;
  for (CRef cref : clauses_) {
    ClauseView c = arena_.View(cref);
    if (!c.learnt() || c.size() <= 2) continue;
    int tier = c.tier();
    if (tier == kTierCore) continue;
    if (tier == kTierMid) {
      if (c.used()) {
        c.set_used(false);
        continue;
      }
      MoveTier(c, kTierLocal);
      ++stats_.demotions;
      tier = kTierLocal;
    }
    if (!is_locked(cref)) candidates.push_back(cref);
  }
  if (candidates.empty()) return;
  std::sort(candidates.begin(), candidates.end(), [this](CRef a, CRef b) {
    return arena_.View(a).activity() < arena_.View(b).activity();
  });
  size_t target = candidates.size() / 2;
  if (target == 0) return;
  // Mark the victims dead, unhook their watchers (in place, preserving
  // the survivors' order), drop them from the clause list, and compact.
  for (size_t k = 0; k < target; ++k) arena_.Free(candidates[k]);
  stats_.tier_local -= static_cast<int64_t>(target);
  num_learnts_ -= static_cast<int64_t>(target);
  stats_.deleted_clauses += static_cast<int64_t>(target);
  ++stats_.reductions;
  // Binary clauses are never deletable (size > 2 above), so the binary
  // watch lists need no sweep.
  PurgeDeadClauses(/*binaries=*/false);
}

void Solver::PurgeDeadClauses(bool binaries) {
  auto dead = [this](CRef c) { return arena_.View(c).dead(); };
  for (std::vector<Watcher>& wl : watches_) {
    wl.erase(std::remove_if(wl.begin(), wl.end(),
                            [&dead](const Watcher& w) { return dead(w.cref); }),
             wl.end());
  }
  if (binaries) {
    for (std::vector<BinWatcher>& wl : bin_watches_) {
      wl.erase(std::remove_if(
                   wl.begin(), wl.end(),
                   [&dead](const BinWatcher& w) { return dead(w.cref); }),
               wl.end());
    }
  }
  clauses_.erase(std::remove_if(clauses_.begin(), clauses_.end(), dead),
                 clauses_.end());
  GarbageCollect();
}

void Solver::GarbageCollect() {
  assert(DecisionLevel() == 0);
  arena_.GcBegin();
  // Relocate every live clause in insertion order (keeps the compacted
  // arena in the same layout order every time), then translate all held
  // references in place — order inside every list is preserved, which is
  // what makes relocation bit-for-bit transparent to the search.
  for (CRef& cref : clauses_) cref = arena_.GcRelocate(cref);
  for (Lit l : trail_) {
    CRef& r = reason_[LitVar(l)];
    if (r != kCRefUndef) r = arena_.GcForward(r);
  }
  for (std::vector<Watcher>& wl : watches_) {
    for (Watcher& w : wl) w.cref = arena_.GcForward(w.cref);
  }
  for (std::vector<BinWatcher>& wl : bin_watches_) {
    for (BinWatcher& w : wl) w.cref = arena_.GcForward(w.cref);
  }
  arena_.GcEnd();
  ++stats_.gc_runs;
  SyncArenaStats();
}

int Solver::Analyze(CRef conflict, std::vector<Lit>* learnt) {
  learnt->clear();
  learnt->push_back(kLitUndef);  // placeholder for the asserting literal
  int path_count = 0;
  Lit p = kLitUndef;
  int index = static_cast<int>(trail_.size()) - 1;
  CRef cref = conflict;
  do {
    ClauseView c = arena_.View(cref);
    if (c.learnt()) {
      BumpClause(cref);
      TouchLearnt(cref);
    }
    int size = c.size();
    for (int i = 0; i < size; ++i) {
      Lit q = c.lit(i);
      // Skip the resolved literal by VALUE: long reasons keep it at
      // position 0 (Propagate swaps before enqueueing), but binary
      // reasons keep their stored literal order.  On the first round
      // p == kLitUndef matches nothing and the whole conflict clause is
      // processed.
      if (q == p) continue;
      Var v = LitVar(q);
      if (!seen_[v] && level_[v] > 0) {
        seen_[v] = 1;
        BumpVar(v);
        if (level_[v] >= DecisionLevel()) {
          ++path_count;
        } else {
          learnt->push_back(q);
        }
      }
    }
    // Select the next trail literal to resolve on.
    while (!seen_[LitVar(trail_[index])]) --index;
    p = trail_[index];
    --index;
    cref = reason_[LitVar(p)];
    seen_[LitVar(p)] = 0;
    --path_count;
  } while (path_count > 0);
  (*learnt)[0] = Negate(p);

  // Minimize before LearntLbd/backjump, while the literals' levels are
  // still current.  The asserting literal learnt[0] is never a removal
  // candidate.  analyze_toclear_ collects every var whose seen_ mark
  // must be wiped: the learnt literals themselves plus LitRedundant's
  // removable/failed memoization marks.
  analyze_toclear_.assign(learnt->begin() + 1, learnt->end());
  size_t out = 1;
  for (size_t i = 1; i < learnt->size(); ++i) {
    Lit l = (*learnt)[i];
    if (reason_[LitVar(l)] == kCRefUndef || !LitRedundant(l)) {
      (*learnt)[out++] = l;
    }
  }
  stats_.minimized_literals += static_cast<int64_t>(learnt->size() - out);
  learnt->resize(out);
  MinimizeWithBinaryResolution(learnt);

  // Backjump level: second-highest level in the learnt clause.
  int bj_level = 0;
  size_t max_i = 1;
  for (size_t i = 1; i < learnt->size(); ++i) {
    int lv = level_[LitVar((*learnt)[i])];
    if (lv > bj_level) {
      bj_level = lv;
      max_i = i;
    }
  }
  if (learnt->size() > 1) std::swap((*learnt)[1], (*learnt)[max_i]);
  for (Lit l : analyze_toclear_) seen_[LitVar(l)] = 0;
  return bj_level;
}

bool Solver::LitRedundant(Lit p) {
  // seen_ marks: 1 = in the learnt clause (trivially supported), 2 =
  // proven removable, 3 = proven not removable.  Marks persist across
  // the LitRedundant calls of one Analyze (memoization) and are wiped
  // via analyze_toclear_ at its end.
  constexpr int8_t kSource = 1, kRemovable = 2, kFailed = 3;
  assert(reason_[LitVar(p)] != kCRefUndef);
  analyze_frames_.clear();
  Lit cur = p;
  int idx = 0;
  while (true) {
    ClauseView c = arena_.View(reason_[LitVar(cur)]);
    if (idx < c.size()) {
      Lit l = c.lit(idx++);
      Var v = LitVar(l);
      // Skip the implied literal itself (by VALUE — binary reasons keep
      // their stored order), root-level facts, and already-supported
      // antecedents.
      if (v == LitVar(cur) || level_[v] == 0 || seen_[v] == kSource ||
          seen_[v] == kRemovable) {
        continue;
      }
      if (reason_[v] == kCRefUndef || seen_[v] == kFailed) {
        // Dead end: a decision (or known-failed) antecedent.  Everything
        // on the open DFS path inherits the failure; source marks stay.
        if (seen_[LitVar(cur)] == 0) {
          seen_[LitVar(cur)] = kFailed;
          analyze_toclear_.push_back(cur);
        }
        for (const auto& frame : analyze_frames_) {
          Var fv = LitVar(frame.second);
          if (seen_[fv] == 0) {
            seen_[fv] = kFailed;
            analyze_toclear_.push_back(frame.second);
          }
        }
        return false;
      }
      // Descend into l's reason.
      analyze_frames_.emplace_back(idx, cur);
      cur = l;
      idx = 0;
    } else {
      // Every antecedent of cur is supported: cur is removable.
      if (seen_[LitVar(cur)] == 0) {
        seen_[LitVar(cur)] = kRemovable;
        analyze_toclear_.push_back(cur);
      }
      if (analyze_frames_.empty()) return true;
      idx = analyze_frames_.back().first;
      cur = analyze_frames_.back().second;
      analyze_frames_.pop_back();
    }
  }
}

void Solver::MinimizeWithBinaryResolution(std::vector<Lit>* learnt) {
  // Glucose-style: bounded to shortish clauses where the scan pays off.
  if (learnt->size() <= 2 || learnt->size() > 30) return;
  Lit asserting = (*learnt)[0];
  const std::vector<BinWatcher>& bins = bin_watches_[Negate(asserting)];
  if (bins.empty()) return;
  // Stamp generation g marks "present in the learnt clause"; g+1 marks
  // "subsumed away by a binary".
  uint64_t gen = (stamp_gen_ += 2);
  for (size_t i = 1; i < learnt->size(); ++i) lit_stamp_[(*learnt)[i]] = gen;
  int removed = 0;
  for (const BinWatcher& w : bins) {
    // w encodes the binary clause (asserting ∨ w.other); resolving it
    // against (asserting ∨ ¬w.other ∨ R) drops ¬w.other.
    Lit q = Negate(w.other);
    if (lit_stamp_[q] == gen) {
      lit_stamp_[q] = gen + 1;
      ++removed;
    }
  }
  if (removed == 0) return;
  size_t out = 1;
  for (size_t i = 1; i < learnt->size(); ++i) {
    Lit l = (*learnt)[i];
    if (lit_stamp_[l] != gen + 1) (*learnt)[out++] = l;
  }
  assert(out + static_cast<size_t>(removed) == learnt->size());
  learnt->resize(out);
  stats_.minimized_literals += removed;
}

Lit Solver::PickBranchLit() {
  while (!order_heap_.Empty()) {
    Var v = order_heap_.PopMax(activity_);
    if (assign_[v] == 0) return MakeLit(v, phase_[v] < 0);
  }
  for (Var v = 0; v < NumVars(); ++v) {
    if (assign_[v] == 0) return MakeLit(v, phase_[v] < 0);
  }
  return kLitUndef;
}

double Solver::Luby(double y, int x) {
  int size = 1;
  int seq = 0;
  while (size < x + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != x) {
    size = (size - 1) >> 1;
    --seq;
    x = x % size;
  }
  return std::pow(y, seq);
}

std::optional<SolveResult> Solver::SolveLimited(
    const std::vector<Lit>& requested, const std::atomic<bool>* stop) {
  ConfinementGuard guard(*this);
  const std::vector<Lit>& assumptions =
      scope_ == kLitUndef ? requested : WithScopeLiteral(requested);
  CancelUntil(0);
  if (!ok_) return SolveResult::kUnsat;
  if (Propagate() != kCRefUndef) {
    ok_ = false;
    return SolveResult::kUnsat;
  }
  // Incremental workloads (model enumeration, per-pair COP probes) can
  // accumulate learnt clauses across many conflict-light calls that never
  // restart, so the reduction check must also run between calls.
  MaybeReduceDB();
  if (g_gc_stress.load(std::memory_order_relaxed)) GarbageCollect();

  int restart_count = 0;
  int64_t conflicts_until_restart = RestartInterval(restart_count);
  int64_t conflicts_this_restart = 0;
  std::vector<Lit> learnt;
  // Cooperative interruption: poll `stop` every few hundred loop
  // iterations (each runs a full Propagate, so checks stay off the hot
  // path).  An interrupted solve unwinds to level 0 and reports "no
  // verdict"; the learnt clauses it accumulated are implied, so the
  // solver remains sound for later calls.
  constexpr int kStopCheckInterval = 256;
  int until_stop_check = kStopCheckInterval;

  while (true) {
    if (stop != nullptr && --until_stop_check <= 0) {
      until_stop_check = kStopCheckInterval;
      if (stop->load(std::memory_order_relaxed)) {
        CancelUntil(0);
        return std::nullopt;
      }
    }
    CRef confl = Propagate();
    if (confl != kCRefUndef) {
      ++stats_.conflicts;
      ++conflicts_this_restart;
      if (DecisionLevel() == 0) {
        ok_ = false;
        return SolveResult::kUnsat;
      }
      // A conflict while assumptions are on the trail needs no special
      // analysis: Analyze/backjump as usual (possibly into or below the
      // assumption prefix), and let the decision loop below re-push the
      // undone assumptions.  If the learnt clause (or its propagations)
      // falsified an assumption, the re-push finds it with value < 0 and
      // reports UNSAT for this call — the same outcome MiniSat reaches
      // via its analyzeFinal guard, without a separate code path.  The
      // metamorphic property test in tests/sat_test.cc checks this
      // against adding the assumptions as unit clauses to a fresh solver.
      int bj = Analyze(confl, &learnt);
      int lbd = LearntLbd(learnt);  // before backjumping: levels current
      CancelUntil(std::max(bj, 0));
      if (learnt.size() == 1) {
        CancelUntil(0);
        UncheckedEnqueue(learnt[0], kCRefUndef);
      } else {
        CRef cref = arena_.Alloc(learnt, /*learnt=*/true, lbd,
                                 static_cast<float>(cla_inc_));
        clauses_.push_back(cref);
        ++stats_.learnt_clauses;
        ++num_learnts_;
        if (learnt.size() > 2) {
          // Initial tier by LBD at learn time; binaries stay outside the
          // tiered DB (they are never deletable).
          int tier = lbd <= kCoreLbdMax  ? kTierCore
                     : lbd <= kMidLbdMax ? kTierMid
                                         : kTierLocal;
          arena_.View(cref).set_tier(tier);
          ++*TierCounter(tier);
        }
        Attach(cref);
        UncheckedEnqueue(learnt[0], cref);
        SyncArenaStats();
      }
      DecayActivities();
      if (conflicts_this_restart >= conflicts_until_restart) {
        ++stats_.restarts;
        ++restart_count;
        conflicts_this_restart = 0;
        conflicts_until_restart = RestartInterval(restart_count);
        CancelUntil(0);
        MaybeReduceDB();
        if (g_gc_stress.load(std::memory_order_relaxed)) GarbageCollect();
      }
      continue;
    }

    // No conflict: push pending assumptions, then branch.
    Lit next = kLitUndef;
    while (DecisionLevel() < static_cast<int>(assumptions.size())) {
      Lit a = assumptions[DecisionLevel()];
      int val = LitValue(a);
      if (val > 0) {
        NewDecisionLevel();  // already satisfied: dummy level
      } else if (val < 0) {
        return SolveResult::kUnsat;  // assumption falsified
      } else {
        next = a;
        break;
      }
    }
    if (next == kLitUndef) {
      next = PickBranchLit();
      if (next == kLitUndef) {
        // All variables assigned: record the model, and remember its
        // phases.
        model_.assign(assign_.begin(), assign_.end());
        for (size_t v = 0; v < model_.size(); ++v) {
          seen_phase_[v] |= model_[v] > 0 ? kSeenTrue : kSeenFalse;
        }
        model_remembered_ = true;
        CancelUntil(0);
        return SolveResult::kSat;
      }
      ++stats_.decisions;
    }
    NewDecisionLevel();
    UncheckedEnqueue(next, kCRefUndef);
  }
}

}  // namespace currency::sat
