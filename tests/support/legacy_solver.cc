// Verbatim pre-refactor solver implementation (see legacy_solver.h for
// why it is kept).  Only mechanical renames relative to the original:
// Solver -> LegacySolver, Clause -> LegacyClause, ConfinementGuard
// dropped.

#include "tests/support/legacy_solver.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace currency::sat {

Var LegacySolver::NewVar() {
  Var v = static_cast<Var>(assign_.size());
  assign_.push_back(0);
  reason_.push_back(-1);
  level_.push_back(0);
  activity_.push_back(0.0);
  phase_.push_back(-1);
  seen_.push_back(0);
  watches_.emplace_back();
  watches_.emplace_back();
  order_heap_.emplace(0.0, v);
  return v;
}

void LegacySolver::UncheckedEnqueue(Lit l, int reason_clause) {
  Var v = LitVar(l);
  assign_[v] = LitIsNeg(l) ? -1 : 1;
  phase_[v] = assign_[v];
  reason_[v] = reason_clause;
  level_[v] = DecisionLevel();
  trail_.push_back(l);
}

void LegacySolver::CancelUntil(int level) {
  if (DecisionLevel() <= level) return;
  int bound = trail_lim_[level];
  for (int i = static_cast<int>(trail_.size()) - 1; i >= bound; --i) {
    Var v = LitVar(trail_[i]);
    assign_[v] = 0;
    reason_[v] = -1;
    order_heap_.emplace(activity_[v], v);
  }
  trail_.resize(bound);
  trail_lim_.resize(level);
  qhead_ = trail_.size();
}

bool LegacySolver::AddClause(std::vector<Lit> lits) {
  if (!ok_) return false;
  CancelUntil(0);
  // Level-0 simplification: drop false literals, detect satisfied clauses
  // and tautologies, deduplicate.
  std::sort(lits.begin(), lits.end());
  std::vector<Lit> out;
  Lit prev = kLitUndef;
  for (Lit l : lits) {
    if (l == prev) continue;
    if (prev != kLitUndef && l == Negate(prev) && LitVar(l) == LitVar(prev)) {
      return true;  // tautology: p ∨ ¬p
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
    UncheckedEnqueue(out[0], -1);
    if (Propagate() != -1) {
      ok_ = false;
      return false;
    }
    return true;
  }
  clauses_.push_back(LegacyClause{std::move(out), false, 0.0});
  Attach(static_cast<int>(clauses_.size()) - 1);
  return true;
}

void LegacySolver::Attach(int ci) {
  const LegacyClause& c = clauses_[ci];
  watches_[Negate(c.lits[0])].push_back(ci);
  watches_[Negate(c.lits[1])].push_back(ci);
}

int LegacySolver::Propagate() {
  int conflict = -1;
  while (qhead_ < trail_.size()) {
    Lit p = trail_[qhead_++];  // p is now true
    ++stats_.propagations;
    std::vector<int>& watch_list = watches_[p];
    size_t keep = 0;
    for (size_t wi = 0; wi < watch_list.size(); ++wi) {
      int ci = watch_list[wi];
      LegacyClause& c = clauses_[ci];
      // Ensure the false watched literal (¬p) is at position 1.
      Lit false_lit = Negate(p);
      if (c.lits[0] == false_lit) std::swap(c.lits[0], c.lits[1]);
      // If the other watch is true, the clause is satisfied.
      if (LitValue(c.lits[0]) > 0) {
        watch_list[keep++] = ci;
        continue;
      }
      // Look for a new literal to watch.
      bool moved = false;
      for (size_t k = 2; k < c.lits.size(); ++k) {
        if (LitValue(c.lits[k]) >= 0) {
          std::swap(c.lits[1], c.lits[k]);
          watches_[Negate(c.lits[1])].push_back(ci);
          moved = true;
          break;
        }
      }
      if (moved) continue;  // watch moved elsewhere; drop from this list
      // Clause is unit or conflicting.
      watch_list[keep++] = ci;
      if (LitValue(c.lits[0]) < 0) {
        // Conflict: copy the rest of the watch list and bail out.
        for (size_t rest = wi + 1; rest < watch_list.size(); ++rest) {
          watch_list[keep++] = watch_list[rest];
        }
        watch_list.resize(keep);
        qhead_ = trail_.size();
        return ci;
      }
      UncheckedEnqueue(c.lits[0], ci);
    }
    watch_list.resize(keep);
  }
  return conflict;
}

void LegacySolver::BumpVar(Var v) {
  activity_[v] += var_inc_;
  if (activity_[v] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  order_heap_.emplace(activity_[v], v);
}

void LegacySolver::BumpClause(int ci) {
  LegacyClause& c = clauses_[ci];
  c.activity += cla_inc_;
  if (c.activity > 1e100) {
    for (LegacyClause& other : clauses_) {
      if (other.learnt) other.activity *= 1e-100;
    }
    cla_inc_ *= 1e-100;
  }
}

int LegacySolver::LearntLbd(const std::vector<Lit>& learnt) {
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

void LegacySolver::MaybeReduceDB() {
  // Let the learnt store grow with the problem (a third of the original
  // clauses) before pruning, and raise the bar after every reduction so
  // long runs converge instead of thrashing.
  int64_t problem_clauses =
      static_cast<int64_t>(clauses_.size()) - num_learnts_;
  int64_t limit = std::max(max_learnts_, problem_clauses / 3);
  if (num_learnts_ <= limit) return;
  ReduceDB();
  max_learnts_ += max_learnts_ / 2;
}

void LegacySolver::ReduceDB() {
  if (DecisionLevel() != 0) return;
  // Locked clauses are the reason of a (level-0) trail literal; deleting
  // one would dangle reason_.
  std::vector<char> locked(clauses_.size(), 0);
  for (Lit l : trail_) {
    int r = reason_[LitVar(l)];
    if (r >= 0) locked[r] = 1;
  }
  // Deletable: learnt, not locked, longer than binary, not glue.
  std::vector<int> candidates;
  for (int ci = 0; ci < static_cast<int>(clauses_.size()); ++ci) {
    const LegacyClause& c = clauses_[ci];
    if (c.learnt && !locked[ci] && c.lits.size() > 2 && c.lbd > 2) {
      candidates.push_back(ci);
    }
  }
  if (candidates.empty()) return;
  std::sort(candidates.begin(), candidates.end(), [this](int a, int b) {
    return clauses_[a].activity < clauses_[b].activity;
  });
  std::vector<char> remove(clauses_.size(), 0);
  size_t target = candidates.size() / 2;
  for (size_t k = 0; k < target; ++k) remove[candidates[k]] = 1;
  if (target == 0) return;
  // Compact the clause arena, remap the reasons of the level-0 trail
  // (only locked clauses are reasons, and locked clauses survive), and
  // rebuild the watch lists — Attach re-watches each clause's first two
  // literals, which is exactly the watch invariant Propagate maintains.
  std::vector<int> remap(clauses_.size(), -1);
  size_t out = 0;
  for (size_t ci = 0; ci < clauses_.size(); ++ci) {
    if (remove[ci]) continue;
    remap[ci] = static_cast<int>(out);
    if (out != ci) clauses_[out] = std::move(clauses_[ci]);
    ++out;
  }
  clauses_.resize(out);
  for (Lit l : trail_) {
    int& r = reason_[LitVar(l)];
    if (r >= 0) r = remap[r];
  }
  for (auto& watch_list : watches_) watch_list.clear();
  for (size_t ci = 0; ci < clauses_.size(); ++ci) {
    Attach(static_cast<int>(ci));
  }
  num_learnts_ -= static_cast<int64_t>(target);
  stats_.deleted_clauses += static_cast<int64_t>(target);
  ++stats_.reductions;
}

int LegacySolver::Analyze(int conflict_clause, std::vector<Lit>* learnt) {
  learnt->clear();
  learnt->push_back(kLitUndef);  // placeholder for the asserting literal
  int path_count = 0;
  Lit p = kLitUndef;
  int index = static_cast<int>(trail_.size()) - 1;
  int ci = conflict_clause;
  do {
    if (clauses_[ci].learnt) BumpClause(ci);
    const LegacyClause& c = clauses_[ci];
    for (size_t i = (p == kLitUndef ? 0 : 1); i < c.lits.size(); ++i) {
      Lit q = c.lits[i];
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
    ci = reason_[LitVar(p)];
    seen_[LitVar(p)] = 0;
    --path_count;
  } while (path_count > 0);
  (*learnt)[0] = Negate(p);

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
  for (size_t i = 1; i < learnt->size(); ++i) seen_[LitVar((*learnt)[i])] = 0;
  return bj_level;
}

Lit LegacySolver::PickBranchLit() {
  while (!order_heap_.empty()) {
    auto [act, v] = order_heap_.top();
    order_heap_.pop();
    if (assign_[v] != 0) continue;
    if (act != activity_[v]) {
      order_heap_.emplace(activity_[v], v);  // stale entry: reinsert fresh
      continue;
    }
    return MakeLit(v, phase_[v] < 0);
  }
  for (Var v = 0; v < NumVars(); ++v) {
    if (assign_[v] == 0) return MakeLit(v, phase_[v] < 0);
  }
  return kLitUndef;
}

double LegacySolver::Luby(double y, int x) {
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

SolveResult LegacySolver::SolveWithAssumptions(
    const std::vector<Lit>& assumptions) {
  CancelUntil(0);
  if (!ok_) return SolveResult::kUnsat;
  if (Propagate() != -1) {
    ok_ = false;
    return SolveResult::kUnsat;
  }
  // Incremental workloads (model enumeration, per-pair COP probes) can
  // accumulate learnt clauses across many conflict-light calls that never
  // restart, so the reduction check must also run between calls.
  MaybeReduceDB();

  int restart_count = 0;
  int64_t conflicts_until_restart =
      static_cast<int64_t>(100 * Luby(2.0, restart_count));
  int64_t conflicts_this_restart = 0;
  std::vector<Lit> learnt;

  while (true) {
    int confl = Propagate();
    if (confl != -1) {
      ++stats_.conflicts;
      ++conflicts_this_restart;
      if (DecisionLevel() == 0) {
        ok_ = false;
        return SolveResult::kUnsat;
      }
      // A conflict while assumptions are on the trail needs no special
      // analysis: Analyze/backjump as usual (possibly into or below the
      // assumption prefix), and let the decision loop below re-push the
      // undone assumptions.
      int bj = Analyze(confl, &learnt);
      int lbd = LearntLbd(learnt);  // before backjumping: levels current
      CancelUntil(std::max(bj, 0));
      if (learnt.size() == 1) {
        CancelUntil(0);
        UncheckedEnqueue(learnt[0], -1);
      } else {
        clauses_.push_back(LegacyClause{learnt, true, cla_inc_, lbd});
        ++stats_.learnt_clauses;
        ++num_learnts_;
        Attach(static_cast<int>(clauses_.size()) - 1);
        UncheckedEnqueue(learnt[0], static_cast<int>(clauses_.size()) - 1);
      }
      DecayActivities();
      if (conflicts_this_restart >= conflicts_until_restart) {
        ++stats_.restarts;
        ++restart_count;
        conflicts_this_restart = 0;
        conflicts_until_restart =
            static_cast<int64_t>(100 * Luby(2.0, restart_count));
        CancelUntil(0);
        MaybeReduceDB();
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
        // All variables assigned: record the model.
        model_.assign(assign_.begin(), assign_.end());
        CancelUntil(0);
        return SolveResult::kSat;
      }
      ++stats_.decisions;
    }
    NewDecisionLevel();
    UncheckedEnqueue(next, -1);
  }
}

}  // namespace currency::sat
