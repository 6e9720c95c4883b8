#include "src/query/eval.h"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "src/query/classify.h"

namespace currency::query {

namespace {

using Env = std::unordered_map<std::string, Value>;

// ---------------------------------------------------------------------------
// Active-domain FO evaluator.
// ---------------------------------------------------------------------------

class FoEvaluator {
 public:
  FoEvaluator(const Database& db, std::vector<Value> adom)
      : db_(db), adom_(std::move(adom)) {}

  Result<bool> Eval(const Formula& f, Env* env) {
    switch (f.kind()) {
      case Formula::Kind::kAtom:
        return EvalAtom(f, env);
      case Formula::Kind::kCompare: {
        ASSIGN_OR_RETURN(Value lhs, Resolve(f.lhs(), *env));
        ASSIGN_OR_RETURN(Value rhs, Resolve(f.rhs(), *env));
        return EvalCmp(f.cmp_op(), lhs, rhs);
      }
      case Formula::Kind::kAnd:
        for (const auto& c : f.children()) {
          ASSIGN_OR_RETURN(bool v, Eval(*c, env));
          if (!v) return false;
        }
        return true;
      case Formula::Kind::kOr:
        for (const auto& c : f.children()) {
          ASSIGN_OR_RETURN(bool v, Eval(*c, env));
          if (v) return true;
        }
        return false;
      case Formula::Kind::kNot: {
        ASSIGN_OR_RETURN(bool v, Eval(*f.child(), env));
        return !v;
      }
      case Formula::Kind::kExists:
        return EvalQuantifier(f, env, /*exists=*/true, 0);
      case Formula::Kind::kForall:
        return EvalQuantifier(f, env, /*exists=*/false, 0);
    }
    return Status::Internal("unknown formula kind");
  }

 private:
  Result<bool> EvalAtom(const Formula& f, Env* env) {
    auto it = db_.find(f.relation());
    if (it == db_.end()) {
      return Status::NotFound("relation '" + f.relation() +
                              "' not in database");
    }
    const Relation& rel = *it->second;
    if (static_cast<int>(f.args().size()) != rel.schema().arity()) {
      return Status::InvalidArgument(
          "atom " + f.ToString() + " does not match arity of " +
          rel.schema().ToString());
    }
    std::vector<Value> resolved(f.args().size());
    for (size_t i = 0; i < f.args().size(); ++i) {
      ASSIGN_OR_RETURN(resolved[i], Resolve(f.args()[i], *env));
    }
    for (const Tuple& t : rel.tuples()) {
      bool match = true;
      for (size_t i = 0; i < resolved.size(); ++i) {
        if (!(t.at(static_cast<int>(i)) == resolved[i])) {
          match = false;
          break;
        }
      }
      if (match) return true;
    }
    return false;
  }

  Result<bool> EvalQuantifier(const Formula& f, Env* env, bool exists,
                              size_t var_index) {
    if (var_index == f.quantified_vars().size()) {
      return Eval(*f.child(), env);
    }
    const std::string& var = f.quantified_vars()[var_index];
    // Save any shadowed binding.
    auto shadowed = env->find(var);
    bool had = shadowed != env->end();
    Value saved = had ? shadowed->second : Value();
    for (const Value& v : adom_) {
      (*env)[var] = v;
      ASSIGN_OR_RETURN(bool r, EvalQuantifier(f, env, exists, var_index + 1));
      if (exists && r) {
        RestoreBinding(env, var, had, saved);
        return true;
      }
      if (!exists && !r) {
        RestoreBinding(env, var, had, saved);
        return false;
      }
    }
    RestoreBinding(env, var, had, saved);
    // Empty active domain: ∃ is false, ∀ is true.
    return !exists;
  }

  static void RestoreBinding(Env* env, const std::string& var, bool had,
                             const Value& saved) {
    if (had) {
      (*env)[var] = saved;
    } else {
      env->erase(var);
    }
  }

  Result<Value> Resolve(const Term& t, const Env& env) {
    if (!t.is_var()) return t.constant;
    auto it = env.find(t.var);
    if (it == env.end()) {
      return Status::InvalidArgument("unbound variable '" + t.var + "'");
    }
    return it->second;
  }

  const Database& db_;
  std::vector<Value> adom_;
};

// ---------------------------------------------------------------------------
// Backtracking-join engine for UCQ-shaped bodies.
// ---------------------------------------------------------------------------

/// Rewrites a CQ-shaped formula into atom + compare lists with fresh names
/// for quantified variables.  Returns false on non-CQ shapes.
bool FlattenCq(const Formula& f,
               std::unordered_map<std::string, std::string> scope,
               int* counter, std::vector<FormulaPtr>* keep_alive,
               std::vector<const Formula*>* atoms,
               std::vector<const Formula*>* compares) {
  switch (f.kind()) {
    case Formula::Kind::kAtom: {
      // Apply renaming: rebuild the atom if any arg is renamed.
      bool needs = false;
      for (const Term& t : f.args()) {
        if (t.is_var() && scope.count(t.var)) needs = true;
      }
      if (!needs) {
        atoms->push_back(&f);
        return true;
      }
      std::vector<Term> args = f.args();
      for (Term& t : args) {
        if (t.is_var()) {
          auto it = scope.find(t.var);
          if (it != scope.end()) t.var = it->second;
        }
      }
      keep_alive->push_back(Formula::Atom(f.relation(), std::move(args)));
      atoms->push_back(keep_alive->back().get());
      return true;
    }
    case Formula::Kind::kCompare: {
      bool needs = false;
      for (const Term* t : {&f.lhs(), &f.rhs()}) {
        if (t->is_var() && scope.count(t->var)) needs = true;
      }
      if (!needs) {
        compares->push_back(&f);
        return true;
      }
      Term lhs = f.lhs(), rhs = f.rhs();
      for (Term* t : {&lhs, &rhs}) {
        if (t->is_var()) {
          auto it = scope.find(t->var);
          if (it != scope.end()) t->var = it->second;
        }
      }
      keep_alive->push_back(Formula::Compare(f.cmp_op(), lhs, rhs));
      compares->push_back(keep_alive->back().get());
      return true;
    }
    case Formula::Kind::kAnd:
      for (const auto& c : f.children()) {
        if (!FlattenCq(*c, scope, counter, keep_alive, atoms, compares)) {
          return false;
        }
      }
      return true;
    case Formula::Kind::kExists: {
      for (const std::string& v : f.quantified_vars()) {
        scope[v] = v + "$" + std::to_string((*counter)++);
      }
      return FlattenCq(*f.child(), scope, counter, keep_alive, atoms,
                       compares);
    }
    default:
      return false;
  }
}

class CqJoiner {
 public:
  CqJoiner(const Database& db, const std::vector<const Formula*>& atoms,
           const std::vector<const Formula*>& compares,
           const std::vector<std::string>& head)
      : db_(db), atoms_(atoms), compares_(compares), head_(head) {}

  /// When set, records one witness derivation per (new) answer tuple.
  void set_support_out(std::map<Tuple, std::vector<SupportRow>>* out) {
    support_out_ = out;
  }

  /// Runs the join over a disjunct FlattenJoinable accepted.
  Status Run(std::set<Tuple>* out) {
    // Validate relations and arities up front.
    for (const Formula* a : atoms_) {
      auto it = db_.find(a->relation());
      if (it == db_.end()) {
        return Status::NotFound("relation '" + a->relation() +
                                "' not in database");
      }
      if (static_cast<int>(a->args().size()) != it->second->schema().arity()) {
        return Status::InvalidArgument("atom " + a->ToString() +
                                       " does not match arity of " +
                                       it->second->schema().ToString());
      }
    }
    return Recurse(0, out);
  }

 private:
  Status Recurse(size_t atom_index, std::set<Tuple>* out) {
    if (atom_index == atoms_.size()) {
      // All atoms matched; evaluate remaining comparisons.
      for (const Formula* c : compares_) {
        Value lhs = ResolveBound(c->lhs());
        Value rhs = ResolveBound(c->rhs());
        if (!EvalCmp(c->cmp_op(), lhs, rhs)) return Status::OK();
      }
      std::vector<Value> head_vals;
      head_vals.reserve(head_.size());
      for (const std::string& h : head_) head_vals.push_back(env_.at(h));
      Tuple answer(std::move(head_vals));
      if (support_out_ != nullptr && !support_out_->count(answer)) {
        (*support_out_)[answer] = match_stack_;
      }
      out->insert(std::move(answer));
      return Status::OK();
    }
    const Formula* atom = atoms_[atom_index];
    const Relation& rel = *db_.at(atom->relation());
    for (int row = 0; row < rel.size(); ++row) {
      const Tuple& t = rel.tuple(row);
      std::vector<std::string> bound_here;
      bool match = true;
      for (size_t i = 0; i < atom->args().size() && match; ++i) {
        const Term& term = atom->args()[i];
        const Value& cell = t.at(static_cast<int>(i));
        if (!term.is_var()) {
          if (!(term.constant == cell)) match = false;
        } else {
          auto it = env_.find(term.var);
          if (it == env_.end()) {
            env_[term.var] = cell;
            bound_here.push_back(term.var);
          } else if (!(it->second == cell)) {
            match = false;
          }
        }
      }
      if (match) {
        match_stack_.push_back(SupportRow{atom->relation(), row});
        RETURN_IF_ERROR(Recurse(atom_index + 1, out));
        match_stack_.pop_back();
      }
      for (const std::string& v : bound_here) env_.erase(v);
    }
    return Status::OK();
  }

  Value ResolveBound(const Term& t) const {
    if (!t.is_var()) return t.constant;
    return env_.at(t.var);
  }

  const Database& db_;
  const std::vector<const Formula*>& atoms_;
  const std::vector<const Formula*>& compares_;
  const std::vector<std::string>& head_;
  Env env_;
  std::map<Tuple, std::vector<SupportRow>>* support_out_ = nullptr;
  std::vector<SupportRow> match_stack_;
};

/// Collects the top-level UCQ disjuncts (the formula itself if CQ-shaped).
void CollectDisjuncts(const Formula& f, std::vector<const Formula*>* out) {
  if (f.kind() == Formula::Kind::kOr) {
    for (const auto& c : f.children()) CollectDisjuncts(*c, out);
    return;
  }
  out->push_back(&f);
}

/// One flattened CQ disjunct.
struct FlatCq {
  std::vector<const Formula*> atoms;
  std::vector<const Formula*> compares;
};

/// Flattens `q`'s body into the disjuncts the backtracking join answers.
/// False when `q` is outside that fragment — some disjunct is not
/// CQ-shaped or not range-restricted — and needs the active-domain
/// evaluator.  Renamed atoms and compares live in `keep_alive`.
bool FlattenJoinable(const Query& q, std::vector<FormulaPtr>* keep_alive,
                     std::vector<FlatCq>* out) {
  std::vector<const Formula*> disjuncts;
  CollectDisjuncts(*q.body, &disjuncts);
  for (const Formula* d : disjuncts) {
    FlatCq cq;
    int counter = 0;
    if (!FlattenCq(*d, {}, &counter, keep_alive, &cq.atoms, &cq.compares)) {
      return false;
    }
    // Range restriction: every head and compare variable occurs in an
    // atom, so the join binds it before reading it.
    std::set<std::string> atom_vars;
    for (const Formula* a : cq.atoms) {
      for (const Term& t : a->args()) {
        if (t.is_var()) atom_vars.insert(t.var);
      }
    }
    for (const std::string& h : q.head) {
      if (!atom_vars.count(h)) return false;
    }
    for (const Formula* c : cq.compares) {
      for (const Term* t : {&c->lhs(), &c->rhs()}) {
        if (t->is_var() && !atom_vars.count(t->var)) return false;
      }
    }
    out->push_back(std::move(cq));
  }
  return true;
}

/// Answers `q` with backtracking joins into `out`, recording one witness
/// derivation per answer into `support` when it is non-null; false when
/// `q` is outside the join fragment (FlattenJoinable).
Result<bool> JoinUcq(const Query& q, const Database& db, std::set<Tuple>* out,
                     std::map<Tuple, std::vector<SupportRow>>* support) {
  std::vector<FormulaPtr> keep_alive;
  std::vector<FlatCq> cqs;
  if (!FlattenJoinable(q, &keep_alive, &cqs)) return false;
  for (const FlatCq& cq : cqs) {
    CqJoiner joiner(db, cq.atoms, cq.compares, q.head);
    joiner.set_support_out(support);
    RETURN_IF_ERROR(joiner.Run(out));
  }
  return true;
}

std::vector<Value> ActiveDomain(const Database& db, const Formula& body) {
  std::set<Value> adom;
  for (const auto& [name, rel] : db) {
    (void)name;
    auto d = rel->ActiveDomain();
    adom.insert(d.begin(), d.end());
  }
  for (const Value& v : body.Constants()) adom.insert(v);
  return std::vector<Value>(adom.begin(), adom.end());
}

/// Enumerates head bindings over the active domain and filters with the FO
/// evaluator.  Complete (active-domain semantics) but exponential in |head|.
Result<std::set<Tuple>> EvalNaive(const Query& q, const Database& db,
                                  const std::vector<Value>& adom) {
  std::set<Tuple> out;
  FoEvaluator eval(db, adom);
  std::vector<Value> binding(q.head.size());
  Env env;
  // Recursive enumeration over head variables.
  std::function<Status(size_t)> rec = [&](size_t i) -> Status {
    if (i == q.head.size()) {
      ASSIGN_OR_RETURN(bool ok, eval.Eval(*q.body, &env));
      if (ok) out.insert(Tuple(binding));
      return Status::OK();
    }
    for (const Value& v : adom) {
      env[q.head[i]] = v;
      binding[i] = v;
      RETURN_IF_ERROR(rec(i + 1));
    }
    env.erase(q.head[i]);
    return Status::OK();
  };
  RETURN_IF_ERROR(rec(0));
  return out;
}

}  // namespace

Result<std::set<Tuple>> EvalQuery(const Query& q, const Database& db) {
  if (!q.body) return Status::InvalidArgument("query has no body");
  // Fast path: backtracking joins; else active-domain FO semantics.
  std::set<Tuple> out;
  ASSIGN_OR_RETURN(bool joined, JoinUcq(q, db, &out, nullptr));
  if (joined) return out;
  return EvalNaive(q, db, ActiveDomain(db, *q.body));
}

Result<std::map<Tuple, std::vector<SupportRow>>> EvalQueryWithSupport(
    const Query& q, const Database& db) {
  if (!q.body) return Status::InvalidArgument("query has no body");
  std::map<Tuple, std::vector<SupportRow>> support;
  std::set<Tuple> out;
  ASSIGN_OR_RETURN(bool joined, JoinUcq(q, db, &out, &support));
  if (!joined) {
    return Status::Unsupported(
        "support extraction requires a range-restricted UCQ body");
  }
  return support;
}

std::map<std::string, std::set<Value>> EidPins(const Query& q) {
  std::vector<FormulaPtr> keep_alive;
  std::vector<FlatCq> cqs;
  if (!q.body || !FlattenJoinable(q, &keep_alive, &cqs)) return {};
  std::map<std::string, std::set<Value>> pins;
  std::set<std::string> unpinned;
  for (const FlatCq& cq : cqs) {
    // Variables an `=` conjunct sets equal to a constant.
    std::map<std::string, Value> fixed;
    for (const Formula* c : cq.compares) {
      if (c->cmp_op() != CmpOp::kEq) continue;
      const Term& l = c->lhs();
      const Term& r = c->rhs();
      if (l.is_var() && !r.is_var()) fixed.emplace(l.var, r.constant);
      if (r.is_var() && !l.is_var()) fixed.emplace(r.var, l.constant);
    }
    for (const Formula* atom : cq.atoms) {
      const Term* eid = atom->args().empty() ? nullptr : &atom->args()[0];
      if (eid != nullptr && !eid->is_var()) {
        pins[atom->relation()].insert(eid->constant);
      } else if (eid != nullptr && fixed.count(eid->var)) {
        pins[atom->relation()].insert(fixed.at(eid->var));
      } else {
        unpinned.insert(atom->relation());
      }
    }
  }
  for (const std::string& relation : unpinned) pins.erase(relation);
  return pins;
}

Result<bool> EvalClosedFormula(const FormulaPtr& formula, const Database& db) {
  if (!formula) return Status::InvalidArgument("null formula");
  if (!formula->FreeVariables().empty()) {
    return Status::InvalidArgument("formula has free variables");
  }
  FoEvaluator eval(db, ActiveDomain(db, *formula));
  Env env;
  return eval.Eval(*formula, &env);
}

}  // namespace currency::query
