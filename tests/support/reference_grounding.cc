#include "tests/support/reference_grounding.h"

#include <algorithm>
#include <optional>

namespace currency::testing {

using constraints::ComparePredicate;
using constraints::GroundOrderAtom;
using constraints::Grounding;
using constraints::Operand;
using constraints::OrderAtom;

void ReferenceGroundingsForGroup(
    const constraints::DenialConstraint& dc, const Relation& relation,
    const std::vector<TupleId>& members,
    const std::function<bool(const Grounding&)>& emit) {
  const int num_tuple_vars = dc.num_tuple_vars();
  // Split predicates by the set of tuple variables they mention.
  auto pred_vars = [&](const ComparePredicate& c) {
    std::vector<int> vars;
    if (!c.lhs.is_const) vars.push_back(c.lhs.tuple_var);
    if (!c.rhs.is_const && c.rhs.tuple_var != (vars.empty() ? -1 : vars[0])) {
      vars.push_back(c.rhs.tuple_var);
    }
    return vars;
  };
  std::vector<std::vector<const ComparePredicate*>> unary(num_tuple_vars);
  std::vector<const ComparePredicate*> binary;
  for (const ComparePredicate& c : dc.compares()) {
    std::vector<int> vars = pred_vars(c);
    if (vars.empty()) {
      // Constant comparison: decide the whole constraint now.
      if (!EvalCmp(c.op, c.lhs.constant, c.rhs.constant)) return;
    } else if (vars.size() == 1) {
      unary[vars[0]].push_back(&c);
    } else {
      binary.push_back(&c);
    }
  }

  auto eval_operand = [&](const Operand& op,
                          const std::vector<TupleId>& assignment) -> const Value& {
    if (op.is_const) return op.constant;
    return relation.tuple(assignment[op.tuple_var]).at(op.attr);
  };

  std::vector<TupleId> assignment(num_tuple_vars);
  // Candidate tuples per variable: members passing all unary predicates.
  std::vector<std::vector<TupleId>> candidates(num_tuple_vars);
  for (int v = 0; v < num_tuple_vars; ++v) {
    for (TupleId id : members) {
      assignment[v] = id;
      bool ok = true;
      for (const ComparePredicate* c : unary[v]) {
        if (!EvalCmp(c->op, eval_operand(c->lhs, assignment),
                     eval_operand(c->rhs, assignment))) {
          ok = false;
          break;
        }
      }
      if (ok) candidates[v].push_back(id);
    }
    if (candidates[v].empty()) return;  // no grounding from this group
  }

  // Assign variables scarcest-first; schedule each binary predicate at
  // the position where its second variable is assigned.
  std::vector<int> order(num_tuple_vars);
  for (int v = 0; v < num_tuple_vars; ++v) order[v] = v;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return candidates[a].size() < candidates[b].size();
  });
  std::vector<int> position(num_tuple_vars);
  for (int i = 0; i < num_tuple_vars; ++i) position[order[i]] = i;
  std::vector<std::vector<const ComparePredicate*>> checks(num_tuple_vars);
  for (const ComparePredicate* c : binary) {
    std::vector<int> vars = pred_vars(*c);
    int ready = std::max(position[vars[0]], position[vars[1]]);
    checks[ready].push_back(c);
  }

  // rec returns false when emit asked to stop the search.
  std::function<bool(int)> rec = [&](int depth) {
    if (depth == num_tuple_vars) {
      Grounding g;
      for (const OrderAtom& a : dc.order_premises()) {
        TupleId u = assignment[a.before];
        TupleId v = assignment[a.after];
        if (u == v) return true;  // premise u ≺ u false: vacuous
        g.premises.push_back(GroundOrderAtom{a.attr, u, v});
      }
      TupleId cu = assignment[dc.conclusion().before];
      TupleId cv = assignment[dc.conclusion().after];
      if (cu == cv) {
        g.conclusion = std::nullopt;  // u ≺ u unsatisfiable: pure denial
      } else {
        g.conclusion = GroundOrderAtom{dc.conclusion().attr, cu, cv};
      }
      return emit(g);
    }
    int var = order[depth];
    for (TupleId id : candidates[var]) {
      assignment[var] = id;
      bool ok = true;
      for (const ComparePredicate* c : checks[depth]) {
        if (!EvalCmp(c->op, eval_operand(c->lhs, assignment),
                     eval_operand(c->rhs, assignment))) {
          ok = false;
          break;
        }
      }
      if (ok && !rec(depth + 1)) return false;
    }
    return true;
  };
  rec(0);
}

}  // namespace currency::testing
