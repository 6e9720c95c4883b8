#include "src/constraints/denial_constraint.h"

#include <algorithm>
#include <sstream>

namespace currency::constraints {

namespace {

Status ValidateOperand(const Schema& schema, int num_tuple_vars,
                       const Operand& op) {
  if (op.is_const) return Status::OK();
  if (op.tuple_var < 0 || op.tuple_var >= num_tuple_vars) {
    return Status::InvalidArgument("tuple variable index out of range");
  }
  if (op.attr < 0 || op.attr >= schema.arity()) {
    return Status::InvalidArgument("attribute index out of range");
  }
  return Status::OK();
}

Status ValidateOrderAtom(const Schema& schema, int num_tuple_vars,
                         const OrderAtom& atom) {
  if (atom.before < 0 || atom.before >= num_tuple_vars ||
      atom.after < 0 || atom.after >= num_tuple_vars) {
    return Status::InvalidArgument("order atom tuple variable out of range");
  }
  if (atom.attr < 1 || atom.attr >= schema.arity()) {
    return Status::InvalidArgument(
        "order atom attribute must be a data attribute (not EID)");
  }
  return Status::OK();
}

}  // namespace

Result<DenialConstraint> DenialConstraint::Make(
    const Schema& schema, int num_tuple_vars,
    std::vector<ComparePredicate> compares,
    std::vector<OrderAtom> order_premises, OrderAtom conclusion) {
  if (num_tuple_vars < 1) {
    return Status::InvalidArgument("constraint needs at least one tuple var");
  }
  for (const ComparePredicate& c : compares) {
    RETURN_IF_ERROR(ValidateOperand(schema, num_tuple_vars, c.lhs));
    RETURN_IF_ERROR(ValidateOperand(schema, num_tuple_vars, c.rhs));
  }
  for (const OrderAtom& a : order_premises) {
    RETURN_IF_ERROR(ValidateOrderAtom(schema, num_tuple_vars, a));
  }
  RETURN_IF_ERROR(ValidateOrderAtom(schema, num_tuple_vars, conclusion));
  DenialConstraint dc;
  dc.relation_name_ = schema.relation_name();
  dc.num_tuple_vars_ = num_tuple_vars;
  dc.compares_ = std::move(compares);
  dc.order_premises_ = std::move(order_premises);
  dc.conclusion_ = conclusion;
  return dc;
}

void DenialConstraint::EnumerateGroundings(
    const Relation& relation,
    const std::function<void(const Grounding&)>& emit) const {
  for (const auto& [eid, members] : relation.EntityGroups()) {
    (void)eid;
    EnumerateGroundingsForGroup(relation, members, emit);
  }
}

void DenialConstraint::EnumerateGroundingsForGroup(
    const Relation& relation, const std::vector<TupleId>& members,
    const std::function<void(const Grounding&)>& emit) const {
  GroundingsForGroup(relation, members, [&](const Grounding& g) {
    emit(g);
    return true;
  });
}

bool DenialConstraint::HasGroundingForGroup(
    const Relation& relation, const std::vector<TupleId>& members) const {
  bool found = false;
  GroundingsForGroup(relation, members, [&](const Grounding&) {
    found = true;
    return false;
  });
  return found;
}

void DenialConstraint::GroundingsForGroup(
    const Relation& relation, const std::vector<TupleId>& members,
    const std::function<bool(const Grounding&)>& emit) const {
  // The lower-bound constructions of the paper use constraints with many
  // tuple variables over one large entity group, so naive |G|^k nested
  // loops are hopeless even for tiny inputs.  We instead backtrack with
  // (a) per-variable candidate sets pre-filtered by unary predicates and
  // (b) eager evaluation of each predicate as soon as its variables are
  // assigned.

  // Split predicates by the set of tuple variables they mention.
  auto pred_vars = [&](const ComparePredicate& c) {
    std::vector<int> vars;
    if (!c.lhs.is_const) vars.push_back(c.lhs.tuple_var);
    if (!c.rhs.is_const && c.rhs.tuple_var != (vars.empty() ? -1 : vars[0])) {
      vars.push_back(c.rhs.tuple_var);
    }
    return vars;
  };
  std::vector<std::vector<const ComparePredicate*>> unary(num_tuple_vars_);
  std::vector<const ComparePredicate*> binary;
  for (const ComparePredicate& c : compares_) {
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

  std::vector<TupleId> assignment(num_tuple_vars_);
  {
    // Candidate tuples per variable: members passing all unary predicates.
    std::vector<std::vector<TupleId>> candidates(num_tuple_vars_);
    for (int v = 0; v < num_tuple_vars_; ++v) {
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
      if (candidates[v].empty()) break;  // no grounding from this group
    }
    bool empty = false;
    for (const auto& cand : candidates) {
      if (cand.empty()) empty = true;
    }
    if (empty) return;

    // Assign variables scarcest-first; schedule each binary predicate at
    // the position where its second variable is assigned.
    std::vector<int> order(num_tuple_vars_);
    for (int v = 0; v < num_tuple_vars_; ++v) order[v] = v;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return candidates[a].size() < candidates[b].size();
    });
    std::vector<int> position(num_tuple_vars_);
    for (int i = 0; i < num_tuple_vars_; ++i) position[order[i]] = i;
    std::vector<std::vector<const ComparePredicate*>> checks(num_tuple_vars_);
    for (const ComparePredicate* c : binary) {
      std::vector<int> vars = pred_vars(*c);
      int ready = std::max(position[vars[0]], position[vars[1]]);
      checks[ready].push_back(c);
    }

    // rec returns false when emit asked to stop the search.
    std::function<bool(int)> rec = [&](int depth) {
      if (depth == num_tuple_vars_) {
        Grounding g;
        for (const OrderAtom& a : order_premises_) {
          TupleId u = assignment[a.before];
          TupleId v = assignment[a.after];
          if (u == v) return true;  // premise u ≺ u false: vacuous
          g.premises.push_back(GroundOrderAtom{a.attr, u, v});
        }
        TupleId cu = assignment[conclusion_.before];
        TupleId cv = assignment[conclusion_.after];
        if (cu == cv) {
          g.conclusion = std::nullopt;  // u ≺ u unsatisfiable: pure denial
        } else {
          g.conclusion = GroundOrderAtom{conclusion_.attr, cu, cv};
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
}

bool DenialConstraint::SatisfiedBy(
    const Relation& relation, const std::vector<PartialOrder>& orders) const {
  bool ok = true;
  EnumerateGroundings(relation, [&](const Grounding& g) {
    if (!ok) return;
    for (const GroundOrderAtom& p : g.premises) {
      if (!orders[p.attr].Less(p.before, p.after)) return;  // premise fails
    }
    if (!g.conclusion.has_value()) {
      ok = false;  // denial triggered
      return;
    }
    const GroundOrderAtom& c = *g.conclusion;
    if (!orders[c.attr].Less(c.before, c.after)) ok = false;
  });
  return ok;
}

std::string DenialConstraint::ToString(const Schema& schema) const {
  std::ostringstream os;
  os << "FORALL ";
  for (int i = 0; i < num_tuple_vars_; ++i) {
    if (i) os << ", ";
    os << "t" << i;
  }
  os << " IN " << relation_name_ << ": ";
  auto operand = [&](const Operand& op) {
    if (op.is_const) {
      if (op.constant.kind() == ValueKind::kString) {
        return "'" + op.constant.ToString() + "'";
      }
      return op.constant.ToString();
    }
    return "t" + std::to_string(op.tuple_var) + "." +
           schema.attribute_name(op.attr);
  };
  bool first = true;
  for (const ComparePredicate& c : compares_) {
    if (!first) os << " AND ";
    first = false;
    os << operand(c.lhs) << " " << CmpOpToString(c.op) << " " << operand(c.rhs);
  }
  for (const OrderAtom& a : order_premises_) {
    if (!first) os << " AND ";
    first = false;
    os << "t" << a.before << " PREC[" << schema.attribute_name(a.attr)
       << "] t" << a.after;
  }
  if (first) os << "TRUE";
  os << " -> t" << conclusion_.before << " PREC["
     << schema.attribute_name(conclusion_.attr) << "] t" << conclusion_.after;
  return os.str();
}

}  // namespace currency::constraints
