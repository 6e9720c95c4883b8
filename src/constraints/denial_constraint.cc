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
  // The plan: constant comparisons decide the whole constraint once and
  // for all; the rest split by the tuple variables they mention.
  for (int k = 0; k < static_cast<int>(dc.compares_.size()); ++k) {
    const ComparePredicate& c = dc.compares_[k];
    const int lhs = c.lhs.is_const ? -1 : c.lhs.tuple_var;
    const int rhs = c.rhs.is_const ? -1 : c.rhs.tuple_var;
    if (lhs < 0 && rhs < 0) {
      dc.constants_hold_ &= EvalCmp(c.op, c.lhs.constant, c.rhs.constant);
    } else if (lhs < 0 || rhs < 0 || lhs == rhs) {
      dc.unary_.emplace_back(std::max(lhs, rhs), k);
    } else {
      dc.binary_.push_back(k);
    }
  }
  return dc;
}

template <typename Emit>
bool DenialConstraint::GroundingsForGroup(const Relation& relation,
                                          const std::vector<TupleId>& members,
                                          const Emit& emit) const {
  // The lower-bound constructions of the paper use constraints with many
  // tuple variables over one large entity group, so naive |G|^k nested
  // loops are hopeless even for tiny inputs.  We instead backtrack with
  // (a) per-variable candidate sets pre-filtered by unary predicates and
  // (b) eager evaluation of each predicate as soon as its variables are
  // assigned.  The predicate split is Make's plan; a call allocates one
  // scratch buffer and one Grounding.
  if (!constants_hold_) return true;
  const int n = num_tuple_vars_;
  const size_t m = members.size();
  // Scratch, carved into per-variable arrays: candidates (n rows of m),
  // their counts, the assignment, the scarcest-first variable order, each
  // variable's position in it, the per-depth cursor, and the binary
  // predicates bucketed by the depth that assigns their later variable.
  std::vector<int> scratch(n * (m + 6) + 1 + binary_.size());
  int* candidates = scratch.data();
  int* count = candidates + n * m;
  TupleId* assignment = count + n;
  int* order = assignment + n;
  int* position = order + n;
  int* cursor = position + n;
  int* check_begin = cursor + n;  // n + 1 entries
  int* checks = check_begin + n + 1;

  auto holds = [&](int k) {
    const ComparePredicate& c = compares_[k];
    auto value = [&](const Operand& op) -> const Value& {
      return op.is_const ? op.constant
                         : relation.tuple(assignment[op.tuple_var]).at(op.attr);
    };
    return EvalCmp(c.op, value(c.lhs), value(c.rhs));
  };

  // Candidate tuples per variable: members passing all unary predicates.
  for (int v = 0; v < n; ++v) {
    for (TupleId id : members) {
      assignment[v] = id;
      if (std::all_of(unary_.begin(), unary_.end(), [&](const auto& u) {
            return u.first != v || holds(u.second);
          })) {
        candidates[v * m + count[v]++] = id;
      }
    }
    if (count[v] == 0) return true;  // no grounding from this group
  }

  // Assign variables scarcest-first; schedule each binary predicate at
  // the position where its second variable is assigned.
  for (int v = 0; v < n; ++v) order[v] = v;
  std::sort(order, order + n,
            [&](int a, int b) { return count[a] < count[b]; });
  for (int i = 0; i < n; ++i) position[order[i]] = i;
  int scheduled = 0;
  for (int d = 0; d <= n; ++d) {
    check_begin[d] = scheduled;
    for (int k : binary_) {
      const ComparePredicate& c = compares_[k];
      if (d == std::max(position[c.lhs.tuple_var], position[c.rhs.tuple_var])) {
        checks[scheduled++] = k;
      }
    }
  }

  // Depth-first over the candidates, emitting at full depth.  A premise
  // u ≺ u is false, so such a grounding is vacuous and skipped; a
  // conclusion u ≺ u is unsatisfiable, so it grounds to a pure denial.
  Grounding g;
  auto tuple_atom = [&](const OrderAtom& a) {
    return GroundOrderAtom{a.attr, assignment[a.before], assignment[a.after]};
  };
  int depth = 0;
  cursor[0] = 0;
  while (depth >= 0) {
    if (depth == n) {
      if (std::none_of(order_premises_.begin(), order_premises_.end(),
                       [&](const OrderAtom& a) {
                         return assignment[a.before] == assignment[a.after];
                       })) {
        g.premises.clear();
        for (const OrderAtom& a : order_premises_) {
          g.premises.push_back(tuple_atom(a));
        }
        g.conclusion.reset();
        if (assignment[conclusion_.before] != assignment[conclusion_.after]) {
          g.conclusion = tuple_atom(conclusion_);
        }
        if (!emit(g)) return false;
      }
      --depth;
      continue;
    }
    // The next candidate of this depth's variable that passes its checks.
    const int var = order[depth];
    bool ok = false;
    while (!ok && cursor[depth] < count[var]) {
      assignment[var] = candidates[var * m + cursor[depth]++];
      ok = std::all_of(checks + check_begin[depth],
                       checks + check_begin[depth + 1], holds);
    }
    if (!ok) {
      --depth;
    } else if (++depth < n) {
      cursor[depth] = 0;
    }
  }
  return true;
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
  return !GroundingsForGroup(relation, members,
                             [](const Grounding&) { return false; });
}

bool DenialConstraint::SatisfiedBy(
    const Relation& relation, const std::vector<PartialOrder>& orders) const {
  auto satisfied = [&](const Grounding& g) {
    for (const GroundOrderAtom& p : g.premises) {
      if (!orders[p.attr].Less(p.before, p.after)) return true;  // vacuous
    }
    // A denial is violated once its premises hold.
    return g.conclusion.has_value() &&
           orders[g.conclusion->attr].Less(g.conclusion->before,
                                           g.conclusion->after);
  };
  for (const auto& [eid, members] : relation.EntityGroups()) {
    (void)eid;
    if (!GroundingsForGroup(relation, members, satisfied)) return false;
  }
  return true;
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
