// Denial constraints for data currency (Section 2 of the paper):
//
//   ∀ t1, ..., tk : R ( ⋀_j (t1[EID] = tj[EID]) ∧ ψ  →  t_u ≺_A t_v )
//
// where ψ is a conjunction of (a) currency-order atoms t_i ≺_B t_j,
// (b) attribute comparisons t_i[B] op t_j[C], and (c) comparisons with
// constants t_i[B] op c.  The EID-equality premises are implicit here:
// constraints are always interpreted over tuples of one entity.
//
// A conclusion t_u ≺_A t_u (same tuple variable, as used in the paper's
// reductions, e.g. "→ t1 ≺_V t1") is unsatisfiable, turning the constraint
// into a pure denial of ψ.

#ifndef CURRENCY_SRC_CONSTRAINTS_DENIAL_CONSTRAINT_H_
#define CURRENCY_SRC_CONSTRAINTS_DENIAL_CONSTRAINT_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/common/cmp.h"
#include "src/common/result.h"
#include "src/order/partial_order.h"
#include "src/relational/relation.h"
#include "src/relational/schema.h"

namespace currency::constraints {

/// One side of a value comparison: t_i[attr] or a constant.
struct Operand {
  bool is_const = false;
  int tuple_var = -1;       ///< index of the tuple variable (when !is_const)
  AttrIndex attr = -1;      ///< attribute index (when !is_const)
  Value constant;           ///< the constant (when is_const)

  static Operand Attr(int tuple_var, AttrIndex attr) {
    Operand op;
    op.is_const = false;
    op.tuple_var = tuple_var;
    op.attr = attr;
    return op;
  }
  static Operand Const(Value v) {
    Operand op;
    op.is_const = true;
    op.constant = std::move(v);
    return op;
  }
};

/// A value predicate t_i[B] op (t_j[C] | c).
struct ComparePredicate {
  CmpOp op = CmpOp::kEq;
  Operand lhs;
  Operand rhs;
};

/// A currency-order atom over tuple variables: before ≺_attr after.
struct OrderAtom {
  int before = -1;
  int after = -1;
  AttrIndex attr = -1;
};

/// A currency-order atom over concrete tuples of one relation.
struct GroundOrderAtom {
  AttrIndex attr = -1;
  TupleId before = -1;
  TupleId after = -1;

  bool operator==(const GroundOrderAtom& o) const {
    return attr == o.attr && before == o.before && after == o.after;
  }
};

/// A grounded instance of a denial constraint: if all `premises` hold in a
/// completion then `conclusion` must hold; a missing conclusion denotes
/// "false" (the premises must not all hold).
struct Grounding {
  std::vector<GroundOrderAtom> premises;
  std::optional<GroundOrderAtom> conclusion;
};

/// A denial constraint bound to a relation schema.
class DenialConstraint {
 public:
  /// Builds and validates a constraint over `schema` with `num_tuple_vars`
  /// universally quantified tuple variables.  All attribute and variable
  /// indices must be in range; order atoms may not use the EID attribute.
  static Result<DenialConstraint> Make(const Schema& schema,
                                       int num_tuple_vars,
                                       std::vector<ComparePredicate> compares,
                                       std::vector<OrderAtom> order_premises,
                                       OrderAtom conclusion);

  const std::string& relation_name() const { return relation_name_; }
  int num_tuple_vars() const { return num_tuple_vars_; }
  const std::vector<ComparePredicate>& compares() const { return compares_; }
  const std::vector<OrderAtom>& order_premises() const {
    return order_premises_;
  }
  const OrderAtom& conclusion() const { return conclusion_; }

  /// Calls `emit` for every grounding over same-entity tuple instantiations
  /// whose value predicates hold.  Groundings with a trivially false
  /// premise (an order atom on one tuple) are skipped; groundings whose
  /// conclusion collapses to one tuple get an empty conclusion (denial).
  void EnumerateGroundings(
      const Relation& relation,
      const std::function<void(const Grounding&)>& emit) const;

  /// Same, for the single entity group `members` (ids into `relation`).
  /// All tuple variables of a grounding bind within one entity group, so
  /// per-group enumeration loses nothing; the decomposition layer uses
  /// this to ground one coupling component at a time without paying for
  /// the others.
  void EnumerateGroundingsForGroup(
      const Relation& relation, const std::vector<TupleId>& members,
      const std::function<void(const Grounding&)>& emit) const;

  /// True iff at least one grounding exists for the entity group `members`
  /// (same semantics as EnumerateGroundingsForGroup: vacuous instantiations
  /// do not count).  Stops at the first match, so classifying a group that
  /// the constraint touches is much cheaper than enumerating it.
  bool HasGroundingForGroup(const Relation& relation,
                            const std::vector<TupleId>& members) const;

  /// True iff the (possibly partial) per-attribute `orders` satisfy the
  /// constraint: every grounding with all premises present has its
  /// conclusion present.  For completed orders this is exactly the paper's
  /// D_t^c |= φ.
  bool SatisfiedBy(const Relation& relation,
                   const std::vector<PartialOrder>& orders) const;

  /// Renders the constraint in the DSL syntax (see constraints/parser.h).
  std::string ToString(const Schema& schema) const;

 private:
  DenialConstraint() = default;

  /// Backtracking core shared by enumeration and the existence check;
  /// `emit` returns false to stop the search.
  void GroundingsForGroup(
      const Relation& relation, const std::vector<TupleId>& members,
      const std::function<bool(const Grounding&)>& emit) const;

  std::string relation_name_;
  int num_tuple_vars_ = 0;
  std::vector<ComparePredicate> compares_;
  std::vector<OrderAtom> order_premises_;
  OrderAtom conclusion_;
};

}  // namespace currency::constraints

#endif  // CURRENCY_SRC_CONSTRAINTS_DENIAL_CONSTRAINT_H_
