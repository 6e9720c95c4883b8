// The PTIME CCQA algorithm for SP queries on specifications without
// denial constraints (Proposition 6.3).
//
// The construction mirrors the proof: compute PO∞ with the chase; for each
// entity e and attribute A collect S(e,A), the A-values of the sinks of
// PO∞ on e's tuples (the possible most-current values); build the relation
// poss(S) whose tuple for e carries the unique possible value, or a fresh
// constant c_{e,A} when several exist; evaluate Q on poss(S) and discard
// result tuples containing fresh constants.

#ifndef CURRENCY_SRC_CORE_SP_CCQA_H_
#define CURRENCY_SRC_CORE_SP_CCQA_H_

#include <set>
#include <vector>

#include "src/common/result.h"
#include "src/core/chase.h"
#include "src/core/specification.h"
#include "src/query/ast.h"

namespace currency::core {

/// Certain current answers for an SP query without denial constraints.
/// Fails with Unsupported when `q` is not SP or `spec` carries denial
/// constraints; with Inconsistent when Mod(S) = ∅.
Result<std::set<Tuple>> SpCertainCurrentAnswers(const Specification& spec,
                                                const query::Query& q);

/// Builds poss(S) for instance `inst` from the chase-certain orders (the
/// c_{e,A} fresh constants are strings with an internal marker prefix).
/// Exposed for tests and the Proposition 6.3 benchmarks.
Result<Relation> BuildPossRelation(
    const Specification& spec,
    const std::vector<std::vector<PartialOrder>>& certain_orders, int inst);

/// The pipeline above on per-component chase fixpoints (chase routing):
/// poss(S) from the groups among `nodes` of `q`'s relation, each carrying
/// its own PO∞.  The caller has established Mod(S) ≠ ∅, that no denial
/// constraint grounds on those groups, and that they hold every entity `q`
/// can match.  Unsupported unless `q` is SP over exactly one relation.
Result<std::set<Tuple>> SpAnswersFromChaseNodes(
    const Specification& spec,
    const std::vector<const ComponentChase::Node*>& nodes,
    const query::Query& q);

/// S(e, A) for every data attribute A of one entity group: the distinct
/// values of `rel` on the group's sinks under `orders[A]`, in Value order
/// (entry 0 stays empty).  `orders` index the group by TupleId, or by
/// position in `members` when `local` (a ComponentChase::Node's orders).
std::vector<std::vector<Value>> PossibleCurrentValues(
    const Relation& rel, const std::vector<TupleId>& members,
    const std::vector<PartialOrder>& orders, bool local);

/// True iff `v` is one of the fresh constants c_{e,A} minted for poss(S).
bool IsFreshPossConstant(const Value& v);

}  // namespace currency::core

#endif  // CURRENCY_SRC_CORE_SP_CCQA_H_
