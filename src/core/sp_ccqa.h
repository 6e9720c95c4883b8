// The PTIME CCQA construction for SP queries on specifications without
// denial constraints (Proposition 6.3), run on chase fixpoints.
//
// The construction mirrors the proof: from PO∞, collect for each entity e
// and attribute A the set S(e,A) of A-values on the sinks of PO∞ among e's
// tuples (the possible most-current values); build the relation poss(S)
// whose tuple for e carries the unique possible value, or a fresh constant
// c_{e,A} when several exist; evaluate Q on poss(S) and discard result
// tuples containing fresh constants.
//
// Taken literally over a whole specification, the construction returns a
// sound subset of the certain answers: it treats each attribute's current
// value as independent, and two attributes that copy one source attribute
// move together (docs/ARCHITECTURE.md, "Routing").  The engine therefore
// applies it only to chase-enumerable components, where it is exact; the
// literal whole-specification construction is a test reference
// (tests/support/whole_spec.h).

#ifndef CURRENCY_SRC_CORE_SP_CCQA_H_
#define CURRENCY_SRC_CORE_SP_CCQA_H_

#include <set>
#include <vector>

#include "src/common/result.h"
#include "src/core/chase.h"
#include "src/core/specification.h"
#include "src/query/ast.h"

namespace currency::core {

/// The construction above on per-component chase fixpoints (chase routing):
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
/// (entry 0 stays empty).  `orders` index the group by position in
/// `members`, as a ComponentChase::Node's do.
std::vector<std::vector<Value>> PossibleCurrentValues(
    const Relation& rel, const std::vector<TupleId>& members,
    const std::vector<PartialOrder>& orders);

/// True iff `v` is one of the fresh constants c_{e,A} minted for poss(S).
bool IsFreshPossConstant(const Value& v);

}  // namespace currency::core

#endif  // CURRENCY_SRC_CORE_SP_CCQA_H_
