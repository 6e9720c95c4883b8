// The copy-order chase: the PTIME fixpoint algorithm of Theorem 6.1, run
// on one coupling component at a time.
//
// Starting from the initial partial currency orders, order information is
// propagated along copy functions in both directions (source → target by
// ≺-compatibility; target → source by its contrapositive under totality)
// until fixpoint.  A derived cycle proves inconsistency.  In the absence
// of denial constraints the result PO∞ equals the intersection of the
// completed orders over all consistent completions (Lemma 6.2), which
// makes CPS, COP and DCIP PTIME-decidable (Theorem 6.1).  The engine
// chases each chase-eligible component of its decomposition on its own
// (DecomposedEncoder::BuildComponentChase); the whole-specification chase
// of the theorem, and its Horn closure under denial constraints, are test
// references (tests/support/whole_spec.h).

#ifndef CURRENCY_SRC_CORE_CHASE_H_
#define CURRENCY_SRC_CORE_CHASE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/core/specification.h"

namespace currency::core {

struct CopyBucketIndex;  // src/core/encoder.h
struct EntityNode;       // src/core/encoder.h

/// The copy-order chase restricted to one coupling component, in the
/// component's own coordinates.  For a chase-eligible component (no denial
/// constraint grounds on any of its entity groups) this is the complete
/// PO∞ of the component sub-specification: copy buckets never straddle
/// components and denial groundings are entity-group-local, so chasing a
/// component in isolation derives exactly the pairs the whole-spec chase
/// would derive inside it.
struct ComponentChase {
  /// False iff a cyclic order requirement was derived within the
  /// component (Mod(S) = ∅ for the whole specification).
  bool consistent = true;
  int passes = 0;
  int64_t edges_expanded = 0;
  int64_t derived_pairs = 0;

  /// One entity group of the component.  `orders[a]` is PO∞ for data
  /// attribute a over LOCAL indices into `members` (ascending TupleIds,
  /// the EntityGroups order); orders[0] is an empty placeholder so that
  /// attribute indices line up with the schema.
  struct Node {
    int inst = -1;
    Value eid;
    std::vector<TupleId> members;
    std::vector<PartialOrder> orders;
  };
  /// In (instance, entity) order, the order of the node list chased.
  std::vector<Node> nodes;

  /// The node for (inst, eid), or nullptr if the component has none.
  const Node* FindNode(int inst, const Value& eid) const;

  /// True iff u ≺_attr v is certain, where u and v are TupleIds of
  /// instance `inst` within the entity group `eid`.  False when either
  /// tuple lies outside the group (cross-entity pairs are never certain).
  bool CertainLess(int inst, const Value& eid, AttrIndex attr, TupleId u,
                   TupleId v) const;
};

/// Runs the copy-order chase over the sub-specification induced by the
/// component whose entity groups are `nodes` (Decomposition::component;
/// fails unless the list passes NodeMembers):
/// initial orders restricted to the groups, propagation along the copy
/// buckets of the component's own target groups whose source groups lie
/// in the component too.  `copy_index` is the specification's
/// CopyBucketIndex (the engine shares the decomposition's); read during
/// set-up only, not retained.
Result<ComponentChase> ChaseComponentOrders(
    const Specification& spec, const std::vector<EntityNode>& nodes,
    const CopyBucketIndex& copy_index);

}  // namespace currency::core

#endif  // CURRENCY_SRC_CORE_CHASE_H_
