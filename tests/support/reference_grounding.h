// The grounding backtracker as it stood before denial constraints carried
// a grounding plan: it re-derives the predicate split on every call,
// recurses through a std::function and builds a fresh Grounding per
// emission.  DenialConstraint's planned kernel must emit exactly its
// sequence; tests/constraints_test.cc diffs the two on random
// constraints.

#ifndef CURRENCY_TESTS_SUPPORT_REFERENCE_GROUNDING_H_
#define CURRENCY_TESTS_SUPPORT_REFERENCE_GROUNDING_H_

#include <functional>
#include <vector>

#include "src/constraints/denial_constraint.h"

namespace currency::testing {

/// Calls `emit` for each grounding of `dc` on the entity group `members`
/// of `relation`, in enumeration order, until it returns false.
void ReferenceGroundingsForGroup(
    const constraints::DenialConstraint& dc, const Relation& relation,
    const std::vector<TupleId>& members,
    const std::function<bool(const constraints::Grounding&)>& emit);

}  // namespace currency::testing

#endif  // CURRENCY_TESTS_SUPPORT_REFERENCE_GROUNDING_H_
