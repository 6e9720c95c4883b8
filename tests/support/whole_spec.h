// Whole-specification references: the paper's PTIME constructions taken
// literally over every entity group at once.  The engine runs the same
// constructions one coupling component at a time
// (core::ChaseComponentOrders, core::SpAnswersFromChaseNodes); the suites
// diff its fixpoints and answers against these and the brute-force
// oracle.  Test and bench support only; nothing under src/ uses it.

#ifndef CURRENCY_TESTS_SUPPORT_WHOLE_SPEC_H_
#define CURRENCY_TESTS_SUPPORT_WHOLE_SPEC_H_

#include <memory>
#include <set>
#include <vector>

#include "src/common/result.h"
#include "src/core/encoder.h"
#include "src/core/specification.h"
#include "src/order/partial_order.h"
#include "src/query/ast.h"

namespace currency::testing {

/// The copy-order chase over a whole specification.
struct WholeSpecChase {
  /// False iff a cyclic order requirement was derived (Mod(S) = ∅
  /// regardless of denial constraints).
  bool consistent = true;
  /// certain_orders[i][a]: PO∞ for instance i, attribute a, over the
  /// instance's TupleIds.  Meaningful only when `consistent`.
  std::vector<std::vector<PartialOrder>> certain_orders;
  /// Passes until fixpoint.
  int passes = 0;
};

/// Theorem 6.1's chase: propagates the initial orders along every copy
/// function in both directions until fixpoint, expanding each mapping's
/// full square of same-entity pairs (O(|ρ|²) per pass).  It shares no code
/// with the engine's bucketed per-component plans.  Without denial
/// constraints the orders are ∩_{Dc ∈ Mod(S)} ≺c (Lemma 6.2).  Fails only
/// on unresolvable copy signatures.
Result<WholeSpecChase> ChaseWholeSpec(const core::Specification& spec);

/// The chase interleaved with denial-constraint Horn closure: each pass
/// also fires every grounding whose order premises are all certain,
/// adding its conclusion, or proving Mod(S) = ∅ when it is a pure denial
/// or contradicts a certain pair.  Every derived pair holds in every
/// consistent completion.  The closure is not complete (with denial
/// constraints, certainty is coNP-hard, Theorem 3.4), but it is the
/// certain prefix the brute-force oracle prunes its enumeration with.
/// Without denial constraints it equals ChaseWholeSpec.
Result<WholeSpecChase> HornPrefix(const core::Specification& spec);

/// Proposition 6.3's poss(S) construction, taken literally: one node per
/// entity group of the whole specification, carrying ChaseWholeSpec's
/// orders, evaluated by core::SpAnswersFromChaseNodes.  Returns a SOUND
/// SUBSET of the certain current answers, which can miss answers when two
/// attributes copy one source attribute (docs/ARCHITECTURE.md, "Routing").
/// Unsupported when `spec` has denial constraints or `q` is not SP over
/// one relation; Inconsistent when Mod(S) = ∅.
Result<std::set<Tuple>> LiteralSpCertainAnswers(
    const core::Specification& spec, const query::Query& q);

/// The SAT encoding of the whole specification: a core::Encoder over
/// every entity group, listed in (instance, entity) order, with the
/// specification's copy-bucket index.
Result<std::unique_ptr<core::Encoder>> BuildWholeSpecEncoder(
    const core::Specification& spec);

/// OK iff every coupling component's fixpoint
/// (core::DecomposedEncoder::BuildComponentChase) equals ChaseWholeSpec
/// restricted to the component's groups, pair for pair, and the
/// components are all consistent exactly when the whole-spec chase is.
/// An inconsistent whole-spec chase stops mid-way, so then only the
/// verdicts compare.  Internal naming the first difference otherwise.
/// Requires every component to be chase-eligible.
Status CompareComponentChases(const core::Specification& spec);

}  // namespace currency::testing

#endif  // CURRENCY_TESTS_SUPPORT_WHOLE_SPEC_H_
