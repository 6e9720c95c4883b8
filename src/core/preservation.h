// Currency preservation in data copying (Sections 4 and 5): CPP, ECP, BCP.
//
// A collection ρ of copy functions is currency preserving for Q w.r.t. S
// if Mod(S) ≠ ∅ and no extension ρe changes the certain current answers
// to Q.  Following Section 4, an extension may, for any copy function
// whose signature covers every data attribute of its target,
//   (a) map an existing unmapped target tuple to a value-compatible
//       source tuple (inheriting the source's currency orders), or
//   (b) import a new target tuple, copied from a source tuple, for an
//       entity already present in the target.
//
// Extension space.  We materialize the space as *extension atoms*: kind
// (a) is (edge, target tuple, source tuple); kind (b) is (edge, source
// tuple, target entity), deduplicated so a source tuple is imported at
// most once per target entity per edge (re-importing an identical tuple
// can never change a current instance).  Each atom carries a `cost`
// (default 1) so BCP budgets model the paper's bit-size accounting |ρe| ≤
// |ρ| + k: the lower-bound gadgets of Theorem 5.3 price some imports
// above the budget exactly as the paper does with (k+1)-bit constants.
//
// Complexity: CPP is Πp2-complete (data) / Πp3-complete (CQ, combined) /
// PSPACE-complete (FO) — Theorem 5.1.  ECP is O(1) for consistent inputs
// (Proposition 5.2).  BCP is Σp3-complete (data) / Σp4-complete (CQ) /
// PSPACE-complete (FO) — Theorem 5.3.  The solvers realize the upper
// bounds by DFS over the atom lattice with consistency pruning
// (inconsistency is monotone under adding imports) and the CCQA solver as
// the inner oracle; Theorem 6.4's PTIME case (SP queries, no constraints,
// fixed k) is inherited from the CCQA fast path.

#ifndef CURRENCY_SRC_CORE_PRESERVATION_H_
#define CURRENCY_SRC_CORE_PRESERVATION_H_

#include <functional>
#include <vector>

#include "src/common/result.h"
#include "src/core/ccqa.h"
#include "src/core/specification.h"

namespace currency::core {

/// One candidate extension step (see file comment for the two kinds).
struct ExtensionAtom {
  int copy_edge = -1;
  /// Kind (a) when true: map `target_tuple` to `source_tuple`.
  /// Kind (b) when false: import `source_tuple` as a new tuple of entity
  /// `target_eid`.
  bool maps_existing = false;
  TupleId target_tuple = -1;  ///< kind (a) only
  TupleId source_tuple = -1;
  Value target_eid;           ///< kind (b) only
  /// Budget charged by BCP for this import (paper: bits copied).
  int cost = 1;
};

/// Options shared by the preservation solvers.
struct PreservationOptions {
  /// Hard cap on the atom space (the DFS is 2^|atoms| in the worst case).
  int max_atoms = 24;
  /// Drop kind-(b) atoms whose imported tuple duplicates (by value) a
  /// tuple already present for that entity.  The paper's lower-bound
  /// gadgets exclude such imports with fixed "two tuples per entity"
  /// denial constraints; this option applies the same exclusion directly
  /// and keeps the gadget atom spaces enumerable.
  bool skip_duplicate_imports = false;
  /// Optional cost assignment for BCP (defaults to ExtensionAtom::cost).
  std::function<int(const ExtensionAtom&)> atom_cost;
};

/// Enumerates the extension-atom space of `spec` (see file comment).
/// `skip_duplicates` mirrors PreservationOptions::skip_duplicate_imports.
Result<std::vector<ExtensionAtom>> EnumerateExtensionAtoms(
    const Specification& spec, bool skip_duplicates = false);

/// Returns S extended by the given atoms (Se in the paper's notation).
/// Fails with FailedPrecondition on conflicting atoms (two mappings for
/// one target tuple) or value-incompatible kind-(a) atoms.
Result<Specification> ApplyExtension(const Specification& spec,
                                     const std::vector<ExtensionAtom>& atoms);

/// CPP: is ρ (the copy functions of `spec`) currency preserving for `q`?
/// False when Mod(S) = ∅ (condition (a) of the definition).
Result<bool> IsCurrencyPreserving(const Specification& spec,
                                  const query::Query& q,
                                  const PreservationOptions& options =
                                      PreservationOptions());

/// ECP: can ρ be extended to a currency-preserving collection for `q`?
/// Decidable in O(1) given consistency (Proposition 5.2): the answer is
/// exactly "Mod(S) ≠ ∅".
Result<bool> CanExtendToCurrencyPreserving(const Specification& spec,
                                           const query::Query& q);

/// Constructive companion to ECP: greedily builds a maximal consistent
/// extension, which Proposition 5.2 shows is currency preserving for
/// every query.  Returns the chosen atoms.
Result<std::vector<ExtensionAtom>> MaximalConsistentExtension(
    const Specification& spec,
    const PreservationOptions& options = PreservationOptions());

/// BCP: does some extension of total cost at most `k` make ρ currency
/// preserving for `q`?
Result<bool> HasBoundedCurrencyPreservingExtension(
    const Specification& spec, const query::Query& q, int k,
    const PreservationOptions& options = PreservationOptions());

}  // namespace currency::core

#endif  // CURRENCY_SRC_CORE_PRESERVATION_H_
