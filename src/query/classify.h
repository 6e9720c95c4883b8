// Syntactic classification of queries into the fragments the paper's
// complexity results range over (Section 3): CQ ⊆ UCQ ⊆ ∃FO+ ⊆ FO, plus
// the SP fragment ("CQ without join": selection + projection on a single
// relation) used by the tractable cases of Section 6.

#ifndef CURRENCY_SRC_QUERY_CLASSIFY_H_
#define CURRENCY_SRC_QUERY_CLASSIFY_H_

#include "src/query/ast.h"

namespace currency::query {

/// The smallest fragment of the paper's hierarchy containing a query.
enum class QueryLanguage { kCq, kUcq, kExistsFoPlus, kFo };

/// Human-readable fragment name ("CQ", "UCQ", "∃FO+", "FO").
const char* QueryLanguageToString(QueryLanguage lang);

/// Classifies `q` into the smallest fragment that syntactically contains
/// it.  CQ: atoms, =/built-ins, ∧, ∃.  UCQ: disjunctions of CQs.  ∃FO+:
/// adds ∨ anywhere (no ¬/∀).  FO: everything else.
QueryLanguage Classify(const Query& q);

/// True iff `q` is an SP query (Section 3): Q(x) = ∃e,y (R(e,x,y) ∧ ψ)
/// with ψ a conjunction of equality atoms, a single relation atom whose
/// arguments are pairwise distinct variables, and every head variable
/// drawn from the atom.
bool IsSpQuery(const Query& q);

}  // namespace currency::query

#endif  // CURRENCY_SRC_QUERY_CLASSIFY_H_
