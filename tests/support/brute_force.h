// Brute-force enumeration of consistent completions — the independent
// oracle every solver is property-tested against.
//
// A completion is a choice of linear extension per (instance, attribute,
// entity group); this module enumerates the full cross product, filters
// by IsConsistentCompletion, and exposes oracle versions of CPS, COP,
// DCIP and CCQA.  Strictly exponential — use on small specifications.

#ifndef CURRENCY_TESTS_SUPPORT_BRUTE_FORCE_H_
#define CURRENCY_TESTS_SUPPORT_BRUTE_FORCE_H_

#include <cstdint>
#include <functional>
#include <set>

#include "src/common/result.h"
#include "src/core/certain_order.h"
#include "src/core/completion.h"
#include "src/core/specification.h"
#include "src/query/eval.h"

namespace currency::core {

/// Guard rails for the oracle.
struct BruteForceOptions {
  /// Maximum number of candidate completions examined (consistent or not).
  int64_t max_candidates = 5'000'000;
};

/// Enumerates all consistent completions, calling `visit` for each; stops
/// early when `visit` returns false.  Returns the number of consistent
/// completions visited.
Result<int64_t> EnumerateConsistentCompletions(
    const Specification& spec,
    const std::function<bool(const Completion&)>& visit,
    const BruteForceOptions& options = {});

/// Oracle CPS: true iff some consistent completion exists.
Result<bool> BruteForceConsistent(const Specification& spec,
                                  const BruteForceOptions& options = {});

/// Oracle COP (vacuously true when Mod(S) = ∅).
Result<bool> BruteForceCertainOrder(const Specification& spec,
                                    const CurrencyOrderQuery& query,
                                    const BruteForceOptions& options = {});

/// Oracle DCIP for one relation (vacuously true when Mod(S) = ∅).
Result<bool> BruteForceDeterministic(const Specification& spec,
                                     const std::string& relation,
                                     const BruteForceOptions& options = {});

/// Oracle CCQA: the certain current answers, or Status::Inconsistent when
/// Mod(S) = ∅.
Result<std::set<Tuple>> BruteForceCertainAnswers(
    const Specification& spec, const query::Query& q,
    const BruteForceOptions& options = {});

}  // namespace currency::core

#endif  // CURRENCY_TESTS_SUPPORT_BRUTE_FORCE_H_
