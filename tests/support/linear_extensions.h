// Enumeration of linear extensions of a partial order restricted to a
// subset of its carrier.  A completion of a temporal instance (Section 2)
// chooses, for every (attribute, entity) pair, one linear extension of the
// initial currency order on that entity's tuples; the brute-force oracle
// and several tests enumerate them exhaustively.

#ifndef CURRENCY_TESTS_SUPPORT_LINEAR_EXTENSIONS_H_
#define CURRENCY_TESTS_SUPPORT_LINEAR_EXTENSIONS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/order/partial_order.h"

namespace currency {

/// Calls `visit` once per linear extension of `order` restricted to
/// `subset`.  The argument is the sequence least-current-first (so
/// sequence.back() is the most current element).  Enumeration stops early
/// if `visit` returns false.  Returns the number of extensions visited.
int64_t EnumerateLinearExtensions(
    const PartialOrder& order, const std::vector<int>& subset,
    const std::function<bool(const std::vector<int>&)>& visit);

/// Number of linear extensions of `order` restricted to `subset`.
/// Exponential in |subset| in the worst case; intended for small groups.
int64_t CountLinearExtensions(const PartialOrder& order,
                              const std::vector<int>& subset);

}  // namespace currency

#endif  // CURRENCY_TESTS_SUPPORT_LINEAR_EXTENSIONS_H_
