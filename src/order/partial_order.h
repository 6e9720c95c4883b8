// PartialOrder: a strict partial order over elements {0, ..., n-1},
// maintained transitively closed.  This is the substrate for the paper's
// currency orders ≺_A: each temporal instance keeps one PartialOrder per
// data attribute over its TupleIds.
//
// The implementation stores the full reachability relation as row bitsets
// and updates it incrementally on edge insertion (O(n^2/64) per edge), so
// queries Less(u,v) are O(1).  This trades memory for the query speed the
// solvers need; instances in this problem domain are small-to-medium
// (currency reasoning happens per entity group).

#ifndef CURRENCY_SRC_ORDER_PARTIAL_ORDER_H_
#define CURRENCY_SRC_ORDER_PARTIAL_ORDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace currency {

/// A strict partial order on {0..n-1}, always transitively closed.
class PartialOrder {
 public:
  PartialOrder() = default;
  /// Creates the empty order over `n` elements.
  explicit PartialOrder(int n);

  /// Number of elements in the carrier set.
  int size() const { return n_; }

  /// True iff u ≺ v.
  bool Less(int u, int v) const {
    return (rows_[u][static_cast<size_t>(v) >> 6] >> (v & 63)) & 1u;
  }

  /// True iff u ≺ v or v ≺ u.
  bool Comparable(int u, int v) const { return Less(u, v) || Less(v, u); }

  /// Grows the carrier set to `n` elements (new elements incomparable to
  /// everything).  Shrinking is not supported and fails.
  Status Resize(int n);

  /// Inserts u ≺ v (plus all transitive consequences).
  /// Fails with FailedPrecondition if u == v or v ≺ u already holds
  /// (which would create a cycle); the order is left unchanged.
  Status Add(int u, int v);

  /// Like Add but only reports whether the edge is admissible, without
  /// allocating an error message (hot path in solvers).
  bool TryAdd(int u, int v);

  /// True iff every pair of this order also holds in `other`
  /// (i.e. this ⊆ other, the containment used by COP, Section 3).
  bool ContainedIn(const PartialOrder& other) const;

  /// True iff the two orders have exactly the same pairs.
  bool operator==(const PartialOrder& other) const;

  /// Number of ordered pairs u ≺ v.
  int64_t NumPairs() const;

  /// All ordered pairs (u, v) with u ≺ v, lexicographically, in
  /// O(n²/64 + pairs) (a word-by-word scan of the row bitsets).
  std::vector<std::pair<int, int>> Pairs() const;

  /// Elements of `subset` with no successor inside `subset` (the "sinks"
  /// of Theorem 6.1's algorithm: candidates for the most current tuple).
  std::vector<int> SinksWithin(const std::vector<int>& subset) const;

  /// True iff `subset` is totally ordered by this order.
  bool TotalOn(const std::vector<int>& subset) const;

  /// The unique maximum of `subset` under this order, or -1 if the subset
  /// is not totally ordered / empty.
  int MaxOf(const std::vector<int>& subset) const;

  /// A topological ordering of `subset` consistent with the order.
  std::vector<int> TopologicalOrder(const std::vector<int>& subset) const;

  /// Human-readable list of pairs, e.g. "{0≺2, 1≺2}".
  std::string ToString() const;

 private:
  /// Closure step for a new edge u ≺ v: connect all predecessors-or-self
  /// of u to all successors-or-self of v.
  void CloseOver(int u, int v);

  int n_ = 0;
  int words_ = 0;
  /// rows_[u] is the successor bitset of u: bit v set iff u ≺ v.
  std::vector<std::vector<uint64_t>> rows_;
};

}  // namespace currency

#endif  // CURRENCY_SRC_ORDER_PARTIAL_ORDER_H_
