// Relation: a normal instance D of a schema R (Section 2 of the paper) —
// a finite bag-free set of tuples, stored with stable integer ids so that
// partial currency orders can refer to tuples positionally.

#ifndef CURRENCY_SRC_RELATIONAL_RELATION_H_
#define CURRENCY_SRC_RELATIONAL_RELATION_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/relational/schema.h"
#include "src/relational/tuple.h"

namespace currency {

/// Stable index of a tuple within a Relation.
using TupleId = int;

/// A normal instance of a schema: an ordered container of tuples with
/// stable TupleIds.  Duplicate tuples are allowed (the paper's instances
/// distinguish tuples by identity, not value — e.g. t1 and t2 in Fig. 1
/// have identical non-EID attributes in some gadgets).
class Relation {
 public:
  Relation() = default;
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }

  /// Appends a tuple; fails if the arity does not match the schema.
  /// Returns the new tuple's id.
  Result<TupleId> Append(Tuple tuple);

  /// Appends a tuple built from values (EID first).
  Result<TupleId> AppendValues(std::vector<Value> values) {
    return Append(Tuple(std::move(values)));
  }

  /// Overwrites one cell in place (attr 0 is the EID, so an EID edit moves
  /// the tuple between entity groups).  The tuple count and all TupleIds
  /// are stable, which is what lets partial currency orders and copy
  /// mappings keep their referents across edits — the serving layer's
  /// Mutate path relies on this.  Invalidates EntityGroups().
  Status UpdateValue(TupleId id, AttrIndex attr, Value v);

  int size() const { return static_cast<int>(tuples_.size()); }
  bool empty() const { return tuples_.empty(); }
  const Tuple& tuple(TupleId id) const { return tuples_[id]; }
  const std::vector<Tuple>& tuples() const { return tuples_; }

  /// Distinct entity ids appearing in the instance, in Value order.
  std::vector<Value> Entities() const;

  /// Tuple ids grouped by entity: eid -> sorted tuple ids.  Cached: the
  /// grouping is computed once and invalidated by Append, so hot paths
  /// (the encoder visits it several times per build, the decomposition
  /// layer once per component) pay O(1) after the first call.  The
  /// reference is invalidated by the next Append.
  const std::map<Value, std::vector<TupleId>>& EntityGroups() const;

  /// All constants occurring in the instance (the active domain).
  std::set<Value> ActiveDomain() const;

  /// Pretty table rendering for examples and debugging.
  std::string ToString() const;

 private:
  Schema schema_;
  std::vector<Tuple> tuples_;
  /// Lazily built entity grouping; shared (never mutated) so Relation
  /// stays cheaply copyable, reset on Append.
  mutable std::shared_ptr<const std::map<Value, std::vector<TupleId>>>
      entity_groups_;
};

}  // namespace currency

#endif  // CURRENCY_SRC_RELATIONAL_RELATION_H_
