// Specification of data currency (Section 2): a collection of temporal
// instances, denial constraints per instance, and copy functions between
// instances.  This is the central input object of all seven decision
// problems (CPS, COP, DCIP, CCQA, CPP, ECP, BCP).

#ifndef CURRENCY_SRC_CORE_SPECIFICATION_H_
#define CURRENCY_SRC_CORE_SPECIFICATION_H_

#include <map>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/constraints/denial_constraint.h"
#include "src/copy/copy_function.h"
#include "src/core/temporal_instance.h"
#include "src/query/eval.h"

namespace currency::core {

/// A copy function together with the resolved instance indices it links.
struct CopyEdge {
  int source_instance = -1;  ///< data flows FROM this instance ...
  int target_instance = -1;  ///< ... INTO this instance
  copy::CopyFunction fn;
};

/// One in-place cell overwrite of a specification's data: tuple `tuple` of
/// instance `instance` gets `new_value` at attribute `attr`.  Attribute 0
/// is the EID, so an EID edit moves the tuple between entity groups —
/// the coupling-component split/merge case of the serving layer.
struct TupleEdit {
  int instance = -1;
  TupleId tuple = -1;
  AttrIndex attr = -1;
  Value new_value;

  /// Field-wise equality (the wire round-trip tests compare edit batches
  /// with this; see src/wire/spec.h).
  bool operator==(const TupleEdit& other) const {
    return instance == other.instance && tuple == other.tuple &&
           attr == other.attr && new_value == other.new_value;
  }
  bool operator!=(const TupleEdit& other) const { return !(*this == other); }
};

/// A specification S = ({D_t,i}, {Σ_i}, {ρ_(i,j)}).  Value-semantic: copies
/// are deep, which the currency-preservation solvers rely on when building
/// extensions Se.
class Specification {
 public:
  Specification() = default;

  /// Adds an instance; relation names must be unique within S.
  Status AddInstance(TemporalInstance instance);

  /// Adds a denial constraint; its relation must already be present.
  Status AddConstraint(constraints::DenialConstraint constraint);

  /// Parses and adds a denial constraint against the named relation's
  /// schema (see constraints/parser.h for the syntax).
  Status AddConstraintText(const std::string& text);

  /// Adds a copy function; both relations must be present, the signature
  /// must resolve, and the copying condition must hold on the data.
  Status AddCopyFunction(copy::CopyFunction fn);

  int num_instances() const { return static_cast<int>(instances_.size()); }
  const TemporalInstance& instance(int i) const { return instances_[i]; }
  TemporalInstance* mutable_instance(int i) { return &instances_[i]; }

  /// Index of the instance whose relation is `name`.
  Result<int> InstanceIndex(const std::string& name) const;

  /// Constraints attached to instance `i`.
  const std::vector<constraints::DenialConstraint>& constraints_for(
      int i) const {
    return constraints_[i];
  }

  /// True iff any instance carries denial constraints (the tractability
  /// boundary of Section 6).
  bool HasDenialConstraints() const;

  /// True iff data attribute `attr` of instance `i` is *order-bound*: a
  /// denial constraint on the instance has an order atom (premise or
  /// conclusion) on it, or a copy function reads or writes it.  Otherwise
  /// it is *order-free*: no constraint or copy function ties ≺_attr to any
  /// other order, so on each entity group its completions are exactly the
  /// linear extensions of the initial order, and its possible most
  /// current tuples are that order's maximal members.  A function of the
  /// constraint texts and copy signatures only (cell edits never move it).
  bool OrderBound(int i, AttrIndex attr) const {
    return order_bound_[i][attr] != 0;
  }

  const std::vector<CopyEdge>& copy_edges() const { return copy_edges_; }
  CopyEdge* mutable_copy_edge(int i) { return &copy_edges_[i]; }

  /// Appends to the target of `copy_edge_index` a fresh tuple for entity
  /// `target_eid` whose data attributes are copied from `source_tuple`,
  /// and maps it.  Requires the edge's signature to cover all target data
  /// attributes (Section 4's extendability condition).  Returns the new
  /// tuple's id.
  Result<TupleId> AppendCopiedTuple(int copy_edge_index, TupleId source_tuple,
                                    const Value& target_eid);

  /// Applies a batch of cell edits atomically: either every edit is
  /// applied or, on any validation failure, the specification is left
  /// exactly as before (rollback) and an error is returned.  Validated
  /// invariants:
  ///   * instance / tuple / attribute ranges;
  ///   * an EID edit must not strand initial currency-order pairs
  ///     (orders only relate same-entity tuples, Section 2), so it is
  ///     rejected when the tuple participates in any initial order;
  ///   * the copying condition t[A_i] = ρ(t)[B_i] of every copy function
  ///     touching an edited instance must still hold afterwards.
  /// Tuple ids, instance indices, constraints and copy mappings are all
  /// unchanged by construction, so solver results on the edited
  /// specification are comparable to a freshly constructed one — the
  /// serving layer's Mutate path builds on this.
  Status ApplyTupleEdits(const std::vector<TupleEdit>& edits);

  /// View of the embedded normal instances as a query::Database
  /// (borrowed pointers into this specification).
  query::Database EmbeddedDatabase() const;

  /// Total size of the specification (tuples across instances).
  int64_t TotalTuples() const;

 private:
  std::vector<TemporalInstance> instances_;
  std::map<std::string, int> index_;
  std::vector<std::vector<constraints::DenialConstraint>> constraints_;
  std::vector<CopyEdge> copy_edges_;
  /// order_bound_[i][attr]: see OrderBound.  Maintained by AddInstance,
  /// AddConstraint and AddCopyFunction, the only writers of its inputs.
  std::vector<std::vector<char>> order_bound_;
};

}  // namespace currency::core

#endif  // CURRENCY_SRC_CORE_SPECIFICATION_H_
