// Order-literal SAT encoding of consistent completions.
//
// A completion chooses a total order per (instance, attribute, entity
// group).  Only denial-constraint order atoms and copy ≺-compatibility tie
// one attribute's order to another variable, so the encoding splits the
// data attributes (Specification::OrderBound):
//   * an *order-bound* attribute gets one Boolean variable per canonical
//     same-entity tuple pair (u < v): true means u ≺ v, false means
//     v ≺ u — totality and antisymmetry are built into the representation;
//   * an *order-free* attribute gets no order variables at all: its
//     completions on a group are the linear extensions of the initial
//     order, whichever way every other variable is set.
// Clauses:
//   * transitivity over every ordered triple of an entity group (bound
//     attributes),
//   * unit clauses for the initial partial orders (bound attributes),
//   * copy ≺-compatibility implications ord_src(s1,s2) → ord_tgt(t1,t2),
//   * grounded denial constraints (premise literals → conclusion literal),
//   * "is-last" selector variables L(u), used by CCQA/DCIP to project
//     models onto distinct current instances: L(u) ⇔
//     ⋀_{v≠u} ord(v,u) on a bound attribute; on a free one a unit ¬L(u)
//     per member with a successor in the initial order, plus exactly-one
//     over the maximal members (each ends some linear extension).
//
// A model fixes every order-bound order and, per free attribute and
// group, the last tuple; the consistent completions of the specification
// are exactly the models completed by, per free attribute and group, any
// linear extension of the initial order ending in that tuple (validated
// against the brute-force oracle in tests; ExtractCompletion picks one).
// So CPS = SAT, COP = entailment checks, DCIP/CCQA = projected
// enumeration — the CDCL solver plays the NP oracle of the paper's
// upper-bound proofs (Theorems 3.1, 3.4, 3.5) — and a COP pair on a free
// attribute needs no solver: when Mod(S) ≠ ∅ it is certain iff the
// initial order has it.
//
// Layout: each group's pair variables form one block in pair order, so a
// literal is arithmetic on the block base and group-local indices (Row),
// and cells are group-major, attribute-minor — the encoder keeps no maps.

#ifndef CURRENCY_SRC_CORE_ENCODER_H_
#define CURRENCY_SRC_CORE_ENCODER_H_

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/core/completion.h"
#include "src/core/specification.h"
#include "src/sat/solver.h"

namespace currency::core {

/// One entity group of one instance: a node of the coupling graph
/// (src/core/decompose.h).  A coupling component is described by its
/// node list in (instance, entity) order, which is what the encoder and
/// the component chase take.
struct EntityNode {
  int inst = -1;
  Value eid;
};

/// (instance, entity) order.
inline bool operator<(const EntityNode& a, const EntityNode& b) {
  return a.inst < b.inst || (a.inst == b.inst && a.eid < b.eid);
}

/// Copy-function mappings bucketed by entity pair: for one copy edge,
/// buckets[target_eid][source_eid] lists the mapped (target, source)
/// tuple pairs.  ≺-compatibility clauses only arise inside a bucket, so
/// encoding walks buckets instead of the |ρ|² mapping square — and an
/// encoder over a node list walks only its own target entities.
using CopyBuckets =
    std::map<Value, std::map<Value, std::vector<std::pair<TupleId, TupleId>>>>;

/// Bucket indexes for every copy edge of a specification, in
/// spec.copy_edges() order.  Decomposition::Build builds the one index an
/// engine uses, and every component's encoder and chase read it.
struct CopyBucketIndex {
  std::vector<CopyBuckets> per_edge;
  /// Per edge, each source entity's coupled target entities (those whose
  /// bucket from it Couples), in entity order.
  std::vector<std::map<Value, std::vector<Value>>> coupled_targets;

  static CopyBucketIndex Build(const Specification& spec);

  /// True iff a bucket maps from at least two distinct source tuples: only
  /// then do two of its mappings yield a ≺-compatibility clause (target
  /// tuples are always distinct), which couples its two entity groups.
  static bool Couples(const std::vector<std::pair<TupleId, TupleId>>& mapped);
};

/// The member tuples of each entity group `nodes` names, in list order
/// (pointers into the relations' group caches).  InvalidArgument unless
/// every group exists and the list is in strictly increasing (instance,
/// entity) order, as Decomposition::component gives it; Internal unless
/// the list is closed under `copy_index`'s coupling buckets (it holds
/// either both groups of each or neither), or the index is not the
/// specification's.
Result<std::vector<const std::vector<TupleId>*>> NodeMembers(
    const Specification& spec, const std::vector<EntityNode>& nodes,
    const CopyBucketIndex& copy_index);

/// Builds and owns the SAT encoding of a specification.
class Encoder {
 public:
  /// Build inputs, both required: DecomposedEncoder sets them per
  /// component.
  struct Options {
    /// The entity groups to encode: a coupling component's node list
    /// (Decomposition::component), or several merged.  Build fails unless
    /// the list passes NodeMembers.  Read only during Build, not retained.
    const std::vector<EntityNode>* nodes = nullptr;
    /// The specification's copy-bucket index (see CopyBucketIndex).  Read
    /// only during Build, not retained.
    const CopyBucketIndex* copy_index = nullptr;
  };

  /// Builds the encoding.  InvalidArgument when either option is unset;
  /// otherwise fails only on malformed specifications or node lists.  An
  /// encoding that is already unsatisfiable at level 0 builds fine (the
  /// solver simply reports UNSAT).
  static Result<std::unique_ptr<Encoder>> Build(const Specification& spec,
                                                const Options& options);

  /// The underlying solver (add clauses / solve / enumerate through it).
  sat::Solver& solver() { return *solver_; }

  /// True iff tuples u and v of instance `inst` share an entity covered by
  /// this encoder (and are distinct) and the instance has an order-bound
  /// attribute, i.e. order variables exist for them.
  bool HasPairVar(int inst, TupleId u, TupleId v) const;

  /// Literal asserting "u ≺_attr v" (requires HasPairVar(inst, u, v) and
  /// an order-bound `attr`; a free attribute has no order variables).
  sat::Lit OrdLit(int inst, AttrIndex attr, TupleId u, TupleId v) const;

  /// Selector variable "u is the most current tuple of its entity for
  /// `attr`", or -1 when u lies outside this encoder's groups.
  sat::Var IsLastVar(int inst, AttrIndex attr, TupleId u) const;

  /// The entity groups of instance `inst` this encoder covers, as (entity,
  /// member tuples) in entity order: the listed ones.
  const std::vector<std::pair<Value, std::vector<TupleId>>>& Groups(
      int inst) const {
    return active_groups_[inst];
  }

  /// A cell of the current instance: one (instance, attribute, entity)
  /// triple, with one Boolean per distinct candidate value ("the current
  /// value of this cell is values[k]" ⇔ value_vars[k]).  Distinct tuples
  /// carrying equal values collapse into one candidate, so projections on
  /// cell variables enumerate distinct current instances *by value*.
  struct Cell {
    int inst;
    AttrIndex attr;
    Value eid;
    std::vector<Value> values;
    std::vector<sat::Var> value_vars;
  };

  /// All cells.
  const std::vector<Cell>& cells() const { return cells_; }

  /// Cell-value variables of the given instances, in layout order, for
  /// projected model enumeration (pass all instances for full projection).
  std::vector<sat::Var> CellProjection(const std::vector<int>& instances) const;

  /// The literal "current value of cell (inst, attr, eid) is v".
  /// Fails if the entity or value does not occur.
  Result<sat::Lit> CellValueLit(int inst, AttrIndex attr, const Value& eid,
                                const Value& v) const;

  /// Decodes the solver's current model into current instances, one
  /// Relation per instance (valid right after a kSat Solve call).  Only
  /// the listed entities appear in the output (the relations of untouched
  /// instances may be partial or empty).
  Result<std::vector<Relation>> DecodeCurrentInstances() const;

  /// Extracts the completion from the solver's current model (valid right
  /// after a kSat Solve call).  An order-free attribute is completed on
  /// each group as the initial order's TopologicalOrder with the model's
  /// last tuple moved to the end, so the completion is consistent and its
  /// current instance is the one DecodeCurrentInstances reads.
  Completion ExtractCompletion() const;

  /// Number of order variables: same-entity pairs × order-bound
  /// attributes (for the benchmarks).
  int num_order_vars() const { return num_order_vars_; }

  /// Repoints the encoder at `spec`, which must have the instances and
  /// schemas of the specification it was built from, and the same member
  /// tuples and initial orders in this encoder's own groups — what an
  /// unchanged component fingerprint certifies.  The retained
  /// specification is read only by DecodeCurrentInstances and
  /// ExtractCompletion, which read nothing else, so an encoder a successor
  /// engine takes over (DecomposedEncoder::BuildSuccessor) stays valid
  /// after rebinding to the successor's specification.
  void RebindSpec(const Specification& spec) { spec_ = &spec; }

 private:
  Encoder() = default;

  /// Where a member tuple sits in its group's pair block.  The pair of
  /// group-local indices x < y owns the variables
  ///   pair_base + num_bound[inst] · P(x, y) + bound_slot[inst][attr],
  /// P(x, y) the rank of (x, y) among the group's pairs in (x, y) order;
  /// true means members[x] ≺ members[y] (members are in TupleId order).
  struct Row {
    int pair_base;
    int index;  ///< in the group's member list
    int size;   ///< of the group
    int group;  ///< ordinal in active_groups_[inst]
  };

  Status BuildImpl(const Specification& spec, const Options& options);
  /// Row of tuple `u` in last_tuples_[inst], or -1 when it is not ours.
  int LastRow(int inst, TupleId u) const;
  /// "members[x] ≺_attr members[y]" in a group of `size` members whose
  /// pair block starts at `pair_base` (x ≠ y).
  sat::Lit PairLit(int inst, AttrIndex attr, int pair_base, int size, int x,
                   int y) const;
  /// The cell of (inst, attr, group ordinal): cells are laid out instance-
  /// major, then group-major, then attribute-minor.
  const Cell& CellAt(int inst, size_t group, AttrIndex attr) const {
    return cells_[cell_begin_[inst] + group * (bound_slot_[inst].size() - 1) +
                  attr - 1];
  }

  const Specification* spec_ = nullptr;
  std::unique_ptr<sat::Solver> solver_;
  /// The entity groups this encoder covers, per instance, in entity order
  /// — the node list's groups.  Build and decode iterate
  /// this instead of the relations, so a component encoder costs O(its own
  /// content) rather than O(specification).
  std::vector<std::vector<std::pair<Value, std::vector<TupleId>>>>
      active_groups_;
  /// bound_slot_[inst][attr]: the attribute's offset among the instance's
  /// order-bound attributes, or -1 when it is order-free; num_bound_[inst]
  /// counts them (the stride of a pair block).
  std::vector<std::vector<int>> bound_slot_;
  std::vector<int> num_bound_;
  int num_order_vars_ = 0;
  /// last_tuples_[inst]: the member tuples of this encoder's own groups,
  /// sorted; rows_[inst][row] locates last_tuples_[inst][row] in its pair
  /// block, and is_last_var_[inst][row * arity + attr] holds its selector
  /// (-1 at attr 0).
  std::vector<std::vector<TupleId>> last_tuples_;
  std::vector<std::vector<Row>> rows_;
  std::vector<std::vector<sat::Var>> is_last_var_;
  std::vector<Cell> cells_;
  /// cell_begin_[inst]: index of the instance's first cell in cells_.
  std::vector<size_t> cell_begin_;
};

}  // namespace currency::core

#endif  // CURRENCY_SRC_CORE_ENCODER_H_
