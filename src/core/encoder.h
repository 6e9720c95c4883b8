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
//   * optional "is-last" selector variables L(u), used by CCQA/DCIP to
//     project models onto distinct current instances: L(u) ⇔
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

#ifndef CURRENCY_SRC_CORE_ENCODER_H_
#define CURRENCY_SRC_CORE_ENCODER_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/core/completion.h"
#include "src/core/specification.h"
#include "src/sat/solver.h"

namespace currency::core {

struct ChaseResult;

/// A per-instance whitelist of entity groups.  The decomposition layer
/// (src/core/decompose.h) passes one of these per coupling-graph component
/// to carve a small per-component SAT instance out of a specification.
struct EntityFilter {
  /// allowed[i]: entities of instance i to keep.  Instances beyond the
  /// vector's size keep nothing.
  std::vector<std::set<Value>> allowed;

  bool Contains(int inst, const Value& eid) const {
    return inst >= 0 && inst < static_cast<int>(allowed.size()) &&
           allowed[inst].count(eid) > 0;
  }
};

/// Copy-function mappings bucketed by entity pair: for one copy edge,
/// buckets[target_eid][source_eid] lists the mapped (target, source)
/// tuple pairs.  ≺-compatibility clauses only arise inside a bucket, so
/// encoding walks buckets instead of the |ρ|² mapping square — and a
/// filtered encoder walks only its own target entities.
using CopyBuckets =
    std::map<Value, std::map<Value, std::vector<std::pair<TupleId, TupleId>>>>;

/// Bucket indexes for every copy edge of a specification, in
/// spec.copy_edges() order.  The decomposition layer builds this once and
/// shares it across all per-component encoder builds.
struct CopyBucketIndex {
  std::vector<CopyBuckets> per_edge;

  static CopyBucketIndex Build(const Specification& spec);
};

/// Builds and owns the SAT encoding of a specification.
class Encoder {
 public:
  struct Options {
    /// Seed the solver with the chase's certain orders as unit clauses
    /// (sound strengthening; ablation knob for bench_ablation).
    bool seed_with_chase = false;
    /// Create the is-last selector variables (needed by CCQA and DCIP).
    bool define_is_last = true;
    /// When set, encode only the listed entity groups.  The filter must be
    /// closed under copy coupling (Build fails otherwise); the pointed-to
    /// filter is copied at Build time and not retained.
    const EntityFilter* restrict_to = nullptr;
    /// Optional shared copy-bucket index (see CopyBucketIndex); when null
    /// the encoder builds its own.  Read only during Build, not retained.
    const CopyBucketIndex* copy_index = nullptr;
    /// Optional precomputed chase result for seed_with_chase; when null
    /// the encoder runs the (whole-specification) chase itself.  The
    /// decomposition layer computes it once and shares it across all
    /// component builds.  Read only during Build, not retained.
    const ChaseResult* chase_seed = nullptr;
    /// Search-diversification knobs for the underlying CDCL solver.  The
    /// defaults reproduce the undiversified search bit-for-bit; the
    /// portfolio layer (src/sat/portfolio.h) builds rival encoders over
    /// the same component with different knobs.
    sat::Solver::Options solver;
  };

  /// Builds the encoding.  Fails only on malformed specifications; an
  /// encoding that is already unsatisfiable at level 0 builds fine (the
  /// solver simply reports UNSAT).
  static Result<std::unique_ptr<Encoder>> Build(const Specification& spec,
                                                const Options& options);
  /// Builds with default options.
  static Result<std::unique_ptr<Encoder>> Build(const Specification& spec);

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
  /// `attr`", or -1 when undefined: u outside this encoder's groups, or
  /// options.define_is_last off.
  sat::Var IsLastVar(int inst, AttrIndex attr, TupleId u) const;

  /// The entity groups of instance `inst` this encoder covers, as (entity,
  /// member tuples) in entity order: every group of the instance, or only
  /// the filter's on a restricted encoder.
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

  /// All cells (requires options.define_is_last).
  const std::vector<Cell>& cells() const { return cells_; }

  /// Cell-value variables of the given instances, in layout order, for
  /// projected model enumeration (pass all instances for full projection).
  std::vector<sat::Var> CellProjection(const std::vector<int>& instances) const;

  /// The literal "current value of cell (inst, attr, eid) is v".
  /// Fails if the entity or value does not occur.
  Result<sat::Lit> CellValueLit(int inst, AttrIndex attr, const Value& eid,
                                const Value& v) const;

  /// Decodes the solver's current model into current instances, one
  /// Relation per instance (valid right after a kSat Solve call).  On a
  /// filtered encoder, only the filter's entities appear in the output
  /// (the relations of untouched instances may be partial or empty).
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

  /// Repoints the encoder at `spec`, which must have the same shape as the
  /// specification it was built from: same instances, schemas, tuple ids,
  /// and entity groups (value edits only).  The retained specification is
  /// read only by DecodeCurrentInstances/ExtractCompletion, and those
  /// consult shape, not values — so an encoder harvested across engines
  /// (DecomposedEncoder::AdoptEncoder) stays valid after rebinding to the
  /// new engine's deep-copied specification.
  void RebindSpec(const Specification& spec) { spec_ = &spec; }

 private:
  Encoder() = default;

  Status BuildImpl(const Specification& spec, const Options& options);
  /// Row of tuple `u` in last_tuples_[inst], or -1 when it is not ours.
  int LastRow(int inst, TupleId u) const;

  const Specification* spec_ = nullptr;
  std::unique_ptr<sat::Solver> solver_;
  /// Copy of options.restrict_to (when given): the encoding covers only
  /// these entity groups.
  std::optional<EntityFilter> filter_;
  /// The entity groups this encoder covers, per instance — the filter's
  /// groups, or all of them.  Build and decode iterate this instead of
  /// the relations, so a component encoder costs O(its own content)
  /// rather than O(specification).
  std::vector<std::vector<std::pair<Value, std::vector<TupleId>>>>
      active_groups_;
  /// pair_base_[inst][key(u,v)] with u < v canonical.
  std::vector<std::map<std::pair<TupleId, TupleId>, int>> pair_base_;
  /// bound_slot_[inst][attr]: the attribute's offset among the instance's
  /// order-bound attributes, or -1 when it is order-free.  Var id = base +
  /// slot; one var per order-bound attribute per pair.
  std::vector<std::vector<int>> bound_slot_;
  int num_order_vars_ = 0;
  /// last_tuples_[inst]: the member tuples of this encoder's own groups,
  /// sorted; is_last_var_[inst][row * arity + attr] holds the selector of
  /// last_tuples_[inst][row] (-1 at attr 0).
  std::vector<std::vector<TupleId>> last_tuples_;
  std::vector<std::vector<sat::Var>> is_last_var_;
  std::vector<Cell> cells_;
  /// cell_index_[inst] maps (attr, eid) -> index into cells_.
  std::vector<std::map<std::pair<AttrIndex, Value>, int>> cell_index_;
};

}  // namespace currency::core

#endif  // CURRENCY_SRC_CORE_ENCODER_H_
