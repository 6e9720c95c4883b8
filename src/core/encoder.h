// Order-literal SAT encoding of consistent completions.
//
// A completion chooses a total order per (instance, attribute, entity
// group).  We introduce one Boolean variable per canonical same-entity
// tuple pair (u < v): true means u ≺ v, false means v ≺ u — totality and
// antisymmetry are built into the representation.  Clauses:
//   * transitivity over every ordered triple of an entity group,
//   * unit clauses for the initial partial orders,
//   * copy ≺-compatibility implications ord_src(s1,s2) → ord_tgt(t1,t2),
//   * grounded denial constraints (premise literals → conclusion literal),
//   * optional "is-last" selector variables L(u) ⇔ ⋀_{v≠u} ord(v,u), used
//     by CCQA/DCIP to project models onto distinct current instances.
//
// Models of the encoding are exactly the consistent completions of the
// specification (validated against the brute-force oracle in tests), so
// CPS = SAT, COP = entailment checks, DCIP/CCQA = projected enumeration —
// the CDCL solver plays the NP oracle of the paper's upper-bound proofs
// (Theorems 3.1, 3.4, 3.5).

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

  /// True iff tuples u and v of instance `inst` share an entity (and are
  /// distinct), i.e. an order variable exists for them.
  bool HasPairVar(int inst, TupleId u, TupleId v) const;

  /// Literal asserting "u ≺_attr v" (requires HasPairVar(inst, u, v)).
  sat::Lit OrdLit(int inst, AttrIndex attr, TupleId u, TupleId v) const;

  /// Selector variable "u is the most current tuple of its entity for
  /// `attr`" (requires options.define_is_last).
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
  /// after a kSat Solve call).
  Completion ExtractCompletion() const;

  /// Number of order variables (for the benchmarks).
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
  /// pair_var_[inst][key(u,v)] with u < v canonical.
  std::vector<std::map<std::pair<TupleId, TupleId>, int>> pair_base_;
  /// Var id = base + (attr - 1); one var per data attribute per pair.
  int num_order_vars_ = 0;
  /// is_last_var_[inst][attr][tuple]; -1 when undefined.
  std::vector<std::vector<std::vector<sat::Var>>> is_last_var_;
  std::vector<Cell> cells_;
  /// cell_index_[inst] maps (attr, eid) -> index into cells_.
  std::vector<std::map<std::pair<AttrIndex, Value>, int>> cell_index_;
};

}  // namespace currency::core

#endif  // CURRENCY_SRC_CORE_ENCODER_H_
