// Entity-component decomposition of the SAT path.
//
// Every clause the order-literal encoder emits stays inside one entity
// group or links exactly two groups through a copy function: transitivity,
// initial-order units, grounded denial constraints and is-last selectors
// are per-(instance, entity), and a copy ≺-compatibility implication
// ord_src(s1,s2) → ord_tgt(t1,t2) couples the source pair's entity group
// with the target pair's.  The *coupling graph* therefore has one node per
// (instance, entity) group and one edge per copy-coupled or (in principle)
// constraint-coupled pair of groups; its connected components are
// independent sub-specifications whose models multiply:
//
//   Mod(S) ≅ Π_c Mod(S|_c)      (c ranges over coupling components)
//
// This is the locality the paper's decision problems already have — they
// quantify over completions of *per-entity* currency orders — made
// explicit.  The DecomposedEncoder below is the one engine every decision
// procedure runs on, one-shot and served alike:
//   * CPS: S is consistent iff every component is; components are decided
//     concurrently, short-circuiting on the first UNSAT one.
//   * COP: a pair (u, v) is refuted inside the component owning u's
//     entity; other components only matter for the Mod(S) = ∅ vacuity.
//   * DCIP: determinism is checked per entity group against the group's
//     component encoder.
//   * CCQA: the distinct current instances of S are the cartesian product
//     of per-component current fragments; certain-membership checks run
//     on an encoder covering just the components a query can read (the
//     component's own when it is one, else a merged one).
// A specification without denial constraints makes every component
// chase-eligible, so routing already applies Theorem 6.1 and Lemma 6.2
// component by component, and Proposition 6.3 on every chase-enumerable
// component.
//
// Equivalence with one monolithic encoding of the whole specification
// (tests/support/monolithic.h) and with the brute-force oracle is
// property-tested in tests/oracle_invariants_test.cc and the other
// equivalence suites, and benchmarked in bench/bench_scale_decomposition.cc.

#ifndef CURRENCY_SRC_CORE_DECOMPOSE_H_
#define CURRENCY_SRC_CORE_DECOMPOSE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/common/result.h"
#include "src/core/chase.h"
#include "src/core/completion.h"
#include "src/core/encoder.h"
#include "src/core/specification.h"
#include "src/exec/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sat/solver.h"

namespace currency::core {

/// The partition of a specification's entity groups into independent
/// coupling components.  Value-semantic and immutable once built.
class Decomposition {
 public:
  /// An empty decomposition (no components); assign from Build().
  Decomposition() = default;

  /// Builds the coupling graph and its connected components.  Fails only
  /// on malformed specifications (unresolvable copy signatures).
  static Result<Decomposition> Build(const Specification& spec);

  int num_components() const { return static_cast<int>(components_.size()); }

  /// The nodes of component `c`, in (instance, entity) order: the one
  /// description of a component, from which its encoder and its chase
  /// are built.
  const std::vector<EntityNode>& component(int c) const {
    return components_[c];
  }

  /// The specification's copy mappings bucketed by entity pair, built
  /// once here; the coupling edges and fingerprints are read from it, and
  /// the engine's encoders and chases share it.
  const CopyBucketIndex& copy_index() const { return copy_index_; }

  /// Component owning (inst, eid), or -1 when the entity does not occur.
  int ComponentOf(int inst, const Value& eid) const;

  /// Components owning at least one entity of instance `inst` (sorted).
  const std::vector<int>& ComponentsOfInstance(int inst) const {
    return instance_components_[inst];
  }

  /// Sorted, deduplicated union of ComponentsOfInstance over `instances`.
  std::vector<int> ComponentsOfInstances(
      const std::vector<int>& instances) const;

  /// Content fingerprint of component `c`: a 64-bit hash over every input
  /// a per-component encoder build reads — the member tuples (ids and
  /// values), the initial currency-order pairs among them, the coupling
  /// copy buckets (≥ 2 distinct sources; single-source buckets emit no
  /// clauses and no chase derivations, see the Build comment), and the
  /// texts of exactly the denial constraints with at least one grounding
  /// on a member group (a grounding set is a function of the constraint
  /// text and the member values, which are hashed too; zero-grounding
  /// constraints contribute nothing to any path and are excluded so that
  /// adding one invalidates nothing).  The encoder also reads which
  /// attributes are order-bound (Specification::OrderBound), which is not
  /// hashed: it depends only on the constraint texts and copy signatures
  /// of the whole specification, which Mutate never edits.  Fingerprints
  /// are comparable across Decomposition rebuilds over a mutated
  /// specification: equal fingerprints mean identical encoding inputs
  /// (modulo 64-bit hash collisions), which is what lets a successor
  /// engine (DecomposedEncoder::BuildSuccessor) take over component
  /// encoders, cached results and chase fixpoints and re-encode exactly
  /// the components an edit touched.
  uint64_t fingerprint(int c) const { return fingerprints_[c]; }

  /// True iff no denial constraint has any grounding on any entity group
  /// of component `c`.  The component's sub-specification is then
  /// effectively constraint-free, so the copy-order chase decides its
  /// consistency, certain orders and determinism in PTIME (Theorem 6.1 /
  /// Lemma 6.2 applied to S|_c) and the SAT encoder need not be built.
  bool chase_eligible(int c) const { return chase_eligible_[c] != 0; }

  /// True iff `c` is chase-eligible AND consists of a single entity group
  /// touched by no coupling copy bucket.  Its data attributes are then
  /// mutually independent, so the component's current-instance fragments
  /// are the cartesian product of per-attribute certain-sink values —
  /// enumerable straight off the chase fixpoint.  (Multi-group or
  /// copy-coupled components correlate attributes across tuples and fall
  /// back to SAT model enumeration even when chase-eligible.)
  bool chase_enumerable(int c) const { return chase_enumerable_[c] != 0; }

 private:
  int num_instances_ = 0;
  CopyBucketIndex copy_index_;
  std::vector<std::vector<EntityNode>> components_;
  /// node_component_[i]: eid -> component id, per instance.
  std::vector<std::map<Value, int>> node_component_;
  std::vector<std::vector<int>> instance_components_;
  std::vector<uint64_t> fingerprints_;
  std::vector<char> chase_eligible_;
  std::vector<char> chase_enumerable_;
};

/// How a COP/DCIP probe phase answered its probes: `solves` reached a
/// SAT-routed component's solver; `settled` were answered without a
/// solve — from that solver's remembered models or root-level literals
/// (sat::Solver's "Remembered models"), or, for a COP pair on an
/// order-free attribute, from the initial order before routing.
struct ProbeTally {
  int64_t solves = 0;
  int64_t settled = 0;

  ProbeTally& operator+=(const ProbeTally& other) {
    solves += other.solves;
    settled += other.settled;
    return *this;
  }
};

/// The one probe COP and DCIP put to a SAT-routed component's solver,
/// whose formula is satisfiable: does some completion set `lit`?  The
/// solver's own record settles it when it can (SettledCompletionSets);
/// otherwise one SolveWithAssumptions({lit}) decides it.  COP asks it of
/// ¬ord(u, v), DCIP of each open is-last candidate.  Counts the probe in
/// `tally` as settled or solved.
bool SomeCompletionSets(sat::Solver* solver, sat::Lit lit, ProbeTally* tally);

/// SomeCompletionSets without the solve: what the solver's record says
/// (sat::Solver's "Remembered models") — no if `lit` is fixed false at the
/// root; yes if it is fixed true there, or was true in a remembered model
/// — counted in `tally` as settled.  nullopt, counting nothing, when only
/// a solve can tell.  A pure read of the solver, so the settle walks of
/// CertainOrderProbes and DeterminismProbes can try a component's probes
/// on the calling thread and leave its call sequence as it was.
std::optional<bool> SettledCompletionSets(const sat::Solver& solver,
                                          sat::Lit lit, ProbeTally* tally);

/// Registry instruments a DecomposedEncoder reports its cache and solver
/// work into.  A serving session hands one set per tenant, shared by all
/// of its epochs so counts accumulate across Mutate; one-shot calls hand
/// none and sample nothing.  Updates are relaxed atomics inside the
/// instruments, so concurrent callers bump them without locks.  SAT work
/// is sampled as solver-stats deltas at solve boundaries (the sat module
/// itself stays observability-free).
struct EngineCounters {
  /// Component base solves, one series per routing of
  /// currency_serve_component_base_solves_total: routing="sat" for SAT
  /// solves, routing="chase" for verdicts read off a chase fixpoint.
  obs::Counter* base_solves = nullptr;
  obs::Counter* chase_solves = nullptr;
  /// Merged CCQA encoders built: at most one per engine and
  /// multi-component set (WithCcqaEncoder).
  obs::Counter* merged_builds = nullptr;
  /// Component verdicts answered from the cached bit (no solve).
  obs::Counter* cache_hits = nullptr;
  /// Components a chase-routing engine still had to solve via SAT
  /// (constrained, hence chase-ineligible).
  obs::Counter* chase_sat_fallbacks = nullptr;
  obs::Counter* sat_propagations = nullptr;
  obs::Counter* sat_conflicts = nullptr;
  obs::Counter* sat_gc_runs = nullptr;
  /// Literals stripped from learnt clauses by recursive minimization and
  /// binary self-subsumption before attachment.
  obs::Counter* sat_minimized_literals = nullptr;
  /// TIER2 → LOCAL demotions of learnt clauses untouched across a
  /// ReduceDB cycle.
  obs::Counter* sat_demotions = nullptr;
  /// Aggregate clause-arena bytes across the cached solvers (signed
  /// deltas: GC shrinks it).
  obs::Gauge* sat_arena_bytes = nullptr;
  /// Aggregate live learnt clauses per tier across the cached solvers
  /// (currency_sat_tier_clauses{tier=core|mid|local}; signed deltas:
  /// ReduceDB shrinks them).
  obs::Gauge* sat_tier_core = nullptr;
  obs::Gauge* sat_tier_mid = nullptr;
  obs::Gauge* sat_tier_local = nullptr;
  /// Chase fixpoint work, sampled when a fixpoint is computed.
  obs::Counter* chase_passes = nullptr;
  obs::Counter* chase_edges_expanded = nullptr;
  /// COP/DCIP probes (ProbeTally): solved on SAT-routed components, and
  /// settled without a solve.
  obs::Counter* probe_solves = nullptr;
  obs::Counter* probes_settled = nullptr;
  /// What the most recent BuildSuccessor took over (gauges, not
  /// monotonic): components that took any of encoder, fixpoint or bit;
  /// the rest; fixpoints taken; and chase-eligible components left to
  /// re-chase (0 on a forced-SAT engine).
  obs::Gauge* last_reused = nullptr;
  obs::Gauge* last_invalidated = nullptr;
  obs::Gauge* last_chase_reused = nullptr;
  obs::Gauge* last_chase_rechased = nullptr;

  /// Resolves every handle in `registry` under `labels` (a tenant label,
  /// or none); every pointer is non-null afterwards.
  void Bind(obs::Registry* registry, const obs::Labels& labels);
};

/// The per-component engine behind every decision procedure, one-shot and
/// served alike: one SAT encoder per coupling component — or, for
/// chase-routed components, one chase fixpoint — built lazily and cached
/// in a thread-safe slot.  Tuple ids and instance indices remain the
/// specification's own, so callers' queries need no translation.  The
/// one-shot procedures run on a transient engine; serve::CurrencySession
/// keeps one per epoch.
///
/// Concurrency.  After Build, the specification (including each
/// Relation's entity-group cache, warmed by Decomposition::Build) and the
/// decomposition (with its node lists and copy-bucket index) are
/// read-only, so the Build* methods may run concurrently for any
/// component mix.  The cache slots fill lazily under concurrent callers,
/// each with its own synchronization:
///   * encoder slot: a per-component mutex, held by WithComponentEncoder
///     for the whole call — every use of a component's solver goes
///     through it.  Learnt clauses one caller leaves behind are implied
///     by the encoding, so they change no later answer.  Clauses that are
///     not implied (CCQA and enumeration blocking clauses) go in under a
///     solver scope that is closed before the mutex is released; closing
///     deletes them with every learnt clause derived from one.
///   * merged slots: one per multi-component set a CCQA query touches,
///     created on first use and never taken over by a successor, with
///     the same mutex-plus-scope discipline.
///   * base-sat bit: an atomic tri-state (unknown / unsat / sat).  Reads
///     are lock-free; the writer re-checks under the encoder mutex, so
///     racing callers solve a component once.
///   * chase slot: write-once publication.  The fixpoint is computed under
///     a per-component mutex, stored as shared_ptr<const ComponentChase>
///     and flagged ready with a release store; readers acquire the flag
///     and read the pointer lock-free.  The shared_ptr is what lets a
///     successor engine share the fixpoint while readers of this one keep
///     their pointers.
///
/// Cross-engine reuse.  Since Mod(S) ≅ Π_c Mod(S|_c), an edit to the
/// specification changes only the components it touches, and every other
/// component's encoder, fixpoint and verdict stay exactly what a fresh
/// build would produce.  BuildSuccessor carries them into the engine over
/// the next version of the specification, matching components by content
/// fingerprint; the predecessor stays usable by its own readers
/// throughout.
class DecomposedEncoder {
 public:
  /// `use_chase_routing` answers chase-eligible components from their
  /// chase fixpoints and never builds their encoders; off, every
  /// component is SAT-routed, which only the forced-SAT test references
  /// and CPS witnesses ask for.  `options` is ignored: the engine sets
  /// both of its fields per build.  `counters` (not owned; may be null)
  /// receives the engine's cache and solver work.
  static Result<std::unique_ptr<DecomposedEncoder>> Build(
      const Specification& spec, const Encoder::Options& options,
      bool use_chase_routing = false, const EngineCounters* counters = nullptr);

  /// The engine over `edited`, the next version of `predecessor`'s
  /// specification: it differs in tuples, initial orders or copy mappings
  /// only (ApplyTupleEdits; an extension atom), never in schemas,
  /// constraints or copy signatures, which fix the order-bound attributes
  /// an encoder's layout depends on and the fingerprint does not hash.
  /// Inherits the predecessor's routing and counters.  Once the new
  /// decomposition is built, each component whose content fingerprint a
  /// predecessor component shares takes over that component's work,
  /// reading its slots directly, and each predecessor component is taken
  /// at most once:
  ///   * the encoder, under try_lock, rebound to `edited`; a busy slot is
  ///     skipped and its encoder rebuilds lazily here;
  ///   * the chase fixpoint, shared, on a chase-routed component;
  ///   * the base-sat bit.
  /// The predecessor keeps every other cache, and all of them when the
  /// build fails.  Safe while other callers use the predecessor; `edited`
  /// must outlive the successor.  Reports the takeover in the counters'
  /// last_* gauges.
  static Result<std::unique_ptr<DecomposedEncoder>> BuildSuccessor(
      const Specification& edited, DecomposedEncoder& predecessor);

  const Specification& spec() const { return *spec_; }
  const Decomposition& decomposition() const { return decomposition_; }
  int num_components() const { return decomposition_.num_components(); }

  bool chase_routing() const { return use_chase_routing_; }
  /// True iff routing is on and component `c` is chase-eligible: callers
  /// answer `c` from ChaseFixpoint, not from its encoder.
  bool chase_routed(int c) const {
    return use_chase_routing_ && decomposition_.chase_eligible(c);
  }
  /// True iff routing is on and `c`'s current-instance fragments may be
  /// enumerated straight off the chase (Decomposition::chase_enumerable).
  bool chase_routed_enumerable(int c) const {
    return use_chase_routing_ && decomposition_.chase_enumerable(c);
  }

  /// Pass-through to Decomposition::fingerprint.
  uint64_t component_fingerprint(int c) const {
    return decomposition_.fingerprint(c);
  }

  /// Computes component `c`'s chase fixpoint from its node list without
  /// touching its cache slot.  InvalidArgument for ineligible components.
  Result<ComponentChase> BuildComponentChase(int c) const;

  /// Builds a fresh encoder for exactly component `c`'s node list (the
  /// caller owns it; the cache slot is untouched).
  Result<std::unique_ptr<Encoder>> BuildComponentEncoder(int c) const;

  /// A fresh encoder covering exactly the union of the distinct
  /// `components`, their node lists merged in (instance, entity) order
  /// (the caller owns it; WithCcqaEncoder caches one per component set).
  Result<std::unique_ptr<Encoder>> BuildMergedEncoder(
      const std::vector<int>& components) const;

  /// CPS, and the base step of every other procedure: ensures every
  /// component has a cached base-satisfiability bit and returns whether
  /// all are satisfiable (Mod(S) ≠ ∅).  Unknown components are decided as
  /// concurrent tasks on `pool` (not null), in component order —
  /// chase-routed ones from their fixpoint, the rest by a SAT solve — with
  /// first-UNSAT cancellation; components skipped by cancellation stay
  /// unknown, which is sound because the answer is already false.
  Result<bool> EnsureAllSolved(exec::ThreadPool* pool);

  /// The cached chase fixpoint of the chase-eligible component `c`,
  /// computed on first use.  The pointer stays valid for the engine's
  /// lifetime.  InvalidArgument for ineligible components.
  Result<const ComponentChase*> ChaseFixpoint(int c);

  /// What the encoder-access methods hand their callback: exclusive use
  /// of one cached encoder and its solver.
  using EncoderFn = std::function<Status(Encoder* encoder)>;

  /// Runs `fn` with exclusive access to component `c`'s encoder, building
  /// it first if the slot is empty (first use, or a successor took it).
  /// `fn` must close every solver scope it opens.
  Status WithComponentEncoder(int c, const EncoderFn& fn);

  /// CCQA's encoder access: runs `fn` with exclusive access to an encoder
  /// covering exactly `components` (sorted and deduplicated).  One
  /// component uses its own slot, sharing the solver the base solve and
  /// COP/DCIP probes warmed; any other set uses this engine's merged slot
  /// for it, built on first use and counted in
  /// EngineCounters::merged_builds.  Same scope rule as above.
  Status WithCcqaEncoder(const std::vector<int>& components,
                         const EncoderFn& fn);

  /// Seeds component `c`'s base-satisfiability bit: a release store into
  /// the atomic bit, safe at any time (recovery seeds snapshot verdicts
  /// through it).  The caller guarantees the verdict is `c`'s.
  void AdoptSat(int c, bool sat);

  /// The cached base-satisfiability bit of component `c`: -1 unknown,
  /// 0 unsat, 1 sat.  Lock-free.
  int CachedSat(int c) const;

  /// The settle walk of CertainOrderProbes and DeterminismProbes.
  /// `probe(k, walk)` -> Result<bool> is a COP or DCIP probe phase's work
  /// on its k-th component of `components`, in batch order; a `walk` calls
  /// no solver and returns false at the first probe the solver's record
  /// cannot settle, leaving partial results behind.  On the calling
  /// thread, in order, walks each chase-routed component, and each
  /// SAT-routed one when there are two or more (a lone one would run
  /// inline anyway).  A component the walk leaves open calls `drop(k)` to
  /// discard its partial results and tally; it and every unwalked one go
  /// to `pool` as tasks that call probe(k, false).  The walk changes no
  /// solver state, so every call sequence and count is the one the pool
  /// alone would give.  The callables are template parameters: the COP
  /// and DCIP probe closures outgrow std::function's small buffer, which
  /// would heap-allocate on every phase.
  template <typename Probe, typename Drop>
  Status SettleWalk(const std::vector<int>& components, const Probe& probe,
                    const Drop& drop, exec::ThreadPool* pool) {
    const int sat_routed = static_cast<int>(std::count_if(
        components.begin(), components.end(),
        [&](int c) { return !chase_routed(c); }));
    std::vector<int> deferred;
    for (size_t k = 0; k < components.size(); ++k) {
      const int task = static_cast<int>(k);
      if (chase_routed(components[k]) || sat_routed >= 2) {
        ASSIGN_OR_RETURN(bool complete, probe(task, /*walk=*/true));
        if (complete) continue;
        drop(task);
      }
      deferred.push_back(task);
    }
    return pool->ParallelFor(static_cast<int>(deferred.size()),
                             [&](int j) -> Status {
                               return probe(deferred[j], /*walk=*/false)
                                   .status();
                             });
  }

  /// The counters a request's trace stages snapshot for their deltas
  /// (SAT propagations and conflicts, chase passes); none without
  /// counters.
  obs::StageCounters stage_counters() const {
    if (counters_ == nullptr) return {};
    return {counters_->sat_propagations, counters_->sat_conflicts,
            counters_->chase_passes};
  }

  /// Adds a probe phase's tally to EngineCounters::probe_solves and
  /// probes_settled; a no-op without counters.
  void CountProbes(const ProbeTally& tally) const {
    if (tally.solves != 0) Count(&EngineCounters::probe_solves, tally.solves);
    if (tally.settled != 0) {
      Count(&EngineCounters::probes_settled, tally.settled);
    }
  }

 private:
  /// One component's cache slot; see the class comment for the roles.
  struct Slot {
    std::mutex mu;  // guards `encoder` and its solver
    std::unique_ptr<Encoder> encoder;
    /// -1 unknown, 0 unsat, 1 sat.
    std::atomic<int> sat{-1};
    std::mutex chase_mu;  // serializes the one-time fixpoint compute
    std::shared_ptr<const ComponentChase> chase;
    /// Release-published after `chase` is set; never cleared.
    std::atomic<bool> chase_ready{false};
  };

  /// A CCQA encoder over a multi-component (or empty) component set.
  struct MergedSlot {
    std::mutex mu;  // guards `encoder` and its solver
    std::unique_ptr<Encoder> encoder;
  };

  DecomposedEncoder() = default;

  /// Solves component `c`'s base encoding under its slot mutex and caches
  /// the bit; returns the cached bit without solving when another caller
  /// got there first.
  Result<bool> SolveComponentBase(int c);

  /// Bumps one of counters_'s instruments; a no-op without instruments.
  void Count(obs::Counter* EngineCounters::*counter, int64_t delta = 1) const {
    if (counters_ != nullptr) (counters_->*counter)->Increment(delta);
  }

  /// Runs `fn` on a slot's encoder (the caller holds the slot mutex) and
  /// samples the solver work it did into counters_.
  Status RunSampled(Encoder* encoder, const EncoderFn& fn) const;

  const Specification* spec_ = nullptr;
  bool use_chase_routing_ = false;
  const EngineCounters* counters_ = nullptr;
  Decomposition decomposition_;
  std::unique_ptr<Slot[]> slots_;
  /// Guards the map only; each merged slot carries its own mutex.
  std::mutex merged_mu_;
  std::map<std::vector<int>, std::unique_ptr<MergedSlot>> merged_;
};

}  // namespace currency::core

#endif  // CURRENCY_SRC_CORE_DECOMPOSE_H_
