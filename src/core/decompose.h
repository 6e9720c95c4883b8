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
//     on an encoder covering just the components a query touches (the
//     component's own when it is one, else a merged one).
// A specification without denial constraints makes every component
// chase-eligible, so with chase routing on these already apply Theorem
// 6.1, Lemma 6.2 and Proposition 6.3 component by component.
//
// Equivalence with one monolithic encoding of the whole specification
// (tests/support/monolithic.h) and with the brute-force oracle is
// property-tested in tests/oracle_invariants_test.cc and the other
// equivalence suites, and benchmarked in bench/bench_scale_decomposition.cc.

#ifndef CURRENCY_SRC_CORE_DECOMPOSE_H_
#define CURRENCY_SRC_CORE_DECOMPOSE_H_

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
#include "src/sat/portfolio.h"

namespace currency::core {

/// A node of the coupling graph: one entity group of one instance.
struct EntityNode {
  int inst = -1;
  Value eid;
};

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

  /// The nodes of component `c`.
  const std::vector<EntityNode>& component(int c) const {
    return components_[c];
  }

  /// Component owning (inst, eid), or -1 when the entity does not occur.
  int ComponentOf(int inst, const Value& eid) const;

  /// Components owning at least one entity of instance `inst` (sorted).
  const std::vector<int>& ComponentsOfInstance(int inst) const {
    return instance_components_[inst];
  }

  /// Sorted, deduplicated union of ComponentsOfInstance over `instances`.
  std::vector<int> ComponentsOfInstances(
      const std::vector<int>& instances) const;

  /// An EntityFilter admitting exactly the nodes of the given components.
  EntityFilter FilterFor(const std::vector<int>& components) const;

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
  /// (modulo 64-bit hash collisions), which is what lets the serving
  /// layer re-use component encoders, cached results and chase fixpoints
  /// across Mutate epochs and re-encode exactly the components an edit
  /// touched.
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
  std::vector<std::vector<EntityNode>> components_;
  /// node_component_[i]: eid -> component id, per instance.
  std::vector<std::map<Value, int>> node_component_;
  std::vector<std::vector<int>> instance_components_;
  std::vector<uint64_t> fingerprints_;
  std::vector<char> chase_eligible_;
  std::vector<char> chase_enumerable_;
};

/// How a COP/DCIP probe phase answered its probes: `solves` reached a
/// SAT-routed component's solver (or its portfolio race); `settled` were
/// answered without a solve — from that solver's remembered models or
/// root-level literals (sat::Solver's "Remembered models"), or, for a COP
/// pair on an order-free attribute, from the initial order before routing.
struct ProbeTally {
  int64_t solves = 0;
  int64_t settled = 0;

  ProbeTally& operator+=(const ProbeTally& other) {
    solves += other.solves;
    settled += other.settled;
    return *this;
  }
};

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
  /// Portfolio races completed / rival solvers cancelled mid-search by a
  /// rival's (or the primary's) earlier verdict.
  obs::Counter* sat_portfolio_races = nullptr;
  obs::Counter* sat_portfolio_cancelled = nullptr;
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
/// Relation's entity-group cache, warmed by Decomposition::Build), the
/// options, the decomposition, the copy-bucket index, the chase seed and
/// the per-component filters are read-only, so the Build* methods may run
/// concurrently for any component mix.  The cache slots fill lazily under
/// concurrent callers, each with its own synchronization:
///   * encoder slot: a per-component mutex, held by WithComponentEncoder
///     for the whole call — every use of a component's solver goes
///     through it.  Learnt clauses one caller leaves behind are implied
///     by the encoding, so they change no later answer.  Clauses that are
///     not implied (CCQA and enumeration blocking clauses) go in under a
///     solver scope that is closed before the mutex is released; closing
///     deletes them with every learnt clause derived from one.
///   * merged slots: one per multi-component set a CCQA query touches,
///     created on first use and never harvested, with the same
///     mutex-plus-scope discipline.
///   * base-sat bit: an atomic tri-state (unknown / unsat / sat).  Reads
///     are lock-free; the writer re-checks under the encoder mutex, so
///     racing callers solve a component once.
///   * chase slot: write-once publication.  The fixpoint is computed under
///     a per-component mutex, stored as shared_ptr<const ComponentChase>
///     and flagged ready with a release store; readers acquire the flag
///     and read the pointer lock-free.  The shared_ptr is what lets a
///     successor engine adopt the fixpoint while readers of this one keep
///     their pointers.
///
/// Cross-engine reuse: Harvest() extracts the caches keyed by component
/// fingerprint, and a successor engine over an edited specification
/// adopts every entry whose fingerprint is unchanged.  Harvest try_locks
/// the encoder slots, so it never waits on a busy component (whose
/// encoder simply rebuilds lazily in the successor) and never takes an
/// encoder with an open scope.
class DecomposedEncoder {
 public:
  /// `use_chase_routing` answers chase-eligible components from their
  /// chase fixpoints and never builds their encoders; off, every
  /// component is SAT-routed.  `counters` (not owned; may be null)
  /// receives the engine's cache and solver work.
  static Result<std::unique_ptr<DecomposedEncoder>> Build(
      const Specification& spec, const Encoder::Options& options,
      bool use_chase_routing = false, const EngineCounters* counters = nullptr);

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

  /// Computes component `c`'s chase fixpoint without touching its cache
  /// slot.  InvalidArgument for ineligible components.
  Result<ComponentChase> BuildComponentChase(int c) const;

  /// Builds a fresh encoder for exactly component `c` (the caller owns
  /// it; the cache slot is untouched).
  Result<std::unique_ptr<Encoder>> BuildComponentEncoder(int c) const {
    return BuildComponentEncoder(c, options_.solver);
  }

  /// Same, with solver-diversification knobs overriding the shared
  /// options — the portfolio's rival builds.  The CNF is a function of
  /// the read-only inputs only, so rivals carry exactly the primary's
  /// formula.
  Result<std::unique_ptr<Encoder>> BuildComponentEncoder(
      int c, const sat::Solver::Options& solver_options) const;

  /// A fresh encoder covering exactly the union of `components` (the
  /// caller owns it; WithCcqaEncoder caches one per component set).
  Result<std::unique_ptr<Encoder>> BuildMergedEncoder(
      const std::vector<int>& components) const;

  /// The fan-out every per-component phase shares: runs `task(k)` for
  /// each index k of `components`.  Ordinary components run as concurrent
  /// tasks on `pool`; PortfolioEligible ("dominant") ones follow one at a
  /// time from the calling thread, because their races own the pool and
  /// ParallelFor regions must not nest.  A raised `cancel` (optional)
  /// skips unclaimed ordinary tasks and the dominant tail.  A null `pool`
  /// runs every task sequentially on the calling thread.
  Status ForEachComponent(const std::vector<int>& components,
                          exec::ThreadPool* pool,
                          const sat::PortfolioOptions* portfolio,
                          const std::function<Status(int k)>& task,
                          exec::CancellationToken* cancel = nullptr) const;

  /// CPS, and the base step of every other procedure: ensures every
  /// component has a cached base-satisfiability bit and returns whether
  /// all are satisfiable (Mod(S) ≠ ∅).  Unknown components are decided on
  /// `pool`, in component order — chase-routed ones from their fixpoint,
  /// the rest by a SAT solve, dominant ones by a portfolio race — with
  /// first-UNSAT cancellation; components skipped by cancellation stay
  /// unknown, which is sound because the answer is already false.
  /// Verdicts are race-independent, so the answer never depends on
  /// `portfolio`.
  Result<bool> EnsureAllSolved(
      exec::ThreadPool* pool,
      const sat::PortfolioOptions* portfolio = nullptr);

  /// The cached chase fixpoint of the chase-eligible component `c`,
  /// computed on first use.  The pointer stays valid for the engine's
  /// lifetime.  InvalidArgument for ineligible components.
  Result<const ComponentChase*> ChaseFixpoint(int c);

  /// What WithComponentEncoder hands its callback: exclusive use of the
  /// component's encoder and `race`, the verdict front of the encoder's
  /// solver.  `race` races cached diversified rival solvers when the
  /// component is PortfolioEligible for the call's (portfolio, pool), and
  /// is a pass-through to the encoder's own solver otherwise.  Verdict-only
  /// probes solve through `race`; after a real race the encoder's solver
  /// may hold no model, so anything that reads a model solves on the
  /// encoder directly.
  using EncoderFn =
      std::function<Status(Encoder* encoder, sat::Portfolio* race)>;

  /// Runs `fn` with exclusive access to component `c`'s encoder, building
  /// it first if the slot is empty (first use, or Harvest moved it to a
  /// successor).  `fn` must close every solver scope it opens.  A call
  /// that can race must come from outside any ParallelFor region on
  /// `pool` (ForEachComponent orders this).
  Status WithComponentEncoder(int c, const EncoderFn& fn,
                              const sat::PortfolioOptions* portfolio = nullptr,
                              exec::ThreadPool* pool = nullptr);

  /// CCQA's encoder access: runs `fn` with exclusive access to an encoder
  /// covering exactly `components` (sorted, as ComponentsOfInstances
  /// returns them).  One component uses its own slot, sharing the solver
  /// the base solve and COP/DCIP probes warmed; any other set uses this
  /// engine's merged slot for it, built on first use and counted in
  /// EngineCounters::merged_builds.  Same scope rule as above.
  Status WithCcqaEncoder(const std::vector<int>& components,
                         const std::function<Status(Encoder*)>& fn);

  /// What Harvest() extracts per component, for adoption by a successor.
  struct Harvested {
    std::unique_ptr<Encoder> encoder;
    std::shared_ptr<const ComponentChase> chase;
    std::optional<bool> sat;
  };

  /// Extracts the caches keyed by content fingerprint.  Safe while other
  /// callers still use this engine: busy encoder slots are skipped
  /// (try_lock) and chase fixpoints are shared, not moved.
  std::map<uint64_t, Harvested> Harvest();

  /// Adoption hooks.  The caller guarantees the fingerprint match.
  /// AdoptEncoder and AdoptChase run only before the engine is shared
  /// (no synchronization); AdoptEncoder rebinds the encoder to this
  /// engine's specification.  AdoptSat is a release store into the atomic
  /// bit and is safe at any time — recovery seeds snapshot verdicts
  /// through it.
  void AdoptEncoder(int c, std::unique_ptr<Encoder> encoder);
  void AdoptChase(int c, std::shared_ptr<const ComponentChase> chase);
  void AdoptSat(int c, bool sat);

  /// The cached base-satisfiability bit of component `c`: -1 unknown,
  /// 0 unsat, 1 sat.  Lock-free.
  int CachedSat(int c) const;

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
    std::mutex mu;  // guards `encoder`, `rivals` and their solvers
    std::unique_ptr<Encoder> encoder;
    /// Portfolio rivals over the same component, built on the first race
    /// (config k at rivals[k - 1]) and kept warm for later races.
    std::vector<std::unique_ptr<Encoder>> rivals;
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

  /// True iff `c` is raced through the portfolio ("dominant"): the
  /// options are given and enabled, the pool can actually race (> 1
  /// thread), the component is not chase-routed, and its member count
  /// reaches min_component_size.
  bool PortfolioEligible(int c, const sat::PortfolioOptions* portfolio,
                         const exec::ThreadPool* pool) const;

  /// Solves component `c`'s base encoding under its slot mutex (racing it
  /// when dominant) and caches the bit; returns the cached bit without
  /// solving when another caller got there first.
  Result<bool> SolveComponentBase(int c,
                                  const sat::PortfolioOptions* portfolio,
                                  exec::ThreadPool* pool);

  /// Bumps one of counters_'s instruments; a no-op without instruments.
  void Count(obs::Counter* EngineCounters::*counter, int64_t delta = 1) const {
    if (counters_ != nullptr) (counters_->*counter)->Increment(delta);
  }

  /// Runs `fn` on a slot's encoder (the caller holds the slot mutex) and
  /// samples the solver work it did into counters_.
  Status RunSampled(Encoder* encoder,
                    const std::function<Status(Encoder*)>& fn) const;

  const Specification* spec_ = nullptr;
  Encoder::Options options_;
  bool use_chase_routing_ = false;
  const EngineCounters* counters_ = nullptr;
  Decomposition decomposition_;
  /// Copy-bucket index shared by every component build (built once).
  CopyBucketIndex copy_index_;
  /// Chase result shared by every component build when the options ask
  /// for chase seeding (the chase runs over the whole specification).
  std::optional<ChaseResult> chase_seed_;
  /// Per-component filters (stable storage for lazily built encoders).
  std::vector<EntityFilter> filters_;
  std::unique_ptr<Slot[]> slots_;
  /// Guards the map only; each merged slot carries its own mutex.
  std::mutex merged_mu_;
  std::map<std::vector<int>, std::unique_ptr<MergedSlot>> merged_;
};

}  // namespace currency::core

#endif  // CURRENCY_SRC_CORE_DECOMPOSE_H_
