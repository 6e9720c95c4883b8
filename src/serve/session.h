// currency::serve — the session layer: amortized, batched, incrementally
// invalidated currency queries against one long-lived specification.
//
// Every decision procedure has one implementation in src/core, running
// on the per-component engine core::DecomposedEncoder; the one-shot APIs
// (DecideConsistency, IsCertainOrder, ...) build a transient engine per
// call.  Real serving workloads — Improve3C-style cleaning loops,
// dashboards polling currency invariants, batch auditors — look
// different: register a specification once, fire batches of
// CPS/COP/DCIP/CCQA queries, edit a few tuples, repeat.  CurrencySession
// is that workload's entry point: it keeps the engine alive across
// requests, so the work the one-shot calls redo is paid once.
//
// Amortization model:
//   * The engine build happens once per epoch (registration or Mutate),
//     not once per query.
//   * Component encoders build lazily and persist across requests; their
//     base solves are cached, so a warm CpsCheck is a cache scan with
//     zero solver calls.
//   * One exec::ThreadPool is owned by (or lent to) the session and
//     shared by every request (the one-shot APIs build a local pool of
//     their num_threads per call).
//   * Mutate(edits) snapshots the specification with the edits applied
//     and builds the successor engine over it, which re-derives the
//     coupling graph, fingerprints every component
//     (Decomposition::fingerprint) and takes over the encoder, chase
//     fixpoint and cached result of every component whose fingerprint is
//     unchanged (core::DecomposedEncoder::BuildSuccessor) — exactly the
//     components an edit touched are re-encoded and re-solved.
//
// A COP, DCIP or CCQA batch pins the current epoch and makes one call to
// the procedure's request function in src/core (CertainOrderProbes,
// DeterminismProbes, CertainAnswerProbes), the same one the one-shot
// APIs make: it validates the batch, runs the base solve in a
// "base_solve" trace stage, answers vacuously when Mod(S) = ∅, and
// otherwise probes in a "solve" stage.  CpsCheck is the base solve alone,
// in one "solve" stage.
//
// Threading: batches and Mutate may be called concurrently from any
// number of threads.  The session keeps its state in refcounted immutable
// epoch snapshots (serve/epoch.h): a batch pins the current epoch and
// runs to completion on it, while Mutate builds the next epoch off to the
// side and publishes it atomically — readers never block the writer and
// vice versa.  A batch that overlaps a Mutate answers against either the
// pre- or the post-edit snapshot (never a mix); concurrent Mutate calls
// serialize on an internal writer lock.  Within one epoch, concurrent
// batches share the per-component caches under per-component locks.
//
// Determinism contract: every batch answer equals the answer a fresh
// build over the pinned epoch's specification would give.  Two facts
// carry the argument: (1) cached solvers accumulate learnt clauses
// across requests — and across concurrent batches — which never changes
// satisfiability answers (learnt clauses are implied), and the COP/DCIP
// probes are model-independent by construction: a warm probe that a
// solver's remembered models or root literals settle (sat::Solver's
// "Remembered models", read in core::SomeCompletionSets) gets the answer
// its solve would give, because a remembered model is a model of the
// component's encoding and a root literal is implied by it; (2) the only
// clauses beyond the base encoding — CCQA's blocking clauses — are added
// under a retractable solver scope (sat::Solver::NewScope) that is closed
// before the encoder's slot lock is released.  Closing deletes every clause
// that mentions the scope literal: the blocking clauses themselves and
// every learnt clause derived from one (the scope literal is an
// assumption decision, which 1UIP analysis and minimization can neither
// resolve nor drop).  Every clause that survives is implied by the base
// encoding, so (1) applies to it.  tests/session_equivalence_test.cc
// property-checks this against fresh solves AND the brute-force oracle
// across thread counts and mutation sequences, interleaving CCQA with
// COP/DCIP probes on one shared component solver;
// tests/concurrent_session_test.cc fuzzes it under true concurrency.

#ifndef CURRENCY_SRC_SERVE_SESSION_H_
#define CURRENCY_SRC_SERVE_SESSION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/core/ccqa.h"
#include "src/core/certain_order.h"
#include "src/core/decompose.h"
#include "src/core/specification.h"
#include "src/exec/thread_pool.h"
#include "src/obs/clock.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/query/parser.h"
#include "src/serve/epoch.h"

namespace currency::serve {

/// Options fixed at session creation.
struct SessionOptions {
  /// Pool size shared by every request (counts the calling thread, like
  /// the one-shot num_threads knobs; 1 runs strictly sequentially).
  /// Ignored when `pool` is set.
  int num_threads = 1;
  /// Optional caller-owned pool shared with other sessions (the
  /// SessionManager lends every tenant one pool this way; see
  /// exec::ThreadPool's multi-region contract).  Not owned; must outlive
  /// the session.
  exec::ThreadPool* pool = nullptr;
  /// Budget forwarded to CCQA's enumeration/blocking loops.
  int64_t max_current_instances = 1'000'000;
  /// Metrics registry the session publishes its currency_* instruments
  /// into (not owned; must outlive the session).  Null: the session
  /// creates a private registry — reachable via registry() — so
  /// independent sessions never mix numbers.  The SessionManager injects
  /// its shared registry here, labelled per tenant via instance_label.
  obs::Registry* registry = nullptr;
  /// Value of the instruments' `tenant` label; empty omits the label
  /// (a standalone single-tenant session).
  std::string instance_label;
  /// Request tracer for TraceSpan roots and stage timings (not owned;
  /// must outlive the session).  Null: no tracing.  Stages recorded by
  /// the session attach to whatever root span is open on the calling
  /// thread, so a manager-owned root subsumes the session's own.
  obs::Tracer* tracer = nullptr;
  /// Time source for the batch latency histograms, read twice per batch;
  /// null means the monotonic wall clock.
  const obs::Clock* clock = nullptr;
};

/// Observability counters (monotonic unless noted).  A stats() call
/// returns a snapshot; with concurrent batches in flight the fields are
/// individually accurate but not mutually atomic.  This struct is a thin
/// view over the session's registry instruments (SessionCounters): the
/// same numbers appear in registry()->ExposeText() under the
/// currency_serve_* families, with base_solves and chase_solves unified
/// as currency_serve_component_base_solves_total{routing=sat|chase}.
struct SessionStats {
  /// Mutate calls applied successfully.
  int64_t mutations = 0;
  /// Component base solves performed (cache misses across all requests).
  int64_t base_solves = 0;
  /// Merged encoders built for CCQA requests whose query touches several
  /// components (or none): at most one per epoch and component set, since
  /// the epoch caches each one.  Single-component queries use the
  /// component's own encoder and build none.
  int64_t merged_builds = 0;
  /// Component chase fixpoints computed by consistency checks (cache
  /// misses).
  int64_t chase_solves = 0;
  /// Components of the current epoch that took over the previous epoch's
  /// encoder, chase fixpoint or result at the most recent Mutate (not
  /// monotonic).
  int64_t last_reused = 0;
  /// Components of the current epoch that the most recent Mutate
  /// invalidated — i.e. must rebuild and re-solve (not monotonic).
  int64_t last_invalidated = 0;
  /// Chase-routed components of the current epoch that took over the
  /// previous epoch's chase fixpoint at the most recent Mutate (not
  /// monotonic).
  int64_t last_chase_reused = 0;
  /// Chase-eligible components of the current epoch that took over no
  /// fixpoint at the most recent Mutate and re-chase on next use (not
  /// monotonic; 0 on a forced-SAT session).
  int64_t last_chase_rechased = 0;
};

/// CCQA batch items and results (defined with the procedure in
/// src/core/ccqa.h).
using core::CcqaRequest;
using core::CcqaResponse;

/// A long-lived session over one specification.  Create → query batches →
/// Mutate → query batches → ...; batches and Mutate may overlap freely
/// (see the file comment for the snapshot semantics).
class CurrencySession {
 public:
  /// Registers `spec` (moved in) and builds the first epoch: coupling
  /// graph, fingerprints, empty per-component cache slots.  No SAT solving
  /// happens yet — base solves are paid by the first query batch.  Rejects
  /// num_threads < 1 and max_current_instances <= 0 with InvalidArgument.
  static Result<std::unique_ptr<CurrencySession>> Create(
      core::Specification spec, const SessionOptions& options = {});

  /// Test and bench seam: Create, with every component SAT-routed — the
  /// forced-SAT reference that routed sessions are diffed against.
  static Result<std::unique_ptr<CurrencySession>> CreateForcedSatForTesting(
      core::Specification spec, const SessionOptions& options = {});

  /// The current epoch's specification.  The reference is valid until the
  /// Mutate after next at the earliest; callers that overlap Mutate
  /// should copy.
  const core::Specification& spec() const;
  SessionStats stats() const;
  /// The registry this session's instruments live in: the injected one,
  /// or the session's private registry when none was injected.
  obs::Registry* registry() const { return registry_; }
  int num_components() const;
  /// The current epoch's version: 0 at creation, +1 per successful
  /// Mutate.  Two reads bracketing a batch bound which snapshots the
  /// batch could have pinned.
  int64_t epoch_version() const;

  /// CPS: is Mod(S) non-empty?  Cold calls solve every unknown component
  /// in parallel (first-UNSAT cancellation); warm calls answer from the
  /// per-component result cache.
  Result<bool> CpsCheck();

  /// COP for a batch of currency-order queries, answered in request
  /// order.  Pairs are routed to the component owning their entity and
  /// refuted in parallel across components; pairs sharing a component
  /// probe its solver sequentially in batch order, and only the pairs its
  /// remembered models and root literals leave open reach a solve.
  Result<std::vector<bool>> CopBatch(
      const std::vector<core::CurrencyOrderQuery>& queries);

  /// DCIP for a batch of relation names, answered in request order.  Each
  /// relation's determinism is checked per owning component: chase-routed
  /// components first, stopping at the first refutation, then the
  /// SAT-routed ones of relations still open, in parallel.  A warm probe
  /// reads the component solver's remembered models and solves only the
  /// candidates those leave open.
  Result<std::vector<bool>> DcipBatch(
      const std::vector<std::string>& relations);

  /// CCQA for a batch of answer-set / certain-membership requests,
  /// answered in request order, in parallel across requests.  A SAT-routed
  /// request runs on a cached encoder of the pinned epoch, under that
  /// encoder's slot lock: the component's own encoder when its query
  /// touches one component (no build, and the base solve is already
  /// paid), otherwise the epoch's merged encoder for that component set
  /// (built once per epoch).  The blocking clauses live in a solver scope
  /// closed before the lock is released, so the encoder leaves exactly as
  /// it came in, up to implied learnt clauses (see the file comment).
  Result<std::vector<CcqaResponse>> CcqaBatch(
      const std::vector<CcqaRequest>& requests);

  /// Warm-snapshot export for the durability layer (serve/command.h):
  /// serializes the current epoch's specification into `*spec_wire`
  /// ("CSPC" wire format) and appends one (content fingerprint,
  /// base-satisfiable) pair to `*verdicts` for every component whose base
  /// solve has completed.  Both come from ONE pinned epoch, so the pair
  /// is mutually consistent even under concurrent Mutate.
  void ExportWarmState(std::string* spec_wire,
                       std::vector<std::pair<uint64_t, bool>>* verdicts) const;

  /// Recovery counterpart: seeds cached base-solve verdicts into the
  /// current epoch for every component whose content fingerprint matches
  /// an entry.  Fingerprints cover the component's full content (tuples,
  /// orders, grounded constraint texts, coupling copy buckets), so a
  /// match means the verdict is exactly what a fresh solve would return;
  /// unmatched entries are ignored.  Returns the number adopted.
  int AdoptSolvedVerdicts(
      const std::vector<std::pair<uint64_t, bool>>& verdicts);

  /// Applies `edits` to a copy of the current epoch's specification (see
  /// Specification::ApplyTupleEdits for the validated invariants), builds
  /// the successor epoch, which takes over every component whose content
  /// fingerprint is unchanged, and publishes it atomically.  On a rejected
  /// edit or a failed build nothing changes, including the caches and the
  /// published epoch.  In-flight batches finish on the epoch they pinned.
  Status Mutate(const std::vector<core::TupleEdit>& edits);

 private:
  explicit CurrencySession(const SessionOptions& options);

  /// Create's body; `chase_routing` off SAT-routes every component.
  static Result<std::unique_ptr<CurrencySession>> CreateRouted(
      core::Specification spec, const SessionOptions& options,
      bool chase_routing);

  /// The current epoch, pinned (a batch holds the pin until it returns).
  std::shared_ptr<Epoch> Pin() const;
  /// Pin() inside the calling batch's "epoch_pin" trace stage.
  std::shared_ptr<Epoch> PinStage() const;

  SessionOptions options_;
  /// Owned pool when options_.pool is null.
  std::optional<exec::ThreadPool> own_pool_;
  exec::ThreadPool* pool_ = nullptr;
  /// Owned registry when options_.registry is null.
  std::unique_ptr<obs::Registry> own_registry_;
  obs::Registry* registry_ = nullptr;
  const obs::Clock* clock_ = nullptr;
  SessionCounters counters_;
  /// Per-procedure batch instruments, resolved once at construction.
  struct ProcedureInstruments {
    obs::Counter* batches = nullptr;    // currency_serve_batches_total
    obs::Histogram* latency = nullptr;  // currency_serve_batch_latency_ns
  };
  ProcedureInstruments cps_, cop_, dcip_, ccqa_, mutate_;
  /// Guards current_ (pin = shared_ptr copy, publish = swap).
  mutable std::mutex epoch_mu_;
  std::shared_ptr<Epoch> current_;
  /// Serializes Mutate callers (one successor epoch built at a time).
  std::mutex writer_mu_;
};

}  // namespace currency::serve

#endif  // CURRENCY_SRC_SERVE_SESSION_H_
