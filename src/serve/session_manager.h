// serve::SessionManager — many named specifications (tenants) served from
// one process on one shared thread pool, with per-tenant admission
// control.
//
// Layered on CurrencySession's snapshot isolation (serve/epoch.h): each
// tenant owns an independent session, every session borrows the manager's
// pool (SessionOptions::pool), and the pool's multi-region fork-join
// (exec/thread_pool.h) interleaves concurrently running batches fairly —
// workers rotate round-robin across open regions one task at a time, so
// one tenant's 1024-component batch cannot monopolize the workers against
// another tenant's single-component check.
//
// Fairness at the execution layer cannot bound *submission*, so every
// batch additionally passes the tenant's exec::AdmissionGate: at most
// `max_active_batches` of a tenant run at once, at most
// `max_queued_batches` wait for a slot, and over-quota submission is
// rejected immediately with ResourceExhausted — turned away, never
// deadlocked (the maxConnections pattern of networked databases: a hard
// per-client cap with a small accept queue in front of shared workers).
// Capacity quotas guard registration instead: a specification exceeding
// the tenant's component-count cap never gets a session, and the tenant's
// CCQA enumeration budget clamps the session's max_current_instances.
//
// Lifecycle: Register builds the tenant's first epoch; Drop unlinks the
// tenant immediately while in-flight batches finish on the shared_ptr
// they hold (epochs pin specs, entries pin sessions — the same
// refcounting idea at both layers).
//
// Durability: every serving-state mutation — Register, Mutate, Drop —
// is a serializable Command (serve/command.h) applied through the single
// ApplyCommand choke point.  A manager created with Open(dir) addition-
// ally appends each command to a write-ahead log (src/wal) *after* it
// applies and *before* the caller sees success:
//
//   apply (validate) → append → fsync → acknowledge
//
// Apply-then-log means a REJECTED mutation is never logged (the log is
// exactly the accepted history, so replay cannot fail), and fsync-
// before-acknowledge means every acknowledged mutation survives a crash
// — a crash between apply and fsync can lose only commands whose callers
// never got an OK.  One commit mutex held across apply + append makes
// log order equal apply order, so Open(dir) after a crash rebuilds the
// exact serving state by replaying: decode each command, push it through
// the same ApplyCommand the live requests used.  Periodic warm snapshots
// (spec bytes + solved component verdicts keyed by content fingerprint)
// bound replay length and let a restart skip re-solving unchanged
// components.  Reads (query batches) are never logged.
//
// Caveat, enforced by convention not the compiler: mutating a session
// obtained from Lookup() directly bypasses the log.  Lookup is for
// inspection and queries; route every mutation through the manager.

#ifndef CURRENCY_SRC_SERVE_SESSION_MANAGER_H_
#define CURRENCY_SRC_SERVE_SESSION_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/exec/semaphore.h"
#include "src/exec/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/command.h"
#include "src/serve/session.h"
#include "src/wal/log.h"

namespace currency::serve {

/// Options fixed at manager creation.  (TenantQuotas lives in
/// serve/command.h — it rides inside the logged kRegister command.)
struct ManagerOptions {
  /// Size of the one pool every tenant shares (counts the calling
  /// thread).
  int num_threads = 1;
  /// Durable managers only: write a warm snapshot automatically after
  /// this many logged commands (0 = only on explicit Snapshot()).
  /// Snapshots bound replay length and prune covered log segments.
  int64_t snapshot_every = 0;
  /// Durable managers only: log segment rotation threshold in bytes.
  uint64_t segment_bytes = 8u << 20;
  /// Metrics registry shared by the manager, its pool, its WAL and every
  /// tenant session (labelled per tenant).  Not owned; must outlive the
  /// manager.  Null: the manager creates a private registry, reachable
  /// via registry() — the default keeps independent managers (and tests)
  /// from mixing numbers.
  obs::Registry* registry = nullptr;
  /// Request tracing configuration; the manager owns one obs::Tracer
  /// built from this.  Disabled by default — an enabled tracer records a
  /// TraceSpan per admitted batch (admission wait, epoch pin, solve with
  /// SAT/chase counter deltas) into the bounded ring, and slow requests
  /// into the slow log.  Tracing never changes answers or enumeration
  /// order; see src/obs/trace.h for the cost contract.
  obs::TraceOptions trace;
};

/// A point-in-time view of one tenant's admission state — a thin
/// snapshot over the tenant's AdmissionGate and session instruments (the
/// same numbers appear in MetricsReport() under currency_exec_admission_*
/// and currency_serve_*, labelled with the tenant name).
struct TenantStats {
  /// Batches admitted and currently running.
  int active_batches = 0;
  /// Batches blocked in the admission queue.
  int queued_batches = 0;
  /// Largest admission-queue depth ever observed (high-water mark).
  int queue_depth_high_water = 0;
  /// Batches rejected over quota (monotonic).
  int64_t rejected_batches = 0;
  /// The tenant session's counters.
  SessionStats session;
};

/// Hosts many named CurrencySessions on one shared pool; see the file
/// comment.  All methods are thread-safe.
class SessionManager {
 public:
  /// An in-memory (non-durable) manager: no log, no recovery.
  static Result<std::unique_ptr<SessionManager>> Create(
      const ManagerOptions& options = {});

  /// A durable manager rooted at log directory `dir` (created when
  /// absent).  Recovery runs before this returns: the newest warm
  /// snapshot re-registers every tenant and seeds its solved component
  /// verdicts by content fingerprint, then the remaining log records
  /// replay through ApplyCommand in log order.  A torn or corrupt log
  /// tail is truncated (those commands were never acknowledged); a
  /// record that decodes but fails to apply is an Internal error —
  /// accepted history must replay.
  static Result<std::unique_ptr<SessionManager>> Open(
      const std::string& dir, const ManagerOptions& options = {});

  /// Registers `spec` (moved in) under `tenant`, building its first
  /// epoch.  FailedPrecondition when the name is taken; ResourceExhausted when
  /// the specification exceeds quotas.max_components; InvalidArgument on
  /// an empty name, max_active_batches < 1 or any other quota < 0, before
  /// the epoch build.
  Status Register(const std::string& tenant, core::Specification spec,
                  const TenantQuotas& quotas = {});

  /// Unlinks the tenant.  In-flight batches finish normally on the
  /// session they hold; new submissions get NotFound.
  Status Drop(const std::string& tenant);

  /// The tenant's session, for direct (admission-exempt) inspection —
  /// spec(), stats(), num_components().  Batches should go through the
  /// manager's wrappers below so the tenant's quotas apply.
  Result<std::shared_ptr<CurrencySession>> Lookup(
      const std::string& tenant) const;

  /// Registered tenant names, sorted.
  std::vector<std::string> Tenants() const;

  Result<TenantStats> StatsFor(const std::string& tenant) const;

  /// The registry every layer under this manager publishes into: tenant
  /// sessions (currency_serve_*, currency_sat_*, currency_chase_*),
  /// admission gates (currency_exec_admission_*), the shared pool
  /// (currency_exec_pool_*) and the WAL (currency_wal_*).
  obs::Registry* registry() const { return registry_; }
  /// The manager's tracer; enable via ManagerOptions::trace or
  /// tracer()->set_enabled(true) at runtime.
  obs::Tracer* tracer() const { return tracer_.get(); }
  /// One coherent metrics snapshot across serve/sat/chase/wal/exec, in
  /// Prometheus text format — registry()->ExposeText() by another name.
  std::string MetricsReport() const { return registry_->ExposeText(); }

  /// Admission-controlled batch entry points: each admits the caller
  /// through the tenant's gate (blocking briefly in the bounded queue,
  /// ResourceExhausted beyond it), runs the batch on the tenant's
  /// session, and releases the slot.  Distinct tenants' batches — and up
  /// to max_active_batches of one tenant's — run concurrently on the
  /// shared pool.
  Result<bool> CpsCheck(const std::string& tenant);
  Result<std::vector<bool>> CopBatch(
      const std::string& tenant,
      const std::vector<core::CurrencyOrderQuery>& queries);
  Result<std::vector<bool>> DcipBatch(
      const std::string& tenant, const std::vector<std::string>& relations);
  Result<std::vector<CcqaResponse>> CcqaBatch(
      const std::string& tenant, const std::vector<CcqaRequest>& requests);
  /// Mutations pass admission like queries: a tenant's edit stream counts
  /// against the same in-flight budget.  On a durable manager, OK means
  /// the edit batch is applied AND fsynced to the log.  Once a log write
  /// or fsync has failed, every later Register, Mutate, Drop and Snapshot
  /// fails with FailedPrecondition before it is applied, until the
  /// directory is reopened (wal::LogWriter's fail-stop).
  Status Mutate(const std::string& tenant,
                const std::vector<core::TupleEdit>& edits);

  /// Durable managers: writes a warm snapshot of every tenant (full spec
  /// bytes + solved component verdicts) and prunes covered log segments.
  /// FailedPrecondition on an in-memory manager.
  Status Snapshot();

  /// Test seam: when set, runs after a batch is admitted (slot held) and
  /// before it executes, with the tenant name.  Lets tests hold admission
  /// slots at a barrier to observe quota enforcement deterministically.
  void SetAdmittedHookForTesting(
      std::function<void(const std::string&)> hook);

 private:
  /// One tenant: session + admission gate, pinned by in-flight batches
  /// via shared_ptr so Drop never invalidates a running batch.  The
  /// quotas are kept so snapshots can re-encode the registration.
  struct Tenant {
    Tenant(std::shared_ptr<CurrencySession> s, const TenantQuotas& q)
        : session(std::move(s)),
          quotas(q),
          gate(q.max_active_batches, q.max_queued_batches) {}
    std::shared_ptr<CurrencySession> session;
    TenantQuotas quotas;
    /// Owns the tenant's admission counters (admitted/queued/rejected,
    /// queue high-water); StatsFor reads them through the gate.
    exec::AdmissionGate gate;
    /// currency_serve_admission_wait_ns{tenant=...}; timed around every
    /// gate.Enter (two clock reads).
    obs::Histogram* admission_wait = nullptr;
  };

  explicit SessionManager(const ManagerOptions& options);

  Result<std::shared_ptr<Tenant>> Find(const std::string& tenant) const;

  /// Binds the tenant's gate and wait-time instruments to registry_,
  /// labelled {tenant=...}.  Runs before the tenant is published.
  void BindTenantInstruments(const std::string& tenant, Tenant* entry);

  /// Admission bracket shared by every wrapper: admit, hook, run, leave —
  /// wrapped in a TraceSpan root (`procedure` names it) whose first stage
  /// is the admission wait.
  template <typename Fn>
  auto WithAdmission(const std::string& tenant, const char* procedure,
                     const Fn& fn)
      -> decltype(fn(std::declval<CurrencySession&>()));

  /// THE choke point: every serving-state mutation — live, replayed or
  /// snapshot-restored — is one of these state transitions.  Pure apply:
  /// validates and mutates in-memory state, never touches the log.
  Status ApplyCommand(Command command);

  /// The durable bracket every public mutation routes through: under
  /// log_mu_, refuse when the log is broken, encode (durable managers),
  /// ApplyCommand, append + fsync, auto-snapshot when due.  Commands
  /// rejected by apply are not logged.
  Status Commit(Command command);

  /// Snapshot body; requires log_mu_ (and wal_ non-null).
  Status WriteSnapshotLocked();

  ManagerOptions options_;
  /// Owned registry when options_.registry is null.  Declared before
  /// pool_ (whose instruments live in it) and used by everything below.
  std::unique_ptr<obs::Registry> own_registry_;
  obs::Registry* registry_ = nullptr;
  std::unique_ptr<obs::Tracer> tracer_;
  exec::ThreadPool pool_;
  mutable std::mutex mu_;  // guards tenants_ and hook_
  std::map<std::string, std::shared_ptr<Tenant>> tenants_;
  std::function<void(const std::string&)> hook_;
  /// Null for in-memory managers.  log_mu_ linearizes apply+append so
  /// the log's record order IS the apply order; it nests outside mu_
  /// (Commit → ApplyCommand → Find) and the sessions' writer locks.
  std::mutex log_mu_;
  std::unique_ptr<wal::LogWriter> wal_;
  int64_t commands_since_snapshot_ = 0;  // guarded by log_mu_
};

}  // namespace currency::serve

#endif  // CURRENCY_SRC_SERVE_SESSION_MANAGER_H_
