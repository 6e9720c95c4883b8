// Parallel execution of independent decomposed work (coupling components,
// COP pair groups, CCQA fragment enumerations) — shared by concurrent
// callers.
//
// The decomposition layer (src/core/decompose.h) turns one specification
// into many independent sub-problems — Mod(S) ≅ Π_c Mod(S|_c) — and every
// per-component object (Encoder, sat::Solver) is confined to exactly one
// task, while the shared inputs (Specification, Decomposition with its
// node lists and CopyBucketIndex, entity-group caches) are read-only after
// DecomposedEncoder::Build.  Under that confinement discipline, parallel
// execution is a pure scheduling change: ParallelFor claims task indices
// from an atomic counter, every task writes only its own result slot, and
// callers aggregate by index — so answers, witnesses, and enumeration
// orders are bit-identical to the sequential path for every thread count.
//
// Cancellation is cooperative: a task that settles the global answer (an
// UNSAT component for CPS, a refuted pair for COP, a non-determinism
// witness for DCIP) cancels the token; unclaimed tasks are then skipped,
// tasks already running finish.  Because cancellation only ever *skips*
// work whose results the caller would not observe, it cannot perturb
// determinism.
//
// Multi-tenant sharing: ParallelFor may be invoked concurrently from
// distinct threads on one pool (the serving layer's SessionManager runs
// every tenant's batches on one shared pool).  Each invocation is an
// independent region with its own claim counter and result slots; the
// caller always drains its own region itself, so a region completes even
// when every worker is busy elsewhere — concurrent submission can starve
// no one and deadlock nothing.  Workers rotate round-robin across the
// active regions, claiming ONE task per pick, so a region with 1024 tasks
// cannot monopolize the workers against a region with one (the fairness
// half of the admission story; see serve/session_manager.h for the
// per-tenant quota half).

#ifndef CURRENCY_SRC_EXEC_THREAD_POOL_H_
#define CURRENCY_SRC_EXEC_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/result.h"
#include "src/obs/metrics.h"

namespace currency::exec {

/// A cooperative cancellation flag shared by the tasks of a parallel
/// region.  Cancel() is sticky and thread-safe; tasks poll cancelled()
/// at their next claim point.
class CancellationToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// A fixed-size thread pool with a deterministic fork-join primitive.
///
/// `num_threads` counts the calling thread: ThreadPool(n) spawns n - 1
/// workers, and ThreadPool(1) spawns none — ParallelFor then runs every
/// task inline in index order, making one-thread execution *literally*
/// the sequential path rather than merely equivalent to it.
///
/// ParallelFor is a blocking fork-join region.  Distinct threads may open
/// regions concurrently (see the file comment); a single call chain must
/// not nest regions on one pool.  Task bodies must confine their
/// mutations to per-task state; see the file comment.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Optional registry instruments; any pointer may be null.  Updated
  /// only under the pool mutex or at region boundaries, so binding adds
  /// no per-task cost.
  struct Instruments {
    obs::Counter* regions = nullptr;     // ParallelFor invocations
    obs::Counter* tasks = nullptr;       // task bodies actually run
    obs::Gauge* open_regions = nullptr;  // concurrently open regions
    obs::Gauge* busy_workers = nullptr;  // workers running a task body
  };

  /// Binds registry instruments.  Call before the pool is shared across
  /// threads (it races with ParallelFor otherwise).
  void BindInstruments(const Instruments& instruments);

  /// Runs body(task) for every task in [0, num_tasks), blocking until all
  /// claimed tasks finish.  Indices are claimed in increasing order; each
  /// body's return Status lands in a per-task slot and the lowest-indexed
  /// error (if any) is returned, so the outcome does not depend on thread
  /// interleaving.  A failing task cancels the remaining unclaimed tasks;
  /// so does `cancel` (when given) once any task cancels it.  The join
  /// establishes a happens-before edge from every task body to the
  /// caller, so per-task results may be read without further locking.
  Status ParallelFor(int num_tasks, const std::function<Status(int)>& body,
                     CancellationToken* cancel = nullptr);

 private:
  /// One fork-join region: claim counter, per-task statuses, live-task
  /// accounting.  Stack-allocated by ParallelFor; workers reach it through
  /// the active-region list under the pool mutex.
  struct Batch {
    int num_tasks = 0;
    const std::function<Status(int)>* body = nullptr;
    CancellationToken* cancel = nullptr;
    std::atomic<int> next{0};
    std::atomic<bool> failed{false};
    std::vector<Status> statuses;
    int active = 0;  // threads currently running a task; guarded by mu_

    /// True while unclaimed, still-wanted tasks remain (claims race with
    /// this check, so a true answer is a hint, not a guarantee).
    bool HasWork() const {
      if (failed.load(std::memory_order_relaxed)) return false;
      if (cancel != nullptr && cancel->cancelled()) return false;
      return next.load(std::memory_order_relaxed) < num_tasks;
    }
  };

  void WorkerLoop();
  /// Drains `batch` on the calling thread: claims and runs tasks until
  /// none remain (the caller's own region in ParallelFor).
  static void DrainBatch(Batch* batch);
  /// Claims and runs exactly one task of `batch`; returns false when no
  /// task was available (exhausted, failed, or cancelled).
  static bool RunOneTask(Batch* batch);

  int num_threads_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  /// Concurrently open regions, in submission order; guarded by mu_.
  std::vector<Batch*> batches_;
  /// Round-robin pick cursor over batches_; guarded by mu_.
  std::size_t rr_cursor_ = 0;
  bool shutdown_ = false;  // guarded by mu_
  /// Workers currently inside a task body (excludes region owners, which
  /// drain their own regions); guarded by mu_.
  int busy_workers_ = 0;
  Instruments instruments_;  // written by BindInstruments under mu_
};

}  // namespace currency::exec

#endif  // CURRENCY_SRC_EXEC_THREAD_POOL_H_
