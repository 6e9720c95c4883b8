// Admission control for shared-pool serving: a bounded-queue admission
// gate, a counting semaphore whose waiters are capped.
//
// The thread pool (thread_pool.h) makes *execution* fair — workers rotate
// round-robin across concurrently open regions — but fairness at the
// execution layer cannot bound how much work a caller may *submit*.  The
// serving layer's SessionManager therefore gates every tenant batch
// through an AdmissionGate: at most `max_active` batches of one tenant
// run at a time, at most `max_waiting` block waiting for a slot, and
// anything beyond that is rejected immediately with ResourceExhausted —
// over-quota submission is turned away, never deadlocked.  (This is the
// classic maxConnections / connection-quota pattern of networked
// databases: a hard per-client cap with a small accept queue in front of
// a shared worker pool.)

#ifndef CURRENCY_SRC_EXEC_SEMAPHORE_H_
#define CURRENCY_SRC_EXEC_SEMAPHORE_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "src/common/result.h"
#include "src/obs/metrics.h"

namespace currency::exec {

/// Bounded admission: at most `max_active` concurrent holders, at most
/// `max_waiting` callers blocked waiting for a slot; any caller beyond
/// both bounds is rejected immediately.  Enter/Leave bracket one admitted
/// unit of work (one tenant batch in the serving layer).
class AdmissionGate {
 public:
  /// Both bounds are clamped to >= 0; max_active == 0 rejects everything
  /// (a drained tenant).
  AdmissionGate(int max_active, int max_waiting)
      : max_active_(max_active < 0 ? 0 : max_active),
        max_waiting_(max_waiting < 0 ? 0 : max_waiting) {}

  AdmissionGate(const AdmissionGate&) = delete;
  AdmissionGate& operator=(const AdmissionGate&) = delete;

  /// Optional registry instruments the gate updates alongside its own
  /// bookkeeping; any pointer may be null.  Counter names follow the
  /// obs naming convention (currency_exec_admission_*), labelled per
  /// tenant by the caller that owns the registry.
  struct Instruments {
    obs::Counter* admitted = nullptr;       // OK returns from Enter()
    obs::Counter* queued = nullptr;         // Enter() calls that waited
    obs::Counter* rejected = nullptr;       // ResourceExhausted returns
    obs::Gauge* queue_depth = nullptr;      // current waiters
    obs::Gauge* queue_high_water = nullptr; // max waiters ever observed
  };

  /// Binds registry instruments.  Call before the gate is shared across
  /// threads (it races with Enter/Leave otherwise).
  void BindInstruments(const Instruments& instruments) {
    std::lock_guard<std::mutex> lock(mu_);
    instruments_ = instruments;
  }

  /// Admits the caller, blocking in the bounded queue when all active
  /// slots are taken.  Returns ResourceExhausted — without blocking —
  /// when the queue is full too (or max_active == 0).  Every OK return
  /// must be paired with exactly one Leave().
  Status Enter() {
    std::unique_lock<std::mutex> lock(mu_);
    if (active_ < max_active_) {
      ++active_;
      if (instruments_.admitted != nullptr) instruments_.admitted->Increment();
      return Status::OK();
    }
    if (max_active_ == 0 || waiting_ >= max_waiting_) {
      ++rejected_;
      if (instruments_.rejected != nullptr) instruments_.rejected->Increment();
      return Status::ResourceExhausted(
          "admission rejected: " + std::to_string(active_) + " active and " +
          std::to_string(waiting_) + " queued batches at the quota");
    }
    ++waiting_;
    if (waiting_ > queue_high_water_) {
      queue_high_water_ = waiting_;
      if (instruments_.queue_high_water != nullptr) {
        instruments_.queue_high_water->UpdateMax(queue_high_water_);
      }
    }
    if (instruments_.queued != nullptr) instruments_.queued->Increment();
    if (instruments_.queue_depth != nullptr) {
      instruments_.queue_depth->Set(waiting_);
    }
    cv_.wait(lock, [&] { return active_ < max_active_; });
    --waiting_;
    if (instruments_.queue_depth != nullptr) {
      instruments_.queue_depth->Set(waiting_);
    }
    ++active_;
    if (instruments_.admitted != nullptr) instruments_.admitted->Increment();
    return Status::OK();
  }

  /// Releases an admitted slot, waking one queued waiter.
  void Leave() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
    }
    cv_.notify_one();
  }

  int active() const {
    std::lock_guard<std::mutex> lock(mu_);
    return active_;
  }
  int waiting() const {
    std::lock_guard<std::mutex> lock(mu_);
    return waiting_;
  }
  /// Enter() calls turned away with ResourceExhausted since construction.
  int64_t rejected() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rejected_;
  }
  /// Largest number of simultaneously queued waiters ever observed.
  int queue_high_water() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_high_water_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  const int max_active_;
  const int max_waiting_;
  int active_ = 0;
  int waiting_ = 0;
  int queue_high_water_ = 0;
  int64_t rejected_ = 0;
  Instruments instruments_;
};

}  // namespace currency::exec

#endif  // CURRENCY_SRC_EXEC_SEMAPHORE_H_
