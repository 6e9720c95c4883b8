// obs tracing — lightweight per-request stage timing with a bounded
// completed-trace ring and a slow-request log.
//
// A request's life in the serving layer crosses several waits that
// end-of-run totals cannot separate: admission wait (the tenant's gate),
// epoch pin, per-component solving (SAT or chase), answer merge, and —
// for mutations — WAL append + fsync.  A TraceSpan is an RAII root
// opened at the request boundary (SessionManager::WithAdmission, or a
// CurrencySession batch entry when called standalone); TraceSpan::Stage
// sub-timers mark the stages.  When the root closes, the assembled Trace
// lands in the tracer's bounded ring buffer (overwriting the oldest),
// and any trace whose total exceeds the slow threshold is additionally
// formatted into the slow-request log.
//
// Stages tile the trace: a stage reads the clock once, when it closes,
// and starts where the previous stage of the same root (or the root
// itself) ended, so time spent between two stages counts toward the
// later one.  Stages do not nest.
//
// Stage attachment is thread-local: Stage finds the enclosing root via a
// thread_local pointer, so instrumenting a call site never requires
// threading a context parameter through APIs.  Two consequences, both
// deliberate:
//   * a nested root (a session batch invoked under a manager's span) is
//     inert — the outer span owns the request's trace;
//   * stages opened on pool WORKER threads do not attach (the root lives
//     on the request thread); per-component work is therefore traced as
//     one "solve" stage on the request thread, with the parallel detail
//     visible through the registry's counters instead.
// Stages may carry counter deltas: a StageCounters set names registry
// counters whose values are snapshotted at stage entry and exit, so a
// solve stage reports how many SAT propagations/conflicts and chase
// passes it caused (approximate under concurrent batches — the counters
// are shared — exact when requests run one at a time).
//
// Cost contract.  bench_obs_overhead measures it in one process on warm
// 32-query COP batches (0.3–0.6 µs per query; RelWithDebInfo on a shared
// 4-vCPU host), and scripts/bench.sh holds both ratios below to <= 1.05:
//   * tracer disabled: a root span is two relaxed atomic loads and no
//     clock read of its own (a latency histogram handed to it reads the
//     clock twice); a stage is one thread_local load.  A session's whole
//     untraced bracket — batch counter, latency histogram, epoch pin,
//     engine counters — read 1.005–1.020x the bare engine's per-query
//     p50 over ten runs.
//   * enabled: one clock read per stage plus two for the root, which a
//     latency histogram handed to the root shares; a recycled stage
//     buffer (no allocation once warm); and a ring insertion that swaps
//     the new trace with the evicted one, freeing nothing under the
//     ring's mutex.  Traced read 1.018–1.030x untraced over the same
//     runs.  Time flows into the trace, never back into control flow, so
//     answers, enumeration order and thread-count bit-identity are
//     untouched (the equivalence suites assert it).

#ifndef CURRENCY_SRC_OBS_TRACE_H_
#define CURRENCY_SRC_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/clock.h"
#include "src/obs/metrics.h"

namespace currency::obs {

/// One timed stage inside a trace.
struct TraceStage {
  const char* name = "";  // static-duration string at the call site
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Registry-counter deltas observed over the stage (0 when the stage
  /// carried no StageCounters).
  int64_t sat_propagations = 0;
  int64_t sat_conflicts = 0;
  int64_t chase_passes = 0;
};

/// One completed request trace.
struct Trace {
  std::string tenant;
  std::string procedure;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<TraceStage> stages;

  int64_t DurationNs() const { return end_ns - start_ns; }
  /// One human-readable line: tenant, procedure, total, per-stage
  /// timings with any counter deltas.  The slow log stores these.
  std::string Format() const;
};

/// Tracer configuration, fixed at construction.
struct TraceOptions {
  /// Master switch; also toggleable at runtime via set_enabled.
  bool enabled = false;
  /// Completed traces kept; the oldest is overwritten beyond this.
  size_t ring_capacity = 256;
  /// Traces at least this long are formatted into the slow log.
  int64_t slow_threshold_ns = 100'000'000;  // 100 ms
  /// Formatted slow-request lines kept (oldest dropped beyond this).
  size_t slow_log_capacity = 64;
  /// Time source; null means MonotonicClock.
  const Clock* clock = nullptr;
};

/// Owns the ring buffer and slow log; thread-safe.  One per
/// SessionManager (or one per process, the caller's choice).
class Tracer {
 public:
  explicit Tracer(const TraceOptions& options = {});

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  const Clock& clock() const { return *clock_; }

  /// Completed traces, oldest first (at most ring_capacity).
  std::vector<Trace> RecentTraces() const;
  /// Formatted slow-request lines, oldest first.
  std::vector<std::string> SlowLog() const;
  /// Traces recorded / evicted from the ring since construction.
  int64_t recorded_traces() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  int64_t dropped_traces() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Called by ~TraceSpan; takes the trace into the ring.  On return
  /// `trace` holds the trace the ring evicted (empty while the ring is
  /// filling), whose buffers the caller may reuse.
  void Record(Trace&& trace);

 private:
  const TraceOptions options_;
  const Clock* clock_;
  std::atomic<bool> enabled_;
  std::atomic<int64_t> recorded_{0};
  std::atomic<int64_t> dropped_{0};
  mutable std::mutex mu_;
  /// Completed traces; once full (ring_capacity), ring_[ring_next_] is
  /// the oldest and the next to be overwritten.
  std::vector<Trace> ring_;
  size_t ring_next_ = 0;
  std::deque<std::string> slow_log_;
};

/// Registry counters a stage snapshots at entry and exit (all optional;
/// reads are relaxed atomic loads).
struct StageCounters {
  const Counter* sat_propagations = nullptr;
  const Counter* sat_conflicts = nullptr;
  const Counter* chase_passes = nullptr;
};

/// RAII root span; see the file comment for attachment and cost rules.
class TraceSpan {
 public:
  /// Inert when `tracer` is null, disabled, or another root is already
  /// open on this thread.  `latency` (optional) also receives the span's
  /// elapsed nanoseconds on `clock` (null: the monotonic clock), inert or
  /// not — the request's latency histogram.  When the span traces on that
  /// same clock, both share the span's two clock reads.
  TraceSpan(Tracer* tracer, std::string_view tenant,
            std::string_view procedure, Histogram* latency = nullptr,
            const Clock* clock = nullptr);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  bool active() const { return tracer_ != nullptr; }
  /// The calling thread's open root span, if any.
  static TraceSpan* Current();

  /// RAII stage timer attaching to the thread's current root (inert
  /// when there is none).  It starts at the root's last boundary and
  /// reads the clock once, at its end.
  class Stage {
   public:
    explicit Stage(const char* name, const StageCounters& counters = {});
    ~Stage();
    Stage(const Stage&) = delete;
    Stage& operator=(const Stage&) = delete;

   private:
    TraceSpan* root_ = nullptr;
    StageCounters counters_;
    TraceStage stage_;
  };

 private:
  /// True when the span traces on the latency histogram's clock, so both
  /// read the same two boundaries.
  bool SharesClock() const {
    return tracer_ != nullptr && latency_clock_ == &tracer_->clock();
  }

  Tracer* tracer_ = nullptr;  // null when inert
  Trace trace_;
  /// End of the last stage, or the root's start: where the next stage
  /// begins.
  int64_t boundary_ns_ = 0;
  Histogram* latency_ = nullptr;
  const Clock* latency_clock_ = nullptr;
  int64_t latency_start_ns_ = 0;
};

/// RAII latency recorder: observes the elapsed nanoseconds into a
/// histogram at scope exit.  Inert when either pointer is null.
class ScopedTimer {
 public:
  ScopedTimer(Histogram* histogram, const Clock* clock)
      : histogram_(histogram),
        clock_(histogram != nullptr ? ResolveClock(clock) : nullptr),
        start_ns_(clock_ != nullptr ? clock_->NowNanos() : 0) {}
  ~ScopedTimer() {
    if (histogram_ != nullptr) {
      histogram_->Observe(clock_->NowNanos() - start_ns_);
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_;
  const Clock* clock_;
  int64_t start_ns_;
};

}  // namespace currency::obs

#endif  // CURRENCY_SRC_OBS_TRACE_H_
