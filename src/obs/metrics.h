// obs::Registry — the process's one vocabulary for numbers that describe
// the runtime: monotonic counters, gauges, and fixed-bucket latency
// histograms, each addressed by (family name, label set) and exposed as
// one coherent snapshot in Prometheus text format.
//
// Before this layer, telemetry was fragmented: SessionStats, TenantStats,
// SolverStats and the chase counters each lived in their own struct with
// their own naming and no way to export a consistent cross-layer view.
// The registry replaces none of their *data* — those structs survive as
// thin snapshot views — but it owns the canonical instruments they read,
// so serve, sat, chase, wal and exec all publish into one place.
//
// Metric naming convention (enforced by review, documented in
// docs/ARCHITECTURE.md §9):
//
//   currency_<module>_<noun>[_<unit>][_total]
//
//   * module ∈ {serve, sat, chase, wal, exec} — the layer that OWNS the
//     number, not the layer that happens to record it.
//   * counters end in `_total`; gauges and histograms do not.
//   * values carrying a unit name it: `_ns` (nanoseconds), `_bytes`.
//   * labels, not name suffixes, distinguish variants: `tenant` (which
//     session), `procedure` (cps|cop|dcip|ccqa|mutate), `routing`
//     (chase|sat).  Example: the old SessionStats naming drift between
//     `base_solves` and `chase_solves` becomes ONE family,
//     `currency_serve_component_base_solves_total{routing=...}`.
//
// Concurrency: instrument handles are resolved once (mutex-guarded map
// lookup) and then updated lock-free — Counter::Increment, Gauge::Set and
// Histogram::Observe are relaxed atomic operations, cheap enough for the
// serving hot path.  Handles are stable for the registry's lifetime;
// callers cache them (SessionCounters does exactly this).
//
// Cardinality: a family holds at most kMaxSeriesPerFamily distinct label
// sets.  Beyond the cap, every new label set coalesces into the family's
// overflow series (labels {overflow="true"}), so an unbounded tenant
// stream cannot grow the registry without bound — the standard defense
// against label-cardinality explosions.
//
// Determinism contract: nothing in this file reads a clock or branches
// on a measured value; recording a metric cannot perturb answers,
// enumeration order, or thread-count bit-identity.  (Latency recording
// *sites* read obs::Clock; see clock.h for that half of the contract.)

#ifndef CURRENCY_SRC_OBS_METRICS_H_
#define CURRENCY_SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace currency::obs {

/// A monotonically increasing count.  Lock-free updates and reads.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A value that can move both ways (queue depth, arena bytes, the
/// last-mutate reuse counts).  Lock-free.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  /// Raises the gauge to `value` if it is higher — a high-water mark.
  void UpdateMax(int64_t value) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (value > cur && !value_.compare_exchange_weak(
                              cur, value, std::memory_order_relaxed)) {
    }
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A fixed-bucket histogram: bucket upper bounds are set at creation and
/// never change, so Observe is a binary search plus one relaxed atomic
/// increment (plus sum/count bumps) — no locks, no allocation.
///
/// Bucket semantics match Prometheus: bucket i counts observations v with
/// v <= bounds[i] (and > bounds[i-1]); one implicit +Inf bucket catches
/// the rest.  Exposition emits cumulative counts.
class Histogram {
 public:
  void Observe(int64_t value);

  int64_t Count() const { return count_.load(std::memory_order_relaxed); }
  int64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<int64_t>& bounds() const { return bounds_; }
  /// Snapshot of per-bucket (non-cumulative) counts; index bounds_.size()
  /// is the +Inf bucket.
  std::vector<int64_t> BucketCounts() const;
  /// Upper bound of the bucket containing the q-quantile (0 <= q <= 1),
  /// or 0 when empty.  Observations beyond the last bound report the
  /// last bound — histograms answer "at most", not "exactly".
  int64_t ApproxQuantile(double q) const;

 private:
  friend class Registry;
  explicit Histogram(std::vector<int64_t> bounds);

  const std::vector<int64_t> bounds_;  // ascending, strictly increasing
  std::unique_ptr<std::atomic<int64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> count_{0};
};

/// The default latency bucket scheme: a 1-2-5 series from 1 µs to 10 s,
/// in nanoseconds (19 buckets + Inf).  Chosen so the serving layer's
/// microsecond warm hits and the WAL's millisecond fsyncs land in the
/// resolved middle of the range rather than its edges.
const std::vector<int64_t>& LatencyBucketsNs();

/// One label: key and value.  Label sets are small (1–3 entries here);
/// the registry canonicalizes order by key.
struct Label {
  std::string key;
  std::string value;
};
using Labels = std::vector<Label>;

/// The instrument directory; see the file comment.  Get* calls are
/// get-or-create and idempotent; returned pointers are stable until the
/// registry is destroyed and are safe to update from any thread.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// At most this many distinct label sets per family; the rest coalesce
  /// into the overflow series.
  static constexpr int kMaxSeriesPerFamily = 64;

  Counter* GetCounter(const std::string& name, const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  /// `bounds` applies only when the family is created by this call;
  /// empty means LatencyBucketsNs().
  Histogram* GetHistogram(const std::string& name, const Labels& labels = {},
                          std::vector<int64_t> bounds = {});

  /// Prometheus text exposition: families sorted by name, one # TYPE
  /// line each, series sorted by label string, histograms as cumulative
  /// _bucket{le=...} plus _sum and _count.
  std::string ExposeText() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Series {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    Kind kind = Kind::kCounter;
    std::vector<int64_t> bounds;  // histograms only
    /// Keyed by the canonical label string; values are stable heap
    /// objects so handles survive map rehashing.
    std::map<std::string, std::unique_ptr<Series>> series;
  };

  /// Returns the series for (name, labels), creating family and series
  /// as needed; on a kind mismatch returns nullptr (the public Get*
  /// wrappers then fall back to a shared dead instrument so callers
  /// never crash, and the mistake is visible in exposition by absence).
  Series* GetSeries(const std::string& name, Kind kind, const Labels& labels,
                    std::vector<int64_t> bounds);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
};

}  // namespace currency::obs

#endif  // CURRENCY_SRC_OBS_METRICS_H_
