#include "src/obs/trace.h"

#include <utility>

namespace currency::obs {

std::string Trace::Format() const {
  std::string out = "trace tenant=\"" + tenant + "\" procedure=" + procedure +
                    " total_ns=" + std::to_string(DurationNs());
  for (const TraceStage& s : stages) {
    out += ' ';
    out += s.name;
    out += "=" + std::to_string(s.end_ns - s.start_ns) + "ns";
    if (s.sat_propagations != 0 || s.sat_conflicts != 0 ||
        s.chase_passes != 0) {
      out += "[sat_props=" + std::to_string(s.sat_propagations) +
             " sat_conflicts=" + std::to_string(s.sat_conflicts) +
             " chase_passes=" + std::to_string(s.chase_passes) + ']';
    }
  }
  return out;
}

Tracer::Tracer(const TraceOptions& options)
    : options_(options),
      clock_(ResolveClock(options.clock)),
      enabled_(options.enabled) {}

void Tracer::Record(Trace&& trace) {
  const bool slow = trace.DurationNs() >= options_.slow_threshold_ns;
  std::string slow_line;
  if (slow) slow_line = trace.Format();  // format outside the lock below
  std::lock_guard<std::mutex> lock(mu_);
  recorded_.fetch_add(1, std::memory_order_relaxed);
  if (options_.ring_capacity == 0) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  } else if (ring_.size() < options_.ring_capacity) {
    ring_.push_back(std::move(trace));
    trace = Trace();
  } else {
    // Swap rather than overwrite: the evicted trace leaves in `trace` and
    // is freed (or recycled) by the caller, outside this lock.
    std::swap(ring_[ring_next_], trace);
    ring_next_ = (ring_next_ + 1) % ring_.size();
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  if (slow && options_.slow_log_capacity > 0) {
    if (slow_log_.size() >= options_.slow_log_capacity) {
      slow_log_.pop_front();
    }
    slow_log_.push_back(std::move(slow_line));
  }
}

std::vector<Trace> Tracer::RecentTraces() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Trace> out;
  out.reserve(ring_.size());
  for (size_t k = 0; k < ring_.size(); ++k) {
    out.push_back(ring_[(ring_next_ + k) % ring_.size()]);
  }
  return out;
}

std::vector<std::string> Tracer::SlowLog() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<std::string>(slow_log_.begin(), slow_log_.end());
}

namespace {
/// The calling thread's open root span.  Written only by TraceSpan's
/// constructor/destructor on the owning thread.
thread_local TraceSpan* g_current_span = nullptr;
/// A stage buffer kept warm for the calling thread's next root: each root
/// takes it and hands back the buffer of the trace its recording evicted,
/// so a warm thread traces without allocating.
thread_local std::vector<TraceStage> g_spare_stages;
/// Stages a fresh buffer has room for (the serving layer opens at most
/// four per request).
constexpr size_t kInitialStages = 8;
}  // namespace

TraceSpan* TraceSpan::Current() { return g_current_span; }

TraceSpan::TraceSpan(Tracer* tracer, std::string_view tenant,
                     std::string_view procedure, Histogram* latency,
                     const Clock* clock)
    : latency_(latency),
      latency_clock_(latency != nullptr ? ResolveClock(clock) : nullptr) {
  if (tracer != nullptr && tracer->enabled() && g_current_span == nullptr) {
    tracer_ = tracer;
    trace_.tenant.assign(tenant.data(), tenant.size());
    trace_.procedure.assign(procedure.data(), procedure.size());
    trace_.stages.swap(g_spare_stages);
    trace_.stages.clear();
    trace_.stages.reserve(kInitialStages);
    trace_.start_ns = tracer_->clock().NowNanos();
    boundary_ns_ = trace_.start_ns;
    g_current_span = this;
  }
  if (latency_ != nullptr) {
    latency_start_ns_ =
        SharesClock() ? trace_.start_ns : latency_clock_->NowNanos();
  }
}

TraceSpan::~TraceSpan() {
  if (tracer_ != nullptr) {
    g_current_span = nullptr;
    trace_.end_ns = tracer_->clock().NowNanos();
  }
  if (latency_ != nullptr) {
    latency_->Observe(
        (SharesClock() ? trace_.end_ns : latency_clock_->NowNanos()) -
        latency_start_ns_);
  }
  if (tracer_ != nullptr) {
    tracer_->Record(std::move(trace_));
    g_spare_stages.swap(trace_.stages);  // the evicted trace's buffer
  }
}

TraceSpan::Stage::Stage(const char* name, const StageCounters& counters) {
  TraceSpan* root = g_current_span;
  if (root == nullptr || !root->active()) return;
  root_ = root;
  counters_ = counters;
  stage_.name = name;
  stage_.start_ns = root->boundary_ns_;
  if (counters_.sat_propagations != nullptr) {
    stage_.sat_propagations = counters_.sat_propagations->Value();
  }
  if (counters_.sat_conflicts != nullptr) {
    stage_.sat_conflicts = counters_.sat_conflicts->Value();
  }
  if (counters_.chase_passes != nullptr) {
    stage_.chase_passes = counters_.chase_passes->Value();
  }
}

TraceSpan::Stage::~Stage() {
  if (root_ == nullptr) return;
  stage_.end_ns = root_->tracer_->clock().NowNanos();
  root_->boundary_ns_ = stage_.end_ns;
  // Entry values were stashed in the delta fields; close them out.
  stage_.sat_propagations =
      counters_.sat_propagations != nullptr
          ? counters_.sat_propagations->Value() - stage_.sat_propagations
          : 0;
  stage_.sat_conflicts =
      counters_.sat_conflicts != nullptr
          ? counters_.sat_conflicts->Value() - stage_.sat_conflicts
          : 0;
  stage_.chase_passes =
      counters_.chase_passes != nullptr
          ? counters_.chase_passes->Value() - stage_.chase_passes
          : 0;
  root_->trace_.stages.push_back(stage_);
}

}  // namespace currency::obs
