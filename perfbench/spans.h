// The benchmark's own span recorder for the traced run.
//
// A Span wraps one call into a layer's public function.  Spans nest per
// thread (a thread-local stack links each span to its parent), are kept
// in per-thread in-memory vectors while the run is live, and are only
// aggregated and written out after the run.  A span's SELF time is its
// duration minus the durations of its direct children, so nested calls
// (a merged-encoder build inside a CCQA enumeration) are attributed once.
//
// Span names are "<layer>.<call>"; the layer is the text before the dot.
// Recording is off unless Spans::Enable() was called, in which case a
// Span costs two clock reads and one vector append.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";  // static string
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t child_ns = 0;   // summed durations of direct children
  int parent = -1;        // index into the same thread's records
  int thread = 0;
  int64_t value = 0;      // optional payload (bytes, propagations)

  int64_t SelfNs() const { return end_ns - start_ns - child_ns; }
};

class Spans {
 public:
  static Spans& Get() {
    static Spans instance;
    return instance;
  }
  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  /// Every record of every thread (call only after recording threads
  /// have finished).
  std::vector<SpanRecord> All() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SpanRecord> out;
    for (const auto& t : threads_) out.insert(out.end(), t->begin(), t->end());
    return out;
  }

  struct ThreadLog {
    std::vector<SpanRecord>* records = nullptr;
    std::vector<int> stack;
    int thread = 0;
  };
  ThreadLog& Local() {
    thread_local ThreadLog log;
    if (log.records == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      threads_.push_back(std::make_unique<std::vector<SpanRecord>>());
      log.records = threads_.back().get();
      log.records->reserve(1 << 14);
      log.thread = static_cast<int>(threads_.size()) - 1;
    }
    return log;
  }

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<SpanRecord>>> threads_;
};

/// RAII span; inert when recording is disabled or `name` is null.
class Span {
 public:
  explicit Span(const char* name) {
    Spans& spans = Spans::Get();
    if (!spans.enabled() || name == nullptr) return;
    log_ = &spans.Local();
    SpanRecord r;
    r.name = name;
    r.thread = log_->thread;
    r.parent = log_->stack.empty() ? -1 : log_->stack.back();
    index_ = static_cast<int>(log_->records->size());
    log_->records->push_back(r);
    log_->stack.push_back(index_);
    (*log_->records)[index_].start_ns = NowNs();
  }
  ~Span() {
    if (log_ == nullptr) return;
    SpanRecord& r = (*log_->records)[index_];
    r.end_ns = NowNs();
    log_->stack.pop_back();
    if (r.parent >= 0) {
      (*log_->records)[r.parent].child_ns += r.end_ns - r.start_ns;
    }
  }
  void set_value(int64_t v) {
    if (log_ != nullptr) (*log_->records)[index_].value = v;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Spans::ThreadLog* log_ = nullptr;
  int index_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
