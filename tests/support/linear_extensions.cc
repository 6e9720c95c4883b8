#include "tests/support/linear_extensions.h"

namespace currency {

namespace {

/// Backtracking enumerator: repeatedly appends any remaining element all of
/// whose remaining predecessors have been placed.
class Enumerator {
 public:
  Enumerator(const PartialOrder& order, const std::vector<int>& subset,
             const std::function<bool(const std::vector<int>&)>& visit)
      : order_(order), subset_(subset), visit_(visit) {
    used_.assign(subset.size(), false);
  }

  int64_t Run() {
    prefix_.clear();
    prefix_.reserve(subset_.size());
    stop_ = false;
    count_ = 0;
    Recurse();
    return count_;
  }

 private:
  void Recurse() {
    if (stop_) return;
    if (prefix_.size() == subset_.size()) {
      ++count_;
      if (!visit_(prefix_)) stop_ = true;
      return;
    }
    for (size_t i = 0; i < subset_.size(); ++i) {
      if (used_[i]) continue;
      int candidate = subset_[i];
      // All predecessors of `candidate` inside the subset must be placed.
      bool ready = true;
      for (size_t j = 0; j < subset_.size(); ++j) {
        if (!used_[j] && j != i && order_.Less(subset_[j], candidate)) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;
      used_[i] = true;
      prefix_.push_back(candidate);
      Recurse();
      prefix_.pop_back();
      used_[i] = false;
      if (stop_) return;
    }
  }

  const PartialOrder& order_;
  const std::vector<int>& subset_;
  const std::function<bool(const std::vector<int>&)>& visit_;
  std::vector<bool> used_;
  std::vector<int> prefix_;
  bool stop_ = false;
  int64_t count_ = 0;
};

}  // namespace

int64_t EnumerateLinearExtensions(
    const PartialOrder& order, const std::vector<int>& subset,
    const std::function<bool(const std::vector<int>&)>& visit) {
  Enumerator e(order, subset, visit);
  return e.Run();
}

int64_t CountLinearExtensions(const PartialOrder& order,
                              const std::vector<int>& subset) {
  return EnumerateLinearExtensions(order, subset,
                                   [](const std::vector<int>&) { return true; });
}

}  // namespace currency
