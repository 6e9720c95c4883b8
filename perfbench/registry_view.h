// Reads the program's own metrics registry the way a /metrics scraper
// would: parse a Prometheus text exposition, then sum series across
// tenants and take before/after deltas over a measured phase.  Going
// through the exposition (rather than private handles) means the
// benchmark and an operator's dashboard cannot disagree.

#ifndef PERFBENCH_REGISTRY_VIEW_H_
#define PERFBENCH_REGISTRY_VIEW_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"

namespace perfbench {

class RegistrySnapshot {
 public:
  static RegistrySnapshot Take(const currency::obs::Registry& registry);

  /// Sum over every series of `name` whose labels include all of `match`.
  double Sum(const std::string& name,
             const std::map<std::string, std::string>& match = {}) const;

  /// Histogram `family`: cumulative bucket counts summed over matching
  /// series, keyed by upper bound (+Inf as infinity).
  std::map<double, double> Buckets(
      const std::string& family,
      const std::map<std::string, std::string>& match = {}) const;

 private:
  struct Series {
    std::string name;
    std::map<std::string, std::string> labels;
    double value = 0;
  };
  std::vector<Series> series_;
};

/// after − before, bucket by bucket.
std::map<double, double> BucketDelta(const std::map<double, double>& before,
                                     const std::map<double, double>& after);

/// Quantile of a cumulative-bucket histogram, linearly interpolated inside
/// the bucket that holds it (0 when empty).
double BucketQuantile(const std::map<double, double>& cumulative, double q);

/// Total observation count of a cumulative-bucket histogram.
double BucketCount(const std::map<double, double>& cumulative);

/// The highest of {0.999, 0.99, 0.95, 0.9, 0.75, 0.5} that leaves at least
/// 10 samples beyond it at sample count `n` (0.5 when none does).
double TailQuantile(double n);

}  // namespace perfbench

#endif  // PERFBENCH_REGISTRY_VIEW_H_
