#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>

namespace currency::obs {

namespace {

/// Canonical form of a label set: sorted by key, serialized as
/// k1="v1",k2="v2" with Prometheus escaping (backslash, quote, newline).
/// Doubles as the series map key and the exposition body.
std::string CanonicalLabelString(const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end(),
            [](const Label& a, const Label& b) { return a.key < b.key; });
  std::string out;
  for (const Label& l : sorted) {
    if (!out.empty()) out += ',';
    out += l.key;
    out += "=\"";
    for (char c : l.value) {
      switch (c) {
        case '\\':
          out += "\\\\";
          break;
        case '"':
          out += "\\\"";
          break;
        case '\n':
          out += "\\n";
          break;
        default:
          out += c;
      }
    }
    out += '"';
  }
  return out;
}

const Labels& OverflowLabels() {
  static const Labels labels = {{"overflow", "true"}};
  return labels;
}

}  // namespace

Histogram::Histogram(std::vector<int64_t> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<int64_t>[bounds_.size() + 1]) {
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Observe(int64_t value) {
  size_t i = std::lower_bound(bounds_.begin(), bounds_.end(), value) -
             bounds_.begin();  // first bound >= value ⇒ v <= bounds[i]
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<int64_t> Histogram::BucketCounts() const {
  std::vector<int64_t> out(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

int64_t Histogram::ApproxQuantile(double q) const {
  std::vector<int64_t> counts = BucketCounts();
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  if (total == 0) return 0;
  // Nearest-rank: the smallest rank r with r >= q * total, clamped to
  // [1, total] so q=0 and q=1 both stay in range.
  int64_t rank = static_cast<int64_t>(
      std::ceil(q * static_cast<double>(total)));
  rank = std::max<int64_t>(1, std::min(rank, total));
  int64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= rank) {
      return i < bounds_.size() ? bounds_[i] : bounds_.back();
    }
  }
  return bounds_.empty() ? 0 : bounds_.back();
}

const std::vector<int64_t>& LatencyBucketsNs() {
  static const std::vector<int64_t> buckets = [] {
    std::vector<int64_t> b;
    // 1-2-5 per decade, 1 µs .. 10 s.
    for (int64_t decade = 1'000; decade <= 1'000'000'000; decade *= 10) {
      b.push_back(decade);
      b.push_back(2 * decade);
      b.push_back(5 * decade);
    }
    b.push_back(10'000'000'000);
    return b;
  }();
  return buckets;
}

Registry::Series* Registry::GetSeries(const std::string& name, Kind kind,
                                      const Labels& labels,
                                      std::vector<int64_t> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [fit, created] = families_.try_emplace(name);
  Family& family = fit->second;
  if (created) {
    family.kind = kind;
    if (kind == Kind::kHistogram) {
      family.bounds = bounds.empty() ? LatencyBucketsNs() : std::move(bounds);
    }
  } else if (family.kind != kind) {
    return nullptr;  // kind mismatch: the caller gets the dead instrument
  }
  std::string key = CanonicalLabelString(labels);
  auto sit = family.series.find(key);
  if (sit == family.series.end()) {
    if (static_cast<int>(family.series.size()) >= kMaxSeriesPerFamily) {
      // Cardinality cap: coalesce into the overflow series (creating it
      // once; it does not count against the cap a second time).
      key = CanonicalLabelString(OverflowLabels());
      sit = family.series.find(key);
    }
    if (sit == family.series.end()) {
      auto series = std::make_unique<Series>();
      switch (kind) {
        case Kind::kCounter:
          series->counter = std::make_unique<Counter>();
          break;
        case Kind::kGauge:
          series->gauge = std::make_unique<Gauge>();
          break;
        case Kind::kHistogram:
          series->histogram.reset(new Histogram(family.bounds));
          break;
      }
      sit = family.series.emplace(std::move(key), std::move(series)).first;
    }
  }
  return sit->second.get();
}

Counter* Registry::GetCounter(const std::string& name, const Labels& labels) {
  Series* s = GetSeries(name, Kind::kCounter, labels, {});
  if (s != nullptr) return s->counter.get();
  static Counter* dead = new Counter();  // kind-mismatch sink, never exposed
  return dead;
}

Gauge* Registry::GetGauge(const std::string& name, const Labels& labels) {
  Series* s = GetSeries(name, Kind::kGauge, labels, {});
  if (s != nullptr) return s->gauge.get();
  static Gauge* dead = new Gauge();
  return dead;
}

Histogram* Registry::GetHistogram(const std::string& name, const Labels& labels,
                                  std::vector<int64_t> bounds) {
  Series* s = GetSeries(name, Kind::kHistogram, labels, std::move(bounds));
  if (s != nullptr) return s->histogram.get();
  static Histogram* dead = new Histogram(LatencyBucketsNs());
  return dead;
}

std::string Registry::ExposeText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, family] : families_) {
    out += "# TYPE " + name + ' ';
    switch (family.kind) {
      case Kind::kCounter:
        out += "counter\n";
        break;
      case Kind::kGauge:
        out += "gauge\n";
        break;
      case Kind::kHistogram:
        out += "histogram\n";
        break;
    }
    for (const auto& [label_string, series] : family.series) {
      if (family.kind == Kind::kHistogram) {
        const Histogram& h = *series->histogram;
        std::vector<int64_t> counts = h.BucketCounts();
        int64_t cumulative = 0;
        for (size_t i = 0; i <= h.bounds().size(); ++i) {
          cumulative += counts[i];
          std::string le = i < h.bounds().size()
                               ? std::to_string(h.bounds()[i])
                               : std::string("+Inf");
          out += name + "_bucket{" + label_string +
                 (label_string.empty() ? "" : ",") + "le=\"" + le + "\"} " +
                 std::to_string(cumulative) + '\n';
        }
        std::string suffix =
            label_string.empty() ? "" : ('{' + label_string + '}');
        out += name + "_sum" + suffix + ' ' + std::to_string(h.Sum()) + '\n';
        out +=
            name + "_count" + suffix + ' ' + std::to_string(h.Count()) + '\n';
      } else {
        int64_t value = family.kind == Kind::kCounter
                            ? series->counter->Value()
                            : series->gauge->Value();
        out += name;
        if (!label_string.empty()) out += '{' + label_string + '}';
        out += ' ' + std::to_string(value) + '\n';
      }
    }
  }
  return out;
}

}  // namespace currency::obs
