#include "perfbench/registry_view.h"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace perfbench {

RegistrySnapshot RegistrySnapshot::Take(
    const currency::obs::Registry& registry) {
  RegistrySnapshot snap;
  std::istringstream in(registry.ExposeText());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    Series s;
    size_t brace = line.find('{');
    size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    if (brace != std::string::npos && brace < space) {
      s.name = line.substr(0, brace);
      size_t close = line.find('}', brace);
      std::string body = line.substr(brace + 1, close - brace - 1);
      size_t pos = 0;
      while (pos < body.size()) {
        size_t eq = body.find('=', pos);
        size_t q1 = body.find('"', eq);
        size_t q2 = body.find('"', q1 + 1);
        if (eq == std::string::npos || q1 == std::string::npos ||
            q2 == std::string::npos) {
          break;
        }
        s.labels[body.substr(pos, eq - pos)] = body.substr(q1 + 1, q2 - q1 - 1);
        pos = q2 + 1;
        if (pos < body.size() && body[pos] == ',') ++pos;
      }
    } else {
      s.name = line.substr(0, space);
    }
    s.value = std::strtod(line.c_str() + space + 1, nullptr);
    snap.series_.push_back(std::move(s));
  }
  return snap;
}

namespace {

bool Matches(const std::map<std::string, std::string>& labels,
             const std::map<std::string, std::string>& match) {
  for (const auto& [k, v] : match) {
    auto it = labels.find(k);
    if (it == labels.end() || it->second != v) return false;
  }
  return true;
}

}  // namespace

double RegistrySnapshot::Sum(
    const std::string& name,
    const std::map<std::string, std::string>& match) const {
  double total = 0;
  for (const Series& s : series_) {
    if (s.name == name && Matches(s.labels, match)) total += s.value;
  }
  return total;
}

std::map<double, double> RegistrySnapshot::Buckets(
    const std::string& family,
    const std::map<std::string, std::string>& match) const {
  std::map<double, double> out;
  const std::string name = family + "_bucket";
  for (const Series& s : series_) {
    if (s.name != name || !Matches(s.labels, match)) continue;
    auto le = s.labels.find("le");
    if (le == s.labels.end()) continue;
    double bound = le->second == "+Inf"
                       ? std::numeric_limits<double>::infinity()
                       : std::strtod(le->second.c_str(), nullptr);
    out[bound] += s.value;
  }
  return out;
}

std::map<double, double> BucketDelta(const std::map<double, double>& before,
                                     const std::map<double, double>& after) {
  std::map<double, double> out = after;
  for (const auto& [bound, count] : before) out[bound] -= count;
  return out;
}

double BucketCount(const std::map<double, double>& cumulative) {
  return cumulative.empty() ? 0 : cumulative.rbegin()->second;
}

double BucketQuantile(const std::map<double, double>& cumulative, double q) {
  const double total = BucketCount(cumulative);
  if (total <= 0) return 0;
  const double rank = q * total;
  double lo = 0, below = 0;
  for (const auto& [bound, count] : cumulative) {
    if (count >= rank && count > below) {
      double hi = std::isinf(bound) ? lo : bound;
      return lo + (hi - lo) * (rank - below) / (count - below);
    }
    if (!std::isinf(bound)) lo = bound;
    below = count;
  }
  return lo;
}

double TailQuantile(double n) {
  for (double q : {0.999, 0.99, 0.95, 0.9, 0.75}) {
    if (n * (1 - q) >= 10) return q;
  }
  return 0.5;
}

}  // namespace perfbench
