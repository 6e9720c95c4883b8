#include "src/order/partial_order.h"

#include <algorithm>
#include <sstream>

namespace currency {

PartialOrder::PartialOrder(int n)
    : n_(n), words_((n + 63) / 64), rows_(n, std::vector<uint64_t>(words_, 0)) {}

void PartialOrder::CloseOver(int u, int v) {
  // successors-or-self of v.
  std::vector<uint64_t> succ = rows_[v];
  succ[static_cast<size_t>(v) >> 6] |= (uint64_t{1} << (v & 63));
  // For every a that reaches u (or is u), OR in succ.
  for (int a = 0; a < n_; ++a) {
    if (a == u || Less(a, u)) {
      for (int w = 0; w < words_; ++w) rows_[a][w] |= succ[w];
    }
  }
}

Status PartialOrder::Resize(int n) {
  if (n < n_) {
    return Status::InvalidArgument("PartialOrder cannot shrink");
  }
  int new_words = (n + 63) / 64;
  for (auto& row : rows_) row.resize(new_words, 0);
  rows_.resize(n, std::vector<uint64_t>(new_words, 0));
  n_ = n;
  words_ = new_words;
  return Status::OK();
}

Status PartialOrder::Add(int u, int v) {
  if (u == v) {
    return Status::FailedPrecondition(
        "cannot add reflexive pair " + std::to_string(u) + " ≺ " +
        std::to_string(u) + " to a strict order");
  }
  if (Less(v, u)) {
    return Status::FailedPrecondition(
        "adding " + std::to_string(u) + " ≺ " + std::to_string(v) +
        " would create a cycle");
  }
  if (!Less(u, v)) CloseOver(u, v);
  return Status::OK();
}

bool PartialOrder::TryAdd(int u, int v) {
  if (u == v || Less(v, u)) return false;
  if (!Less(u, v)) CloseOver(u, v);
  return true;
}

Status PartialOrder::Merge(const PartialOrder& other) {
  if (other.n_ != n_) {
    return Status::InvalidArgument("merging orders of different sizes");
  }
  for (int u = 0; u < n_; ++u) {
    for (int v = 0; v < n_; ++v) {
      if (other.Less(u, v)) RETURN_IF_ERROR(Add(u, v));
    }
  }
  return Status::OK();
}

bool PartialOrder::ContainedIn(const PartialOrder& other) const {
  if (other.n_ != n_) return false;
  for (int u = 0; u < n_; ++u) {
    for (int w = 0; w < words_; ++w) {
      if (rows_[u][w] & ~other.rows_[u][w]) return false;
    }
  }
  return true;
}

bool PartialOrder::operator==(const PartialOrder& other) const {
  return n_ == other.n_ && rows_ == other.rows_;
}

int64_t PartialOrder::NumPairs() const {
  int64_t count = 0;
  for (int u = 0; u < n_; ++u) {
    for (int w = 0; w < words_; ++w) {
      count += __builtin_popcountll(rows_[u][w]);
    }
  }
  return count;
}

std::vector<std::pair<int, int>> PartialOrder::Pairs() const {
  // Set bits of each row word, lowest first: the lexicographic order of
  // the Less(u, v) double loop, which fingerprints and wire bytes rely on.
  std::vector<std::pair<int, int>> out;
  for (int u = 0; u < n_; ++u) {
    for (int w = 0; w < words_; ++w) {
      for (uint64_t bits = rows_[u][w]; bits != 0; bits &= bits - 1) {
        out.emplace_back(u, w * 64 + __builtin_ctzll(bits));
      }
    }
  }
  return out;
}

std::vector<int> PartialOrder::SinksWithin(const std::vector<int>& subset) const {
  std::vector<int> out;
  for (int u : subset) {
    bool has_successor = false;
    for (int v : subset) {
      if (Less(u, v)) {
        has_successor = true;
        break;
      }
    }
    if (!has_successor) out.push_back(u);
  }
  return out;
}

bool PartialOrder::TotalOn(const std::vector<int>& subset) const {
  for (size_t i = 0; i < subset.size(); ++i) {
    for (size_t j = i + 1; j < subset.size(); ++j) {
      if (!Comparable(subset[i], subset[j])) return false;
    }
  }
  return true;
}

int PartialOrder::MaxOf(const std::vector<int>& subset) const {
  if (subset.empty()) return -1;
  int best = subset[0];
  for (size_t i = 1; i < subset.size(); ++i) {
    if (Less(best, subset[i])) {
      best = subset[i];
    } else if (!Less(subset[i], best)) {
      return -1;  // incomparable pair: no unique maximum
    }
  }
  // Verify maximality against all subset elements (guards non-total input).
  for (int v : subset) {
    if (Less(best, v)) return -1;
  }
  return best;
}

std::vector<int> PartialOrder::TopologicalOrder(
    const std::vector<int>& subset) const {
  // Kahn-style selection keeps the output stable w.r.t. the input order.
  std::vector<int> result;
  std::vector<int> remaining = subset;
  while (!remaining.empty()) {
    // Pick a minimal element (no predecessor among remaining).
    size_t pick = remaining.size();
    for (size_t i = 0; i < remaining.size(); ++i) {
      bool has_pred = false;
      for (int v : remaining) {
        if (Less(v, remaining[i])) {
          has_pred = true;
          break;
        }
      }
      if (!has_pred) {
        pick = i;
        break;
      }
    }
    if (pick == remaining.size()) break;  // cycle: cannot happen (invariant)
    result.push_back(remaining[pick]);
    remaining.erase(remaining.begin() + pick);
  }
  return result;
}

std::string PartialOrder::ToString() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (auto [u, v] : Pairs()) {
    if (!first) os << ", ";
    first = false;
    os << u << "≺" << v;
  }
  os << "}";
  return os.str();
}

}  // namespace currency
