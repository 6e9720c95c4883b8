// Unit + property tests for src/order: PartialOrder and linear extensions.

#include <gtest/gtest.h>

#include <numeric>
#include <random>
#include <set>

#include "src/order/partial_order.h"
#include "tests/support/linear_extensions.h"

namespace currency {
namespace {

TEST(PartialOrderTest, EmptyOrder) {
  PartialOrder po(3);
  EXPECT_EQ(po.size(), 3);
  EXPECT_FALSE(po.Less(0, 1));
  EXPECT_FALSE(po.Comparable(0, 1));
  EXPECT_EQ(po.NumPairs(), 0);
}

TEST(PartialOrderTest, AddAndTransitivity) {
  PartialOrder po(4);
  ASSERT_TRUE(po.Add(0, 1).ok());
  ASSERT_TRUE(po.Add(1, 2).ok());
  EXPECT_TRUE(po.Less(0, 2));  // transitive consequence
  EXPECT_FALSE(po.Less(2, 0));
  ASSERT_TRUE(po.Add(2, 3).ok());
  EXPECT_TRUE(po.Less(0, 3));
  EXPECT_EQ(po.NumPairs(), 6);
}

TEST(PartialOrderTest, CycleRejected) {
  PartialOrder po(3);
  ASSERT_TRUE(po.Add(0, 1).ok());
  ASSERT_TRUE(po.Add(1, 2).ok());
  Status s = po.Add(2, 0);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(po.Less(2, 0));  // order unchanged
  EXPECT_FALSE(po.Add(1, 1).ok());
}

TEST(PartialOrderTest, TryAddMirrorsAdd) {
  PartialOrder po(3);
  EXPECT_TRUE(po.TryAdd(0, 1));
  EXPECT_TRUE(po.TryAdd(0, 1));  // idempotent
  EXPECT_FALSE(po.TryAdd(1, 0));
  EXPECT_FALSE(po.TryAdd(2, 2));
}

TEST(PartialOrderTest, MergeAndContainment) {
  PartialOrder a(3), b(3);
  ASSERT_TRUE(a.Add(0, 1).ok());
  ASSERT_TRUE(b.Add(1, 2).ok());
  EXPECT_FALSE(a.ContainedIn(b));
  ASSERT_TRUE(a.Add(1, 2).ok());
  EXPECT_TRUE(a.Less(0, 2));
  EXPECT_TRUE(b.ContainedIn(a));
}

TEST(PartialOrderTest, SinksWithin) {
  PartialOrder po(5);
  ASSERT_TRUE(po.Add(0, 1).ok());
  ASSERT_TRUE(po.Add(0, 2).ok());
  // 1 and 2 are incomparable sinks; 3 isolated is also a sink.
  auto sinks = po.SinksWithin({0, 1, 2, 3});
  EXPECT_EQ(sinks, (std::vector<int>{1, 2, 3}));
  // Within {0} alone, 0 is a sink.
  EXPECT_EQ(po.SinksWithin({0}), std::vector<int>{0});
}

TEST(PartialOrderTest, TotalOnAndMaxOf) {
  PartialOrder po(4);
  ASSERT_TRUE(po.Add(0, 1).ok());
  ASSERT_TRUE(po.Add(1, 2).ok());
  EXPECT_TRUE(po.TotalOn({0, 1, 2}));
  EXPECT_FALSE(po.TotalOn({0, 1, 3}));
  EXPECT_EQ(po.MaxOf({0, 1, 2}), 2);
  EXPECT_EQ(po.MaxOf({0, 1, 3}), -1);
  EXPECT_EQ(po.MaxOf({}), -1);
  EXPECT_EQ(po.MaxOf({3}), 3);
}

TEST(PartialOrderTest, TopologicalOrderRespectsOrder) {
  PartialOrder po(4);
  ASSERT_TRUE(po.Add(2, 0).ok());
  ASSERT_TRUE(po.Add(0, 3).ok());
  auto topo = po.TopologicalOrder({0, 1, 2, 3});
  ASSERT_EQ(topo.size(), 4u);
  auto pos = [&](int x) {
    return std::find(topo.begin(), topo.end(), x) - topo.begin();
  };
  EXPECT_LT(pos(2), pos(0));
  EXPECT_LT(pos(0), pos(3));
}

TEST(PartialOrderTest, PairsAndToString) {
  PartialOrder po(3);
  ASSERT_TRUE(po.Add(0, 2).ok());
  auto pairs = po.Pairs();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], std::make_pair(0, 2));
  EXPECT_EQ(po.ToString(), "{0≺2}");
}

// Pairs() scans row words bit by bit; it must list exactly the pairs of
// the Less(u, v) double loop, in the same lexicographic order, including
// at and across the 64-bit word boundaries.
TEST(PartialOrderTest, PairsMatchesLessDoubleLoop) {
  std::mt19937 rng(20261017);
  for (int n : {0, 1, 63, 64, 65, 130}) {
    for (int edges : {0, n / 4, 2 * n}) {
      PartialOrder po(n);
      if (n > 1) {
        std::uniform_int_distribution<int> pick(0, n - 1);
        for (int k = 0; k < edges; ++k) po.TryAdd(pick(rng), pick(rng));
      }
      std::vector<std::pair<int, int>> expected;
      for (int u = 0; u < n; ++u) {
        for (int v = 0; v < n; ++v) {
          if (po.Less(u, v)) expected.emplace_back(u, v);
        }
      }
      EXPECT_EQ(po.Pairs(), expected) << "n=" << n << " edges=" << edges;
      EXPECT_EQ(static_cast<int64_t>(expected.size()), po.NumPairs());
    }
  }
}

TEST(LinearExtensionsTest, CountsMatchFactorialForEmptyOrder) {
  PartialOrder po(4);
  EXPECT_EQ(CountLinearExtensions(po, {0, 1, 2, 3}), 24);
  EXPECT_EQ(CountLinearExtensions(po, {0, 1}), 2);
  EXPECT_EQ(CountLinearExtensions(po, {}), 1);
}

TEST(LinearExtensionsTest, ChainHasOneExtension) {
  PartialOrder po(3);
  ASSERT_TRUE(po.Add(0, 1).ok());
  ASSERT_TRUE(po.Add(1, 2).ok());
  std::vector<std::vector<int>> seqs;
  EnumerateLinearExtensions(po, {0, 1, 2}, [&](const std::vector<int>& s) {
    seqs.push_back(s);
    return true;
  });
  ASSERT_EQ(seqs.size(), 1u);
  EXPECT_EQ(seqs[0], (std::vector<int>{0, 1, 2}));
}

TEST(LinearExtensionsTest, VShapeHasTwoExtensions) {
  PartialOrder po(3);
  ASSERT_TRUE(po.Add(0, 1).ok());
  ASSERT_TRUE(po.Add(0, 2).ok());
  EXPECT_EQ(CountLinearExtensions(po, {0, 1, 2}), 2);
}

TEST(LinearExtensionsTest, EarlyStop) {
  PartialOrder po(4);
  int visited = 0;
  int64_t n = EnumerateLinearExtensions(po, {0, 1, 2, 3},
                                        [&](const std::vector<int>&) {
                                          ++visited;
                                          return visited < 3;
                                        });
  EXPECT_EQ(n, 3);
  EXPECT_EQ(visited, 3);
}

// Property test: on random DAG orders, every enumerated extension is a
// valid linear extension, extensions are distinct, and their number matches
// a reference count computed by brute-force permutation filtering.
class LinearExtensionProperty : public ::testing::TestWithParam<int> {};

TEST_P(LinearExtensionProperty, MatchesBruteForce) {
  std::mt19937 rng(GetParam());
  const int n = 5;
  PartialOrder po(n);
  std::uniform_int_distribution<int> coin(0, 3);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (coin(rng) == 0) po.TryAdd(u, v);  // edges along one direction: DAG
    }
  }
  std::vector<int> subset(n);
  std::iota(subset.begin(), subset.end(), 0);

  // Reference: filter all permutations.
  std::vector<int> perm = subset;
  int64_t expected = 0;
  std::sort(perm.begin(), perm.end());
  do {
    bool valid = true;
    for (int i = 0; i < n && valid; ++i) {
      for (int j = i + 1; j < n && valid; ++j) {
        if (po.Less(perm[j], perm[i])) valid = false;
      }
    }
    if (valid) ++expected;
  } while (std::next_permutation(perm.begin(), perm.end()));

  std::set<std::vector<int>> seen;
  int64_t count =
      EnumerateLinearExtensions(po, subset, [&](const std::vector<int>& s) {
        // Validity: no later element precedes an earlier one.
        for (size_t i = 0; i < s.size(); ++i) {
          for (size_t j = i + 1; j < s.size(); ++j) {
            EXPECT_FALSE(po.Less(s[j], s[i]));
          }
        }
        EXPECT_TRUE(seen.insert(s).second) << "duplicate extension";
        return true;
      });
  EXPECT_EQ(count, expected);
}

INSTANTIATE_TEST_SUITE_P(RandomOrders, LinearExtensionProperty,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace currency
