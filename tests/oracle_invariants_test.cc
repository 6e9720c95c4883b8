// Invariant tests for the brute-force oracle itself: the certain-prefix
// seeding and definitive-violation pruning inside
// EnumerateConsistentCompletions are optimizations and must not change
// WHICH completions are visited.  The reference below re-enumerates the
// raw cross product of linear extensions of the *initial* orders and
// filters with IsConsistentCompletion only.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "src/core/ccqa.h"
#include "src/core/certain_order.h"
#include "src/core/consistency.h"
#include "src/core/decompose.h"
#include "src/core/deterministic.h"
#include "src/query/parser.h"
#include "src/serve/session.h"
#include "tests/fixtures.h"
#include "tests/support/brute_force.h"
#include "tests/support/forced_sat.h"
#include "tests/support/linear_extensions.h"
#include "tests/support/monolithic.h"

namespace currency::core {
namespace {

using currency::testing::MakeRandomSpec;

/// Raw reference enumeration: no seeding, no pruning.
Result<int64_t> RawCount(const Specification& spec, int64_t max_candidates) {
  struct Slot {
    int inst;
    AttrIndex attr;
    std::vector<std::vector<TupleId>> extensions;
  };
  std::vector<Slot> slots;
  int64_t estimate = 1;
  for (int i = 0; i < spec.num_instances(); ++i) {
    const TemporalInstance& inst = spec.instance(i);
    for (AttrIndex a = 1; a < inst.schema().arity(); ++a) {
      for (const auto& [eid, members] : inst.relation().EntityGroups()) {
        (void)eid;
        if (members.size() <= 1) continue;
        Slot slot;
        slot.inst = i;
        slot.attr = a;
        EnumerateLinearExtensions(inst.order(a), members,
                                  [&](const std::vector<int>& seq) {
                                    slot.extensions.push_back(seq);
                                    return true;
                                  });
        estimate *= static_cast<int64_t>(slot.extensions.size());
        if (estimate > max_candidates) {
          return Status::ResourceExhausted("raw reference too large");
        }
        slots.push_back(std::move(slot));
      }
    }
  }
  Completion base;
  for (int i = 0; i < spec.num_instances(); ++i) {
    base.orders.push_back(spec.instance(i).orders());
  }
  int64_t count = 0;
  std::function<Status(size_t, Completion&)> rec =
      [&](size_t k, Completion& partial) -> Status {
    if (k == slots.size()) {
      ASSIGN_OR_RETURN(bool ok, IsConsistentCompletion(spec, partial));
      if (ok) ++count;
      return Status::OK();
    }
    for (const auto& seq : slots[k].extensions) {
      Completion next = partial;
      PartialOrder& po = next.orders[slots[k].inst][slots[k].attr];
      bool feasible = true;
      for (size_t j = 0; j + 1 < seq.size(); ++j) {
        if (!po.TryAdd(seq[j], seq[j + 1])) {
          feasible = false;
          break;
        }
      }
      if (feasible) RETURN_IF_ERROR(rec(k + 1, next));
    }
    return Status::OK();
  };
  RETURN_IF_ERROR(rec(0, base));
  return count;
}

class OracleCountInvariant : public ::testing::TestWithParam<int> {};

TEST_P(OracleCountInvariant, SeedingAndPruningLoseNothing) {
  for (int variant = 0; variant < 4; ++variant) {
    Specification spec =
        MakeRandomSpec(GetParam() * 419 + variant, variant & 1, variant & 2);
    SCOPED_TRACE("seed=" + std::to_string(GetParam()) +
                 " variant=" + std::to_string(variant));
    auto raw = RawCount(spec, 500'000);
    if (!raw.ok()) continue;  // reference too large: skip this draw
    int64_t optimized =
        EnumerateConsistentCompletions(
            spec, [](const Completion&) { return true; })
            .value();
    EXPECT_EQ(optimized, *raw);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, OracleCountInvariant, ::testing::Range(0, 25));

/// Canonical serialization of a current-instance database: relation name
/// plus value-sorted tuples (the two SAT paths materialize tuples in
/// different orders).
std::string CanonicalDb(const query::Database& db) {
  std::string out;
  for (const auto& [name, rel] : db) {
    std::vector<std::string> rows;
    rows.reserve(rel->tuples().size());
    for (const Tuple& t : rel->tuples()) rows.push_back(t.ToString());
    std::sort(rows.begin(), rows.end());
    out += name + "{";
    for (const std::string& row : rows) out += row + ";";
    out += "}";
  }
  return out;
}

// Property sweep: the one-shot solvers (one engine, one encoder per
// coupling component) agree with the monolithic reference — one
// unfiltered encoding of the whole specification — and with the
// brute-force oracle on CPS, COP, DCIP, CCQA and current-instance
// enumeration.  The one-shots run on the forced-SAT reference
// (tests/support/forced_sat.h), so the SAT machinery is exercised even on
// constraint-free draws.
class DecomposedVsMonolithic : public ::testing::TestWithParam<int> {};

TEST_P(DecomposedVsMonolithic, AllSolversAgree) {
  for (int variant = 0; variant < 4; ++variant) {
    Specification spec =
        MakeRandomSpec(GetParam() * 733 + variant, variant & 1, variant & 2);
    SCOPED_TRACE("seed=" + std::to_string(GetParam()) +
                 " variant=" + std::to_string(variant));

    // CPS, including witness validity on the decomposed path.
    CpsOptions cps_dec;
    cps_dec.want_witness = true;
    auto mono = currency::testing::MonolithicConsistent(spec);
    auto dec = currency::testing::ForcedSatConsistency(spec, cps_dec);
    ASSERT_TRUE(mono.ok() && dec.ok());
    EXPECT_EQ(*mono, dec->consistent);
    EXPECT_EQ(*mono, BruteForceConsistent(spec).value());
    EXPECT_GT(dec->components, 0);
    if (dec->consistent) {
      ASSERT_TRUE(dec->witness.has_value());
      EXPECT_TRUE(IsConsistentCompletion(spec, *dec->witness).value());
    }

    // COP on a handful of pairs (including a cross-entity one: tuple 0
    // is entity e0, tuple 2 is e1 on every draw).
    for (const RequiredPair& pair :
         {RequiredPair{1, 0, 1}, RequiredPair{2, 1, 0}, RequiredPair{1, 0, 2}}) {
      CurrencyOrderQuery q;
      q.relation = "R";
      q.pairs = {pair};
      const bool mono_cop =
          currency::testing::MonolithicCertainOrder(spec, q).value();
      EXPECT_EQ(mono_cop,
                currency::testing::ForcedSatCertainOrder(spec, q).value());
      EXPECT_EQ(mono_cop, BruteForceCertainOrder(spec, q).value());
    }

    // DCIP per relation.
    bool mono_det = true;
    for (int i = 0; i < spec.num_instances(); ++i) {
      const std::string& rel = spec.instance(i).name();
      const bool det =
          currency::testing::MonolithicDeterministic(spec, rel).value();
      EXPECT_EQ(det, BruteForceDeterministic(spec, rel).value()) << rel;
      mono_det = mono_det && det;
    }
    EXPECT_EQ(mono_det,
              currency::testing::ForcedSatDeterministic(spec).value());

    // Current-instance enumeration: same count, same set of databases.
    CcqaOptions ccqa_dec;
    std::multiset<std::string> seen_mono, seen_dec;
    auto count_mono = currency::testing::MonolithicForEachCurrentInstance(
        spec, ccqa_dec.max_current_instances,
        [&](const query::Database& db) {
          seen_mono.insert(CanonicalDb(db));
          return true;
        });
    auto count_dec = currency::testing::ForcedSatForEachCurrentInstance(
        spec, ccqa_dec, [&](const query::Database& db) {
          seen_dec.insert(CanonicalDb(db));
          return true;
        });
    ASSERT_TRUE(count_mono.ok() && count_dec.ok());
    EXPECT_EQ(*count_mono, *count_dec);
    EXPECT_EQ(seen_mono, seen_dec);

    // CCQA answer sets (the blocking loop on the query's components).
    query::Query q =
        query::ParseQuery("Q(x) := EXISTS y: R('e0', x, y)").value();
    auto ans_mono = currency::testing::MonolithicCertainAnswers(spec, q);
    auto ans_dec = currency::testing::ForcedSatCertainAnswers(spec, q);
    if (!ans_mono.ok()) {
      EXPECT_EQ(ans_mono.status().code(), ans_dec.status().code());
    } else {
      ASSERT_TRUE(ans_dec.ok()) << ans_dec.status();
      EXPECT_EQ(*ans_mono, *ans_dec);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, DecomposedVsMonolithic,
                         ::testing::Range(0, 25));

// CCQA scoping: a request reads only the components owning the entity
// ids its query pins (query::EidPins), plus every component of an
// unpinned relation.  Every shape below, scoped or not, must answer as
// the monolithic reference (one encoding of the whole specification,
// never scoped) and, where it finishes, the brute-force oracle: the
// answer set and every membership candidate, one-shot and through a
// CurrencySession at 1, 2 and 8 threads.  Chase routing stays on, so SP
// shapes take the fixpoint path on chase-enumerable components.
struct ScopingShape {
  const char* name;
  const char* text;
};

const ScopingShape kScopingShapes[] = {
    // Scoped to the pinned entities' components.
    {"ConstantEid", "Q(x) := EXISTS y: R('e0', x, y)"},
    {"EqualityPin", "Q(x) := EXISTS e, y: R(e, x, y) AND e = 'e1'"},
    {"ReversedEqualityPin", "Q(x) := EXISTS e, y: R(e, x, y) AND 'e1' = e"},
    {"AbsentEid", "Q(x) := EXISTS y: R('zz', x, y)"},
    {"UcqPinsTwoEntities",
     "Q(x) := (EXISTS y: R('e0', x, y)) OR "
     "(EXISTS e, y: R(e, y, x) AND e = 'e1')"},
    {"PinnedJoinsUnpinned", "Q(x) := EXISTS y, f: R('e0', x, y) AND R2(f, x)"},
    // Unscoped: each can read rows of entities other than e0.
    {"PinnedAndUnpinnedAtom",
     "Q(x) := EXISTS y, e, z: R('e0', x, y) AND R(e, z, x)"},
    {"PinnedAndUnpinnedDisjunct",
     "Q(x) := (EXISTS y: R('e0', x, y)) OR (EXISTS e, y: R(e, x, y))"},
    {"Negation",
     "Q(x) := EXISTS y: R('e0', x, y) AND "
     "NOT (EXISTS e, z: R(e, x, z) AND e != 'e0')"},
    {"Forall",
     "Q(x) := EXISTS y: R('e0', x, y) AND "
     "(FORALL e, b: NOT R(e, x, b) OR e = 'e0')"},
    {"OrderedCompare", "Q(x) := EXISTS e, y: R(e, x, y) AND e > 'e0'"},
    {"HeadBoundByCompare", "Q(x) := EXISTS y, z: R('e0', y, z) AND x = y"},
    // The active-domain evaluator ranges x over every current value.
    {"HeadBoundByOrderedCompare",
     "Q(x) := EXISTS y, z: R('e0', y, z) AND x > y"},
};

void PrintTo(const ScopingShape& shape, std::ostream* os) {
  *os << shape.name;
}

class CcqaScoping : public ::testing::TestWithParam<ScopingShape> {};

TEST_P(CcqaScoping, MatchesMonolithicAndBruteForce) {
  const query::Query q = query::ParseQuery(GetParam().text).value();
  std::vector<CcqaRequest> requests{{q, std::nullopt}};
  for (int v = 0; v < 4; ++v) requests.push_back({q, Tuple({Value(v)})});
  for (int seed = 0; seed < 12; ++seed) {
    for (double free_fraction : {0.0, 0.5}) {
      Specification spec =
          MakeRandomSpec(seed * 577 + 3, /*with_copy=*/true,
                         /*with_constraints=*/true, free_fraction);
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " free_fraction=" + std::to_string(free_fraction));
      auto mono = currency::testing::MonolithicCertainAnswers(spec, q);
      const bool vacuous =
          !mono.ok() && mono.status().code() == StatusCode::kInconsistent;
      ASSERT_TRUE(mono.ok() || vacuous) << mono.status();
      BruteForceOptions brute_options;
      brute_options.max_candidates = 20'000;
      auto brute = BruteForceCertainAnswers(spec, q, brute_options);
      if (brute.status().code() != StatusCode::kResourceExhausted) {
        EXPECT_EQ(brute.status().code(), mono.status().code());
        if (mono.ok() && brute.ok()) {
          EXPECT_EQ(*brute, *mono);
        }
      }
      auto certain = [&](const Tuple& t) {
        return vacuous || mono->count(t) > 0;
      };

      // One-shot.
      auto answers = CertainCurrentAnswers(spec, q);
      EXPECT_EQ(answers.status().code(), mono.status().code());
      if (mono.ok() && answers.ok()) {
        EXPECT_EQ(*answers, *mono);
      }
      for (size_t i = 1; i < requests.size(); ++i) {
        EXPECT_EQ(IsCertainCurrentAnswer(spec, q, *requests[i].candidate)
                      .value(),
                  certain(*requests[i].candidate))
            << requests[i].candidate->ToString();
      }

      // Served.
      for (int threads : {1, 2, 8}) {
        serve::SessionOptions options;
        options.num_threads = threads;
        auto session = serve::CurrencySession::Create(spec, options);
        ASSERT_TRUE(session.ok()) << session.status();
        auto got = (*session)->CcqaBatch(requests);
        ASSERT_TRUE(got.ok()) << got.status();
        ASSERT_EQ(got->size(), requests.size());
        SCOPED_TRACE("threads=" + std::to_string(threads));
        EXPECT_EQ((*got)[0].vacuous, vacuous);
        if (!vacuous) {
          ASSERT_TRUE((*got)[0].answers.has_value());
          EXPECT_EQ(*(*got)[0].answers, *mono);
        }
        for (size_t i = 1; i < requests.size(); ++i) {
          ASSERT_TRUE((*got)[i].is_certain.has_value());
          EXPECT_EQ(*(*got)[i].is_certain, certain(*requests[i].candidate))
              << "candidate " << requests[i].candidate->ToString();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CcqaScoping, ::testing::ValuesIn(kScopingShapes),
    [](const ::testing::TestParamInfo<ScopingShape>& info) {
      return std::string(info.param.name);
    });

TEST(DecompositionTest, CopyCouplingMergesComponents) {
  // S0's ρ maps three Dept tuples (entity RnD) from Mary's Emp tuples and
  // one from Bob's single tuple: {Emp:Mary, Dept:RnD} couple (two distinct
  // source tuples), while Emp:Bob and Emp:Robert stay their own
  // components (a single-source bucket emits no clause).
  Specification s0 = currency::testing::MakeS0();
  auto decomposition = Decomposition::Build(s0);
  ASSERT_TRUE(decomposition.ok());
  EXPECT_EQ(decomposition->num_components(), 3);
  int mary = decomposition->ComponentOf(0, Value("Mary"));
  int rnd = decomposition->ComponentOf(1, Value("RnD"));
  int bob = decomposition->ComponentOf(0, Value("Bob"));
  int robert = decomposition->ComponentOf(0, Value("Robert"));
  EXPECT_EQ(mary, rnd);
  EXPECT_NE(bob, mary);
  EXPECT_NE(robert, mary);
  EXPECT_NE(bob, robert);
  EXPECT_EQ(decomposition->ComponentOf(0, Value("nobody")), -1);
  EXPECT_EQ(decomposition->ComponentOf(7, Value("Mary")), -1);
}

TEST(OracleInvariantTest, VisitedCompletionsAreConsistentAndDistinct) {
  Specification spec = MakeRandomSpec(12345, /*with_copy=*/true,
                                      /*with_constraints=*/true);
  std::set<std::string> seen;
  auto count = EnumerateConsistentCompletions(spec, [&](const Completion& c) {
    // Every visited completion passes the full validity check ...
    EXPECT_TRUE(IsConsistentCompletion(spec, c).value());
    // ... and is pairwise distinct (serialize the orders as a key).
    std::string key;
    for (const auto& per_inst : c.orders) {
      for (const auto& po : per_inst) key += po.ToString() + "|";
    }
    EXPECT_TRUE(seen.insert(key).second) << "duplicate completion visited";
    return true;
  });
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(static_cast<int64_t>(seen.size()), *count);
}

TEST(OracleInvariantTest, EarlyStopIsHonoured) {
  Specification spec = MakeRandomSpec(777, false, false);
  int visits = 0;
  auto count = EnumerateConsistentCompletions(spec, [&](const Completion&) {
    ++visits;
    return false;  // stop immediately
  });
  ASSERT_TRUE(count.ok());
  EXPECT_LE(*count, 1);
  EXPECT_LE(visits, 1);
}

TEST(OracleInvariantTest, BudgetGuard) {
  // A spec with many unconstrained groups exceeds a tiny budget.
  Specification spec;
  Schema rs = Schema::Make("R", {"A"}).value();
  Relation r(rs);
  for (int e = 0; e < 10; ++e) {
    Value eid("e" + std::to_string(e));
    (void)r.AppendValues({eid, Value(0)});
    (void)r.AppendValues({eid, Value(1)});
    (void)r.AppendValues({eid, Value(2)});
  }
  (void)spec.AddInstance(TemporalInstance(std::move(r)));
  BruteForceOptions options;
  options.max_candidates = 100;
  auto count = EnumerateConsistentCompletions(
      spec, [](const Completion&) { return true; }, options);
  EXPECT_EQ(count.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace currency::core
