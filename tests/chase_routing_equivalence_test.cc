// Chase-routing equivalence: components with no denial-constraint
// grounding are decided by the polynomial copy-order chase (Theorem 6.1 /
// Lemma 6.2 / Proposition 6.3 applied to S|_c) while constrained
// components stay on SAT, side by side in one decomposed solve.  Routing
// is an implementation strategy, never a semantic switch, so every answer
// — CPS (and its witness one-shots), COP, DCIP, CCQA answer sets and the
// current-instance enumeration order — must be bit-identical to
// (a) the forced-SAT reference (tests/support/forced_sat.h and
// CurrencySession::CreateForcedSatForTesting) and (b) the
// brute-force oracle, across thread counts, mixed
// constrained/constraint-free specifications, and session Mutate rounds.
// On constraint-free draws the one-shot answers must also equal the
// whole-specification PTIME references (tests/support/whole_spec.h:
// ChaseWholeSpec for Theorem 6.1 and Lemma 6.2, LiteralSpCertainAnswers
// for Proposition 6.3): per-component routing is what answers those calls.
//
// Also covered here: the metamorphic classification properties (inert
// additions — a zero-grounding constraint, a single-source copy bucket —
// must not flip eligibility or fingerprints; a real grounding must flip
// exactly its component), the ComponentChase work counters, the
// session's chase-fixpoint reuse accounting across Mutate, and the
// component node lists both builders take: every component fixpoint
// equals the whole-specification chase restricted to its groups, and an
// encoder over one side of a coupling bucket fails.  Both routes refuse
// a component whose current fragments exceed the enumeration budget.
// scripts/check.sh re-runs this suite under ASan/UBSan and TSan.

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/ccqa.h"
#include "src/core/certain_order.h"
#include "src/core/chase.h"
#include "src/core/consistency.h"
#include "src/core/decompose.h"
#include "src/core/deterministic.h"
#include "src/query/classify.h"
#include "src/query/parser.h"
#include "src/serve/session.h"
#include "tests/fixtures.h"
#include "tests/support/brute_force.h"
#include "tests/support/forced_sat.h"
#include "tests/support/whole_spec.h"

namespace currency::core {
namespace {

using currency::testing::ChaseWholeSpec;
using currency::testing::ForcedSatCertainAnswers;
using currency::testing::ForcedSatCertainOrder;
using currency::testing::ForcedSatConsistency;
using currency::testing::ForcedSatDeterministicForRelation;
using currency::testing::ForcedSatForEachCurrentInstance;
using currency::testing::ForcedSatIsCertainAnswer;
using currency::testing::LiteralSpCertainAnswers;
using currency::testing::MakeRandomSpec;
using currency::testing::WholeSpecChase;

constexpr int kThreadCounts[] = {1, 2, 8};

std::string CanonicalCompletion(const Completion& c) {
  std::string out;
  for (const auto& per_inst : c.orders) {
    for (const auto& po : per_inst) out += po.ToString() + "|";
  }
  return out;
}

std::string CanonicalDb(const query::Database& db) {
  std::string out;
  for (const auto& [name, rel] : db) {
    out += name + "{";
    for (const Tuple& t : rel->tuples()) out += t.ToString() + ";";
    out += "}";
  }
  return out;
}

/// The COP query shapes of the session suite, clamped to `rel`'s size.
std::vector<CurrencyOrderQuery> MakeCopQueries(const Relation& rel) {
  std::vector<CurrencyOrderQuery> queries;
  auto single = [&](RequiredPair p) {
    CurrencyOrderQuery q;
    q.relation = "R";
    q.pairs = {p};
    queries.push_back(std::move(q));
  };
  single(RequiredPair{1, 0, 1});
  single(RequiredPair{2, 1, 0});
  single(RequiredPair{1, 0, 2});  // often cross-entity
  single(RequiredPair{1, 1, 1});  // reflexive
  CurrencyOrderQuery multi;
  multi.relation = "R";
  multi.pairs = {RequiredPair{1, 0, 1}, RequiredPair{2, 2, 3},
                 RequiredPair{1, 1, 0}};
  queries.push_back(std::move(multi));
  for (auto& q : queries) {
    for (auto& p : q.pairs) {
      p.before = p.before % rel.size();
      p.after = p.after % rel.size();
    }
  }
  return queries;
}

/// One differential pass over `spec`: every decision routed (chase on)
/// must equal the same decision forced onto SAT and the brute-force
/// oracle, and the current-instance enumeration order must be identical
/// across routings and thread counts.
void CheckRoutedEqualsForcedAndOracle(const Specification& spec) {
  bool oracle_consistent = BruteForceConsistent(spec).value();

  // --- CPS, including want_witness one-shots (witness forces SAT; the
  // witness itself must not depend on the routing flag). ---
  std::optional<std::string> witness_1;
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("cps threads=" + std::to_string(threads));
    for (bool routed : {true, false}) {
      CpsOptions cps;
      cps.num_threads = threads;
      auto outcome = routed ? DecideConsistency(spec, cps)
                            : ForcedSatConsistency(spec, cps);
      ASSERT_TRUE(outcome.ok()) << outcome.status();
      EXPECT_EQ(outcome->consistent, oracle_consistent)
          << "routed=" << routed;

      cps.want_witness = true;
      auto with_witness = routed ? DecideConsistency(spec, cps)
                                 : ForcedSatConsistency(spec, cps);
      ASSERT_TRUE(with_witness.ok()) << with_witness.status();
      EXPECT_EQ(with_witness->consistent, oracle_consistent);
      if (with_witness->consistent) {
        ASSERT_TRUE(with_witness->witness.has_value());
        EXPECT_TRUE(
            IsConsistentCompletion(spec, *with_witness->witness).value());
        std::string canonical = CanonicalCompletion(*with_witness->witness);
        if (!witness_1.has_value()) {
          witness_1 = canonical;
        } else {
          EXPECT_EQ(canonical, *witness_1)
              << "witness depends on routing or threads, routed=" << routed;
        }
      }
    }
  }

  // --- COP. ---
  for (const CurrencyOrderQuery& q :
       MakeCopQueries(spec.instance(0).relation())) {
    bool oracle = BruteForceCertainOrder(spec, q).value();
    for (int threads : kThreadCounts) {
      for (bool routed : {true, false}) {
        SCOPED_TRACE("cop threads=" + std::to_string(threads) +
                     " routed=" + std::to_string(routed));
        CopOptions cop;
        cop.num_threads = threads;
        EXPECT_EQ((routed ? IsCertainOrder(spec, q, cop)
                          : ForcedSatCertainOrder(spec, q, cop))
                      .value(),
                  oracle);
      }
    }
  }

  // --- DCIP per relation. ---
  for (int i = 0; i < spec.num_instances(); ++i) {
    const std::string& rel = spec.instance(i).name();
    bool oracle = BruteForceDeterministic(spec, rel).value();
    for (int threads : kThreadCounts) {
      for (bool routed : {true, false}) {
        SCOPED_TRACE("dcip " + rel + " threads=" + std::to_string(threads) +
                     " routed=" + std::to_string(routed));
        DcipOptions dcip;
        dcip.num_threads = threads;
        EXPECT_EQ((routed ? IsDeterministicForRelation(spec, rel, dcip)
                          : ForcedSatDeterministicForRelation(spec, rel, dcip))
                      .value(),
                  oracle);
      }
    }
  }

  // --- Current-instance enumeration: count AND exact order, identical
  // across routings and thread counts. ---
  std::optional<std::vector<std::string>> order_1;
  std::optional<int64_t> count_1;
  for (int threads : kThreadCounts) {
    for (bool routed : {true, false}) {
      SCOPED_TRACE("enum threads=" + std::to_string(threads) +
                   " routed=" + std::to_string(routed));
      CcqaOptions ccqa;
      ccqa.num_threads = threads;
      std::vector<std::string> order;
      auto visit = [&](const query::Database& db) {
        order.push_back(CanonicalDb(db));
        return true;
      };
      auto count = routed ? ForEachCurrentInstance(spec, ccqa, visit)
                          : ForcedSatForEachCurrentInstance(spec, ccqa, visit);
      ASSERT_TRUE(count.ok()) << count.status();
      if (!order_1.has_value()) {
        order_1 = order;
        count_1 = *count;
      } else {
        EXPECT_EQ(*count, *count_1);
        EXPECT_EQ(order, *order_1)
            << "enumeration order depends on routing or threads";
      }
    }
  }

  // --- CCQA answer sets and membership, for a general query and two SP
  // queries, one selecting A = B (the routed SP path must agree with the
  // forced SAT blocking loop AND the oracle). ---
  std::vector<Tuple> candidates;
  for (int k = 0; k < 4; ++k) candidates.push_back(Tuple({Value(k)}));
  for (const char* eid : {"e0", "e1"}) {
    candidates.push_back(Tuple({Value(eid)}));
  }
  for (const char* text : {"Q(x) := EXISTS y: R('e0', x, y)",
                           "Q(x) := EXISTS e, y: R(e, x, y) AND e = 'e0'",
                           "Q(e) := EXISTS x, y: R(e, x, y) AND x = y"}) {
    query::Query q = query::ParseQuery(text).value();
    auto oracle_answers = BruteForceCertainAnswers(spec, q);
    for (bool routed : {true, false}) {
      SCOPED_TRACE(std::string("ccqa ") + text +
                   " routed=" + std::to_string(routed));
      auto answers = routed ? CertainCurrentAnswers(spec, q)
                            : ForcedSatCertainAnswers(spec, q);
      if (!oracle_answers.ok()) {
        EXPECT_EQ(answers.status().code(), oracle_answers.status().code());
      } else {
        ASSERT_TRUE(answers.ok()) << answers.status();
        EXPECT_EQ(*answers, *oracle_answers);
      }
      for (const Tuple& t : candidates) {
        auto member = routed ? IsCertainCurrentAnswer(spec, q, t)
                             : ForcedSatIsCertainAnswer(spec, q, t);
        ASSERT_TRUE(member.ok()) << member.status();
        bool oracle_member =
            !oracle_answers.ok() || oracle_answers->count(t) > 0;
        EXPECT_EQ(*member, oracle_member) << "candidate " << t.ToString();
      }
    }
  }
}

/// `spec` without its denial constraints (instances and copy functions
/// only).
Specification WithoutConstraints(const Specification& spec) {
  Specification out;
  for (int i = 0; i < spec.num_instances(); ++i) {
    EXPECT_TRUE(out.AddInstance(spec.instance(i)).ok());
  }
  for (const CopyEdge& edge : spec.copy_edges()) {
    EXPECT_TRUE(out.AddCopyFunction(edge.fn).ok());
  }
  return out;
}

/// Theorem 6.1(3) over the whole specification: deterministic for `inst`
/// iff, per entity group and attribute, every sink of PO∞ carries the same
/// value.
bool DeterministicViaWholeChase(const Specification& spec,
                                const WholeSpecChase& chase, int inst) {
  const TemporalInstance& instance = spec.instance(inst);
  const Relation& rel = instance.relation();
  for (AttrIndex a = 1; a < instance.schema().arity(); ++a) {
    for (const auto& [eid, members] : rel.EntityGroups()) {
      (void)eid;
      std::vector<int> sinks =
          chase.certain_orders[inst][a].SinksWithin(members);
      for (size_t k = 1; k < sinks.size(); ++k) {
        if (!(rel.tuple(sinks[k]).at(a) == rel.tuple(sinks[0]).at(a))) {
          return false;
        }
      }
    }
  }
  return true;
}

/// On a draw whose every component is chase-eligible, the one-shot
/// answers (on the draw itself and on its constraint-free copy, which has
/// the same models because no constraint grounds) must equal the
/// whole-specification PTIME references — ChaseWholeSpec for CPS, COP and
/// DCIP (Theorem 6.1, Lemma 6.2), LiteralSpCertainAnswers for SP queries
/// (Proposition 6.3) — and brute force.
void CheckWholeSpecChaseReferences(const Specification& spec) {
  const Specification free = WithoutConstraints(spec);
  ASSERT_FALSE(free.HasDenialConstraints());
  WholeSpecChase chase = ChaseWholeSpec(free).value();
  const bool oracle_consistent = BruteForceConsistent(spec).value();
  EXPECT_EQ(chase.consistent, oracle_consistent);
  for (const Specification* s : {&spec, &free}) {
    SCOPED_TRACE(s == &spec ? "draw" : "constraint-free copy");
    EXPECT_EQ(DecideConsistency(*s).value().consistent, chase.consistent);
    for (const CurrencyOrderQuery& q :
         MakeCopQueries(spec.instance(0).relation())) {
      bool whole = true;
      if (chase.consistent) {
        for (const RequiredPair& p : q.pairs) {
          whole = whole && chase.certain_orders[0][p.attr].Less(p.before,
                                                                 p.after);
        }
      }
      EXPECT_EQ(IsCertainOrder(*s, q).value(), whole);
      EXPECT_EQ(whole, BruteForceCertainOrder(spec, q).value());
    }
    for (int i = 0; i < spec.num_instances(); ++i) {
      const std::string& rel = spec.instance(i).name();
      const bool whole =
          !chase.consistent || DeterministicViaWholeChase(free, chase, i);
      EXPECT_EQ(IsDeterministicForRelation(*s, rel).value(), whole) << rel;
      EXPECT_EQ(whole, BruteForceDeterministic(spec, rel).value()) << rel;
    }
    for (const char* text : {"Q(x) := EXISTS e, y: R(e, x, y) AND e = 'e0'",
                             "Q(e, b) := EXISTS a: R(e, a, b)"}) {
      SCOPED_TRACE(text);
      query::Query q = query::ParseQuery(text).value();
      ASSERT_TRUE(query::IsSpQuery(q));
      auto whole = LiteralSpCertainAnswers(free, q);
      auto oracle = BruteForceCertainAnswers(spec, q);
      auto answers = CertainCurrentAnswers(*s, q);
      if (!whole.ok()) {
        ASSERT_EQ(whole.status().code(), StatusCode::kInconsistent);
        EXPECT_EQ(answers.status().code(), StatusCode::kInconsistent);
        EXPECT_EQ(oracle.status().code(), StatusCode::kInconsistent);
        continue;
      }
      ASSERT_TRUE(answers.ok()) << answers.status();
      EXPECT_EQ(*answers, *whole);
      EXPECT_EQ(*whole, oracle.value());
      for (const Tuple& t : *whole) {
        EXPECT_TRUE(IsCertainCurrentAnswer(*s, q, t).value()) << t.ToString();
      }
    }
  }
}

class ChaseRoutingEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ChaseRoutingEquivalence, RoutedEqualsForcedSatAndOracle) {
  // Fractions: 0 = every component constrained (routing must degrade to
  // pure SAT), 0.5 = mixed routing inside one solve, 1 = every component
  // chase-eligible with zero-grounding constraints still present; plus a
  // literally constraint-free draw.
  struct Variant {
    bool with_copy;
    bool with_constraints;
    double free_fraction;
  };
  const Variant variants[] = {
      {false, true, 0.0}, {true, true, 0.0},  {false, true, 0.5},
      {true, true, 0.5},  {false, true, 1.0}, {true, true, 1.0},
      {true, false, 0.0},
  };
  for (size_t v = 0; v < sizeof(variants) / sizeof(variants[0]); ++v) {
    Specification spec =
        MakeRandomSpec(GetParam() * 1621 + static_cast<unsigned>(v),
                       variants[v].with_copy, variants[v].with_constraints,
                       variants[v].free_fraction);
    SCOPED_TRACE("seed=" + std::to_string(GetParam()) +
                 " variant=" + std::to_string(v));
    CheckRoutedEqualsForcedAndOracle(spec);
    if (::testing::Test::HasFatalFailure()) return;
    // Constraint-free draws (fraction 1, and the literally constraint-free
    // one): every one-shot call routes per component, and must agree
    // with the whole-specification PTIME results of Section 6.
    const Decomposition d = Decomposition::Build(spec).value();
    bool all_eligible = true;
    for (int c = 0; c < d.num_components(); ++c) {
      all_eligible = all_eligible && d.chase_eligible(c);
    }
    if (variants[v].free_fraction == 1.0 || !variants[v].with_constraints) {
      ASSERT_TRUE(all_eligible);
    }
    if (all_eligible) CheckWholeSpecChaseReferences(spec);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Random, ChaseRoutingEquivalence,
                         ::testing::Range(0, 6));

// The Proposition 6.3 corner (SpCcqaCornerTest): R's A and B both copy
// S.C, so their current values move together and the SP selection A = B
// is certain for e0.  The component {R e0, S s} is chase-eligible but not
// chase-enumerable, so routing must answer it on SAT.
TEST(ChaseRoutingCorner, SharedSourceCopyIsAnsweredExactly) {
  Specification spec;
  Relation r(Schema::Make("R", {"A", "B"}).value());
  ASSERT_TRUE(r.AppendValues({Value("e0"), Value(1), Value(1)}).ok());
  ASSERT_TRUE(r.AppendValues({Value("e0"), Value(2), Value(2)}).ok());
  ASSERT_TRUE(spec.AddInstance(TemporalInstance(std::move(r))).ok());
  Relation s(Schema::Make("S", {"C"}).value());
  ASSERT_TRUE(s.AppendValues({Value("s"), Value(1)}).ok());
  ASSERT_TRUE(s.AppendValues({Value("s"), Value(2)}).ok());
  ASSERT_TRUE(spec.AddInstance(TemporalInstance(std::move(s))).ok());
  for (const char* attr : {"A", "B"}) {
    copy::CopySignature sig;
    sig.target_relation = "R";
    sig.target_attrs = {attr};
    sig.source_relation = "S";
    sig.source_attrs = {"C"};
    copy::CopyFunction fn(sig);
    ASSERT_TRUE(fn.Map(0, 0).ok());
    ASSERT_TRUE(fn.Map(1, 1).ok());
    ASSERT_TRUE(spec.AddCopyFunction(std::move(fn)).ok());
  }
  const query::Query q =
      query::ParseQuery("Q(e) := EXISTS x, y: R(e, x, y) AND x = y").value();
  ASSERT_EQ(BruteForceCertainAnswers(spec, q).value(),
            std::set<Tuple>{Tuple({Value("e0")})});
  CheckRoutedEqualsForcedAndOracle(spec);
}

/// One entity of R(A) with `values` distinct, unordered A values: a
/// chase-enumerable component with `values` current fragments.
Specification MakeUnorderedEntity(int values) {
  Specification spec;
  Relation r(Schema::Make("R", {"A"}).value());
  for (int a = 0; a < values; ++a) {
    EXPECT_TRUE(r.AppendValues({Value("e0"), Value(a)}).ok());
  }
  EXPECT_TRUE(spec.AddInstance(TemporalInstance(std::move(r))).ok());
  return spec;
}

// A component with more current fragments than max_current_instances
// fails the enumeration on either route (CcqaOptions), rather than
// visiting a truncated set and reporting success.
TEST(ChaseRoutingBudget, OverBudgetComponentFailsOnBothRoutes) {
  for (auto [values, budget] : {std::pair{4, 3}, std::pair{3, 2}}) {
    SCOPED_TRACE(std::to_string(values) + " values, budget " +
                 std::to_string(budget));
    Specification spec = MakeUnorderedEntity(values);
    CcqaOptions ccqa;
    ccqa.max_current_instances = budget;
    int visits = 0;
    auto visit = [&](const query::Database&) {
      ++visits;
      return true;
    };
    auto routed = ForEachCurrentInstance(spec, ccqa, visit);
    auto forced = ForcedSatForEachCurrentInstance(spec, ccqa, visit);
    EXPECT_EQ(routed.status().code(), StatusCode::kResourceExhausted)
        << routed.status();
    EXPECT_EQ(forced.status().code(), StatusCode::kResourceExhausted)
        << forced.status();
    EXPECT_EQ(visits, 0) << "a refused component must visit nothing";
  }
}

// Exactly at the budget the chase route enumerates every fragment.  (The
// SAT route refuses a space of exactly max_models models whose emptiness
// only one more solve could prove; see sat::EnumerateProjectedModels.)
TEST(ChaseRoutingBudget, AtBudgetComponentEnumeratesOnChaseRoute) {
  Specification spec = MakeUnorderedEntity(3);
  CcqaOptions ccqa;
  ccqa.max_current_instances = 3;
  int visits = 0;
  auto count = ForEachCurrentInstance(spec, ccqa, [&](const query::Database&) {
    ++visits;
    return true;
  });
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(*count, 3);
  EXPECT_EQ(visits, 3);
}

// ---------------------------------------------------------------------------
// Sessions: routed and forced sessions over the same specification must
// give element-wise equal batch answers across random accepted/rejected
// Mutate rounds, for every thread count.

std::vector<TupleEdit> MakeRandomEdits(const Specification& spec,
                                       std::mt19937& rng) {
  auto rnd = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  const Relation& r = spec.instance(0).relation();
  TupleId t = rnd(0, r.size() - 1);
  switch (rnd(0, 3)) {
    case 0: {  // no-op rewrite
      AttrIndex a = rnd(0, r.schema().arity() - 1);
      return {TupleEdit{0, t, a, r.tuple(t).at(a)}};
    }
    case 1:  // free-attribute edit
      return {TupleEdit{0, t, 2, Value(rnd(0, 3))}};
    case 2: {  // EID move; may be rejected
      const char* eids[] = {"e0", "e1", "e2"};
      return {TupleEdit{0, t, 0, Value(eids[rnd(0, 2)])}};
    }
    default: {  // coordinated A edit keeping copy conditions intact
      Value v(rnd(0, 3));
      std::vector<TupleEdit> edits = {TupleEdit{0, t, 1, v}};
      for (const CopyEdge& edge : spec.copy_edges()) {
        for (const auto& [tgt, src] : edge.fn.mapping()) {
          if (src == t) edits.push_back(TupleEdit{edge.target_instance, tgt, 1, v});
        }
      }
      return edits;
    }
  }
}

void CheckSessionsAgree(serve::CurrencySession* routed,
                        serve::CurrencySession* forced) {
  const Specification& spec = routed->spec();
  {
    auto a = routed->CpsCheck();
    auto b = forced->CpsCheck();
    ASSERT_TRUE(a.ok() && b.ok()) << a.status() << " " << b.status();
    EXPECT_EQ(*a, *b) << "CPS";
  }
  {
    std::vector<CurrencyOrderQuery> queries =
        MakeCopQueries(spec.instance(0).relation());
    auto a = routed->CopBatch(queries);
    auto b = forced->CopBatch(queries);
    ASSERT_TRUE(a.ok() && b.ok()) << a.status() << " " << b.status();
    EXPECT_EQ(*a, *b) << "COP";
  }
  {
    std::vector<std::string> relations;
    for (int i = 0; i < spec.num_instances(); ++i) {
      relations.push_back(spec.instance(i).name());
    }
    auto a = routed->DcipBatch(relations);
    auto b = forced->DcipBatch(relations);
    ASSERT_TRUE(a.ok() && b.ok()) << a.status() << " " << b.status();
    EXPECT_EQ(*a, *b) << "DCIP";
  }
  {
    query::Query q =
        query::ParseQuery("Q(x) := EXISTS y: R('e0', x, y)").value();
    std::vector<serve::CcqaRequest> requests;
    requests.push_back(serve::CcqaRequest{q, std::nullopt});
    for (int k = 0; k < 4; ++k) {
      requests.push_back(serve::CcqaRequest{q, Tuple({Value(k)})});
    }
    auto a = routed->CcqaBatch(requests);
    auto b = forced->CcqaBatch(requests);
    ASSERT_TRUE(a.ok() && b.ok()) << a.status() << " " << b.status();
    ASSERT_EQ(a->size(), b->size());
    for (size_t i = 0; i < a->size(); ++i) {
      SCOPED_TRACE("ccqa request " + std::to_string(i));
      EXPECT_EQ((*a)[i].vacuous, (*b)[i].vacuous);
      EXPECT_EQ((*a)[i].is_certain, (*b)[i].is_certain);
      EXPECT_EQ((*a)[i].answers, (*b)[i].answers);
    }
  }
}

class ChaseRoutingSession : public ::testing::TestWithParam<int> {};

TEST_P(ChaseRoutingSession, RoutedSessionMatchesForcedAcrossMutations) {
  for (int variant = 0; variant < 4; ++variant) {
    bool with_copy = variant & 1;
    double free_fraction = variant >= 2 ? 0.5 : 1.0;
    Specification spec = MakeRandomSpec(GetParam() * 2341 + variant,
                                        with_copy, true, free_fraction);
    for (int threads : kThreadCounts) {
      SCOPED_TRACE("seed=" + std::to_string(GetParam()) +
                   " variant=" + std::to_string(variant) +
                   " threads=" + std::to_string(threads));
      serve::SessionOptions options;
      options.num_threads = threads;
      auto routed = serve::CurrencySession::Create(spec, options);
      auto forced =
          serve::CurrencySession::CreateForcedSatForTesting(spec, options);
      ASSERT_TRUE(routed.ok() && forced.ok())
          << routed.status() << " " << forced.status();
      CheckSessionsAgree(routed->get(), forced->get());
      if (::testing::Test::HasFatalFailure()) return;
      std::mt19937 rng(GetParam() * 4099 + variant * 31 + threads);
      for (int round = 0; round < 2; ++round) {
        SCOPED_TRACE("round=" + std::to_string(round));
        std::vector<TupleEdit> edits =
            MakeRandomEdits((*routed)->spec(), rng);
        Status a = (*routed)->Mutate(edits);
        Status b = (*forced)->Mutate(edits);
        EXPECT_EQ(a.code(), b.code());
        if (!a.ok()) {
          EXPECT_EQ(a.code(), StatusCode::kFailedPrecondition);
        }
        CheckSessionsAgree(routed->get(), forced->get());
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, ChaseRoutingSession, ::testing::Range(0, 6));

// ---------------------------------------------------------------------------
// Metamorphic classification properties.

/// R(A, B) with groups e0 (A values distinct — a gated "A decides
/// currency" constraint grounds) and e1 (A values equal — the same
/// constraint text gated on e1 grounds nowhere).
Specification MakeMixedSpec(bool constrain_e0) {
  Specification spec;
  Schema rs = Schema::Make("R", {"A", "B"}).value();
  Relation r(rs);
  auto add = [&](const char* eid, int a, int b) {
    auto id = r.AppendValues({Value(eid), Value(a), Value(b)});
    (void)id;
  };
  add("e0", 1, 10);  // 0
  add("e0", 2, 20);  // 1
  add("e1", 5, 30);  // 2
  add("e1", 5, 40);  // 3
  auto st = spec.AddInstance(core::TemporalInstance(std::move(r)));
  (void)st;
  if (constrain_e0) {
    auto cst = spec.AddConstraintText(
        "FORALL s, t IN R: s.EID = 'e0' AND s.A > t.A -> t PREC[A] s");
    (void)cst;
  }
  return spec;
}

TEST(ChaseClassification, GroundedConstraintFlipsExactlyItsComponent) {
  Specification base = MakeMixedSpec(false);
  Specification constrained = MakeMixedSpec(true);
  auto d0 = Decomposition::Build(base);
  auto d1 = Decomposition::Build(constrained);
  ASSERT_TRUE(d0.ok() && d1.ok());
  int e0_before = d0->ComponentOf(0, Value("e0"));
  int e1_before = d0->ComponentOf(0, Value("e1"));
  int e0_after = d1->ComponentOf(0, Value("e0"));
  int e1_after = d1->ComponentOf(0, Value("e1"));
  // Without constraints both components are chase-eligible and (being
  // singleton, uncoupled groups) chase-enumerable.
  EXPECT_TRUE(d0->chase_eligible(e0_before));
  EXPECT_TRUE(d0->chase_eligible(e1_before));
  EXPECT_TRUE(d0->chase_enumerable(e0_before));
  EXPECT_TRUE(d0->chase_enumerable(e1_before));
  // The grounded constraint flips exactly e0's component to SAT and
  // changes exactly e0's fingerprint.
  EXPECT_FALSE(d1->chase_eligible(e0_after));
  EXPECT_FALSE(d1->chase_enumerable(e0_after));
  EXPECT_TRUE(d1->chase_eligible(e1_after));
  EXPECT_NE(d0->fingerprint(e0_before), d1->fingerprint(e0_after));
  EXPECT_EQ(d0->fingerprint(e1_before), d1->fingerprint(e1_after));
}

TEST(ChaseClassification, ZeroGroundingConstraintIsInert) {
  Specification base = MakeMixedSpec(true);
  Specification with_inert = MakeMixedSpec(true);
  // e1's A values are equal, so this constraint grounds nowhere; a
  // constraint gated on a nonexistent entity is equally inert.
  ASSERT_TRUE(with_inert
                  .AddConstraintText("FORALL s, t IN R: s.EID = 'e1' AND "
                                     "s.A > t.A -> t PREC[A] s")
                  .ok());
  ASSERT_TRUE(with_inert
                  .AddConstraintText("FORALL s, t IN R: s.EID = 'nobody' AND "
                                     "s.A > t.A -> t PREC[B] s")
                  .ok());
  auto d0 = Decomposition::Build(base);
  auto d1 = Decomposition::Build(with_inert);
  ASSERT_TRUE(d0.ok() && d1.ok());
  for (const Value& eid : {Value("e0"), Value("e1")}) {
    int before = d0->ComponentOf(0, eid);
    int after = d1->ComponentOf(0, eid);
    EXPECT_EQ(d0->chase_eligible(before), d1->chase_eligible(after))
        << eid.ToString();
    EXPECT_EQ(d0->chase_enumerable(before), d1->chase_enumerable(after))
        << eid.ToString();
    EXPECT_EQ(d0->fingerprint(before), d1->fingerprint(after))
        << eid.ToString();
  }
}

TEST(ChaseClassification, SingleSourceCopyBucketIsInert) {
  // A second relation copying from ONE source tuple of e1: the bucket has
  // a single distinct source, so it emits no clause, no coupling, and no
  // chase derivation — e1's component must keep its classification and
  // fingerprint (the new R2 group forms its own component).
  Specification base = MakeMixedSpec(true);
  Specification with_copy = MakeMixedSpec(true);
  {
    Schema r2s = Schema::Make("R2", {"C"}).value();
    Relation r2(r2s);
    auto id = r2.AppendValues({Value("f0"), Value(5)});  // copies e1's A
    copy::CopySignature sig;
    sig.target_relation = "R2";
    sig.target_attrs = {"C"};
    sig.source_relation = "R";
    sig.source_attrs = {"A"};
    copy::CopyFunction fn(sig);
    auto m = fn.Map(id.value(), 2);
    (void)m;
    ASSERT_TRUE(with_copy.AddInstance(core::TemporalInstance(std::move(r2)))
                    .ok());
    ASSERT_TRUE(with_copy.AddCopyFunction(std::move(fn)).ok());
  }
  auto d0 = Decomposition::Build(base);
  auto d1 = Decomposition::Build(with_copy);
  ASSERT_TRUE(d0.ok() && d1.ok());
  for (const Value& eid : {Value("e0"), Value("e1")}) {
    int before = d0->ComponentOf(0, eid);
    int after = d1->ComponentOf(0, eid);
    EXPECT_EQ(d0->chase_eligible(before), d1->chase_eligible(after))
        << eid.ToString();
    EXPECT_EQ(d0->chase_enumerable(before), d1->chase_enumerable(after))
        << eid.ToString();
    EXPECT_EQ(d0->fingerprint(before), d1->fingerprint(after))
        << eid.ToString();
  }
  // The R2 group itself is a fresh chase-enumerable singleton.
  int r2c = d1->ComponentOf(1, Value("f0"));
  ASSERT_GE(r2c, 0);
  EXPECT_TRUE(d1->chase_eligible(r2c));
  EXPECT_TRUE(d1->chase_enumerable(r2c));
}

TEST(ChaseClassification, CouplingBucketDisablesEnumerationOnly) {
  // R2's group copies from TWO distinct source tuples of e1: the bucket
  // couples the groups into one component.  With no grounded constraint
  // the merged component stays chase-ELIGIBLE, but attribute independence
  // is gone, so it must not be chase-ENUMERABLE.
  Specification spec = MakeMixedSpec(false);
  {
    Schema r2s = Schema::Make("R2", {"C"}).value();
    Relation r2(r2s);
    auto i1 = r2.AppendValues({Value("f0"), Value(5)});
    auto i2 = r2.AppendValues({Value("f0"), Value(5)});
    copy::CopySignature sig;
    sig.target_relation = "R2";
    sig.target_attrs = {"C"};
    sig.source_relation = "R";
    sig.source_attrs = {"A"};
    copy::CopyFunction fn(sig);
    auto m1 = fn.Map(i1.value(), 2);
    auto m2 = fn.Map(i2.value(), 3);
    (void)m1;
    (void)m2;
    ASSERT_TRUE(spec.AddInstance(core::TemporalInstance(std::move(r2))).ok());
    ASSERT_TRUE(spec.AddCopyFunction(std::move(fn)).ok());
  }
  auto d = Decomposition::Build(spec);
  ASSERT_TRUE(d.ok());
  int coupled = d->ComponentOf(0, Value("e1"));
  ASSERT_EQ(coupled, d->ComponentOf(1, Value("f0")));
  EXPECT_TRUE(d->chase_eligible(coupled));
  EXPECT_FALSE(d->chase_enumerable(coupled));
  // e0 is untouched by the bucket: still enumerable.
  int e0 = d->ComponentOf(0, Value("e0"));
  EXPECT_TRUE(d->chase_enumerable(e0));
}

// ---------------------------------------------------------------------------
// Work counters and cache observability.

TEST(ChaseCounters, ComponentChaseCountsWorkAndSkipsEncoders) {
  // e1 coupled with R2 through a two-source bucket, plus an initial order
  // on e1's A so copy propagation actually derives pairs in R2.
  Specification spec;
  {
    Schema rs = Schema::Make("R", {"A", "B"}).value();
    Relation r(rs);
    (void)r.AppendValues({Value("e0"), Value(1), Value(10)});
    (void)r.AppendValues({Value("e0"), Value(2), Value(20)});
    (void)r.AppendValues({Value("e1"), Value(5), Value(30)});
    (void)r.AppendValues({Value("e1"), Value(5), Value(40)});
    TemporalInstance inst(std::move(r));
    ASSERT_TRUE(inst.AddOrder(1, 2, 3).ok());  // e1: tuple 2 ≺ tuple 3 on A
    ASSERT_TRUE(spec.AddInstance(std::move(inst)).ok());

    Schema r2s = Schema::Make("R2", {"C"}).value();
    Relation r2(r2s);
    auto i1 = r2.AppendValues({Value("f0"), Value(5)});
    auto i2 = r2.AppendValues({Value("f0"), Value(5)});
    copy::CopySignature sig;
    sig.target_relation = "R2";
    sig.target_attrs = {"C"};
    sig.source_relation = "R";
    sig.source_attrs = {"A"};
    copy::CopyFunction fn(sig);
    auto m1 = fn.Map(i1.value(), 2);
    auto m2 = fn.Map(i2.value(), 3);
    (void)m1;
    (void)m2;
    ASSERT_TRUE(spec.AddInstance(TemporalInstance(std::move(r2))).ok());
    ASSERT_TRUE(spec.AddCopyFunction(std::move(fn)).ok());
  }
  obs::Registry registry;
  EngineCounters counters;
  counters.Bind(&registry, {});
  auto decomposed = DecomposedEncoder::Build(
      spec, {}, /*use_chase_routing=*/true, &counters);
  ASSERT_TRUE(decomposed.ok()) << decomposed.status();
  ASSERT_TRUE((*decomposed)->chase_routing());
  exec::ThreadPool pool(1);
  ASSERT_TRUE((*decomposed)->EnsureAllSolved(&pool).value());
  int coupled = (*decomposed)->decomposition().ComponentOf(0, Value("e1"));
  auto chase = (*decomposed)->ChaseFixpoint(coupled);
  ASSERT_TRUE(chase.ok()) << chase.status();
  EXPECT_TRUE((*chase)->consistent);
  EXPECT_GE((*chase)->passes, 1);
  EXPECT_GT((*chase)->edges_expanded, 0) << "copy pairs were scanned";
  EXPECT_GT((*chase)->derived_pairs, 0)
      << "the initial order must propagate into R2";
  // A routed base solve never builds encoders for chase-eligible
  // components: each one holds a verdict and a cached fixpoint, and the
  // base solve reached no encoder slot (every slot visit counts a SAT
  // solve or a cache hit).
  const int64_t passes = counters.chase_passes->Value();
  int64_t eligible = 0;
  for (int c = 0; c < (*decomposed)->num_components(); ++c) {
    if ((*decomposed)->decomposition().chase_eligible(c)) {
      ++eligible;
      EXPECT_EQ((*decomposed)->CachedSat(c), 1) << "component " << c;
      EXPECT_TRUE((*decomposed)->ChaseFixpoint(c).ok()) << "component " << c;
    }
  }
  EXPECT_EQ(counters.chase_passes->Value(), passes) << "fixpoints are cached";
  EXPECT_EQ(counters.chase_solves->Value(), eligible);
  EXPECT_EQ(counters.base_solves->Value(), 0);
  EXPECT_EQ(counters.cache_hits->Value(), 0);
}

TEST(ChaseCounters, SessionReusesFixpointsAcrossMutate) {
  // Mixed specification: e0 constrained (SAT), e1 free (chase).
  Specification spec = MakeMixedSpec(true);
  serve::SessionOptions options;
  auto session = serve::CurrencySession::Create(std::move(spec), options);
  ASSERT_TRUE(session.ok()) << session.status();
  ASSERT_TRUE((*session)->CpsCheck().value());
  int64_t chase_solves = (*session)->stats().chase_solves;
  EXPECT_EQ(chase_solves, 1) << "exactly e1's component chases";
  EXPECT_EQ((*session)->stats().base_solves, 1) << "exactly e0's solves SAT";

  // A no-op edit keeps every fingerprint: the chase fixpoint is adopted,
  // nothing re-chases, and the next CPS is a pure cache read.
  const Value a0 = (*session)->spec().instance(0).relation().tuple(0).at(1);
  ASSERT_TRUE((*session)->Mutate({TupleEdit{0, 0, 1, a0}}).ok());
  EXPECT_EQ((*session)->stats().last_chase_reused, 1);
  EXPECT_EQ((*session)->stats().last_chase_rechased, 0);
  ASSERT_TRUE((*session)->CpsCheck().value());
  EXPECT_EQ((*session)->stats().chase_solves, chase_solves)
      << "adopted fixpoint must not re-chase";

  // Editing e1's content invalidates exactly its fixpoint.
  ASSERT_TRUE((*session)->Mutate({TupleEdit{0, 2, 2, Value(99)}}).ok());
  EXPECT_EQ((*session)->stats().last_chase_reused, 0);
  EXPECT_EQ((*session)->stats().last_chase_rechased, 1);
  EXPECT_EQ((*session)->stats().last_reused, 1) << "e0's encoder survives";
  ASSERT_TRUE((*session)->CpsCheck().value());
  EXPECT_EQ((*session)->stats().chase_solves, chase_solves + 1)
      << "exactly the invalidated component re-chases";

  // Editing e0's content leaves the fixpoint cache untouched.
  ASSERT_TRUE((*session)->Mutate({TupleEdit{0, 0, 2, Value(77)}}).ok());
  EXPECT_EQ((*session)->stats().last_chase_reused, 1);
  EXPECT_EQ((*session)->stats().last_chase_rechased, 0);
}

// ---------------------------------------------------------------------------
// Component node lists: the chase and the encoder both build from
// Decomposition::component(c).

/// bench_chase_routing's shape, small: R's entities e<k> each copy two
/// tuples into R2's f<k> through ONE copy edge, so every (f<k>, e<k>)
/// bucket couples its pair of groups and the edge spans `entities`
/// components.  Planted A orders t0 ≺ t1 ≺ t2 propagate into R2; with
/// `cycle`, f0's initial order runs against them and entity 0's
/// component is inconsistent.
Specification MakeShardedCopySpec(int entities, bool cycle) {
  Specification spec;
  Relation r(Schema::Make("R", {"A", "B"}).value());
  for (int e = 0; e < entities; ++e) {
    for (int k = 0; k < 3; ++k) {
      (void)r.AppendValues(
          {Value("e" + std::to_string(e)), Value(k), Value(k % 2)});
    }
  }
  TemporalInstance inst(std::move(r));
  for (int e = 0; e < entities; ++e) {
    (void)inst.AddOrder(1, 3 * e, 3 * e + 1);
    (void)inst.AddOrder(1, 3 * e + 1, 3 * e + 2);
  }
  (void)spec.AddInstance(std::move(inst));
  Relation r2(Schema::Make("R2", {"C"}).value());
  copy::CopySignature sig;
  sig.target_relation = "R2";
  sig.target_attrs = {"C"};
  sig.source_relation = "R";
  sig.source_attrs = {"A"};
  copy::CopyFunction fn(sig);
  for (int e = 0; e < entities; ++e) {
    Value eid("f" + std::to_string(e));
    TupleId t0 = r2.AppendValues({eid, Value(0)}).value();
    TupleId t1 = r2.AppendValues({eid, Value(1)}).value();
    (void)fn.Map(t0, 3 * e);
    (void)fn.Map(t1, 3 * e + 1);
  }
  TemporalInstance target(std::move(r2));
  if (cycle) (void)target.AddOrder(1, 1, 0);
  (void)spec.AddInstance(std::move(target));
  (void)spec.AddCopyFunction(std::move(fn));
  return spec;
}

/// Every component fixpoint equals the whole-specification chase (the
/// Theorem 6.1 reference) restricted to the component's groups, pair for
/// pair, and the consistency bits agree.  Requires a spec whose every
/// component is chase-eligible.
void ExpectComponentChasesMatchWholeSpec(const Specification& spec) {
  const Status status = currency::testing::CompareComponentChases(spec);
  EXPECT_TRUE(status.ok()) << status;
}

TEST(ComponentNodeLists, ComponentChasesMatchWholeSpecChase) {
  for (unsigned seed = 0; seed < 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectComponentChasesMatchWholeSpec(
        MakeRandomSpec(seed, /*with_copy=*/true, /*with_constraints=*/false));
    ExpectComponentChasesMatchWholeSpec(
        MakeRandomSpec(seed, /*with_copy=*/true, /*with_constraints=*/true,
                       /*constraint_free_fraction=*/1.0));
  }
  for (bool cycle : {false, true}) {
    SCOPED_TRACE(cycle ? "sharded, cycle" : "sharded");
    const Specification spec = MakeShardedCopySpec(12, cycle);
    ASSERT_EQ(Decomposition::Build(spec).value().num_components(), 12);
    ASSERT_EQ(ChaseWholeSpec(spec).value().consistent, !cycle);
    ExpectComponentChasesMatchWholeSpec(spec);
  }
}

TEST(ComponentNodeLists, EncoderRejectsOneSideOfCouplingBucket) {
  const Specification spec = MakeShardedCopySpec(3, /*cycle=*/false);
  const Decomposition d = Decomposition::Build(spec).value();
  const std::vector<EntityNode>& nodes =
      d.component(d.ComponentOf(1, Value("f1")));
  ASSERT_EQ(nodes.size(), 2u);
  // The (f1, e1) bucket maps two source tuples, so f1 alone splits it.
  const std::vector<EntityNode> target_only = {nodes[1]};
  ASSERT_EQ(target_only[0].inst, 1);
  auto split = Encoder::Build(
      spec, Encoder::Options{&target_only, &d.copy_index()});
  EXPECT_EQ(split.status().code(), StatusCode::kInternal) << split.status();
  EXPECT_TRUE(
      Encoder::Build(spec, Encoder::Options{&nodes, &d.copy_index()}).ok());
  // Both options are required.
  EXPECT_EQ(Encoder::Build(spec, Encoder::Options{&nodes, nullptr})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // e1 alone splits it from the source side; the chase rejects both.
  const std::vector<EntityNode> source_only = {nodes[0]};
  ASSERT_EQ(source_only[0].inst, 0);
  EXPECT_EQ(Encoder::Build(spec,
                           Encoder::Options{&source_only, &d.copy_index()})
                .status()
                .code(),
            StatusCode::kInternal);
  for (const std::vector<EntityNode>* one_side : {&target_only, &source_only}) {
    EXPECT_EQ(ChaseComponentOrders(spec, *one_side, d.copy_index())
                  .status()
                  .code(),
              StatusCode::kInternal);
  }
  EXPECT_TRUE(ChaseComponentOrders(spec, nodes, d.copy_index()).ok());
  // Both builders take the list in (instance, entity) order only.
  const std::vector<EntityNode> reversed = {nodes[1], nodes[0]};
  EXPECT_EQ(Encoder::Build(spec,
                           Encoder::Options{&reversed, &d.copy_index()})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ChaseComponentOrders(spec, reversed, d.copy_index())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace currency::core
