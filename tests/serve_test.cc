// Unit coverage for the serving layer (src/serve/session.h): session
// lifecycle, batch routing and request-order results, warm-cache
// behaviour, Mutate's component-precise invalidation (no-op edits,
// value edits, EID-driven component split/merge), rejected edit batches,
// and the vacuous (Mod(S) = ∅) conventions; and the successor engine
// Mutate builds (core::DecomposedEncoder::BuildSuccessor).  The randomized
// session-vs-fresh sweep lives in session_equivalence_test.cc.

#include <gtest/gtest.h>

#include <future>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/ccqa.h"
#include "src/core/certain_order.h"
#include "src/core/consistency.h"
#include "src/core/deterministic.h"
#include "src/exec/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/query/parser.h"
#include "src/serve/session.h"
#include "tests/fixtures.h"
#include "tests/support/forced_sat.h"
#include "tests/support/monolithic.h"

namespace currency::serve {
namespace {

using currency::testing::MakeQ1Trimmed;
using currency::testing::MakeQ4Trimmed;
using currency::testing::MakeS0Trimmed;

std::unique_ptr<CurrencySession> MakeSession(core::Specification spec,
                                             int threads = 1) {
  SessionOptions options;
  options.num_threads = threads;
  auto session = CurrencySession::Create(std::move(spec), options);
  EXPECT_TRUE(session.ok()) << session.status();
  return std::move(session).value();
}

/// A two-entity single-relation specification whose entities form two
/// independent coupling components.
core::Specification MakeTwoComponentSpec() {
  core::Specification spec;
  Schema rs = Schema::Make("R", {"A"}).value();
  Relation r(rs);
  (void)r.AppendValues({Value("e0"), Value(0)});
  (void)r.AppendValues({Value("e0"), Value(1)});
  (void)r.AppendValues({Value("e1"), Value(2)});
  (void)r.AppendValues({Value("e1"), Value(3)});
  (void)spec.AddInstance(core::TemporalInstance(std::move(r)));
  EXPECT_TRUE(
      spec.AddConstraintText("FORALL s, t IN R: s.A > t.A -> t PREC[A] s")
          .ok());
  return spec;
}

/// MakeTwoComponentSpec plus S(B): one constrained entity, so a query over
/// S touches exactly one (SAT-routed) component while a query over R
/// touches two.
core::Specification MakeSpecWithOneComponentRelation() {
  core::Specification spec = MakeTwoComponentSpec();
  Schema ss = Schema::Make("S", {"B"}).value();
  Relation s(ss);
  (void)s.AppendValues({Value("s0"), Value(0)});
  (void)s.AppendValues({Value("s0"), Value(1)});
  (void)s.AppendValues({Value("s0"), Value(2)});
  (void)spec.AddInstance(core::TemporalInstance(std::move(s)));
  EXPECT_TRUE(spec.AddConstraintText(
                      "FORALL s, t IN S: s.B > t.B AND t.B > 0 -> "
                      "t PREC[B] s")
                  .ok());
  return spec;
}

/// R(A, B) with `entities` SAT-routed entities e0, e1, ... of three tuples
/// each (A = 5, 6, 7; B = 0), one coupling component per entity.  The
/// constraints order A = 5 before A = 6 and deny A = 7 coming after both,
/// so the A = 6 tuple is current in every completion — but no unit
/// propagates that at build time, so the first probes that depend on it
/// reach the solver.  `chase_entity` adds entity c0 with A = 1, 2: no
/// constraint grounds on it, so it is a chase-routed component, and R is
/// non-deterministic there.
core::Specification MakeSearchSpec(int entities, bool chase_entity = false) {
  core::Specification spec;
  Schema rs = Schema::Make("R", {"A", "B"}).value();
  Relation r(rs);
  if (chase_entity) {
    (void)r.AppendValues({Value("c0"), Value(1), Value(0)});
    (void)r.AppendValues({Value("c0"), Value(2), Value(0)});
  }
  for (int e = 0; e < entities; ++e) {
    Value eid("e" + std::to_string(e));
    for (int a : {5, 6, 7}) (void)r.AppendValues({eid, Value(a), Value(0)});
  }
  (void)spec.AddInstance(core::TemporalInstance(std::move(r)));
  EXPECT_TRUE(
      spec.AddConstraintText("FORALL s, t IN R: s.A = 5 AND t.A = 6 -> "
                             "s PREC[A] t")
          .ok());
  EXPECT_TRUE(spec.AddConstraintText(
                      "FORALL s, t, w IN R: s.A = 5 AND t.A = 6 AND "
                      "w.A = 7 AND s PREC[A] w AND t PREC[A] w -> "
                      "s PREC[A] s")
                  .ok());
  return spec;
}

/// Every ordered pair (on A) of the three tuples starting at `first`.
std::vector<core::CurrencyOrderQuery> EntityPairQueries(TupleId first) {
  std::vector<core::CurrencyOrderQuery> queries;
  for (TupleId u = first; u < first + 3; ++u) {
    for (TupleId v = first; v < first + 3; ++v) {
      if (u == v) continue;
      core::CurrencyOrderQuery q;
      q.relation = "R";
      q.pairs = {core::RequiredPair{1, u, v}};
      queries.push_back(q);
    }
  }
  return queries;
}

/// The unlabelled value of a standalone session's counter family.
int64_t CounterValue(CurrencySession* session, const char* family) {
  return session->registry()->GetCounter(family, obs::Labels{})->Value();
}

/// Snapshot of the counters that show whether a batch reached a solver.
struct SolverWork {
  int64_t propagations = 0;
  int64_t probe_solves = 0;
  int64_t probes_settled = 0;

  static SolverWork Of(CurrencySession* session) {
    return {CounterValue(session, "currency_sat_propagations_total"),
            CounterValue(session, "currency_serve_probe_solves_total"),
            CounterValue(session, "currency_serve_probes_settled_total")};
  }
  SolverWork operator-(const SolverWork& before) const {
    return {propagations - before.propagations,
            probe_solves - before.probe_solves,
            probes_settled - before.probes_settled};
  }
};

/// Checks COP answers against the monolithic reference over the session's
/// spec (it probes every pair with a solve, independently of the engine).
void ExpectCopMatchesReference(CurrencySession* session,
                               const std::vector<core::CurrencyOrderQuery>& qs,
                               const std::vector<bool>& got) {
  ASSERT_EQ(got.size(), qs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(got[i], currency::testing::MonolithicCertainOrder(
                          session->spec(), qs[i])
                          .value())
        << "query " << i;
  }
}

/// Membership requests for every candidate value 0..3 plus the answer set.
std::vector<CcqaRequest> AllCcqaRequests(const query::Query& q) {
  std::vector<CcqaRequest> requests;
  for (int v = 0; v < 4; ++v) {
    requests.push_back(CcqaRequest{q, Tuple({Value(v)})});
  }
  requests.push_back(CcqaRequest{q, std::nullopt});
  return requests;
}

/// Checks CcqaBatch(AllCcqaRequests(q)) answers against one-shot solves.
void ExpectCcqaMatchesOneShot(CurrencySession* session,
                              const std::vector<CcqaResponse>& got,
                              const query::Query& q) {
  const core::Specification& spec = session->spec();
  ASSERT_EQ(got.size(), 5u);
  for (int v = 0; v < 4; ++v) {
    ASSERT_TRUE(got[v].is_certain.has_value());
    EXPECT_EQ(*got[v].is_certain,
              core::IsCertainCurrentAnswer(spec, q, Tuple({Value(v)})).value())
        << "candidate " << v;
  }
  ASSERT_TRUE(got[4].answers.has_value());
  EXPECT_EQ(*got[4].answers, core::CertainCurrentAnswers(spec, q).value());
}

TEST(CurrencySession, SingleComponentCcqaRunsOnTheComponentEncoder) {
  auto session = MakeSession(MakeSpecWithOneComponentRelation());
  query::Query q = query::ParseQuery("Q(x) := S('s0', x)").value();
  auto got = session->CcqaBatch(AllCcqaRequests(q));
  ASSERT_TRUE(got.ok()) << got.status();
  ExpectCcqaMatchesOneShot(session.get(), *got, q);
  EXPECT_EQ(session->stats().merged_builds, 0)
      << "a one-component query must reuse the component's own encoder";
}

TEST(CurrencySession, PinnedQueryOnMultiComponentRelationUsesOneComponent) {
  core::Specification spec = MakeSpecWithOneComponentRelation();
  auto session = MakeSession(MakeSpecWithOneComponentRelation());
  query::Query q = query::ParseQuery("Q(x) := R('e0', x)").value();
  auto got = session->CcqaBatch(AllCcqaRequests(q));
  ASSERT_TRUE(got.ok()) << got.status();
  ExpectCcqaMatchesOneShot(session.get(), *got, q);
  EXPECT_EQ(*(*got)[4].answers,
            currency::testing::MonolithicCertainAnswers(spec, q).value());
  EXPECT_EQ(session->stats().merged_builds, 0)
      << "R has two components, but the query reads only e0's";
}

TEST(CurrencySession, RepeatedCcqaBatchReusesTheEpochEncoders) {
  auto session = MakeSession(MakeSpecWithOneComponentRelation());
  query::Query over_r = query::ParseQuery("Q(x) := EXISTS e: R(e, x)").value();
  query::Query over_s = query::ParseQuery("Q(x) := S('s0', x)").value();
  std::vector<CcqaRequest> requests = AllCcqaRequests(over_r);
  for (const CcqaRequest& r : AllCcqaRequests(over_s)) requests.push_back(r);

  auto first = session->CcqaBatch(requests);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(session->stats().merged_builds, 1)
      << "R's two components share one merged encoder";
  const int64_t builds = session->stats().merged_builds;
  const int64_t solves = session->stats().base_solves;
  auto second = session->CcqaBatch(requests);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(session->stats().merged_builds, builds);
  EXPECT_EQ(session->stats().base_solves, solves);
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ((*first)[i].is_certain, (*second)[i].is_certain) << i;
    EXPECT_EQ((*first)[i].answers, (*second)[i].answers) << i;
  }
  ExpectCcqaMatchesOneShot(
      session.get(), std::vector<CcqaResponse>(second->begin(),
                                               second->begin() + 5),
      over_r);

  // A Mutate publishes a new epoch; its merged slot is built once, on
  // first use, and then reused.
  ASSERT_TRUE(session->Mutate({core::TupleEdit{1, 0, 1, Value(3)}}).ok());
  for (int round = 0; round < 2; ++round) {
    auto after = session->CcqaBatch(requests);
    ASSERT_TRUE(after.ok()) << after.status();
    EXPECT_EQ(session->stats().merged_builds, builds + 1) << "round " << round;
    ExpectCcqaMatchesOneShot(
        session.get(), std::vector<CcqaResponse>(after->begin() + 5,
                                                 after->end()),
        over_s);
  }
}

TEST(CurrencySession, MatchesOneShotSolversOnS0) {
  core::Specification spec = MakeS0Trimmed();
  auto session = MakeSession(MakeS0Trimmed());

  // CPS.
  auto cps = session->CpsCheck();
  ASSERT_TRUE(cps.ok()) << cps.status();
  EXPECT_EQ(*cps, core::DecideConsistency(spec)->consistent);

  // COP: a batch of queries answered in request order.  Trimmed Emp
  // attrs: LN = 1, address = 2, salary = 3, status = 4.
  std::vector<core::CurrencyOrderQuery> queries;
  {
    core::CurrencyOrderQuery q;  // s1 ≺_salary s3 (certain: ϕ1)
    q.relation = "Emp";
    q.pairs = {core::RequiredPair{3, 0, 2}};
    queries.push_back(q);
    q.pairs = {core::RequiredPair{3, 2, 0}};  // reversed: refutable
    queries.push_back(q);
    q.pairs = {core::RequiredPair{1, 0, 3}};  // cross-entity: false
    queries.push_back(q);
    q.pairs = {core::RequiredPair{1, 0, 0}};  // reflexive: false
    queries.push_back(q);
  }
  auto cop = session->CopBatch(queries);
  ASSERT_TRUE(cop.ok()) << cop.status();
  ASSERT_EQ(cop->size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto fresh = core::IsCertainOrder(spec, queries[i]);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    EXPECT_EQ((*cop)[i], *fresh) << "query " << i;
  }

  // DCIP for both relations.
  auto dcip = session->DcipBatch({"Emp", "Dept"});
  ASSERT_TRUE(dcip.ok()) << dcip.status();
  EXPECT_EQ((*dcip)[0], core::IsDeterministicForRelation(spec, "Emp").value());
  EXPECT_EQ((*dcip)[1], core::IsDeterministicForRelation(spec, "Dept").value());

  // CCQA: answer sets and memberships for Q1/Q4.
  std::vector<CcqaRequest> requests;
  requests.push_back(CcqaRequest{MakeQ1Trimmed(), std::nullopt});
  requests.push_back(CcqaRequest{MakeQ4Trimmed(), std::nullopt});
  requests.push_back(CcqaRequest{MakeQ1Trimmed(), Tuple({Value(80)})});
  auto ccqa = session->CcqaBatch(requests);
  ASSERT_TRUE(ccqa.ok()) << ccqa.status();
  EXPECT_EQ(*(*ccqa)[0].answers,
            currency::testing::ForcedSatCertainAnswers(spec, MakeQ1Trimmed())
                .value());
  EXPECT_EQ(*(*ccqa)[1].answers,
            currency::testing::ForcedSatCertainAnswers(spec, MakeQ4Trimmed())
                .value());
  EXPECT_EQ(*(*ccqa)[2].is_certain,
            currency::testing::ForcedSatIsCertainAnswer(
                spec, MakeQ1Trimmed(), Tuple({Value(80)}))
                .value());
  EXPECT_EQ(session->stats().merged_builds, 0)
      << "Q1 and Q4 pin Mary and RnD, which share one component";
}

TEST(CurrencySession, WarmRequestsServeFromTheResultCache) {
  auto session = MakeSession(MakeTwoComponentSpec());
  ASSERT_TRUE(session->CpsCheck().value());
  int64_t solves = session->stats().base_solves;
  EXPECT_EQ(solves, 2) << "one base solve per component";
  // Warm CPS and COP reuse the cached solves and encoders.
  ASSERT_TRUE(session->CpsCheck().value());
  core::CurrencyOrderQuery q;
  q.relation = "R";
  q.pairs = {core::RequiredPair{1, 0, 1}};
  ASSERT_TRUE(session->CopBatch({q}).ok());
  EXPECT_EQ(session->stats().base_solves, solves);
}

TEST(CurrencySession, RepeatedWarmProbeBatchesAddNoSolverWork) {
  auto session = MakeSession(MakeSearchSpec(2));
  ASSERT_TRUE(session->CpsCheck().value());
  std::vector<core::CurrencyOrderQuery> queries = EntityPairQueries(0);
  for (const auto& q : EntityPairQueries(3)) queries.push_back(q);

  SolverWork before = SolverWork::Of(session.get());
  auto first = session->CopBatch(queries);
  ASSERT_TRUE(first.ok()) << first.status();
  ExpectCopMatchesReference(session.get(), queries, *first);
  SolverWork cold = SolverWork::Of(session.get()) - before;
  EXPECT_GT(cold.probe_solves, 0) << "the certain pairs need a solve";
  EXPECT_EQ(cold.probe_solves + cold.probes_settled,
            static_cast<int64_t>(queries.size()));

  // Every first probe left a remembered model (kSat) or a root literal
  // (kUnsat), so the repeat is answered without touching a solver.
  before = SolverWork::Of(session.get());
  auto second = session->CopBatch(queries);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(*second, *first);
  SolverWork warm = SolverWork::Of(session.get()) - before;
  EXPECT_EQ(warm.propagations, 0);
  EXPECT_EQ(warm.probe_solves, 0);
  EXPECT_EQ(warm.probes_settled, static_cast<int64_t>(queries.size()));

  auto dcip = session->DcipBatch({"R"});
  ASSERT_TRUE(dcip.ok()) << dcip.status();
  EXPECT_EQ((*dcip)[0],
            currency::testing::MonolithicDeterministic(session->spec(), "R")
                .value());
  before = SolverWork::Of(session.get());
  auto again = session->DcipBatch({"R"});
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(*again, *dcip);
  warm = SolverWork::Of(session.get()) - before;
  EXPECT_EQ(warm.propagations, 0);
  EXPECT_EQ(warm.probe_solves, 0);
}

TEST(CurrencySession, DeterministicRelationsSecondDcipBatchSettlesFromRoot) {
  auto session = MakeSession(MakeSearchSpec(2));
  ASSERT_TRUE(session->CpsCheck().value());
  ASSERT_TRUE(
      currency::testing::MonolithicDeterministic(session->spec(), "R").value());

  // Per entity, every remembered model makes A = 6 current, so the
  // candidates are A = 5 (its selector is fixed false at build time) and
  // A = 7 (fixed false by the base solve's learnt units, or else by the
  // refuting probe).
  SolverWork before = SolverWork::Of(session.get());
  auto first = session->DcipBatch({"R"});
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE((*first)[0]);
  SolverWork cold = SolverWork::Of(session.get()) - before;
  EXPECT_EQ(cold.probe_solves + cold.probes_settled, 4);

  // Both selectors of every entity are now fixed false at the root: the
  // second batch settles every candidate there.
  before = SolverWork::Of(session.get());
  auto second = session->DcipBatch({"R"});
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE((*second)[0]);
  SolverWork warm = SolverWork::Of(session.get()) - before;
  EXPECT_EQ(warm.probe_solves, 0);
  EXPECT_EQ(warm.probes_settled, 4);
  EXPECT_EQ(warm.propagations, 0);
}

// Probes the component solvers' records settle are answered on the
// calling thread: a warm COP or DCIP batch over two SAT-routed components
// opens no pool region, while a batch leaving both components with open
// probes fans out one task per component.
TEST(CurrencySession, OnlyProbesThatNeedASolveReachThePool) {
  obs::Registry registry;
  exec::ThreadPool pool(4);
  exec::ThreadPool::Instruments instruments;
  instruments.regions = registry.GetCounter("currency_exec_pool_regions_total");
  instruments.tasks = registry.GetCounter("currency_exec_pool_tasks_total");
  pool.BindInstruments(instruments);
  struct PoolWork {
    int64_t regions = 0;
    int64_t tasks = 0;
  };
  auto pool_work = [&](const auto& batch) {
    const PoolWork before{instruments.regions->Value(),
                          instruments.tasks->Value()};
    batch();
    return PoolWork{instruments.regions->Value() - before.regions,
                    instruments.tasks->Value() - before.tasks};
  };
  SessionOptions options;
  options.pool = &pool;
  auto session = CurrencySession::Create(MakeSearchSpec(2), options).value();
  ASSERT_TRUE(session->CpsCheck().value());
  const core::Specification& spec = session->spec();
  std::vector<core::CurrencyOrderQuery> queries = EntityPairQueries(0);
  for (const auto& q : EntityPairQueries(3)) queries.push_back(q);
  auto expect_references = [&](const std::vector<bool>& got) {
    ExpectCopMatchesReference(session.get(), queries, got);
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(got[i], core::IsCertainOrder(spec, queries[i]).value())
          << "query " << i;
    }
  };

  // Cold: both components' solvers are left with pairs to solve.
  std::vector<bool> cold;
  PoolWork work = pool_work([&] {
    auto got = session->CopBatch(queries);
    ASSERT_TRUE(got.ok()) << got.status();
    cold = *got;
  });
  expect_references(cold);
  EXPECT_EQ(work.regions, 1);
  EXPECT_GE(work.tasks, 2);

  // Warm: every pair is settled from the solvers' records.
  work = pool_work([&] {
    auto got = session->CopBatch(queries);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, cold);
  });
  EXPECT_EQ(work.regions, 0);
  EXPECT_EQ(work.tasks, 0);

  // DCIP: the first batch leaves the is-last selectors fixed at the root,
  // so the second settles every candidate there.
  const bool deterministic =
      currency::testing::MonolithicDeterministic(spec, "R").value();
  EXPECT_EQ(deterministic, core::IsDeterministicForRelation(spec, "R").value());
  for (int round = 0; round < 2; ++round) {
    work = pool_work([&] {
      auto got = session->DcipBatch({"R"});
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ((*got)[0], deterministic);
    });
  }
  EXPECT_EQ(work.regions, 0);
  EXPECT_EQ(work.tasks, 0);
}

TEST(CurrencySession, AfterMutateOnlyTheReencodedComponentSolvesAgain) {
  auto session = MakeSession(MakeSearchSpec(2));
  const std::vector<core::CurrencyOrderQuery> e0 = EntityPairQueries(0);
  const std::vector<core::CurrencyOrderQuery> e1 = EntityPairQueries(3);
  std::vector<core::CurrencyOrderQuery> both = e0;
  both.insert(both.end(), e1.begin(), e1.end());
  ASSERT_TRUE(session->CopBatch(both).ok());
  ASSERT_TRUE(session->DcipBatch({"R"}).ok());

  // Editing e0's B re-encodes e0's component only; e1's encoder, with
  // its remembered models and root literals, is adopted.
  ASSERT_TRUE(session->Mutate({core::TupleEdit{0, 0, 2, Value(1)}}).ok());
  EXPECT_EQ(session->stats().last_invalidated, 1);
  ASSERT_TRUE(session->CpsCheck().value());  // e0's base solve

  SolverWork before = SolverWork::Of(session.get());
  auto adopted = session->CopBatch(e1);
  ASSERT_TRUE(adopted.ok()) << adopted.status();
  ExpectCopMatchesReference(session.get(), e1, *adopted);
  SolverWork work = SolverWork::Of(session.get()) - before;
  EXPECT_EQ(work.propagations, 0);
  EXPECT_EQ(work.probe_solves, 0);

  before = SolverWork::Of(session.get());
  auto rebuilt = session->CopBatch(e0);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  ExpectCopMatchesReference(session.get(), e0, *rebuilt);
  work = SolverWork::Of(session.get()) - before;
  EXPECT_GT(work.probe_solves, 0) << "the re-encoded component solves again";
  EXPECT_GT(work.propagations, 0);
}

TEST(CurrencySession, ChaseRefutedDcipItemLeavesSatSolversUntouched) {
  auto session = MakeSession(MakeSearchSpec(2, /*chase_entity=*/true));
  ASSERT_TRUE(session->CpsCheck().value());
  ASSERT_GT(session->stats().chase_solves, 0);
  ASSERT_GT(session->stats().base_solves, 0);

  SolverWork before = SolverWork::Of(session.get());
  auto dcip = session->DcipBatch({"R"});
  ASSERT_TRUE(dcip.ok()) << dcip.status();
  EXPECT_FALSE((*dcip)[0]) << "c0's current A is 1 or 2";
  EXPECT_FALSE(
      currency::testing::MonolithicDeterministic(session->spec(), "R").value());
  SolverWork work = SolverWork::Of(session.get()) - before;
  EXPECT_EQ(work.propagations, 0);
  EXPECT_EQ(work.probe_solves, 0);
  EXPECT_EQ(work.probes_settled, 0);
}

TEST(CurrencySession, NoOpMutateInvalidatesNothing) {
  auto session = MakeSession(MakeTwoComponentSpec());
  ASSERT_TRUE(session->CpsCheck().value());
  int64_t solves = session->stats().base_solves;
  // Rewriting a cell with its current value changes no fingerprint.
  ASSERT_TRUE(
      session->Mutate({core::TupleEdit{0, 0, 1, Value(0)}}).ok());
  EXPECT_EQ(session->stats().last_invalidated, 0);
  EXPECT_EQ(session->stats().last_reused, session->num_components());
  ASSERT_TRUE(session->CpsCheck().value());
  EXPECT_EQ(session->stats().base_solves, solves)
      << "a no-op edit must not trigger re-solves";
}

TEST(CurrencySession, MutateInvalidatesExactlyTheTouchedComponent) {
  auto session = MakeSession(MakeTwoComponentSpec());
  ASSERT_TRUE(session->CpsCheck().value());
  EXPECT_EQ(session->num_components(), 2);
  int64_t solves = session->stats().base_solves;
  // Edit entity e0's tuple 0: only e0's component may rebuild.
  ASSERT_TRUE(session->Mutate({core::TupleEdit{0, 0, 1, Value(9)}}).ok());
  EXPECT_EQ(session->stats().last_invalidated, 1);
  EXPECT_EQ(session->stats().last_reused, 1);
  ASSERT_TRUE(session->CpsCheck().value());
  EXPECT_EQ(session->stats().base_solves, solves + 1)
      << "exactly the touched component re-solves";
  // And the answers equal a fresh solve over the mutated specification.
  EXPECT_EQ(session->CpsCheck().value(),
            currency::testing::MonolithicConsistent(session->spec()).value());
}

TEST(CurrencySession, EidEditsMergeAndSplitCouplingComponents) {
  // R entities e0 = {0, 1} and e1 = {2, 3}; R2's f0 copies A from tuples
  // 0 (entity e0) and 2 (entity e1).  Each (f0, e*) bucket has one
  // source, so nothing couples: components are {R:e0}, {R:e1}, {R2:f0}.
  core::Specification spec;
  Schema rs = Schema::Make("R", {"A"}).value();
  Relation r(rs);
  (void)r.AppendValues({Value("e0"), Value(0)});
  (void)r.AppendValues({Value("e0"), Value(1)});
  (void)r.AppendValues({Value("e1"), Value(2)});
  (void)r.AppendValues({Value("e1"), Value(3)});
  (void)spec.AddInstance(core::TemporalInstance(std::move(r)));
  Schema r2s = Schema::Make("R2", {"C"}).value();
  Relation r2(r2s);
  (void)r2.AppendValues({Value("f0"), Value(0)});
  (void)r2.AppendValues({Value("f0"), Value(2)});
  copy::CopySignature sig;
  sig.target_relation = "R2";
  sig.target_attrs = {"C"};
  sig.source_relation = "R";
  sig.source_attrs = {"A"};
  copy::CopyFunction fn(sig);
  ASSERT_TRUE(fn.Map(0, 0).ok());
  ASSERT_TRUE(fn.Map(1, 2).ok());
  (void)spec.AddInstance(core::TemporalInstance(std::move(r2)));
  ASSERT_TRUE(spec.AddCopyFunction(std::move(fn)).ok());

  auto session = MakeSession(std::move(spec));
  EXPECT_EQ(session->num_components(), 3);
  ASSERT_TRUE(session->CpsCheck().value());

  // Merge: moving tuple 2 into e0 gives bucket (f0, e0) two distinct
  // sources, coupling {R:e0, R2:f0} into one component.
  ASSERT_TRUE(session->Mutate({core::TupleEdit{0, 2, 0, Value("e0")}}).ok());
  EXPECT_EQ(session->num_components(), 2);
  ASSERT_TRUE(session->CpsCheck().value());
  EXPECT_EQ(session->CpsCheck().value(),
            currency::testing::MonolithicConsistent(session->spec()).value());

  // Split: moving it back restores the three decoupled components.
  ASSERT_TRUE(session->Mutate({core::TupleEdit{0, 2, 0, Value("e1")}}).ok());
  EXPECT_EQ(session->num_components(), 3);
  ASSERT_TRUE(session->CpsCheck().value());
}

TEST(CurrencySession, RejectedMutationsLeaveTheSessionIntact) {
  // A spec with an initial order on tuple 0 and a copy of Emp-style data:
  // re-use S0 trimmed (ρ: Dept[mgrAddr] ⇐ Emp[address]).
  core::Specification with_order = MakeTwoComponentSpec();
  ASSERT_TRUE(with_order.mutable_instance(0)->AddOrder(1, 0, 1).ok());
  auto session = MakeSession(std::move(with_order));
  ASSERT_TRUE(session->CpsCheck().value());
  int64_t solves = session->stats().base_solves;

  // (a) EID edit on a tuple with initial orders: rejected.
  Status st = session->Mutate({core::TupleEdit{0, 0, 0, Value("e1")}});
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st;
  // (b) Out-of-range edit: rejected.
  EXPECT_EQ(session->Mutate({core::TupleEdit{0, 99, 1, Value(1)}})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session->stats().mutations, 0);
  ASSERT_TRUE(session->CpsCheck().value());
  EXPECT_EQ(session->stats().base_solves, solves)
      << "rejected mutations must not drop the caches";

  // (c) A copy-condition-violating edit rolls back atomically.  The
  // session runs two threads so the parallel batch below also exercises
  // the post-rollback path under TSan: ApplyTupleEdits must leave the
  // entity-group caches warm even though the epoch rebuild is skipped.
  auto s0 = MakeSession(MakeS0Trimmed(), /*threads=*/2);
  ASSERT_TRUE(s0->CpsCheck().ok());
  // Emp s1's address feeds Dept t1/t2 via ρ: editing it alone breaks the
  // copying condition.
  Status bad = s0->Mutate({core::TupleEdit{0, 0, 2, Value("9 New Rd")}});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(s0->spec().instance(0).relation().tuple(0).at(2),
            Value("2 Small St"))
      << "the failed batch must roll back";
  auto post_reject = s0->DcipBatch({"Emp", "Dept"});
  ASSERT_TRUE(post_reject.ok()) << post_reject.status();
  // The coordinated batch (source + both copy targets) is accepted.
  ASSERT_TRUE(s0->Mutate({core::TupleEdit{0, 0, 2, Value("9 New Rd")},
                          core::TupleEdit{1, 0, 1, Value("9 New Rd")},
                          core::TupleEdit{1, 1, 1, Value("9 New Rd")}})
                  .ok());
  EXPECT_EQ(s0->CpsCheck().value(),
            core::DecideConsistency(s0->spec())->consistent);
}

TEST(CurrencySession, VacuousAnswersOnInconsistentSpecifications) {
  // Two tuples with A = 0 and A = 1 plus a pure denial whose premises
  // are value-only: every completion is denied, so Mod(S) = ∅.
  core::Specification spec;
  Schema rs = Schema::Make("R", {"A"}).value();
  Relation r(rs);
  (void)r.AppendValues({Value("e0"), Value(0)});
  (void)r.AppendValues({Value("e0"), Value(1)});
  (void)spec.AddInstance(core::TemporalInstance(std::move(r)));
  ASSERT_TRUE(
      spec.AddConstraintText(
              "FORALL s, t IN R: s.A = 0 AND t.A = 1 -> s PREC[A] s")
          .ok());
  auto session = MakeSession(std::move(spec));
  EXPECT_FALSE(session->CpsCheck().value());

  core::CurrencyOrderQuery q;
  q.relation = "R";
  q.pairs = {core::RequiredPair{1, 0, 1}};
  EXPECT_TRUE(session->CopBatch({q})->at(0)) << "COP is vacuously true";
  EXPECT_TRUE(session->DcipBatch({"R"})->at(0)) << "DCIP is vacuously true";

  query::Query query =
      query::ParseQuery("Q(x) := EXISTS y: R('e0', x, y)").value();
  auto ccqa = session->CcqaBatch(
      {CcqaRequest{query, std::nullopt}, CcqaRequest{query, Tuple({Value(7)})}});
  ASSERT_TRUE(ccqa.ok()) << ccqa.status();
  EXPECT_TRUE((*ccqa)[0].vacuous);
  EXPECT_FALSE((*ccqa)[0].answers.has_value());
  EXPECT_TRUE((*ccqa)[1].vacuous);
  EXPECT_TRUE(*(*ccqa)[1].is_certain) << "membership is vacuously certain";
}

TEST(CurrencySession, ValidatesInputsUpFront) {
  SessionOptions zero_threads;
  zero_threads.num_threads = 0;
  EXPECT_EQ(CurrencySession::Create(MakeTwoComponentSpec(), zero_threads)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  auto session = MakeSession(MakeTwoComponentSpec());
  // A malformed item fails its whole batch before any solving.
  auto expect_unsolved = [&] {
    EXPECT_EQ(session->stats().base_solves, 0);
    EXPECT_EQ(session->stats().chase_solves, 0);
  };
  core::CurrencyOrderQuery unknown;
  unknown.relation = "Nope";
  EXPECT_EQ(session->CopBatch({unknown}).status().code(),
            StatusCode::kNotFound);
  expect_unsolved();
  core::CurrencyOrderQuery bad_pair;
  bad_pair.relation = "R";
  bad_pair.pairs = {core::RequiredPair{1, 0, 99}};
  EXPECT_EQ(session->CopBatch({bad_pair}).status().code(),
            StatusCode::kInvalidArgument);
  expect_unsolved();
  EXPECT_EQ(session->DcipBatch({"Nope"}).status().code(),
            StatusCode::kNotFound);
  expect_unsolved();
  const query::Query query = query::ParseQuery("Q(x) := R('e0', x)").value();
  EXPECT_EQ(session
                ->CcqaBatch({CcqaRequest{query, std::nullopt},
                             CcqaRequest{query, Tuple({Value(0), Value(1)})}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  expect_unsolved();
  EXPECT_EQ(session
                ->CcqaBatch({CcqaRequest{query, std::nullopt},
                             CcqaRequest{query::ParseQuery(
                                             "Q(x) := Nope('e0', x)")
                                             .value(),
                                         std::nullopt}})
                .status()
                .code(),
            StatusCode::kNotFound);
  expect_unsolved();
}

// ---------------------------------------------------------------------------
// The successor engine, driven directly.

/// An engine over `spec` that reports into its own registry.
struct CountedEngine {
  obs::Registry registry;
  core::EngineCounters counters;
  std::unique_ptr<core::DecomposedEncoder> engine;

  explicit CountedEngine(const core::Specification& spec) {
    counters.Bind(&registry, {});
    engine = core::DecomposedEncoder::Build(spec, {},
                                            /*use_chase_routing=*/true,
                                            &counters)
                 .value();
  }
};

/// MakeSearchSpec(2, /*chase_entity=*/true): c0 (tuples 0-1, chase-routed),
/// e0 (2-4) and e1 (5-7), SAT-routed.  COP asks every pair of every
/// entity on A.
std::vector<core::CurrencyOrderQuery> SearchSpecPairQueries() {
  std::vector<core::CurrencyOrderQuery> queries = EntityPairQueries(2);
  const std::vector<core::CurrencyOrderQuery> e1 = EntityPairQueries(5);
  queries.insert(queries.end(), e1.begin(), e1.end());
  for (auto [u, v] : {std::pair<TupleId, TupleId>{0, 1}, {1, 0}}) {
    core::CurrencyOrderQuery q;
    q.relation = "R";
    q.pairs = {core::RequiredPair{1, u, v}};
    queries.push_back(q);
  }
  return queries;
}

/// CPS, COP over SearchSpecPairQueries and DCIP for R, on `engine`.
struct EngineAnswers {
  bool consistent = false;
  std::vector<bool> cop;
  std::vector<bool> dcip;

  static EngineAnswers Of(core::DecomposedEncoder* engine,
                          exec::ThreadPool* pool) {
    const std::vector<core::CurrencyOrderQuery> queries =
        SearchSpecPairQueries();
    EngineAnswers a;
    a.consistent = engine->EnsureAllSolved(pool).value();
    a.cop = core::internal::CertainOrderProbes(engine, queries, pool).value();
    a.dcip = core::internal::DeterminismProbes(engine, {"R"}, pool).value();
    return a;
  }
  bool operator==(const EngineAnswers& o) const {
    return consistent == o.consistent && cop == o.cop && dcip == o.dcip;
  }
};

/// The encoder in component `c`'s slot, built there if it is empty.
core::Encoder* SlotEncoder(core::DecomposedEncoder* engine, int c) {
  core::Encoder* encoder = nullptr;
  EXPECT_TRUE(engine
                  ->WithComponentEncoder(c,
                                         [&](core::Encoder* e) {
                                           encoder = e;
                                           return Status::OK();
                                         })
                  .ok());
  return encoder;
}

TEST(SuccessorEngine, UnchangedSpecTakesOverEveryCachedComponent) {
  const core::Specification spec = MakeSearchSpec(2, /*chase_entity=*/true);
  exec::ThreadPool pool(2);
  CountedEngine old(spec);
  const EngineAnswers warm = EngineAnswers::Of(old.engine.get(), &pool);
  ASSERT_TRUE(warm.consistent);
  const int n = old.engine->num_components();
  ASSERT_EQ(n, 3);

  const core::Specification copy = spec;
  auto next = core::DecomposedEncoder::BuildSuccessor(copy, *old.engine);
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(old.counters.last_reused->Value(), n);
  EXPECT_EQ(old.counters.last_invalidated->Value(), 0);
  EXPECT_EQ(old.counters.last_chase_reused->Value(), 1);
  EXPECT_EQ(old.counters.last_chase_rechased->Value(), 0);

  const int64_t base_solves = old.counters.base_solves->Value();
  const int64_t chase_solves = old.counters.chase_solves->Value();
  const int64_t probe_solves = old.counters.probe_solves->Value();
  EXPECT_TRUE(EngineAnswers::Of(next->get(), &pool) == warm);
  EXPECT_EQ(old.counters.base_solves->Value(), base_solves);
  EXPECT_EQ(old.counters.chase_solves->Value(), chase_solves);
  EXPECT_EQ(old.counters.probe_solves->Value(), probe_solves)
      << "the taken encoders carry their remembered models";
}

TEST(SuccessorEngine, OneTupleEditTakesEveryComponentButTheTouchedOne) {
  const core::Specification spec = MakeSearchSpec(2, /*chase_entity=*/true);
  exec::ThreadPool pool(2);
  CountedEngine old(spec);
  ASSERT_TRUE(EngineAnswers::Of(old.engine.get(), &pool).consistent);

  // e0's tuple 2 gets B = 1: e0's component alone changes content.
  core::Specification edited = spec;
  ASSERT_TRUE(edited.ApplyTupleEdits({core::TupleEdit{0, 2, 2, Value(1)}})
                  .ok());
  auto next = core::DecomposedEncoder::BuildSuccessor(edited, *old.engine);
  ASSERT_TRUE(next.ok()) << next.status();
  const int n = (*next)->num_components();
  EXPECT_EQ(old.counters.last_reused->Value(), n - 1);
  EXPECT_EQ(old.counters.last_invalidated->Value(), 1);
  EXPECT_EQ(old.counters.last_chase_reused->Value(), 1);
  EXPECT_EQ(old.counters.last_chase_rechased->Value(), 0);
  const int touched = (*next)->decomposition().ComponentOf(0, Value("e0"));
  for (int c = 0; c < n; ++c) {
    EXPECT_EQ((*next)->CachedSat(c) < 0, c == touched) << "component " << c;
  }

  const int64_t base_solves = old.counters.base_solves->Value();
  CountedEngine fresh(edited);
  EXPECT_TRUE(EngineAnswers::Of(next->get(), &pool) ==
              EngineAnswers::Of(fresh.engine.get(), &pool));
  EXPECT_EQ(old.counters.base_solves->Value(), base_solves + 1)
      << "exactly the touched component solves again";

  // A forced-SAT engine never reads a fixpoint, so its successor takes
  // none, even one computed on demand.
  auto forced = core::DecomposedEncoder::Build(
      spec, {}, /*use_chase_routing=*/false, &old.counters);
  ASSERT_TRUE(forced.ok());
  const int c0 = (*forced)->decomposition().ComponentOf(0, Value("c0"));
  ASSERT_TRUE((*forced)->ChaseFixpoint(c0).ok());
  ASSERT_TRUE((*forced)->EnsureAllSolved(&pool).value());
  auto forced_next = core::DecomposedEncoder::BuildSuccessor(spec, **forced);
  ASSERT_TRUE(forced_next.ok());
  EXPECT_FALSE((*forced_next)->chase_routing());
  EXPECT_EQ(old.counters.last_reused->Value(), n);
  EXPECT_EQ(old.counters.last_chase_reused->Value(), 0);
  EXPECT_EQ(old.counters.last_chase_rechased->Value(), 0);
}

TEST(SuccessorEngine, BusyPredecessorSlotIsSkippedAndRebuiltLazily) {
  const core::Specification spec = MakeSearchSpec(2, /*chase_entity=*/true);
  exec::ThreadPool pool(2);
  CountedEngine old(spec);
  const EngineAnswers warm = EngineAnswers::Of(old.engine.get(), &pool);
  const int busy = old.engine->decomposition().ComponentOf(0, Value("e0"));
  const int idle = old.engine->decomposition().ComponentOf(0, Value("e1"));
  core::Encoder* const busy_encoder = SlotEncoder(old.engine.get(), busy);
  core::Encoder* const idle_encoder = SlotEncoder(old.engine.get(), idle);

  // Another thread holds e0's slot for the whole successor build.
  std::promise<void> held;
  std::promise<void> release;
  std::thread holder([&] {
    EXPECT_TRUE(old.engine
                    ->WithComponentEncoder(busy,
                                           [&](core::Encoder*) {
                                             held.set_value();
                                             release.get_future().wait();
                                             return Status::OK();
                                           })
                    .ok());
  });
  held.get_future().wait();
  const core::Specification copy = spec;
  auto next = core::DecomposedEncoder::BuildSuccessor(copy, *old.engine);
  release.set_value();
  holder.join();
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(old.counters.last_reused->Value(), 3)
      << "e0's verdict is taken without its encoder";

  EXPECT_EQ(SlotEncoder(next->get(), idle), idle_encoder);
  core::Encoder* const rebuilt = SlotEncoder(next->get(), busy);
  EXPECT_NE(rebuilt, busy_encoder);
  EXPECT_EQ(SlotEncoder(old.engine.get(), busy), busy_encoder)
      << "the predecessor keeps the encoder it was not asked for";
  EXPECT_TRUE(EngineAnswers::Of(next->get(), &pool) == warm);
  EXPECT_TRUE(EngineAnswers::Of(old.engine.get(), &pool) == warm);
}

}  // namespace
}  // namespace currency::serve
