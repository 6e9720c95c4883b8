// Session-vs-fresh equivalence for the serving layer: every batch answer
// a CurrencySession gives — cold, warm, and after arbitrary accepted or
// rejected Mutate batches — must equal the monolithic reference (one
// unfiltered encoding of the session's current specification,
// tests/support/monolithic.h), and must agree with the brute-force
// oracle.  The session's caches (component encoders with
// accumulated learnt clauses, base-solve results, fingerprint-matched
// reuse across epochs) are exactly the machinery under test, which is why
// every round re-checks all four problems from scratch.
//
// Checked across session thread counts {1, 2, 8}; scripts/check.sh also
// runs this suite under ThreadSanitizer and AddressSanitizer.

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/core/ccqa.h"
#include "src/core/certain_order.h"
#include "src/core/consistency.h"
#include "src/core/deterministic.h"
#include "src/obs/trace.h"
#include "src/query/parser.h"
#include "src/serve/session.h"
#include "tests/fixtures.h"
#include "tests/support/brute_force.h"
#include "tests/support/monolithic.h"

namespace currency::serve {
namespace {

using currency::testing::MakeRandomSpec;

constexpr int kThreadCounts[] = {1, 2, 8};

/// COP queries exercising same-entity, cross-entity, reflexive and
/// multi-pair shapes against relation R of the random specifications.
std::vector<core::CurrencyOrderQuery> MakeCopQueries() {
  std::vector<core::CurrencyOrderQuery> queries;
  auto single = [&](core::RequiredPair p) {
    core::CurrencyOrderQuery q;
    q.relation = "R";
    q.pairs = {p};
    queries.push_back(std::move(q));
  };
  single(core::RequiredPair{1, 0, 1});
  single(core::RequiredPair{2, 1, 0});
  single(core::RequiredPair{1, 0, 2});  // often cross-entity
  single(core::RequiredPair{1, 1, 1});  // reflexive
  core::CurrencyOrderQuery multi;
  multi.relation = "R";
  multi.pairs = {core::RequiredPair{1, 0, 1}, core::RequiredPair{2, 2, 3},
                 core::RequiredPair{1, 1, 0}};
  queries.push_back(std::move(multi));
  return queries;
}

/// R(A) with `entities` constrained entities e0, e1, ... of tuples A = 0,
/// 1, 2 each: A = 0 comes before A = 1, and nothing else is ordered.  Each
/// entity is its own SAT-routed component, where tuples 1 and 2 are
/// ordered each way in some completion and A = 1 and A = 2 can each be
/// current.
core::Specification MakeOpenProbeSpec(int entities = 1) {
  core::Specification spec;
  Relation r(Schema::Make("R", {"A"}).value());
  for (int e = 0; e < entities; ++e) {
    Value eid("e" + std::to_string(e));
    for (int a = 0; a < 3; ++a) (void)r.AppendValues({eid, Value(a)});
  }
  (void)spec.AddInstance(core::TemporalInstance(std::move(r)));
  EXPECT_TRUE(
      spec.AddConstraintText("FORALL s, t IN R: s.A = 0 AND t.A = 1 -> "
                             "s PREC[A] t")
          .ok());
  return spec;
}

/// Re-checks all four problems on the session against the monolithic
/// reference over session->spec() AND the brute-force oracle.
void CheckAllProblems(CurrencySession* session) {
  const core::Specification& spec = session->spec();

  // --- CPS ---
  {
    auto fresh = currency::testing::MonolithicConsistent(spec);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    bool oracle = core::BruteForceConsistent(spec).value();
    auto got = session->CpsCheck();
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, *fresh);
    EXPECT_EQ(*got, oracle);
  }

  // --- COP ---
  {
    std::vector<core::CurrencyOrderQuery> queries = MakeCopQueries();
    // Clamp the fixed tuple ids to the relation's actual size.
    const Relation& rel = spec.instance(0).relation();
    for (auto& q : queries) {
      for (auto& p : q.pairs) {
        p.before = p.before % rel.size();
        p.after = p.after % rel.size();
      }
    }
    auto got = session->CopBatch(queries);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(got->size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      SCOPED_TRACE("cop query " + std::to_string(i));
      auto fresh = currency::testing::MonolithicCertainOrder(spec, queries[i]);
      ASSERT_TRUE(fresh.ok()) << fresh.status();
      EXPECT_EQ((*got)[i], *fresh);
      EXPECT_EQ((*got)[i],
                core::BruteForceCertainOrder(spec, queries[i]).value());
    }
  }

  // --- DCIP over every relation ---
  {
    std::vector<std::string> relations;
    for (int i = 0; i < spec.num_instances(); ++i) {
      relations.push_back(spec.instance(i).name());
    }
    auto got = session->DcipBatch(relations);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(got->size(), relations.size());
    for (size_t i = 0; i < relations.size(); ++i) {
      SCOPED_TRACE("dcip relation " + relations[i]);
      auto fresh =
          currency::testing::MonolithicDeterministic(spec, relations[i]);
      ASSERT_TRUE(fresh.ok()) << fresh.status();
      EXPECT_EQ((*got)[i], *fresh);
      EXPECT_EQ((*got)[i],
                core::BruteForceDeterministic(spec, relations[i]).value());
    }
  }

  // --- CCQA: one answer-set request plus membership requests ---
  {
    query::Query q =
        query::ParseQuery("Q(x) := EXISTS y: R('e0', x, y)").value();
    std::vector<CcqaRequest> requests;
    requests.push_back(CcqaRequest{q, std::nullopt});
    for (int k = 0; k < 4; ++k) {
      requests.push_back(CcqaRequest{q, Tuple({Value(k)})});
    }
    auto got = session->CcqaBatch(requests);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(got->size(), requests.size());
    auto fresh = currency::testing::MonolithicCertainAnswers(spec, q);
    auto oracle = core::BruteForceCertainAnswers(spec, q);
    if (!fresh.ok()) {
      ASSERT_EQ(fresh.status().code(), StatusCode::kInconsistent)
          << fresh.status();
      EXPECT_EQ(oracle.status().code(), StatusCode::kInconsistent);
      EXPECT_TRUE((*got)[0].vacuous);
      EXPECT_FALSE((*got)[0].answers.has_value());
    } else {
      ASSERT_TRUE((*got)[0].answers.has_value());
      EXPECT_FALSE((*got)[0].vacuous);
      EXPECT_EQ(*(*got)[0].answers, *fresh);
      EXPECT_EQ(*(*got)[0].answers, oracle.value());
    }
    for (int k = 0; k < 4; ++k) {
      SCOPED_TRACE("ccqa membership candidate " + std::to_string(k));
      auto fresh_member = currency::testing::MonolithicIsCertainAnswer(
          spec, q, Tuple({Value(k)}));
      ASSERT_TRUE(fresh_member.ok()) << fresh_member.status();
      ASSERT_TRUE((*got)[k + 1].is_certain.has_value());
      EXPECT_EQ(*(*got)[k + 1].is_certain, *fresh_member);
    }
  }
}

/// A random edit batch against the MakeRandomSpec shape (R(A, B) plus an
/// optional R2(C) copying C ⇐ A): no-op rewrites, free B edits, EID moves
/// (including to a fresh entity — the component split/merge cases), and
/// copy-consistent coordinated A edits.
std::vector<core::TupleEdit> MakeRandomEdits(const core::Specification& spec,
                                             std::mt19937& rng) {
  auto rnd = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  const Relation& r = spec.instance(0).relation();
  TupleId t = rnd(0, r.size() - 1);
  switch (rnd(0, 3)) {
    case 0: {  // no-op rewrite of an arbitrary cell
      AttrIndex a = rnd(0, r.schema().arity() - 1);
      return {core::TupleEdit{0, t, a, r.tuple(t).at(a)}};
    }
    case 1:  // free-attribute edit (B is never copied)
      return {core::TupleEdit{0, t, 2, Value(rnd(0, 3))}};
    case 2: {  // EID move; may be rejected when t has initial orders
      const char* eids[] = {"e0", "e1", "e2"};
      return {core::TupleEdit{0, t, 0, Value(eids[rnd(0, 2)])}};
    }
    default: {  // coordinated A edit keeping every copy condition intact
      Value v(rnd(0, 3));
      std::vector<core::TupleEdit> edits = {core::TupleEdit{0, t, 1, v}};
      for (const core::CopyEdge& edge : spec.copy_edges()) {
        for (const auto& [tgt, src] : edge.fn.mapping()) {
          if (src == t) {
            edits.push_back(
                core::TupleEdit{edge.target_instance, tgt, 1, v});
          }
        }
      }
      return edits;
    }
  }
}

class SessionEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(SessionEquivalence, BatchesMatchFreshSolvesAcrossMutations) {
  // Variants 0–3: the historical copy × constraints grid.  Variants 4–5
  // add entity-gated constraints with a 0.5 constraint-free fraction, so
  // sessions mix chase-routed and SAT-routed components.
  for (int variant = 0; variant < 6; ++variant) {
    bool with_copy = variant & 1;
    bool with_constraints = (variant & 2) || variant >= 4;
    double free_fraction = variant >= 4 ? 0.5 : 0.0;
    core::Specification spec =
        MakeRandomSpec(GetParam() * 1237 + variant, with_copy,
                       with_constraints, free_fraction);
    for (int threads : kThreadCounts) {
      SCOPED_TRACE("seed=" + std::to_string(GetParam()) +
                   " variant=" + std::to_string(variant) +
                   " threads=" + std::to_string(threads));
      SessionOptions options;
      options.num_threads = threads;
      auto session = CurrencySession::Create(spec, options);
      ASSERT_TRUE(session.ok()) << session.status();
      CheckAllProblems(session->get());
      if (::testing::Test::HasFatalFailure()) return;
      // Warm re-check: answers must be stable and served from cache.
      int64_t solves_before = (*session)->stats().base_solves;
      CheckAllProblems(session->get());
      if (::testing::Test::HasFatalFailure()) return;
      EXPECT_EQ((*session)->stats().base_solves, solves_before)
          << "warm batches must not re-run base solves";
      // Mutation rounds: rejected batches must leave everything
      // unchanged; accepted ones must match fresh solves on the edited
      // specification.  Both paths re-check all four problems.
      std::mt19937 rng(GetParam() * 7919 + variant * 53 + threads);
      for (int round = 0; round < 2; ++round) {
        SCOPED_TRACE("round=" + std::to_string(round));
        std::vector<core::TupleEdit> edits =
            MakeRandomEdits((*session)->spec(), rng);
        Status st = (*session)->Mutate(edits);
        if (!st.ok()) {
          EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st;
        }
        CheckAllProblems(session->get());
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// Leak detection for CCQA's solver scopes.  R2's single entity f0 owns one
// coupling component, so CCQA over R2 runs its blocking loops on the very
// solver that COP and DCIP probe for that component (a forced-SAT session
// keeps every component on SAT).  Membership requests interleave with
// those probes before and after Mutate, and every answer is re-checked
// against the brute-force oracle: a blocking clause or a learnt clause
// derived from one that outlived its scope would remove completions and
// flip a later COP, DCIP or CCQA answer.
TEST_P(SessionEquivalence, ScopedCcqaLeavesSharedComponentSolversExact) {
  const query::Query q = query::ParseQuery("Q(c) := R2('f0', c)").value();
  int checked_specs = 0;
  for (int variant = 0; variant < 4; ++variant) {
    core::Specification spec = MakeRandomSpec(
        GetParam() * 4271 + variant, /*with_copy=*/true,
        /*with_constraints=*/variant % 2 == 1);
    const int r2 = spec.InstanceIndex("R2").value();
    if (spec.instance(r2).relation().size() < 2) continue;  // no R2 pairs
    ++checked_specs;
    for (int threads : kThreadCounts) {
      SCOPED_TRACE("seed=" + std::to_string(GetParam()) +
                   " variant=" + std::to_string(variant) +
                   " threads=" + std::to_string(threads));
      SessionOptions options;
      options.num_threads = threads;
      auto created = CurrencySession::CreateForcedSatForTesting(spec, options);
      ASSERT_TRUE(created.ok()) << created.status();
      CurrencySession* session = created->get();
      std::mt19937 rng(GetParam() * 131 + variant * 17 + threads);
      for (int round = 0; round < 3; ++round) {
        SCOPED_TRACE("round=" + std::to_string(round));
        const core::Specification current = session->spec();
        std::vector<core::CurrencyOrderQuery> cop;
        std::vector<bool> expected_cop;
        const int n = current.instance(r2).relation().size();
        for (int u = 0; u < n; ++u) {
          for (int v = 0; v < n; ++v) {
            if (u == v) continue;
            core::CurrencyOrderQuery query;
            query.relation = "R2";
            query.pairs = {core::RequiredPair{1, u, v}};
            expected_cop.push_back(
                core::BruteForceCertainOrder(current, query).value());
            cop.push_back(std::move(query));
          }
        }
        const bool expected_dcip =
            core::BruteForceDeterministic(current, "R2").value();
        auto oracle_answers = core::BruteForceCertainAnswers(current, q);
        if (!oracle_answers.ok()) {
          ASSERT_EQ(oracle_answers.status().code(), StatusCode::kInconsistent)
              << oracle_answers.status();
        }
        for (int k = 0; k < 4; ++k) {
          // Probes, then a scoped loop, on the same component solver.
          auto got_cop = session->CopBatch(cop);
          ASSERT_TRUE(got_cop.ok()) << got_cop.status();
          EXPECT_EQ(*got_cop, expected_cop) << "after " << k << " memberships";
          auto got_dcip = session->DcipBatch({"R2"});
          ASSERT_TRUE(got_dcip.ok()) << got_dcip.status();
          EXPECT_EQ((*got_dcip)[0], expected_dcip)
              << "after " << k << " memberships";
          auto got = session->CcqaBatch({CcqaRequest{q, Tuple({Value(k)})}});
          ASSERT_TRUE(got.ok()) << got.status();
          ASSERT_TRUE((*got)[0].is_certain.has_value());
          const bool expected = !oracle_answers.ok() ||
                                oracle_answers->count(Tuple({Value(k)})) > 0;
          EXPECT_EQ(*(*got)[0].is_certain, expected) << "candidate " << k;
        }
        auto got = session->CcqaBatch({CcqaRequest{q, std::nullopt}});
        ASSERT_TRUE(got.ok()) << got.status();
        if (oracle_answers.ok()) {
          ASSERT_TRUE((*got)[0].answers.has_value());
          EXPECT_EQ(*(*got)[0].answers, *oracle_answers);
        } else {
          EXPECT_TRUE((*got)[0].vacuous);
        }
        Status st = session->Mutate(MakeRandomEdits(session->spec(), rng));
        if (!st.ok()) {
          EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st;
        }
      }
    }
  }
  EXPECT_GT(checked_specs, 0) << "no variant produced R2 pairs";
}

INSTANTIATE_TEST_SUITE_P(Random, SessionEquivalence, ::testing::Range(0, 8));

/// Serializes every batch answer a session gives (CPS, COP, DCIP, CCQA
/// answer sets and memberships) into one comparable transcript.
std::string BatchTranscript(CurrencySession* session) {
  std::string out;
  auto cps = session->CpsCheck();
  out += "cps=" + std::string(cps.ok() ? (*cps ? "1" : "0") : "E") + ";";
  std::vector<core::CurrencyOrderQuery> queries = MakeCopQueries();
  const Relation& rel = session->spec().instance(0).relation();
  for (auto& q : queries) {
    for (auto& p : q.pairs) {
      p.before = p.before % rel.size();
      p.after = p.after % rel.size();
    }
  }
  auto cop = session->CopBatch(queries);
  out += "cop=";
  if (cop.ok()) {
    for (bool b : *cop) out += b ? "1" : "0";
  } else {
    out += "E";
  }
  auto dcip = session->DcipBatch({"R"});
  out += ";dcip=";
  out += dcip.ok() ? ((*dcip)[0] ? "1" : "0") : "E";
  query::Query q = query::ParseQuery("Q(x) := EXISTS y: R('e0', x, y)").value();
  std::vector<CcqaRequest> requests;
  requests.push_back(CcqaRequest{q, std::nullopt});
  for (int k = 0; k < 4; ++k) {
    requests.push_back(CcqaRequest{q, Tuple({Value(k)})});
  }
  auto ccqa = session->CcqaBatch(requests);
  out += ";ccqa=";
  if (!ccqa.ok()) {
    out += "E";
    return out;
  }
  for (const CcqaResponse& r : *ccqa) {
    out += r.vacuous ? "v" : ".";
    if (r.is_certain.has_value()) out += *r.is_certain ? "1" : "0";
    if (r.answers.has_value()) {
      out += "{";
      for (const Tuple& t : *r.answers) out += t.ToString() + ",";
      out += "}";
    }
    out += "|";
  }
  return out;
}

// The probes a component solver's record leaves open must reach the
// solver, with the same answers and the same probe counts at every thread
// count.  On MakeOpenProbeSpec the base solve remembers one model per
// component: it witnesses one order of tuples 1 and 2 and makes one of
// A = 1 and A = 2 current, so the other order and the other value each
// need a solve, which currency_serve_probe_solves_total counts.  With two
// entities, both components keep an open probe after the settle walk of
// CertainOrderProbes and DeterminismProbes, so both go to the pool.
TEST(SessionEquivalence, OpenProbesReachTheSolver) {
  struct ProbeCounts {
    int64_t solves = 0;
    int64_t settled = 0;
  };
  for (int entities : {1, 2}) {
    SCOPED_TRACE("entities=" + std::to_string(entities));
    // COP, per entity: (0, 1) is certain (a unit at the root), while
    // tuples 1 and 2 are ordered each way in some completion.
    std::vector<core::CurrencyOrderQuery> queries;
    std::vector<bool> certain;
    for (TupleId first = 0; first < 3 * entities; first += 3) {
      for (auto [u, v, expected] : {std::tuple{0, 1, true},
                                    std::tuple{1, 2, false},
                                    std::tuple{2, 1, false}}) {
        queries.push_back(core::CurrencyOrderQuery{
            "R", {core::RequiredPair{1, first + u, first + v}}});
        certain.push_back(expected);
      }
    }
    std::optional<std::pair<ProbeCounts, ProbeCounts>> at_one_thread;
    for (int threads : kThreadCounts) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      auto probe_counts = [&](const auto& batch) {
        SessionOptions options;
        options.num_threads = threads;
        auto session =
            CurrencySession::Create(MakeOpenProbeSpec(entities), options)
                .value();
        auto counts = [&] {
          obs::Registry* registry = session->registry();
          return ProbeCounts{
              registry
                  ->GetCounter("currency_serve_probe_solves_total",
                               obs::Labels{})
                  ->Value(),
              registry
                  ->GetCounter("currency_serve_probes_settled_total",
                               obs::Labels{})
                  ->Value()};
        };
        EXPECT_TRUE(session->CpsCheck().value());
        const ProbeCounts before = counts();
        batch(session.get());
        const ProbeCounts after = counts();
        return ProbeCounts{after.solves - before.solves,
                           after.settled - before.settled};
      };
      const ProbeCounts cop = probe_counts([&](CurrencySession* session) {
        auto got = session->CopBatch(queries);
        ASSERT_TRUE(got.ok()) << got.status();
        EXPECT_EQ(*got, certain);
      });
      EXPECT_GT(cop.solves, 0) << "the COP probes were settled";
      EXPECT_EQ(cop.solves + cop.settled,
                static_cast<int64_t>(queries.size()))
          << "every pair is probed exactly once";
      // DCIP: A = 1 and A = 2 can each be current.
      const ProbeCounts dcip = probe_counts([](CurrencySession* session) {
        auto got = session->DcipBatch({"R"});
        ASSERT_TRUE(got.ok()) << got.status();
        EXPECT_FALSE(got->at(0));
      });
      EXPECT_GT(dcip.solves, 0) << "the DCIP probes were settled";
      if (!at_one_thread.has_value()) {
        at_one_thread.emplace(cop, dcip);
        continue;
      }
      const auto& [cop_one, dcip_one] = *at_one_thread;
      EXPECT_EQ(std::tie(cop.solves, cop.settled),
                std::tie(cop_one.solves, cop_one.settled))
          << "COP (solves, settled) differ from one thread's";
      EXPECT_EQ(std::tie(dcip.solves, dcip.settled),
                std::tie(dcip_one.solves, dcip_one.settled))
          << "DCIP (solves, settled) differ from one thread's";
    }
  }
}

// A session whose base verdicts were seeded from a snapshot
// (AdoptSolvedVerdicts) builds its component encoders on first use, and
// their solvers remember no model yet, so a settle walk has nothing to
// read: DCIP must solve them, not settle them.  At every thread count the
// seeded session answers as the monolithic reference does.
TEST(SessionEquivalence, SeededVerdictsStillReachTheSolver) {
  const core::Specification spec = MakeOpenProbeSpec(2);
  const bool deterministic =
      currency::testing::MonolithicDeterministic(spec, "R").value();
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SessionOptions options;
    options.num_threads = threads;
    auto solved = CurrencySession::Create(spec, options).value();
    ASSERT_TRUE(solved->CpsCheck().value());
    std::string spec_wire;
    std::vector<std::pair<uint64_t, bool>> verdicts;
    solved->ExportWarmState(&spec_wire, &verdicts);

    auto seeded = CurrencySession::Create(spec, options).value();
    EXPECT_EQ(seeded->AdoptSolvedVerdicts(verdicts), 2);
    auto dcip = seeded->DcipBatch({"R"});
    ASSERT_TRUE(dcip.ok()) << dcip.status();
    EXPECT_EQ(dcip->at(0), deterministic);
    EXPECT_EQ(seeded->stats().base_solves, 0) << "the verdicts were adopted";
    for (TupleId u = 0; u < 6; ++u) {
      for (TupleId v = 0; v < 6; ++v) {
        core::CurrencyOrderQuery q{"R", {core::RequiredPair{1, u, v}}};
        auto cop = seeded->CopBatch({q});
        ASSERT_TRUE(cop.ok()) << cop.status();
        EXPECT_EQ(cop->at(0),
                  currency::testing::MonolithicCertainOrder(spec, q).value())
            << "pair " << u << " < " << v;
      }
    }
  }
}

// Tracing must not perturb anything: a session running under a live,
// enabled tracer (spans opened, stages attached, timers firing) must
// produce a bit-identical batch transcript to an untraced session over
// the same specification and edit sequence, at every thread count.
TEST(SessionEquivalence, TracingDoesNotPerturbAnswers) {
  for (int variant : {1, 5}) {
    bool with_copy = variant & 1;
    bool with_constraints = (variant & 2) || variant >= 4;
    double free_fraction = variant >= 4 ? 0.5 : 0.0;
    core::Specification spec =
        MakeRandomSpec(99 * 1237 + variant, with_copy, with_constraints,
                       free_fraction);
    for (int threads : kThreadCounts) {
      SCOPED_TRACE("variant=" + std::to_string(variant) +
                   " threads=" + std::to_string(threads));
      obs::TraceOptions trace_options;
      trace_options.enabled = true;
      trace_options.slow_threshold_ns = 0;  // everything hits the slow log
      obs::Tracer tracer(trace_options);

      auto make_session = [&](obs::Tracer* t) {
        SessionOptions options;
        options.num_threads = threads;
        options.tracer = t;
        auto session = CurrencySession::Create(spec, options);
        EXPECT_TRUE(session.ok()) << session.status();
        return std::move(session).value();
      };
      auto plain = make_session(nullptr);
      auto traced = make_session(&tracer);
      if (::testing::Test::HasFailure()) return;

      EXPECT_EQ(BatchTranscript(traced.get()), BatchTranscript(plain.get()));
      // Same accepted/rejected mutation outcomes, same post-edit answers.
      std::mt19937 rng(variant * 53 + threads);
      for (int round = 0; round < 2; ++round) {
        std::vector<core::TupleEdit> edits = MakeRandomEdits(plain->spec(),
                                                             rng);
        Status st_plain = plain->Mutate(edits);
        Status st_traced = traced->Mutate(edits);
        EXPECT_EQ(st_plain.code(), st_traced.code());
        EXPECT_EQ(BatchTranscript(traced.get()),
                  BatchTranscript(plain.get()))
            << "round=" << round;
      }
      // The traced session really traced: one root per batch call (4 per
      // transcript × 3 transcripts) plus one per Mutate.
      EXPECT_EQ(tracer.recorded_traces(), 14);
      EXPECT_FALSE(tracer.SlowLog().empty());
    }
  }
}

}  // namespace
}  // namespace currency::serve
