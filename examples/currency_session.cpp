// CurrencySession walkthrough: the serving layer on the paper's company
// database (Fig. 1, trimmed to the constrained attributes).
//
// A data-cleaning loop in the style the ROADMAP's serving north star
// targets: register the specification once, fire batched currency
// queries (CPS, COP, DCIP, CCQA) against cached per-component encoders,
// edit a tuple in place, and watch the session re-solve only the
// coupling component the edit touched — with every answer equal to a
// fresh one-shot solve, which this example asserts (it runs under ctest
// as a smoke test and exits nonzero on any mismatch).

#include <cstdlib>
#include <iostream>

#include "src/core/ccqa.h"
#include "src/core/certain_order.h"
#include "src/core/consistency.h"
#include "src/core/deterministic.h"
#include "src/query/parser.h"
#include "src/serve/session.h"

namespace {

using namespace currency;        // NOLINT
using namespace currency::core;  // NOLINT

void Check(const Status& status) {
  if (!status.ok()) {
    std::cerr << "error: " << status << "\n";
    std::exit(1);
  }
}

template <typename T>
T Unwrap(Result<T> result) {
  Check(result.status());
  return std::move(result).value();
}

void Expect(bool condition, const char* what) {
  if (!condition) {
    std::cerr << "FAILED: " << what << "\n";
    std::exit(1);
  }
}

/// Fig. 1 trimmed to the constrained attributes (as in the test
/// fixtures): Emp(LN, address, salary, status), Dept(mgrAddr, budget),
/// ϕ1–ϕ4 (+ ϕ2b) and ρ: Dept[mgrAddr] ⇐ Emp[address].
Specification BuildCompanySpec() {
  Specification spec;
  Relation emp(Unwrap(
      Schema::Make("Emp", {"LN", "address", "salary", "status"})));
  auto adde = [&](const char* eid, const char* ln, const char* addr,
                  int salary, const char* status) {
    Check(emp.AppendValues({Value(eid), Value(ln), Value(addr),
                            Value(salary), Value(status)})
              .status());
  };
  adde("Mary", "Smith", "2 Small St", 50, "single");     // s1 = 0
  adde("Mary", "Dupont", "10 Elm Ave", 50, "married");   // s2 = 1
  adde("Mary", "Dupont", "6 Main St", 80, "married");    // s3 = 2
  adde("Bob", "Luth", "8 Cowan St", 80, "married");      // s4 = 3
  adde("Robert", "Luth", "8 Drum St", 55, "married");    // s5 = 4
  Check(spec.AddInstance(TemporalInstance(std::move(emp))));

  Relation dept(Unwrap(Schema::Make("Dept", {"mgrAddr", "budget"}, "dname")));
  auto addd = [&](const char* addr, int budget) {
    Check(dept.AppendValues({Value("RnD"), Value(addr), Value(budget)})
              .status());
  };
  addd("2 Small St", 6500);  // t1 = 0
  addd("2 Small St", 7000);  // t2 = 1
  addd("6 Main St", 6000);   // t3 = 2
  addd("8 Cowan St", 6000);  // t4 = 3
  Check(spec.AddInstance(TemporalInstance(std::move(dept))));

  Check(spec.AddConstraintText(
      "FORALL s, t IN Emp: s.salary > t.salary -> t PREC[salary] s"));
  Check(spec.AddConstraintText(
      "FORALL s, t IN Emp: s.status = 'married' AND t.status = 'single' "
      "-> t PREC[LN] s"));
  Check(spec.AddConstraintText(
      "FORALL s, t IN Emp: s.status = 'married' AND t.status = 'single' "
      "-> t PREC[status] s"));
  Check(spec.AddConstraintText(
      "FORALL s, t IN Emp: t PREC[salary] s -> t PREC[address] s"));
  Check(spec.AddConstraintText(
      "FORALL s, t IN Dept: t PREC[mgrAddr] s -> t PREC[budget] s"));

  copy::CopySignature sig;
  sig.target_relation = "Dept";
  sig.target_attrs = {"mgrAddr"};
  sig.source_relation = "Emp";
  sig.source_attrs = {"address"};
  copy::CopyFunction rho(sig);
  Check(rho.Map(0, 0));
  Check(rho.Map(1, 0));
  Check(rho.Map(2, 2));
  Check(rho.Map(3, 3));
  Check(spec.AddCopyFunction(std::move(rho)));
  return spec;
}

}  // namespace

int main() {
  Specification spec = BuildCompanySpec();

  serve::SessionOptions options;
  options.num_threads = 2;
  auto session =
      Unwrap(serve::CurrencySession::Create(BuildCompanySpec(), options));
  std::cout << "Registered the company specification: "
            << session->num_components() << " coupling components\n";
  // ρ copies two distinct Mary addresses into Dept, so {Emp:Mary,
  // Dept:RnD} couple into one component; Bob and Robert stand alone.
  Expect(session->num_components() == 3, "expected 3 coupling components");

  // --- Batched queries against the warm session -------------------------
  Expect(Unwrap(session->CpsCheck()), "S0 must be consistent (Example 2.3)");

  query::Query q1 = Unwrap(
      query::ParseQuery("Q1(s) := EXISTS ln, a, st: Emp('Mary', ln, a, s, st)"));
  query::Query q4 =
      Unwrap(query::ParseQuery("Q4(b) := EXISTS a: Dept('RnD', a, b)"));
  auto ccqa = Unwrap(session->CcqaBatch({{q1, std::nullopt},
                                         {q4, std::nullopt},
                                         {q1, Tuple({Value(80)})}}));
  Expect(ccqa[0].answers == std::set<Tuple>{Tuple({Value(80)})},
         "Q1: Mary's current salary must certainly be 80 (Example 1.1)");
  Expect(ccqa[1].answers == std::set<Tuple>{Tuple({Value(6000)})},
         "Q4: R&D's current budget must certainly be 6000 (Example 1.1)");
  Expect(ccqa[2].is_certain == std::optional<bool>(true),
         "membership form of Q1 must agree");
  std::cout << "CCQA batch: Mary's salary -> 80, R&D budget -> 6000\n";

  CurrencyOrderQuery salary_order;  // s1 ≺_salary s3 certain via ϕ1
  salary_order.relation = "Emp";
  salary_order.pairs = {RequiredPair{3, 0, 2}};
  CurrencyOrderQuery reversed = salary_order;
  reversed.pairs = {RequiredPair{3, 2, 0}};
  auto cop = Unwrap(session->CopBatch({salary_order, reversed}));
  Expect(cop[0] && !cop[1], "COP: s1 ≺_salary s3 certain, reverse refuted");

  auto dcip = Unwrap(session->DcipBatch({"Emp", "Dept"}));
  Expect(dcip[0] == Unwrap(IsDeterministicForRelation(spec, "Emp")),
         "DCIP(Emp) must match the one-shot solver");
  Expect(dcip[1] == Unwrap(IsDeterministicForRelation(spec, "Dept")),
         "DCIP(Dept) must match the one-shot solver");
  std::cout << "COP/DCIP batches agree with the one-shot solvers\n";

  // --- A cleaning pass: edit one tuple, re-query ------------------------
  // HR fixes Robert's salary record (55 -> 60).  Robert's entity is its
  // own coupling component, so the session must invalidate exactly one
  // of the three components and keep the Mary/Dept answers cached.
  Check(session->Mutate({TupleEdit{0, 4, 3, Value(60)}}));
  std::cout << "Mutate: invalidated " << session->stats().last_invalidated
            << " component(s), reused " << session->stats().last_reused
            << "\n";
  Expect(session->stats().last_invalidated == 1 &&
             session->stats().last_reused == 2,
         "the edit must invalidate exactly Robert's component");

  Expect(Unwrap(session->CpsCheck()), "still consistent after the edit");
  auto ccqa2 = Unwrap(session->CcqaBatch({{q1, std::nullopt}}));
  Expect(ccqa2[0].answers == std::set<Tuple>{Tuple({Value(80)})},
         "Mary's certain salary is untouched by Robert's record");

  // The serving contract: warm answers equal fresh one-shot solves on
  // the mutated specification.
  Check(spec.ApplyTupleEdits({TupleEdit{0, 4, 3, Value(60)}}));
  Expect(ccqa2[0].answers == Unwrap(CertainCurrentAnswers(spec, q1)),
         "session answers must equal a fresh build's answers");

  std::cout << "Cleaning pass done: answers identical to a fresh build, "
               "2 of 3 components served from cache\n";
  return 0;
}
