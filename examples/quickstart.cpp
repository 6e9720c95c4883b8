// Quickstart: the paper's running example end to end (Fig. 1, Examples
// 1.1–3.3).
//
// Builds the company database of Fig. 1 — Emp with three stale records of
// Mary and Dept with four records of R&D — declares the currency
// semantics ϕ1–ϕ4 as denial constraints, the copy function ρ of Example
// 2.2, and then answers the four motivating questions:
//
//   Q1  What is Mary's current salary?        → 80
//   Q2  What is Mary's current last name?     → Dupont
//   Q3  What is Mary's current address?       → 6 Main St
//   Q4  What is R&D's current budget?         → 6000
//
// without any timestamps, purely from the constraints and the copy
// relationship.  Also demonstrates CPS, COP and DCIP on the same data.

#include <cstdlib>
#include <iostream>

#include "src/core/ccqa.h"
#include "src/core/certain_order.h"
#include "src/core/consistency.h"
#include "src/core/deterministic.h"
#include "src/core/specification.h"
#include "src/query/parser.h"

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

Specification BuildCompanyDatabase() {
  Specification spec;

  // --- Emp (Fig. 1a); s4/s5 are distinct persons per Example 2.3 ---
  Schema emp_schema = Unwrap(
      Schema::Make("Emp", {"FN", "LN", "address", "salary", "status"}));
  Relation emp(emp_schema);
  auto add_emp = [&](const char* eid, const char* fn, const char* ln,
                     const char* addr, int salary, const char* status) {
    Check(emp.AppendValues({Value(eid), Value(fn), Value(ln), Value(addr),
                            Value(salary), Value(status)})
              .status());
  };
  add_emp("Mary", "Mary", "Smith", "2 Small St", 50, "single");     // s1
  add_emp("Mary", "Mary", "Dupont", "10 Elm Ave", 50, "married");   // s2
  add_emp("Mary", "Mary", "Dupont", "6 Main St", 80, "married");    // s3
  add_emp("Bob", "Bob", "Luth", "8 Cowan St", 80, "married");       // s4
  add_emp("Robert", "Robert", "Luth", "8 Drum St", 55, "married");  // s5
  Check(spec.AddInstance(TemporalInstance(std::move(emp))));

  // --- Dept (Fig. 1b) ---
  Schema dept_schema = Unwrap(
      Schema::Make("Dept", {"mgrFN", "mgrLN", "mgrAddr", "budget"}, "dname"));
  Relation dept(dept_schema);
  auto add_dept = [&](const char* fn, const char* ln, const char* addr,
                      int budget) {
    Check(dept.AppendValues(
                  {Value("RnD"), Value(fn), Value(ln), Value(addr),
                   Value(budget)})
              .status());
  };
  add_dept("Mary", "Smith", "2 Small St", 6500);  // t1
  add_dept("Mary", "Smith", "2 Small St", 7000);  // t2
  add_dept("Mary", "Dupont", "6 Main St", 6000);  // t3
  add_dept("Ed", "Luth", "8 Cowan St", 6000);     // t4
  Check(spec.AddInstance(TemporalInstance(std::move(dept))));

  // --- Denial constraints ϕ1–ϕ4 (Example 2.1) ---
  // ϕ1: salaries do not decrease.
  Check(spec.AddConstraintText(
      "FORALL s, t IN Emp: s.salary > t.salary -> t PREC[salary] s"));
  // ϕ2: married is later than single, and the later status carries the
  // later last name (plus the status attribute itself: see the S0
  // fixture's notes in tests/fixtures.h).
  Check(spec.AddConstraintText(
      "FORALL s, t IN Emp: s.status = 'married' AND t.status = 'single' "
      "-> t PREC[LN] s"));
  Check(spec.AddConstraintText(
      "FORALL s, t IN Emp: s.status = 'married' AND t.status = 'single' "
      "-> t PREC[status] s"));
  // ϕ3: the row with the later salary has the later address.
  Check(spec.AddConstraintText(
      "FORALL s, t IN Emp: t PREC[salary] s -> t PREC[address] s"));
  // ϕ4: the Dept row with the later manager address has the later budget.
  Check(spec.AddConstraintText(
      "FORALL s, t IN Dept: t PREC[mgrAddr] s -> t PREC[budget] s"));

  // --- Copy function ρ (Example 2.2): Dept.mgrAddr ⇐ Emp.address ---
  copy::CopySignature sig;
  sig.target_relation = "Dept";
  sig.target_attrs = {"mgrAddr"};
  sig.source_relation = "Emp";
  sig.source_attrs = {"address"};
  copy::CopyFunction rho(sig);
  Check(rho.Map(0, 0));  // t1 ⇐ s1
  Check(rho.Map(1, 0));  // t2 ⇐ s1
  Check(rho.Map(2, 2));  // t3 ⇐ s3
  Check(rho.Map(3, 3));  // t4 ⇐ s4
  Check(spec.AddCopyFunction(std::move(rho)));
  return spec;
}

void Answer(const Specification& spec, const std::string& text) {
  query::Query q = Unwrap(query::ParseQuery(text));
  auto answers = Unwrap(CertainCurrentAnswers(spec, q));
  std::cout << "  " << q.name << ": ";
  if (answers.empty()) {
    std::cout << "(no certain answer)";
  }
  for (const Tuple& t : answers) std::cout << t.ToString() << " ";
  std::cout << "\n";
}

}  // namespace

int main() {
  Specification spec = BuildCompanyDatabase();

  std::cout << "The company database (Fig. 1):\n";
  std::cout << spec.instance(0).relation().ToString() << "\n";
  std::cout << spec.instance(1).relation().ToString() << "\n";

  // CPS: does the specification make sense at all?
  CpsOutcome cps = Unwrap(DecideConsistency(spec));
  std::cout << "CPS: the specification is "
            << (cps.consistent ? "consistent" : "INCONSISTENT") << "\n\n";

  // The four motivating queries (Example 1.1), answered with certainty.
  std::cout << "Certain current answers (Example 2.5):\n";
  Answer(spec,
         "Q1(s) := EXISTS fn, ln, a, st: Emp('Mary', fn, ln, a, s, st)");
  Answer(spec,
         "Q2(ln) := EXISTS fn, a, s, st: Emp('Mary', fn, ln, a, s, st)");
  Answer(spec,
         "Q3(a) := EXISTS fn, ln, s, st: Emp('Mary', fn, ln, a, s, st)");
  Answer(spec, "Q4(b) := EXISTS fn, ln, a: Dept('RnD', fn, ln, a, b)");
  std::cout << "\n";

  // COP (Example 3.2): is s1 ≺_salary s3 certain?  Is t3 ≺_mgrFN t4?
  AttrIndex salary = Unwrap(spec.instance(0).schema().IndexOf("salary"));
  AttrIndex mgr_fn = Unwrap(spec.instance(1).schema().IndexOf("mgrFN"));
  CurrencyOrderQuery o1{"Emp", {{salary, 0, 2}}};
  CurrencyOrderQuery o2{"Dept", {{mgr_fn, 2, 3}}};
  std::cout << "COP: s1 PREC[salary] s3 certain?  "
            << (Unwrap(IsCertainOrder(spec, o1)) ? "yes" : "no") << "\n";
  std::cout << "COP: t3 PREC[mgrFN] t4 certain?   "
            << (Unwrap(IsCertainOrder(spec, o2)) ? "yes" : "no") << "\n\n";

  // DCIP (Example 3.3): Emp's current instance is determined; Dept's not.
  std::cout << "DCIP: Emp deterministic?  "
            << (Unwrap(IsDeterministicForRelation(spec, "Emp")) ? "yes" : "no")
            << "\n";
  std::cout << "DCIP: Dept deterministic? "
            << (Unwrap(IsDeterministicForRelation(spec, "Dept")) ? "yes"
                                                                 : "no")
            << "\n";
  return 0;
}
