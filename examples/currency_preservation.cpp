// Currency preservation walkthrough (Fig. 3, Example 4.1, Sections 4–5).
//
// The Emp relation imports Mary's newest record from a manager directory
// Mgr via a copy function ρ.  Asking for Mary's current last name (Q2)
// gives "Dupont" — but Mgr holds a newer, divorced record under "Smith"
// that ρ has not imported.  The example shows:
//   * CPP:  ρ is NOT currency preserving for Q2 (importing s'3 flips the
//           answer to "Smith"),
//   * ECP:  ρ can always be extended to a preserving collection
//           (Proposition 5.2), and a maximal extension is constructed,
//   * BCP:  one import suffices (k = 1).

#include <cstdlib>
#include <iostream>

#include "src/core/ccqa.h"
#include "src/core/consistency.h"
#include "src/core/preservation.h"
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

Specification BuildS1() {
  Specification spec;
  Schema emp_schema = Unwrap(
      Schema::Make("Emp", {"FN", "LN", "address", "salary", "status"}));
  Relation emp(emp_schema);
  auto add_emp = [&](const char* eid, const char* fn, const char* ln,
                     const char* addr, int salary, const char* status) {
    Check(emp.AppendValues({Value(eid), Value(fn), Value(ln), Value(addr),
                            Value(salary), Value(status)})
              .status());
  };
  add_emp("Mary", "Mary", "Smith", "2 Small St", 50, "single");
  add_emp("Mary", "Mary", "Dupont", "10 Elm Ave", 50, "married");
  add_emp("Mary", "Mary", "Dupont", "6 Main St", 80, "married");
  add_emp("Bob", "Bob", "Luth", "8 Cowan St", 80, "married");
  add_emp("Robert", "Robert", "Luth", "8 Drum St", 55, "married");
  Check(spec.AddInstance(TemporalInstance(std::move(emp))));

  // Mgr (Fig. 3): all three records are Mary's.
  Schema mgr_schema = Unwrap(
      Schema::Make("Mgr", {"FN", "LN", "address", "salary", "status"}));
  Relation mgr(mgr_schema);
  auto add_mgr = [&](const char* fn, const char* ln, const char* addr,
                     int salary, const char* status) {
    Check(mgr.AppendValues({Value("Mary"), Value(fn), Value(ln), Value(addr),
                            Value(salary), Value(status)})
              .status());
  };
  add_mgr("Mary", "Dupont", "6 Main St", 60, "married");   // s'1
  add_mgr("Mary", "Dupont", "6 Main St", 80, "married");   // s'2
  add_mgr("Mary", "Smith", "2 Small St", 80, "divorced");  // s'3
  Check(spec.AddInstance(TemporalInstance(std::move(mgr))));

  // ϕ1–ϕ3 on Emp, ϕ5 on Mgr and Emp (Example 4.1; see the fixture notes
  // in tests/fixtures.h).
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
      "FORALL s, t IN Mgr: s.status = 'divorced' AND t.status = 'married' "
      "-> t PREC[LN] s"));
  Check(spec.AddConstraintText(
      "FORALL s, t IN Emp: s.status = 'divorced' AND t.status = 'married' "
      "-> t PREC[LN] s"));

  // ρ: Emp ⇐ Mgr over all attributes; s3 was imported from s'2.
  copy::CopySignature sig;
  sig.target_relation = "Emp";
  sig.target_attrs = {"FN", "LN", "address", "salary", "status"};
  sig.source_relation = "Mgr";
  sig.source_attrs = {"FN", "LN", "address", "salary", "status"};
  copy::CopyFunction rho(sig);
  Check(rho.Map(2, 1));
  Check(spec.AddCopyFunction(std::move(rho)));
  return spec;
}

}  // namespace

int main() {
  Specification s1 = BuildS1();
  query::Query q2 = Unwrap(query::ParseQuery(
      "Q2(ln) := EXISTS fn, a, s, st: Emp('Mary', fn, ln, a, s, st)"));

  std::cout << "Mgr (Fig. 3):\n"
            << s1.instance(1).relation().ToString() << "\n";

  auto base = Unwrap(CertainCurrentAnswers(s1, q2));
  std::cout << "Certain answer to Q2 under S1: ";
  for (const Tuple& t : base) std::cout << t.ToString();
  std::cout << "\n\n";

  // CPP: is ρ currency preserving for Q2?
  bool preserving = Unwrap(IsCurrencyPreserving(s1, q2));
  std::cout << "CPP: is ρ currency preserving for Q2?  "
            << (preserving ? "yes" : "no (more current data is reachable)")
            << "\n";

  // The witnessing import: Mgr s'3 (divorced, Smith) for entity Mary.
  ExtensionAtom import_s3;
  import_s3.copy_edge = 0;
  import_s3.source_tuple = 2;
  import_s3.target_eid = Value("Mary");
  Specification extended = Unwrap(ApplyExtension(s1, {import_s3}));
  auto flipped = Unwrap(CertainCurrentAnswers(extended, q2));
  std::cout << "After importing s'3, Q2's certain answer becomes: ";
  for (const Tuple& t : flipped) std::cout << t.ToString();
  std::cout << "\n";
  std::cout << "CPP on the extension ρ1: "
            << (Unwrap(IsCurrencyPreserving(extended, q2))
                    ? "currency preserving"
                    : "still not preserving")
            << "\n\n";

  // ECP (Proposition 5.2): a consistent specification can always be
  // extended to a currency-preserving one; build a maximal extension.
  std::cout << "ECP: extendable to currency preserving?  "
            << (Unwrap(CanExtendToCurrencyPreserving(s1, q2)) ? "yes" : "no")
            << "\n";
  auto maximal = Unwrap(MaximalConsistentExtension(s1));
  std::cout << "     maximal consistent extension imports " << maximal.size()
            << " tuples\n";

  // BCP: a single affordable import suffices.
  std::cout << "BCP: preserving extension with k = 1 import?  "
            << (Unwrap(HasBoundedCurrencyPreservingExtension(s1, q2, 1))
                    ? "yes"
                    : "no")
            << "\n";
  return 0;
}
