// CRM deduplication at scale — the constraint-free PTIME pipeline
// (Section 6 / Theorem 6.1, Proposition 6.3).
//
// Scenario: a customer-360 system holds several records per customer
// (after entity resolution), with only *partial* recency knowledge:
// some pairs of records carry comparable audit sequence numbers, most do
// not.  A downstream marketing table copies addresses from the CRM.  The
// pipeline answers, in polynomial time:
//   * is the combined specification consistent (CPS via the chase)?
//   * which customers have a fully determined current profile (DCIP)?
//   * what are the certain current cities (SP query, Proposition 6.3)?

#include <cstdlib>
#include <iostream>
#include <random>

#include "src/core/ccqa.h"
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

constexpr int kCustomers = 500;
constexpr int kRecordsPerCustomer = 3;

const char* kCities[] = {"Edinburgh", "Antwerp", "Mons", "Paris", "Berlin"};

}  // namespace

int main() {
  std::mt19937 rng(2026);
  std::uniform_int_distribution<int> city(0, 4);
  std::uniform_int_distribution<int> coin(0, 1);

  // --- CRM: kRecordsPerCustomer records per customer ---
  Specification spec;
  Schema crm_schema = Unwrap(Schema::Make("Crm", {"city", "plan"}));
  Relation crm(crm_schema);
  for (int c = 0; c < kCustomers; ++c) {
    for (int r = 0; r < kRecordsPerCustomer; ++r) {
      Check(crm.AppendValues({Value("cust" + std::to_string(c)),
                              Value(kCities[city(rng)]),
                              Value(coin(rng) ? "gold" : "basic")})
                .status());
    }
  }
  TemporalInstance crm_inst(std::move(crm));
  // Partial recency knowledge: for roughly half the customers, audit data
  // orders record 0 before record 1 on both attributes.
  AttrIndex city_attr = Unwrap(crm_schema.IndexOf("city"));
  AttrIndex plan_attr = Unwrap(crm_schema.IndexOf("plan"));
  int known_pairs = 0;
  for (int c = 0; c < kCustomers; ++c) {
    if (coin(rng)) continue;
    TupleId first = c * kRecordsPerCustomer;
    Check(crm_inst.AddOrder(city_attr, first, first + 1));
    Check(crm_inst.AddOrder(plan_attr, first, first + 1));
    // For a third of those, record 2 is known newest.
    if (c % 3 == 0) {
      Check(crm_inst.AddOrder(city_attr, first + 1, first + 2));
      Check(crm_inst.AddOrder(plan_attr, first + 1, first + 2));
    }
    ++known_pairs;
  }
  const Relation crm_snapshot = crm_inst.relation();
  Check(spec.AddInstance(std::move(crm_inst)));

  // --- Marketing: one row per customer, address copied from record 0 ---
  Schema mkt_schema = Unwrap(Schema::Make("Marketing", {"city"}));
  Relation mkt(mkt_schema);
  copy::CopySignature sig;
  sig.target_relation = "Marketing";
  sig.target_attrs = {"city"};
  sig.source_relation = "Crm";
  sig.source_attrs = {"city"};
  copy::CopyFunction rho(sig);
  for (int c = 0; c < kCustomers; ++c) {
    TupleId src = c * kRecordsPerCustomer;
    auto id = Unwrap(mkt.AppendValues({Value("cust" + std::to_string(c)),
                                       crm_snapshot.tuple(src).at(city_attr)}));
    Check(rho.Map(id, src));
  }
  Check(spec.AddInstance(TemporalInstance(std::move(mkt))));
  Check(spec.AddCopyFunction(std::move(rho)));

  std::cout << "CRM records: " << spec.instance(0).relation().size()
            << " across " << kCustomers << " customers ("
            << known_pairs << " with audit-ordered records)\n";

  // CPS in PTIME: no denial constraints, so every coupling component is
  // chase-eligible and the chase decides each one (Theorem 6.1 on S|_c).
  CpsOutcome cps = Unwrap(DecideConsistency(spec));
  std::cout << "CPS (chase): " << (cps.consistent ? "consistent" : "BROKEN")
            << ", decided component by component over " << cps.components
            << " coupling components\n";

  // DCIP in PTIME: which relations have a unique current instance?
  std::cout << "DCIP: Crm deterministic?       "
            << (Unwrap(IsDeterministicForRelation(spec, "Crm")) ? "yes" : "no")
            << "\n";
  std::cout << "DCIP: Marketing deterministic? "
            << (Unwrap(IsDeterministicForRelation(spec, "Marketing")) ? "yes"
                                                                      : "no")
            << "\n";

  // Proposition 6.3: certain current cities of every customer.  Each Crm
  // group is its own component (Marketing copies one record per customer,
  // which couples nothing), so the one-shot answers it by the poss(S)
  // construction on its chase fixpoint — a value is certain exactly when
  // every possible most-current record agrees.
  int determined = 0;
  for (int c = 0; c < kCustomers; ++c) {
    // SP form: the entity selection goes through an equality in ψ.
    query::Query q = Unwrap(query::ParseQuery(
        "Q(city) := EXISTS e, plan: Crm(e, city, plan) AND e = 'cust" +
        std::to_string(c) + "'"));
    auto answers = Unwrap(CertainCurrentAnswers(spec, q));
    if (!answers.empty()) ++determined;
  }
  std::cout << "Customers with a CERTAIN current city: " << determined << "/"
            << kCustomers << "\n";
  return 0;
}
