// The forced-SAT reference: the one-shot decision procedures on an engine
// whose every component is SAT-routed (core::DecomposedEncoder::Build with
// routing off), run through the same internal:: request functions the
// routed one-shots and serve's batches call.  Routing is a strategy,
// never a semantics, so the equivalence suites diff every routed answer
// against these, next to the monolithic reference and the brute-force
// oracle.  Each call builds a pool of its options' `num_threads` like the
// one-shot it mirrors.  Test and bench support only; nothing under src/
// uses it.

#ifndef CURRENCY_TESTS_SUPPORT_FORCED_SAT_H_
#define CURRENCY_TESTS_SUPPORT_FORCED_SAT_H_

#include <cstdint>
#include <functional>
#include <set>
#include <string>

#include "src/common/result.h"
#include "src/core/ccqa.h"
#include "src/core/certain_order.h"
#include "src/core/consistency.h"
#include "src/core/deterministic.h"
#include "src/core/specification.h"
#include "src/query/ast.h"
#include "src/query/eval.h"

namespace currency::testing {

/// CPS.  A `want_witness` call is core::DecideConsistency itself, which
/// SAT-routes every component to build the witness.
Result<core::CpsOutcome> ForcedSatConsistency(
    const core::Specification& spec, const core::CpsOptions& options = {});

/// COP (vacuously true when Mod(S) = ∅).
Result<bool> ForcedSatCertainOrder(const core::Specification& spec,
                                   const core::CurrencyOrderQuery& query,
                                   const core::CopOptions& options = {});

/// DCIP for one relation, and for every relation (vacuously true when
/// Mod(S) = ∅).
Result<bool> ForcedSatDeterministicForRelation(
    const core::Specification& spec, const std::string& relation,
    const core::DcipOptions& options = {});
Result<bool> ForcedSatDeterministic(const core::Specification& spec,
                                    const core::DcipOptions& options = {});

/// CCQA answer set; Status::Inconsistent when Mod(S) = ∅.
Result<std::set<Tuple>> ForcedSatCertainAnswers(
    const core::Specification& spec, const query::Query& q,
    const core::CcqaOptions& options = {});

/// CCQA membership (vacuously true when Mod(S) = ∅).
Result<bool> ForcedSatIsCertainAnswer(const core::Specification& spec,
                                      const query::Query& q, const Tuple& t,
                                      const core::CcqaOptions& options = {});

/// Current-instance enumeration, in the order core::ForEachCurrentInstance
/// visits (fragments are sorted per component, so the order does not
/// depend on routing).
Result<int64_t> ForcedSatForEachCurrentInstance(
    const core::Specification& spec, const core::CcqaOptions& options,
    const std::function<bool(const query::Database&)>& visit);

}  // namespace currency::testing

#endif  // CURRENCY_TESTS_SUPPORT_FORCED_SAT_H_
