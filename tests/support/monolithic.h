// The monolithic SAT reference: the four decision procedures answered on
// ONE encoder over every entity group (BuildWholeSpecEncoder, whole_spec.h)
// — the encoding of the whole specification, with no decomposition, no
// chase routing and no caching.
// The equivalence suites check the engine every procedure runs on
// (core::DecomposedEncoder) against it alongside the brute-force oracle,
// and bench/bench_scale_decomposition times it as the undecomposed
// baseline.  Test and bench support only; nothing under src/ uses it.

#ifndef CURRENCY_TESTS_SUPPORT_MONOLITHIC_H_
#define CURRENCY_TESTS_SUPPORT_MONOLITHIC_H_

#include <cstdint>
#include <functional>
#include <set>
#include <string>

#include "src/common/result.h"
#include "src/core/certain_order.h"
#include "src/core/completion.h"
#include "src/core/specification.h"
#include "src/query/ast.h"
#include "src/query/eval.h"

namespace currency::testing {

/// CPS: whether Mod(S) ≠ ∅.  When consistent and `witness` is non-null,
/// it receives the model's completion.
Result<bool> MonolithicConsistent(const core::Specification& spec,
                                  core::Completion* witness = nullptr);

/// COP: whether every pair of `query` holds in every consistent
/// completion (vacuously true when Mod(S) = ∅).
Result<bool> MonolithicCertainOrder(const core::Specification& spec,
                                    const core::CurrencyOrderQuery& query);

/// DCIP for one relation (vacuously true when Mod(S) = ∅).
Result<bool> MonolithicDeterministic(const core::Specification& spec,
                                     const std::string& relation);

/// CCQA answer set; Status::Inconsistent when Mod(S) = ∅.
Result<std::set<Tuple>> MonolithicCertainAnswers(
    const core::Specification& spec, const query::Query& q);

/// CCQA membership (vacuously true when Mod(S) = ∅).
Result<bool> MonolithicIsCertainAnswer(const core::Specification& spec,
                                       const query::Query& q, const Tuple& t);

/// Enumerates the distinct current instances as projected models of the
/// one encoding (visit order is search order), at most `max_instances`;
/// stops early when `visit` returns false.  Returns the number visited.
Result<int64_t> MonolithicForEachCurrentInstance(
    const core::Specification& spec, int64_t max_instances,
    const std::function<bool(const query::Database&)>& visit);

}  // namespace currency::testing

#endif  // CURRENCY_TESTS_SUPPORT_MONOLITHIC_H_
