// Query evaluation over normal instances.
//
// Two engines share one entry point:
//   * a backtracking-join engine for UCQ-shaped queries (atom-at-a-time
//     unification, used by the benchmark workloads where instances grow);
//   * an active-domain recursive evaluator for full FO (quantifiers range
//     over the active domain of the database plus the query's constants,
//     the standard finite-model semantics).
//
// Queries never see currency orders: per Section 2 they are "posed on
// normal instances ... without worrying about currency orders".

#ifndef CURRENCY_SRC_QUERY_EVAL_H_
#define CURRENCY_SRC_QUERY_EVAL_H_

#include <map>
#include <set>
#include <string>

#include "src/common/result.h"
#include "src/query/ast.h"
#include "src/relational/relation.h"

namespace currency::query {

/// A database: relation name -> instance.  Pointers are borrowed and must
/// outlive evaluation.
using Database = std::map<std::string, const Relation*>;

/// Evaluates `q` over `db`, returning the set of head-variable bindings
/// (each a Tuple of |head| values; a Boolean query yields the empty tuple
/// iff it holds).  Fails on unknown relations, arity mismatches, or bodies
/// whose head variables cannot be enumerated (empty database with naive
/// fallback is fine: active domain is then just the query constants).
Result<std::set<Tuple>> EvalQuery(const Query& q, const Database& db);

/// The entity ids `q` can read, per relation, for a query EvalQuery answers
/// with its backtracking join (every disjunct CQ-shaped and
/// range-restricted), whose answers read only rows its atoms match.  An
/// atom pins its EID (first argument) when that is a constant, or a
/// variable an `=` conjunct of the same disjunct equates with a constant.
/// Relations with an unpinned atom, and all of a query outside the
/// fragment, are left out.
std::map<std::string, std::set<Value>> EidPins(const Query& q);

/// Evaluates a closed formula (no free variables) over `db`.
Result<bool> EvalClosedFormula(const FormulaPtr& formula, const Database& db);

/// One row read by a query derivation: relation name plus the tuple's
/// index in that relation.
struct SupportRow {
  std::string relation;
  int row = -1;

  bool operator<(const SupportRow& o) const {
    return relation != o.relation ? relation < o.relation : row < o.row;
  }
  bool operator==(const SupportRow& o) const {
    return relation == o.relation && row == o.row;
  }
};

/// Evaluates a UCQ-shaped query and returns, for each answer tuple, ONE
/// witness derivation: the set of rows whose cells the join read.  Any
/// database agreeing with `db` on those rows produces the same answer
/// tuple — the property the certain-answer solver's conflict-driven
/// blocking relies on (src/core/ccqa.cc).  Fails with Unsupported for
/// bodies outside the range-restricted UCQ fragment (callers fall back to
/// EvalQuery).
Result<std::map<Tuple, std::vector<SupportRow>>> EvalQueryWithSupport(
    const Query& q, const Database& db);

}  // namespace currency::query

#endif  // CURRENCY_SRC_QUERY_EVAL_H_
