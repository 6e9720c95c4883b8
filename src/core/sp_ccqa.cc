#include "src/core/sp_ccqa.h"

#include <algorithm>
#include <numeric>
#include <set>

#include "src/query/classify.h"
#include "src/query/eval.h"

namespace currency::core {

namespace {

/// Marker prefix for the fresh constants c_{e,A}.  \x01 cannot appear in
/// identifier-like data and keeps the constants distinct from every value
/// of the active domain.
constexpr char kFreshPrefix[] = "\x01poss#";

/// Appends entity `eid`'s poss(S) tuple, its group given as
/// PossibleCurrentValues takes it: the unique possible value per
/// attribute, or a fresh constant c_{e,A} numbered by `*fresh`.
Status AppendPossTuple(const Value& eid, const Relation& rel,
                       const std::vector<TupleId>& members,
                       const std::vector<PartialOrder>& orders,
                       int64_t* fresh, Relation* poss) {
  std::vector<std::vector<Value>> possible =
      PossibleCurrentValues(rel, members, orders);
  std::vector<Value> values(possible.size());
  values[0] = eid;
  for (size_t a = 1; a < possible.size(); ++a) {
    values[a] = possible[a].size() == 1
                    ? possible[a][0]
                    : Value(std::string(kFreshPrefix) +
                            std::to_string((*fresh)++));
  }
  return poss->Append(Tuple(std::move(values))).status();
}

/// The instance an SP query reads; Unsupported unless `q` is SP over
/// exactly one relation.
Result<int> SpQueryInstance(const Specification& spec, const query::Query& q) {
  if (!query::IsSpQuery(q)) {
    return Status::Unsupported("Proposition 6.3 applies only to SP queries");
  }
  std::vector<std::string> rels = q.body->Relations();
  if (rels.size() != 1) {
    return Status::Unsupported("SP query must reference exactly one relation");
  }
  return spec.InstanceIndex(rels[0]);
}

/// Steps 3–4 of the proof: evaluates `q` on `poss` and discards result
/// tuples carrying fresh constants.
Result<std::set<Tuple>> SpAnswersOnPoss(const query::Query& q,
                                        const Relation& poss) {
  query::Database db{{poss.schema().relation_name(), &poss}};
  ASSIGN_OR_RETURN(std::set<Tuple> raw, query::EvalQuery(q, db));
  std::set<Tuple> out;
  for (const Tuple& t : raw) {
    if (std::none_of(t.values().begin(), t.values().end(),
                     IsFreshPossConstant)) {
      out.insert(t);
    }
  }
  return out;
}

}  // namespace

bool IsFreshPossConstant(const Value& v) {
  if (v.kind() != ValueKind::kString) return false;
  const std::string& s = v.AsString();
  return s.rfind(kFreshPrefix, 0) == 0;
}

std::vector<std::vector<Value>> PossibleCurrentValues(
    const Relation& rel, const std::vector<TupleId>& members,
    const std::vector<PartialOrder>& orders) {
  std::vector<int> within(members.size());
  std::iota(within.begin(), within.end(), 0);
  std::vector<std::vector<Value>> out(orders.size());
  for (size_t a = 1; a < orders.size(); ++a) {
    std::set<Value> distinct;
    for (int s : orders[a].SinksWithin(within)) {
      distinct.insert(rel.tuple(members[s]).at(a));
    }
    out[a].assign(distinct.begin(), distinct.end());
  }
  return out;
}

Result<std::set<Tuple>> SpAnswersFromChaseNodes(
    const Specification& spec,
    const std::vector<const ComponentChase::Node*>& nodes,
    const query::Query& q) {
  ASSIGN_OR_RETURN(int inst, SpQueryInstance(spec, q));
  const Relation& rel = spec.instance(inst).relation();
  Relation poss(rel.schema());
  int64_t fresh = 0;
  for (const ComponentChase::Node* node : nodes) {
    if (node->inst != inst) continue;
    RETURN_IF_ERROR(AppendPossTuple(node->eid, rel, node->members,
                                    node->orders, &fresh, &poss));
  }
  return SpAnswersOnPoss(q, poss);
}

}  // namespace currency::core
