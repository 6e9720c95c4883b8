#include "src/core/specification.h"

#include <utility>

#include "src/constraints/parser.h"

namespace currency::core {

Status Specification::AddInstance(TemporalInstance instance) {
  const std::string& name = instance.name();
  auto [it, inserted] = index_.emplace(name, num_instances());
  (void)it;
  if (!inserted) {
    return Status::InvalidArgument("duplicate relation '" + name +
                                   "' in specification");
  }
  order_bound_.emplace_back(instance.schema().arity(), 0);
  instances_.push_back(std::move(instance));
  constraints_.emplace_back();
  return Status::OK();
}

Status Specification::AddConstraint(constraints::DenialConstraint constraint) {
  ASSIGN_OR_RETURN(int i, InstanceIndex(constraint.relation_name()));
  for (const constraints::OrderAtom& atom : constraint.order_premises()) {
    order_bound_[i][atom.attr] = 1;
  }
  order_bound_[i][constraint.conclusion().attr] = 1;
  constraints_[i].push_back(std::move(constraint));
  return Status::OK();
}

Status Specification::AddConstraintText(const std::string& text) {
  // The constraint names its relation after IN; try each schema until the
  // parser accepts (the parser validates the relation name).
  Status last = Status::InvalidArgument("no instances in specification");
  for (const TemporalInstance& inst : instances_) {
    auto parsed = constraints::ParseConstraint(inst.schema(), text);
    if (parsed.ok()) return AddConstraint(std::move(parsed).value());
    last = parsed.status();
  }
  return last;
}

Status Specification::AddCopyFunction(copy::CopyFunction fn) {
  ASSIGN_OR_RETURN(int target,
                   InstanceIndex(fn.signature().target_relation));
  ASSIGN_OR_RETURN(int source,
                   InstanceIndex(fn.signature().source_relation));
  RETURN_IF_ERROR(
      fn.Validate(instances_[target].relation(), instances_[source].relation()));
  ASSIGN_OR_RETURN(auto attrs, fn.ResolveAttrs(instances_[target].schema(),
                                               instances_[source].schema()));
  for (const auto& [a, b] : attrs) {
    order_bound_[target][a] = 1;
    order_bound_[source][b] = 1;
  }
  CopyEdge edge;
  edge.source_instance = source;
  edge.target_instance = target;
  edge.fn = std::move(fn);
  copy_edges_.push_back(std::move(edge));
  return Status::OK();
}

Result<int> Specification::InstanceIndex(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return Status::NotFound("relation '" + name + "' not in specification");
  }
  return it->second;
}

bool Specification::HasDenialConstraints() const {
  for (const auto& cs : constraints_) {
    if (!cs.empty()) return true;
  }
  return false;
}

Result<TupleId> Specification::AppendCopiedTuple(int copy_edge_index,
                                                 TupleId source_tuple,
                                                 const Value& target_eid) {
  if (copy_edge_index < 0 ||
      copy_edge_index >= static_cast<int>(copy_edges_.size())) {
    return Status::InvalidArgument("copy edge index out of range");
  }
  CopyEdge& edge = copy_edges_[copy_edge_index];
  TemporalInstance& target = instances_[edge.target_instance];
  const TemporalInstance& source = instances_[edge.source_instance];
  if (!edge.fn.CoversAllTargetAttributes(target.schema())) {
    return Status::FailedPrecondition(
        "only copy functions covering all target attributes can be "
        "extended: " +
        edge.fn.signature().ToString());
  }
  if (source_tuple < 0 || source_tuple >= source.relation().size()) {
    return Status::InvalidArgument("source tuple out of range");
  }
  ASSIGN_OR_RETURN(auto attrs,
                   edge.fn.ResolveAttrs(target.schema(), source.schema()));
  std::vector<Value> values(target.schema().arity());
  values[0] = target_eid;
  for (const auto& [a, b] : attrs) {
    values[a] = source.relation().tuple(source_tuple).at(b);
  }
  ASSIGN_OR_RETURN(TupleId id, target.AppendTuple(Tuple(std::move(values))));
  RETURN_IF_ERROR(edge.fn.Map(id, source_tuple));
  return id;
}

Status Specification::ApplyTupleEdits(const std::vector<TupleEdit>& edits) {
  // Phase 1 — read-only validation of ranges and the same-entity order
  // invariant, so most failures reject before anything is written.
  for (const TupleEdit& e : edits) {
    if (e.instance < 0 || e.instance >= num_instances()) {
      return Status::InvalidArgument("tuple edit references instance " +
                                     std::to_string(e.instance) +
                                     " which does not exist");
    }
    const TemporalInstance& inst = instances_[e.instance];
    const Relation& rel = inst.relation();
    if (e.tuple < 0 || e.tuple >= rel.size()) {
      return Status::InvalidArgument("tuple edit references tuple " +
                                     std::to_string(e.tuple) +
                                     " out of range for " + inst.name());
    }
    if (e.attr < 0 || e.attr >= inst.schema().arity()) {
      return Status::InvalidArgument("tuple edit references attribute " +
                                     std::to_string(e.attr) +
                                     " out of range for " + inst.name());
    }
    if (e.attr == 0 && !(rel.tuple(e.tuple).eid() == e.new_value)) {
      // Moving a tuple to another entity would strand any initial order
      // pair it participates in (orders relate same-entity tuples only).
      // The check reads the pre-batch orders, which edits never change;
      // order partners all share the tuple's current entity (the AddOrder
      // invariant — and EID-edited tuples provably have no pairs), so
      // only the tuple's own group needs probing.
      for (AttrIndex a = 1; a < inst.schema().arity(); ++a) {
        const PartialOrder& po = inst.order(a);
        for (TupleId v : rel.EntityGroups().at(rel.tuple(e.tuple).eid())) {
          if (po.Less(e.tuple, v) || po.Less(v, e.tuple)) {
            return Status::FailedPrecondition(
                "EID edit on tuple " + std::to_string(e.tuple) + " of " +
                inst.name() +
                " would strand an initial currency-order pair");
          }
        }
      }
    }
  }
  // Phase 2 — apply, remembering prior values so phase 3 can roll back.
  std::vector<Value> previous;
  previous.reserve(edits.size());
  for (const TupleEdit& e : edits) {
    previous.push_back(instances_[e.instance].relation().tuple(e.tuple).at(e.attr));
    RETURN_IF_ERROR(
        instances_[e.instance].UpdateValue(e.tuple, e.attr, e.new_value));
  }
  // Phase 3 — the copying condition of every copy function touching an
  // edited instance must still hold (AddCopyFunction established it; a
  // fresh specification over the edited data would re-check it).  On
  // failure, undo in reverse order so duplicate edits of one cell unwind
  // correctly.
  std::vector<char> touched(num_instances(), 0);
  for (const TupleEdit& e : edits) touched[e.instance] = 1;
  Status violated = Status::OK();
  for (const CopyEdge& edge : copy_edges_) {
    if (!touched[edge.target_instance] && !touched[edge.source_instance]) {
      continue;
    }
    violated = edge.fn.Validate(instances_[edge.target_instance].relation(),
                                instances_[edge.source_instance].relation());
    if (!violated.ok()) break;
  }
  if (!violated.ok()) {
    for (size_t k = edits.size(); k-- > 0;) {
      const TupleEdit& e = edits[k];
      Status undo = instances_[e.instance].UpdateValue(e.tuple, e.attr,
                                                       std::move(previous[k]));
      if (!undo.ok()) return undo;  // cannot happen: ranges validated above
    }
    // Re-warm the entity-group caches UpdateValue reset: a caller whose
    // batch was rejected keeps using the specification as-is (the serving
    // layer skips its epoch rebuild — the usual cache warmer — and its
    // parallel batches require EntityGroups() to be pre-built, per the
    // thread-confinement contract in src/core/decompose.h).
    for (int i = 0; i < num_instances(); ++i) {
      if (touched[i]) (void)instances_[i].relation().EntityGroups();
    }
    return violated;
  }
  return Status::OK();
}

int64_t Specification::TotalTuples() const {
  int64_t total = 0;
  for (const TemporalInstance& inst : instances_) {
    total += inst.relation().size();
  }
  return total;
}

}  // namespace currency::core
