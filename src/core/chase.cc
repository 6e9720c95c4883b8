#include "src/core/chase.h"

#include <algorithm>
#include <utility>

#include "src/core/encoder.h"

namespace currency::core {

namespace {

/// A mapped pair of target tuples with matching entity ids on both sides:
/// the unit of ≺-compatibility propagation, in node-local indices.
struct MappedPair {
  TupleId t1, t2;  // target tuples (distinct, same EID)
  TupleId s1, s2;  // their sources (distinct, same EID)
};

/// Pre-resolved copy bucket: signature attribute pairs + mapped pairs.
/// `source` and `target` index the nodes whose orders a propagation pass
/// updates.
struct EdgePlan {
  int source, target;
  std::vector<std::pair<AttrIndex, AttrIndex>> attrs;  // (target, source)
  std::vector<MappedPair> pairs;
};

/// One pass of copy-order propagation.  Returns whether anything changed;
/// sets *inconsistent on a derived cycle.
bool CopyPropagationPass(const std::vector<EdgePlan>& plans,
                         std::vector<std::vector<PartialOrder>>* orders,
                         bool* inconsistent, int64_t* edges_expanded,
                         int64_t* derived_pairs) {
  bool changed = false;
  for (const EdgePlan& plan : plans) {
    for (const auto& [a, b] : plan.attrs) {
      PartialOrder& tgt = (*orders)[plan.target][a];
      PartialOrder& src = (*orders)[plan.source][b];
      for (const MappedPair& p : plan.pairs) {
        ++*edges_expanded;
        // Source order is inherited by the target (≺-compatibility).
        if (src.Less(p.s1, p.s2) && !tgt.Less(p.t1, p.t2)) {
          if (!tgt.TryAdd(p.t1, p.t2)) {
            *inconsistent = true;
            return changed;
          }
          ++*derived_pairs;
          changed = true;
        }
        // Contrapositive under totality: a certain target order forces
        // the corresponding source order (Theorem 6.1, step 3(a)ii).
        if (tgt.Less(p.t1, p.t2) && !src.Less(p.s1, p.s2)) {
          if (!src.TryAdd(p.s1, p.s2)) {
            *inconsistent = true;
            return changed;
          }
          ++*derived_pairs;
          changed = true;
        }
      }
    }
  }
  return changed;
}

}  // namespace

const ComponentChase::Node* ComponentChase::FindNode(int inst,
                                                     const Value& eid) const {
  auto it = std::partition_point(nodes.begin(), nodes.end(),
                                 [&](const Node& n) {
                                   return n.inst < inst ||
                                          (n.inst == inst && n.eid < eid);
                                 });
  if (it == nodes.end() || it->inst != inst || it->eid != eid) return nullptr;
  return &*it;
}

bool ComponentChase::CertainLess(int inst, const Value& eid, AttrIndex attr,
                                 TupleId u, TupleId v) const {
  const Node* n = FindNode(inst, eid);
  if (n == nullptr) return false;
  auto find_local = [&](TupleId id) -> int {
    auto it = std::lower_bound(n->members.begin(), n->members.end(), id);
    if (it == n->members.end() || *it != id) return -1;
    return static_cast<int>(it - n->members.begin());
  };
  int lu = find_local(u);
  int lv = find_local(v);
  if (lu < 0 || lv < 0) return false;
  return n->orders[attr].Less(lu, lv);
}

Result<ComponentChase> ChaseComponentOrders(
    const Specification& spec, const std::vector<EntityNode>& nodes,
    const CopyBucketIndex& copy_index) {
  ComponentChase out;
  // Entity groups with the whole-spec initial orders restricted to their
  // members.  Members are COPIED out of the relation's group cache: a
  // ComponentChase outlives its engine (a successor engine shares it
  // across Mutate), so it must not borrow from the specification.
  // orders[k] is node k's, moved into out.nodes after the fixpoint.
  ASSIGN_OR_RETURN(auto members, NodeMembers(spec, nodes, copy_index));
  std::vector<std::vector<PartialOrder>> orders;
  for (size_t k = 0; k < nodes.size(); ++k) {
    ComponentChase::Node& n = out.nodes.emplace_back();
    n.inst = nodes[k].inst;
    n.eid = nodes[k].eid;
    n.members = *members[k];
    const int m = static_cast<int>(n.members.size());
    const int arity = spec.instance(n.inst).schema().arity();
    std::vector<PartialOrder>& po =
        orders.emplace_back(arity, PartialOrder(m));
    const std::vector<PartialOrder>& init = spec.instance(n.inst).orders();
    for (AttrIndex a = 1; a < arity; ++a) {
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < m; ++j) {
          if (i != j && init[a].Less(n.members[i], n.members[j])) {
            // The restriction of a partial order cannot cycle.
            po[a].TryAdd(i, j);
          }
        }
      }
    }
  }

  // Local propagation plans over node indices: walk the buckets of the
  // component's own target groups, the way a component encoder does,
  // rewriting tuple ids to node-local indices.  A bucket whose source
  // group lies outside the list is single-source (NodeMembers rejects a
  // list that splits a coupling bucket) and contributes no mapped pairs,
  // so skipping it loses nothing.
  auto local_of = [](const std::vector<TupleId>& mem, TupleId id) {
    return static_cast<int>(std::lower_bound(mem.begin(), mem.end(), id) -
                            mem.begin());
  };
  std::vector<EdgePlan> plans;
  for (size_t e = 0; e < spec.copy_edges().size(); ++e) {
    const CopyEdge& edge = spec.copy_edges()[e];
    std::vector<std::pair<AttrIndex, AttrIndex>> attrs;
    bool attrs_resolved = false;
    for (size_t tn = 0; tn < out.nodes.size(); ++tn) {
      if (out.nodes[tn].inst != edge.target_instance) continue;
      auto bucket = copy_index.per_edge[e].find(out.nodes[tn].eid);
      if (bucket == copy_index.per_edge[e].end()) continue;
      for (const auto& [se, mapped] : bucket->second) {
        const ComponentChase::Node* src =
            out.FindNode(edge.source_instance, se);
        if (src == nullptr) continue;
        if (!attrs_resolved) {
          const Relation& target =
              spec.instance(edge.target_instance).relation();
          const Relation& source =
              spec.instance(edge.source_instance).relation();
          ASSIGN_OR_RETURN(
              attrs, edge.fn.ResolveAttrs(target.schema(), source.schema()));
          attrs_resolved = true;
        }
        EdgePlan plan{static_cast<int>(src - out.nodes.data()),
                      static_cast<int>(tn), attrs, {}};
        const std::vector<TupleId>& tmem = out.nodes[tn].members;
        const std::vector<TupleId>& smem = src->members;
        for (const auto& [t1, s1] : mapped) {
          for (const auto& [t2, s2] : mapped) {
            if (t1 == t2 || s1 == s2) continue;
            plan.pairs.push_back(MappedPair{local_of(tmem, t1),
                                            local_of(tmem, t2),
                                            local_of(smem, s1),
                                            local_of(smem, s2)});
          }
        }
        if (!plan.pairs.empty()) plans.push_back(std::move(plan));
      }
    }
  }

  // Least fixpoint of the propagation pass over node orders.
  bool inconsistent = false;
  bool changed = true;
  while (changed && !inconsistent) {
    ++out.passes;
    changed = CopyPropagationPass(plans, &orders, &inconsistent,
                                  &out.edges_expanded, &out.derived_pairs);
  }
  out.consistent = !inconsistent;
  for (size_t k = 0; k < out.nodes.size(); ++k) {
    out.nodes[k].orders = std::move(orders[k]);
  }
  return out;
}

}  // namespace currency::core
