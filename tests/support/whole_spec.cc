#include "tests/support/whole_spec.h"

#include <string>
#include <utility>

#include "src/core/chase.h"
#include "src/core/decompose.h"
#include "src/core/sp_ccqa.h"

namespace currency::testing {

namespace {

/// One pass of denial-constraint Horn closure over `chase`'s orders.
/// Returns whether anything changed; clears chase->consistent when a pure
/// denial fires or a conclusion contradicts a certain pair.
bool DenialClosurePass(const core::Specification& spec,
                       WholeSpecChase* chase) {
  bool changed = false;
  for (int i = 0; i < spec.num_instances() && chase->consistent; ++i) {
    const Relation& rel = spec.instance(i).relation();
    std::vector<PartialOrder>& orders = chase->certain_orders[i];
    for (const auto& dc : spec.constraints_for(i)) {
      if (!chase->consistent) break;
      dc.EnumerateGroundings(rel, [&](const constraints::Grounding& g) {
        if (!chase->consistent) return;
        for (const auto& p : g.premises) {
          if (!orders[p.attr].Less(p.before, p.after)) return;
        }
        if (!g.conclusion.has_value()) {
          chase->consistent = false;  // certain premises of a pure denial
          return;
        }
        const auto& c = *g.conclusion;
        if (orders[c.attr].Less(c.before, c.after)) return;
        if (!orders[c.attr].TryAdd(c.before, c.after)) {
          chase->consistent = false;  // contradicts a certain pair
          return;
        }
        changed = true;
      });
    }
  }
  return changed;
}

Result<WholeSpecChase> ChaseToFixpoint(const core::Specification& spec,
                                       bool with_denials) {
  WholeSpecChase chase;
  for (int i = 0; i < spec.num_instances(); ++i) {
    chase.certain_orders.push_back(spec.instance(i).orders());
  }
  struct MappedPair {
    TupleId t1, t2, s1, s2;
  };
  struct Plan {
    int source, target;
    std::vector<std::pair<AttrIndex, AttrIndex>> attrs;  // (target, source)
    std::vector<MappedPair> pairs;
  };
  std::vector<Plan> plans;
  for (const core::CopyEdge& edge : spec.copy_edges()) {
    Plan plan;
    plan.source = edge.source_instance;
    plan.target = edge.target_instance;
    const Relation& target = spec.instance(edge.target_instance).relation();
    const Relation& source = spec.instance(edge.source_instance).relation();
    ASSIGN_OR_RETURN(plan.attrs,
                     edge.fn.ResolveAttrs(target.schema(), source.schema()));
    for (const auto& [t1, s1] : edge.fn.mapping()) {
      for (const auto& [t2, s2] : edge.fn.mapping()) {
        if (t1 == t2 || s1 == s2) continue;
        if (!(target.tuple(t1).eid() == target.tuple(t2).eid())) continue;
        if (!(source.tuple(s1).eid() == source.tuple(s2).eid())) continue;
        plan.pairs.push_back(MappedPair{t1, t2, s1, s2});
      }
    }
    plans.push_back(std::move(plan));
  }
  bool changed = true;
  while (changed && chase.consistent) {
    changed = false;
    ++chase.passes;
    for (const Plan& plan : plans) {
      for (const auto& [a, b] : plan.attrs) {
        PartialOrder& tgt = chase.certain_orders[plan.target][a];
        PartialOrder& src = chase.certain_orders[plan.source][b];
        for (const MappedPair& p : plan.pairs) {
          // Source order is inherited by the target (≺-compatibility);
          // a certain target order forces the source order
          // (contrapositive under totality).
          if (src.Less(p.s1, p.s2) && !tgt.Less(p.t1, p.t2)) {
            if (!tgt.TryAdd(p.t1, p.t2)) {
              chase.consistent = false;
              return chase;
            }
            changed = true;
          }
          if (tgt.Less(p.t1, p.t2) && !src.Less(p.s1, p.s2)) {
            if (!src.TryAdd(p.s1, p.s2)) {
              chase.consistent = false;
              return chase;
            }
            changed = true;
          }
        }
      }
    }
    if (with_denials) changed |= DenialClosurePass(spec, &chase);
  }
  return chase;
}

}  // namespace

Result<WholeSpecChase> ChaseWholeSpec(const core::Specification& spec) {
  return ChaseToFixpoint(spec, /*with_denials=*/false);
}

Result<WholeSpecChase> HornPrefix(const core::Specification& spec) {
  return ChaseToFixpoint(spec, /*with_denials=*/true);
}

Result<std::set<Tuple>> LiteralSpCertainAnswers(
    const core::Specification& spec, const query::Query& q) {
  if (spec.HasDenialConstraints()) {
    return Status::Unsupported(
        "Proposition 6.3 applies only without denial constraints");
  }
  ASSIGN_OR_RETURN(WholeSpecChase chase, ChaseWholeSpec(spec));
  if (!chase.consistent) {
    return Status::Inconsistent(
        "Mod(S) is empty: every tuple is vacuously a certain answer");
  }
  // One node per entity group, its orders restricted to the members and
  // renumbered by position, as a component fixpoint's are.
  std::vector<core::ComponentChase::Node> nodes;
  for (int i = 0; i < spec.num_instances(); ++i) {
    for (const auto& [eid, members] :
         spec.instance(i).relation().EntityGroups()) {
      core::ComponentChase::Node& node = nodes.emplace_back();
      node.inst = i;
      node.eid = eid;
      node.members = members;
      const int m = static_cast<int>(members.size());
      node.orders.assign(chase.certain_orders[i].size(), PartialOrder(m));
      for (size_t a = 1; a < node.orders.size(); ++a) {
        for (int x = 0; x < m; ++x) {
          for (int y = 0; y < m; ++y) {
            if (chase.certain_orders[i][a].Less(members[x], members[y])) {
              node.orders[a].TryAdd(x, y);
            }
          }
        }
      }
    }
  }
  std::vector<const core::ComponentChase::Node*> pointers;
  for (const core::ComponentChase::Node& node : nodes) {
    pointers.push_back(&node);
  }
  return core::SpAnswersFromChaseNodes(spec, pointers, q);
}

Result<std::unique_ptr<core::Encoder>> BuildWholeSpecEncoder(
    const core::Specification& spec) {
  std::vector<core::EntityNode> nodes;
  for (int i = 0; i < spec.num_instances(); ++i) {
    for (const auto& [eid, members] :
         spec.instance(i).relation().EntityGroups()) {
      (void)members;
      nodes.push_back(core::EntityNode{i, eid});
    }
  }
  const core::CopyBucketIndex copy_index = core::CopyBucketIndex::Build(spec);
  return core::Encoder::Build(spec,
                              core::Encoder::Options{&nodes, &copy_index});
}

Status CompareComponentChases(const core::Specification& spec) {
  ASSIGN_OR_RETURN(WholeSpecChase whole, ChaseWholeSpec(spec));
  ASSIGN_OR_RETURN(auto engine,
                   core::DecomposedEncoder::Build(spec, {},
                                                  /*use_chase_routing=*/true));
  bool all_consistent = true;
  for (int c = 0; c < engine->num_components(); ++c) {
    ASSIGN_OR_RETURN(core::ComponentChase chase,
                     engine->BuildComponentChase(c));
    all_consistent = all_consistent && chase.consistent;
    if (!whole.consistent) continue;
    if (chase.nodes.size() != engine->decomposition().component(c).size()) {
      return Status::Internal("component " + std::to_string(c) +
                              " chased a different node list");
    }
    for (const core::ComponentChase::Node& node : chase.nodes) {
      const int m = static_cast<int>(node.members.size());
      for (size_t a = 1; a < node.orders.size(); ++a) {
        const PartialOrder& reference = whole.certain_orders[node.inst][a];
        for (int x = 0; x < m; ++x) {
          for (int y = 0; y < m; ++y) {
            if (node.orders[a].Less(x, y) !=
                reference.Less(node.members[x], node.members[y])) {
              return Status::Internal(
                  "component " + std::to_string(c) + " node " +
                  node.eid.ToString() + " attr " + std::to_string(a) +
                  " pair " + std::to_string(x) + "," + std::to_string(y) +
                  " differs from the whole-spec chase");
            }
          }
        }
      }
    }
  }
  if (all_consistent != whole.consistent) {
    return Status::Internal(std::string("component chases are ") +
                            (all_consistent ? "" : "not ") +
                            "all consistent, the whole-spec chase is " +
                            (whole.consistent ? "" : "not"));
  }
  return Status::OK();
}

}  // namespace currency::testing
