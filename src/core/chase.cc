#include "src/core/chase.h"

#include <algorithm>
#include <map>
#include <utility>

#include "src/core/encoder.h"

namespace currency::core {

namespace {

/// A mapped pair of target tuples with matching entity ids on both sides:
/// the unit of ≺-compatibility propagation.
struct MappedPair {
  TupleId t1, t2;  // target tuples (distinct, same EID)
  TupleId s1, s2;  // their sources (distinct, same EID)
};

/// One pass of denial-constraint Horn closure over `orders`.  Returns
/// whether anything changed; sets *inconsistent when a pure denial fires
/// or a conclusion contradicts a certain pair.
Result<bool> DenialClosurePass(const Specification& spec,
                               std::vector<std::vector<PartialOrder>>* orders,
                               bool* inconsistent, int64_t* derived_pairs) {
  bool changed = false;
  for (int i = 0; i < spec.num_instances() && !*inconsistent; ++i) {
    const Relation& rel = spec.instance(i).relation();
    for (const auto& dc : spec.constraints_for(i)) {
      if (*inconsistent) break;
      dc.EnumerateGroundings(rel, [&](const constraints::Grounding& g) {
        if (*inconsistent) return;
        for (const auto& p : g.premises) {
          if (!(*orders)[i][p.attr].Less(p.before, p.after)) return;
        }
        if (!g.conclusion.has_value()) {
          *inconsistent = true;  // certain premises of a pure denial
          return;
        }
        const auto& c = *g.conclusion;
        if ((*orders)[i][c.attr].Less(c.before, c.after)) return;
        if ((*orders)[i][c.attr].Less(c.after, c.before)) {
          *inconsistent = true;  // conclusion contradicts a certain pair
          return;
        }
        if (!(*orders)[i][c.attr].TryAdd(c.before, c.after)) {
          *inconsistent = true;
          return;
        }
        ++*derived_pairs;
        changed = true;
      });
    }
  }
  return changed;
}

}  // namespace

namespace {

/// Pre-resolved copy edge: signature attribute pairs + mapped pairs.
struct EdgePlan {
  int source, target;
  std::vector<std::pair<AttrIndex, AttrIndex>> attrs;  // (target, source)
  std::vector<MappedPair> pairs;
};

Result<std::vector<EdgePlan>> BuildEdgePlans(const Specification& spec) {
  std::vector<EdgePlan> plans;
  // Mapped pairs only arise between two mappings agreeing on both the
  // target and the source entity, so expand (target entity, source
  // entity) buckets — Σ |bucket|² work — instead of the |ρ|² double loop
  // over the raw mapping; the buckets are the encoder's
  // (CopyBucketIndex, built per edge in spec.copy_edges() order).  The
  // pair SET is identical to the raw double loop's, only its order
  // differs (bucket-grouped instead of target-id-lexicographic), which
  // the chase fixpoint is insensitive to: the closure is a least
  // fixpoint of monotone rules, so certain_orders and consistency never
  // depend on application order (tests/encoder_chase_test.cc proves this
  // against a quadratic reference; only the pass counter may differ).
  const CopyBucketIndex index = CopyBucketIndex::Build(spec);
  for (size_t edge_index = 0; edge_index < spec.copy_edges().size();
       ++edge_index) {
    const CopyEdge& edge = spec.copy_edges()[edge_index];
    EdgePlan plan;
    plan.source = edge.source_instance;
    plan.target = edge.target_instance;
    const Relation& target = spec.instance(edge.target_instance).relation();
    const Relation& source = spec.instance(edge.source_instance).relation();
    ASSIGN_OR_RETURN(plan.attrs,
                     edge.fn.ResolveAttrs(target.schema(), source.schema()));
    for (const auto& [te, by_source] : index.per_edge[edge_index]) {
      (void)te;
      for (const auto& [se, mapped] : by_source) {
        (void)se;
        for (const auto& [t1, s1] : mapped) {
          for (const auto& [t2, s2] : mapped) {
            if (t1 == t2 || s1 == s2) continue;
            plan.pairs.push_back(MappedPair{t1, t2, s1, s2});
          }
        }
      }
    }
    plans.push_back(std::move(plan));
  }
  return plans;
}

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

Result<ChaseResult> RunChase(const Specification& spec, bool with_denials) {
  ChaseResult result;
  result.certain_orders.reserve(spec.num_instances());
  for (int i = 0; i < spec.num_instances(); ++i) {
    result.certain_orders.push_back(spec.instance(i).orders());
  }
  ASSIGN_OR_RETURN(std::vector<EdgePlan> plans, BuildEdgePlans(spec));
  bool inconsistent = false;
  bool changed = true;
  while (changed && !inconsistent) {
    changed = false;
    ++result.passes;
    changed |= CopyPropagationPass(plans, &result.certain_orders,
                                   &inconsistent, &result.edges_expanded,
                                   &result.derived_pairs);
    if (with_denials && !inconsistent) {
      ASSIGN_OR_RETURN(bool dc_changed,
                       DenialClosurePass(spec, &result.certain_orders,
                                         &inconsistent,
                                         &result.derived_pairs));
      changed |= dc_changed;
    }
  }
  result.consistent = !inconsistent;
  return result;
}

}  // namespace

Result<ChaseResult> ChaseCopyOrders(const Specification& spec) {
  return RunChase(spec, /*with_denials=*/false);
}

Result<ChaseResult> CertainOrderPrefix(const Specification& spec) {
  return RunChase(spec, /*with_denials=*/true);
}

const ComponentChase::Node* ComponentChase::FindNode(int inst,
                                                     const Value& eid) const {
  for (const Node& n : nodes) {
    if (n.inst == inst && n.eid == eid) return &n;
  }
  return nullptr;
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
    const Specification& spec,
    const std::vector<std::pair<int, Value>>& nodes,
    const CopyBucketIndex& copy_index) {
  ComponentChase out;
  // Entity groups with the whole-spec initial orders restricted to their
  // members.  Members are COPIED out of the relation's group cache: a
  // ComponentChase outlives its epoch (it is harvested and re-adopted
  // across Mutate), so it must not borrow from the specification.
  std::map<std::pair<int, Value>, int> node_index;
  for (const auto& [inst, eid] : nodes) {
    if (node_index.count({inst, eid})) continue;
    const Relation& rel = spec.instance(inst).relation();
    const auto& groups = rel.EntityGroups();
    auto git = groups.find(eid);
    if (git == groups.end()) {
      return Status::InvalidArgument(
          "component node names an unknown entity group");
    }
    ComponentChase::Node n;
    n.inst = inst;
    n.eid = eid;
    n.members = git->second;
    const int m = static_cast<int>(n.members.size());
    n.orders.assign(rel.schema().arity(), PartialOrder(m));
    const std::vector<PartialOrder>& init = spec.instance(inst).orders();
    for (AttrIndex a = 1; a < rel.schema().arity(); ++a) {
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < m; ++j) {
          if (i != j && init[a].Less(n.members[i], n.members[j])) {
            // The restriction of a partial order cannot cycle.
            n.orders[a].TryAdd(i, j);
          }
        }
      }
    }
    node_index[{inst, eid}] = static_cast<int>(out.nodes.size());
    out.nodes.push_back(std::move(n));
  }

  // Local propagation plans: the copy buckets both of whose endpoints lie
  // in the component, with tuple ids rewritten to node-local indices.
  // Buckets with only one endpoint inside are necessarily single-source
  // (otherwise they would have united the endpoints into one component)
  // and contribute no mapped pairs, so skipping them loses nothing.
  struct LocalPair {
    int t1, t2, s1, s2;
  };
  struct LocalPlan {
    int tgt_node, src_node;
    std::vector<std::pair<AttrIndex, AttrIndex>> attrs;
    std::vector<LocalPair> pairs;
  };
  if (copy_index.per_edge.size() != spec.copy_edges().size()) {
    return Status::Internal("copy-bucket index does not match the spec");
  }
  std::vector<LocalPlan> plans;
  for (size_t e = 0; e < spec.copy_edges().size(); ++e) {
    const CopyEdge& edge = spec.copy_edges()[e];
    std::vector<std::pair<AttrIndex, AttrIndex>> attrs;
    bool attrs_resolved = false;
    for (const auto& [te, by_source] : copy_index.per_edge[e]) {
      auto tgt_it = node_index.find({edge.target_instance, te});
      if (tgt_it == node_index.end()) continue;
      for (const auto& [se, mapped] : by_source) {
        auto src_it = node_index.find({edge.source_instance, se});
        if (src_it == node_index.end()) continue;
        if (!attrs_resolved) {
          const Relation& target =
              spec.instance(edge.target_instance).relation();
          const Relation& source =
              spec.instance(edge.source_instance).relation();
          ASSIGN_OR_RETURN(
              attrs, edge.fn.ResolveAttrs(target.schema(), source.schema()));
          attrs_resolved = true;
        }
        LocalPlan plan;
        plan.tgt_node = tgt_it->second;
        plan.src_node = src_it->second;
        plan.attrs = attrs;
        const std::vector<TupleId>& tmem = out.nodes[plan.tgt_node].members;
        const std::vector<TupleId>& smem = out.nodes[plan.src_node].members;
        auto local_of = [](const std::vector<TupleId>& mem, TupleId id) {
          return static_cast<int>(
              std::lower_bound(mem.begin(), mem.end(), id) - mem.begin());
        };
        for (const auto& [t1, s1] : mapped) {
          for (const auto& [t2, s2] : mapped) {
            if (t1 == t2 || s1 == s2) continue;
            plan.pairs.push_back(LocalPair{local_of(tmem, t1),
                                           local_of(tmem, t2),
                                           local_of(smem, s1),
                                           local_of(smem, s2)});
          }
        }
        if (!plan.pairs.empty()) plans.push_back(std::move(plan));
      }
    }
  }

  // Least fixpoint, mirroring CopyPropagationPass in local coordinates.
  bool inconsistent = false;
  bool changed = true;
  while (changed && !inconsistent) {
    changed = false;
    ++out.passes;
    for (const LocalPlan& plan : plans) {
      for (const auto& [a, b] : plan.attrs) {
        PartialOrder& tgt = out.nodes[plan.tgt_node].orders[a];
        PartialOrder& src = out.nodes[plan.src_node].orders[b];
        for (const LocalPair& p : plan.pairs) {
          ++out.edges_expanded;
          if (src.Less(p.s1, p.s2) && !tgt.Less(p.t1, p.t2)) {
            if (!tgt.TryAdd(p.t1, p.t2)) {
              inconsistent = true;
              break;
            }
            ++out.derived_pairs;
            changed = true;
          }
          if (tgt.Less(p.t1, p.t2) && !src.Less(p.s1, p.s2)) {
            if (!src.TryAdd(p.s1, p.s2)) {
              inconsistent = true;
              break;
            }
            ++out.derived_pairs;
            changed = true;
          }
        }
        if (inconsistent) break;
      }
      if (inconsistent) break;
    }
  }
  out.consistent = !inconsistent;
  return out;
}

}  // namespace currency::core
