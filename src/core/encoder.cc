#include "src/core/encoder.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <utility>

namespace currency::core {

Result<std::unique_ptr<Encoder>> Encoder::Build(const Specification& spec,
                                                const Options& options) {
  std::unique_ptr<Encoder> encoder(new Encoder());
  RETURN_IF_ERROR(encoder->BuildImpl(spec, options));
  return encoder;
}

bool Encoder::HasPairVar(int inst, TupleId u, TupleId v) const {
  const int ru = LastRow(inst, u);
  const int rv = LastRow(inst, v);
  // Compare groups, not block bases: a singleton group's empty block
  // starts where the next group's does.
  return u != v && ru >= 0 && rv >= 0 && num_bound_[inst] > 0 &&
         rows_[inst][ru].group == rows_[inst][rv].group;
}

sat::Lit Encoder::OrdLit(int inst, AttrIndex attr, TupleId u, TupleId v) const {
  assert(HasPairVar(inst, u, v) && "OrdLit needs a same-group pair");
  const Row& ru = rows_[inst][LastRow(inst, u)];
  const Row& rv = rows_[inst][LastRow(inst, v)];
  return PairLit(inst, attr, ru.pair_base, ru.size, ru.index, rv.index);
}

sat::Lit Encoder::PairLit(int inst, AttrIndex attr, int pair_base, int size,
                          int x, int y) const {
  assert(bound_slot_[inst][attr] >= 0 && "OrdLit on an order-free attribute");
  const int lo = std::min(x, y);
  const int hi = std::max(x, y);
  const int rank = lo * (2 * size - lo - 1) / 2 + (hi - lo - 1);
  // Variable true ⇔ members[lo] ≺ members[hi]; flip when asking (hi, lo).
  return sat::MakeLit(
      pair_base + num_bound_[inst] * rank + bound_slot_[inst][attr],
      /*negated=*/x > y);
}

int Encoder::LastRow(int inst, TupleId u) const {
  if (inst < 0 || inst >= static_cast<int>(last_tuples_.size())) return -1;
  const std::vector<TupleId>& ids = last_tuples_[inst];
  auto it = std::lower_bound(ids.begin(), ids.end(), u);
  return it == ids.end() || *it != u ? -1 : static_cast<int>(it - ids.begin());
}

sat::Var Encoder::IsLastVar(int inst, AttrIndex attr, TupleId u) const {
  const int row = LastRow(inst, u);
  if (row < 0) return -1;
  return is_last_var_[inst][static_cast<size_t>(row) *
                                spec_->instance(inst).schema().arity() +
                            attr];
}

CopyBucketIndex CopyBucketIndex::Build(const Specification& spec) {
  CopyBucketIndex index;
  index.per_edge.reserve(spec.copy_edges().size());
  index.coupled_targets.reserve(spec.copy_edges().size());
  for (const CopyEdge& edge : spec.copy_edges()) {
    const Relation& target = spec.instance(edge.target_instance).relation();
    const Relation& source = spec.instance(edge.source_instance).relation();
    CopyBuckets buckets;
    for (const auto& [t, src] : edge.fn.mapping()) {
      buckets[target.tuple(t).eid()][source.tuple(src).eid()].emplace_back(
          t, src);
    }
    std::map<Value, std::vector<Value>> coupled;
    for (const auto& [te, by_source] : buckets) {
      for (const auto& [se, mapped] : by_source) {
        if (Couples(mapped)) coupled[se].push_back(te);
      }
    }
    index.per_edge.push_back(std::move(buckets));
    index.coupled_targets.push_back(std::move(coupled));
  }
  return index;
}

bool CopyBucketIndex::Couples(
    const std::vector<std::pair<TupleId, TupleId>>& mapped) {
  return std::any_of(mapped.begin(), mapped.end(), [&](const auto& ts) {
    return ts.second != mapped.front().second;
  });
}

Result<std::vector<const std::vector<TupleId>*>> NodeMembers(
    const Specification& spec, const std::vector<EntityNode>& nodes,
    const CopyBucketIndex& copy_index) {
  std::vector<const std::vector<TupleId>*> members;
  members.reserve(nodes.size());
  for (size_t k = 0; k < nodes.size(); ++k) {
    const EntityNode& node = nodes[k];
    if (k > 0 && !(nodes[k - 1] < node)) {
      return Status::InvalidArgument(
          "node list is not in (instance, entity) order");
    }
    if (node.inst < 0 || node.inst >= spec.num_instances()) {
      return Status::InvalidArgument("node names an unknown instance");
    }
    const auto& groups = spec.instance(node.inst).relation().EntityGroups();
    auto it = groups.find(node.eid);
    if (it == groups.end()) {
      return Status::InvalidArgument("node names an unknown entity group");
    }
    members.push_back(&it->second);
  }
  if (copy_index.per_edge.size() != spec.copy_edges().size()) {
    return Status::Internal("copy-bucket index does not match the spec");
  }
  // A coupling bucket's clauses and chase derivations relate its target
  // and its source group, so a list holds both or neither.  Each listed
  // group looks up only its own buckets, from either side.
  auto listed = [&](int inst, const Value& eid) {
    auto it = std::partition_point(
        nodes.begin(), nodes.end(), [&](const EntityNode& n) {
          return n.inst < inst || (n.inst == inst && n.eid < eid);
        });
    return it != nodes.end() && it->inst == inst && it->eid == eid;
  };
  auto split = [] {
    return Status::Internal("node list splits a copy-coupled entity pair");
  };
  for (const EntityNode& node : nodes) {
    for (size_t e = 0; e < spec.copy_edges().size(); ++e) {
      const CopyEdge& edge = spec.copy_edges()[e];
      if (node.inst == edge.target_instance) {
        auto bucket = copy_index.per_edge[e].find(node.eid);
        if (bucket != copy_index.per_edge[e].end()) {
          for (const auto& [se, mapped] : bucket->second) {
            if (CopyBucketIndex::Couples(mapped) &&
                !listed(edge.source_instance, se)) {
              return split();
            }
          }
        }
      }
      if (node.inst == edge.source_instance) {
        auto targets = copy_index.coupled_targets[e].find(node.eid);
        if (targets != copy_index.coupled_targets[e].end()) {
          for (const Value& te : targets->second) {
            if (!listed(edge.target_instance, te)) return split();
          }
        }
      }
    }
  }
  return members;
}

Status Encoder::BuildImpl(const Specification& spec, const Options& options) {
  spec_ = &spec;
  solver_ = std::make_unique<sat::Solver>();
  sat::Solver& s = *solver_;

  // 0. Resolve the entity groups this encoder covers, iterating the node
  // list (not the relations) so a component encoder's build cost is
  // proportional to its own content.  The engine shares the
  // decomposition's prebuilt copy-bucket index across all builds.
  if (options.nodes == nullptr || options.copy_index == nullptr) {
    return Status::InvalidArgument(
        "Encoder::Options needs a node list and a copy-bucket index");
  }
  active_groups_.resize(spec.num_instances());
  ASSIGN_OR_RETURN(auto members,
                   NodeMembers(spec, *options.nodes, *options.copy_index));
  for (size_t k = 0; k < members.size(); ++k) {
    const EntityNode& node = (*options.nodes)[k];
    active_groups_[node.inst].emplace_back(node.eid, *members[k]);
  }

  // 1. Order variables: one per (same-entity pair, order-bound data
  // attribute), allocated group by group in pair order, so a group's
  // pairs form one block and a pair's variables are found by arithmetic
  // (see Row).  An order-free attribute gets none: nothing ties its order
  // to another variable, so its is-last selectors are pinned directly by
  // the initial order in step 6.  The row tables cover this encoder's own
  // tuples only (sorted for the binary searches of OrdLit and IsLastVar),
  // so they cost O(own content) like the rest.
  const int n = spec.num_instances();
  bound_slot_.resize(n);
  num_bound_.assign(n, 0);
  last_tuples_.resize(n);
  rows_.resize(n);
  for (int i = 0; i < n; ++i) {
    const int arity = spec.instance(i).schema().arity();
    bound_slot_[i].assign(arity, -1);
    for (AttrIndex a = 1; a < arity; ++a) {
      if (spec.OrderBound(i, a)) bound_slot_[i][a] = num_bound_[i]++;
    }
    for (const auto& [eid, members] : active_groups_[i]) {
      (void)eid;
      last_tuples_[i].insert(last_tuples_[i].end(), members.begin(),
                             members.end());
    }
    std::sort(last_tuples_[i].begin(), last_tuples_[i].end());
    rows_[i].resize(last_tuples_[i].size());
    for (size_t g = 0; g < active_groups_[i].size(); ++g) {
      const std::vector<TupleId>& group = active_groups_[i][g].second;
      const int m = static_cast<int>(group.size());
      for (int x = 0; x < m; ++x) {
        rows_[i][LastRow(i, group[x])] =
            Row{s.NumVars(), x, m, static_cast<int>(g)};
      }
      const int vars = num_bound_[i] * m * (m - 1) / 2;
      for (int k = 0; k < vars; ++k) s.NewVar();
      num_order_vars_ += vars;
    }
  }
  // The pair block of a group (members non-empty).
  auto block = [&](int i, const std::vector<TupleId>& group) {
    return rows_[i][LastRow(i, group[0])].pair_base;
  };

  // 2. Transitivity: ord(u,v) ∧ ord(v,w) → ord(u,w) for ordered triples.
  for (int i = 0; i < n; ++i) {
    const int arity = spec.instance(i).schema().arity();
    for (const auto& [eid, members] : active_groups_[i]) {
      (void)eid;
      const int m = static_cast<int>(members.size());
      if (m < 3) continue;
      const int base = block(i, members);
      for (AttrIndex a = 1; a < arity; ++a) {
        if (bound_slot_[i][a] < 0) continue;
        for (int x = 0; x < m; ++x) {
          for (int y = 0; y < m; ++y) {
            if (y == x) continue;
            for (int z = 0; z < m; ++z) {
              if (z == x || z == y) continue;
              s.AddClause({sat::Negate(PairLit(i, a, base, m, x, y)),
                           sat::Negate(PairLit(i, a, base, m, y, z)),
                           PairLit(i, a, base, m, x, z)});
            }
          }
        }
      }
    }
  }

  // 3. Initial partial orders.  Read in place: a PartialOrder is an
  // O(n²) bit matrix, and a per-component build must not pay for the
  // whole instance.  Initial orders only relate same-entity tuples
  // (TemporalInstance::AddOrder enforces this), so walking entity groups
  // and probing Less covers every pair — in Σ m² instead of the n²/64
  // full-matrix scan of Pairs(), which matters when an encoder is built
  // once per component.
  for (int i = 0; i < n; ++i) {
    const TemporalInstance& inst = spec.instance(i);
    for (const auto& [eid, members] : active_groups_[i]) {
      (void)eid;
      const int m = static_cast<int>(members.size());
      const int base = block(i, members);
      for (AttrIndex a = 1; a < inst.schema().arity(); ++a) {
        if (bound_slot_[i][a] < 0) continue;
        const PartialOrder& po = inst.order(a);
        for (int x = 0; x < m; ++x) {
          for (int y = 0; y < m; ++y) {
            if (x == y || !po.Less(members[x], members[y])) continue;
            s.AddClause({PairLit(i, a, base, m, x, y)});
          }
        }
      }
    }
  }

  // 4. Copy ≺-compatibility: ord_src(s1,s2) → ord_tgt(t1,t2).  Clauses
  // only arise between mappings agreeing on both the target and the
  // source entity, so encoding walks (target entity, source entity)
  // buckets — Σ |bucket|² instead of |ρ|² work — and only those of its
  // own target groups.  NodeMembers has checked that the groups are
  // closed under coupling buckets, so every clause stays inside them.
  for (size_t edge_index = 0; edge_index < spec.copy_edges().size();
       ++edge_index) {
    const CopyEdge& edge = spec.copy_edges()[edge_index];
    const Relation& target = spec.instance(edge.target_instance).relation();
    const Relation& source = spec.instance(edge.source_instance).relation();
    ASSIGN_OR_RETURN(auto attrs,
                     edge.fn.ResolveAttrs(target.schema(), source.schema()));
    const CopyBuckets& buckets = options.copy_index->per_edge[edge_index];
    for (const auto& group : active_groups_[edge.target_instance]) {
      auto bucket = buckets.find(group.first);
      if (bucket == buckets.end()) continue;
      for (const auto& [se, mapped] : bucket->second) {
        (void)se;
        for (size_t x = 0; x < mapped.size(); ++x) {
          for (size_t y = 0; y < mapped.size(); ++y) {
            auto [t1, s1] = mapped[x];
            auto [t2, s2] = mapped[y];
            if (t1 == t2 || s1 == s2) continue;
            for (const auto& [a, b] : attrs) {
              s.AddClause(
                  {sat::Negate(OrdLit(edge.source_instance, b, s1, s2)),
                   OrdLit(edge.target_instance, a, t1, t2)});
            }
          }
        }
      }
    }
  }

  // 5. Grounded denial constraints: premise literals → conclusion literal,
  // built in one reused buffer.
  std::vector<sat::Lit> clause;
  for (int i = 0; i < n; ++i) {
    const Relation& rel = spec.instance(i).relation();
    const std::function<void(const constraints::Grounding&)> emit =
        [&](const constraints::Grounding& g) {
          clause.clear();
          for (const auto& p : g.premises) {
            clause.push_back(sat::Negate(OrdLit(i, p.attr, p.before, p.after)));
          }
          if (g.conclusion.has_value()) {
            clause.push_back(OrdLit(i, g.conclusion->attr,
                                    g.conclusion->before, g.conclusion->after));
          }
          s.AddClause(clause);
        };
    // All tuple variables of a grounding bind within one entity group,
    // so grounding per active group loses nothing and skips the other
    // components' grounding work entirely.
    for (const auto& dc : spec.constraints_for(i)) {
      for (const auto& [eid, members] : active_groups_[i]) {
        (void)eid;
        dc.EnumerateGroundingsForGroup(rel, members, emit);
      }
    }
  }

  // 6. is-last selectors L(u), plus per-cell value selectors
  //    val(cell, k) ⇔ ⋁ {L(u) | u carries value k}.  On an order-bound
  //    attribute L(u) ⇔ ⋀_{v ≠ u, same entity} ord(v, u).  On an
  //    order-free one, the last tuple of a completion is exactly one
  //    maximal member of the initial order (any linear extension can end
  //    in any of them, independently of every other variable): ¬L(u) for
  //    each non-maximal member, exactly-one over the maximal members.
  //    Cells follow group-major, attribute-minor (see CellAt).
  is_last_var_.resize(n);
  cell_begin_.resize(n);
  std::vector<int> member_rows;
  std::vector<sat::Lit> maximal;  // L(u) of the maximal members
  std::vector<std::pair<const Value*, int>> by_value;  // (value, x)
  for (int i = 0; i < n; ++i) {
    const TemporalInstance& inst = spec.instance(i);
    const int arity = inst.schema().arity();
    is_last_var_[i].assign(last_tuples_[i].size() * arity, -1);
    cell_begin_[i] = cells_.size();
    for (const auto& [eid, members] : active_groups_[i]) {
      const int m = static_cast<int>(members.size());
      const int base = block(i, members);
      member_rows.resize(m);
      for (int x = 0; x < m; ++x) member_rows[x] = LastRow(i, members[x]);
      auto last_var = [&](int x, AttrIndex a) -> sat::Var& {
        return is_last_var_[i][static_cast<size_t>(member_rows[x]) * arity + a];
      };
      for (AttrIndex a = 1; a < arity; ++a) {
        const bool bound = bound_slot_[i][a] >= 0;
        const PartialOrder& po = inst.order(a);
        maximal.clear();
        for (int x = 0; x < m; ++x) {
          const sat::Var lv = s.NewVar();
          last_var(x, a) = lv;
          if (!bound) {
            bool has_successor = false;
            for (TupleId v : members) has_successor |= po.Less(members[x], v);
            if (has_successor) {
              s.AddClause({sat::MakeLit(lv, true)});
            } else {
              maximal.push_back(sat::MakeLit(lv));
            }
            continue;
          }
          clause.assign(1, sat::MakeLit(lv));
          for (int y = 0; y < m; ++y) {
            if (y == x) continue;
            // L(u) → ord(v, u)
            const sat::Lit before = PairLit(i, a, base, m, y, x);
            s.AddClause({sat::MakeLit(lv, true), before});
            clause.push_back(sat::Negate(before));
          }
          // (⋀ ord(v,u)) → L(u)
          s.AddClause(clause);
        }
        if (!bound) {
          for (size_t x = 0; x < maximal.size(); ++x) {
            for (size_t y = x + 1; y < maximal.size(); ++y) {
              s.AddClause({sat::Negate(maximal[x]), sat::Negate(maximal[y])});
            }
          }
          s.AddClause(maximal);
        }
        // Cell: distinct values of this (attr, entity) in value order, each
        // with its carriers in member order — a sort of (value, member)
        // pairs.
        Cell cell{i, a, eid, {}, {}};
        by_value.clear();
        for (int x = 0; x < m; ++x) {
          by_value.emplace_back(&inst.relation().tuple(members[x]).at(a), x);
        }
        std::sort(by_value.begin(), by_value.end(),
                  [](const auto& l, const auto& r) {
                    if (*l.first < *r.first) return true;
                    return !(*r.first < *l.first) && l.second < r.second;
                  });
        for (size_t k = 0; k < by_value.size();) {
          const sat::Var vv = s.NewVar();
          cell.values.push_back(*by_value[k].first);
          cell.value_vars.push_back(vv);
          // val ⇔ ⋁ L(u).
          clause.assign(1, sat::MakeLit(vv, true));
          const Value& v = *by_value[k].first;
          for (; k < by_value.size() && !(v < *by_value[k].first); ++k) {
            const sat::Var lu = last_var(by_value[k].second, a);
            clause.push_back(sat::MakeLit(lu));
            s.AddClause({sat::MakeLit(lu, true), sat::MakeLit(vv)});
          }
          s.AddClause(clause);
        }
        cells_.push_back(std::move(cell));
      }
    }
  }
  return Status::OK();
}

std::vector<sat::Var> Encoder::CellProjection(
    const std::vector<int>& instances) const {
  std::vector<sat::Var> out;
  for (const Cell& cell : cells_) {
    for (int i : instances) {
      if (cell.inst == i) {
        out.insert(out.end(), cell.value_vars.begin(), cell.value_vars.end());
        break;
      }
    }
  }
  return out;
}

Result<sat::Lit> Encoder::CellValueLit(int inst, AttrIndex attr,
                                       const Value& eid,
                                       const Value& v) const {
  if (inst < 0 || inst >= static_cast<int>(active_groups_.size())) {
    return Status::InvalidArgument("instance index out of range");
  }
  const auto& groups = active_groups_[inst];
  auto group = std::partition_point(
      groups.begin(), groups.end(),
      [&](const auto& g) { return g.first < eid; });
  if (group == groups.end() || !(group->first == eid) || attr < 1 ||
      attr >= static_cast<int>(bound_slot_[inst].size())) {
    return Status::NotFound("no cell for entity " + eid.ToString());
  }
  const Cell& cell = CellAt(inst, group - groups.begin(), attr);
  for (size_t k = 0; k < cell.values.size(); ++k) {
    if (cell.values[k] == v) return sat::MakeLit(cell.value_vars[k]);
  }
  return Status::NotFound("value " + v.ToString() + " not possible in cell");
}

Result<std::vector<Relation>> Encoder::DecodeCurrentInstances() const {
  std::vector<Relation> out;
  out.reserve(spec_->num_instances());
  // Per-instance map entity -> (attr -> value) read from the cell vars.
  for (int i = 0; i < spec_->num_instances(); ++i) {
    const TemporalInstance& inst = spec_->instance(i);
    Relation lst(inst.schema());
    for (size_t g = 0; g < active_groups_[i].size(); ++g) {
      const Value& eid = active_groups_[i][g].first;
      std::vector<Value> values(inst.schema().arity());
      values[0] = eid;
      for (AttrIndex a = 1; a < inst.schema().arity(); ++a) {
        const Cell& cell = CellAt(i, g, a);
        Value chosen;
        bool found = false;
        for (size_t k = 0; k < cell.values.size(); ++k) {
          if (solver_->ModelValue(cell.value_vars[k])) {
            chosen = cell.values[k];
            found = true;
            break;
          }
        }
        if (!found) {
          return Status::Internal("model selects no current value for " +
                                  eid.ToString());
        }
        values[a] = chosen;
      }
      RETURN_IF_ERROR(lst.Append(Tuple(std::move(values))).status());
    }
    out.push_back(std::move(lst));
  }
  return out;
}

Completion Encoder::ExtractCompletion() const {
  Completion completion;
  completion.orders.resize(spec_->num_instances());
  for (int i = 0; i < spec_->num_instances(); ++i) {
    const TemporalInstance& inst = spec_->instance(i);
    const int arity = inst.schema().arity();
    std::vector<PartialOrder>& orders = completion.orders[i];
    orders.assign(arity, PartialOrder(inst.relation().size()));
    for (const auto& [eid, members] : active_groups_[i]) {
      (void)eid;
      const int m = static_cast<int>(members.size());
      const int base = rows_[i][LastRow(i, members[0])].pair_base;
      for (int x = 0; x < m; ++x) {
        for (int y = x + 1; y < m; ++y) {
          for (AttrIndex a = 1; a < arity; ++a) {
            if (bound_slot_[i][a] < 0) continue;
            // x < y: the pair literal is the positive variable.
            const bool x_first = solver_->ModelValue(
                sat::LitVar(PairLit(i, a, base, m, x, y)));
            // Completions are acyclic by construction (transitivity
            // clauses), so TryAdd cannot fail on a model.
            if (x_first) {
              orders[a].TryAdd(members[x], members[y]);
            } else {
              orders[a].TryAdd(members[y], members[x]);
            }
          }
        }
      }
    }
    // An order-free attribute completes to a linear extension of the
    // initial order that ends in the model's last tuple (a maximal member,
    // so moving it to the end keeps the extension), which keeps the
    // completion's current instance equal to DecodeCurrentInstances.
    for (AttrIndex a = 1; a < arity; ++a) {
      if (bound_slot_[i][a] >= 0) continue;
      for (const auto& [eid, members] : active_groups_[i]) {
        (void)eid;
        std::vector<TupleId> chain = inst.order(a).TopologicalOrder(members);
        auto last = std::find_if(chain.begin(), chain.end(), [&](TupleId u) {
          const sat::Var l = IsLastVar(i, a, u);
          return l >= 0 && solver_->ModelValue(l);
        });
        if (last != chain.end()) std::rotate(last, last + 1, chain.end());
        for (size_t k = 0; k + 1 < chain.size(); ++k) {
          orders[a].TryAdd(chain[k], chain[k + 1]);
        }
      }
    }
  }
  return completion;
}

}  // namespace currency::core
