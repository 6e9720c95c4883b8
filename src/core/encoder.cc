#include "src/core/encoder.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <utility>

#include "src/core/chase.h"

namespace currency::core {

namespace {

std::pair<TupleId, TupleId> Canonical(TupleId u, TupleId v) {
  return u < v ? std::make_pair(u, v) : std::make_pair(v, u);
}

}  // namespace

Result<std::unique_ptr<Encoder>> Encoder::Build(const Specification& spec,
                                                const Options& options) {
  std::unique_ptr<Encoder> encoder(new Encoder());
  RETURN_IF_ERROR(encoder->BuildImpl(spec, options));
  return encoder;
}

Result<std::unique_ptr<Encoder>> Encoder::Build(const Specification& spec) {
  return Build(spec, Options());
}

bool Encoder::HasPairVar(int inst, TupleId u, TupleId v) const {
  if (u == v) return false;
  return pair_base_[inst].count(Canonical(u, v)) > 0;
}

sat::Lit Encoder::OrdLit(int inst, AttrIndex attr, TupleId u, TupleId v) const {
  auto key = Canonical(u, v);
  int base = pair_base_[inst].at(key);
  assert(bound_slot_[inst][attr] >= 0 && "OrdLit on an order-free attribute");
  sat::Var var = base + bound_slot_[inst][attr];
  // Variable true ⇔ key.first ≺ key.second; flip when asking (v, u).
  return sat::MakeLit(var, /*negated=*/u != key.first);
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
  for (const CopyEdge& edge : spec.copy_edges()) {
    const Relation& target = spec.instance(edge.target_instance).relation();
    const Relation& source = spec.instance(edge.source_instance).relation();
    CopyBuckets buckets;
    for (const auto& [t, src] : edge.fn.mapping()) {
      buckets[target.tuple(t).eid()][source.tuple(src).eid()].emplace_back(
          t, src);
    }
    index.per_edge.push_back(std::move(buckets));
  }
  return index;
}

Status Encoder::BuildImpl(const Specification& spec, const Options& options) {
  spec_ = &spec;
  solver_ = std::make_unique<sat::Solver>(options.solver);
  sat::Solver& s = *solver_;
  pair_base_.resize(spec.num_instances());
  if (options.restrict_to != nullptr) filter_ = *options.restrict_to;
  auto keep = [this](int i, const Value& eid) {
    return !filter_.has_value() || filter_->Contains(i, eid);
  };

  // 0. Resolve the entity groups this encoder covers, iterating the
  // filter (not the relations) so a component encoder's build cost is
  // proportional to its own content.
  active_groups_.resize(spec.num_instances());
  for (int i = 0; i < spec.num_instances(); ++i) {
    const auto& groups = spec.instance(i).relation().EntityGroups();
    if (!filter_.has_value()) {
      for (const auto& [eid, members] : groups) {
        active_groups_[i].emplace_back(eid, members);
      }
    } else if (i < static_cast<int>(filter_->allowed.size())) {
      for (const Value& eid : filter_->allowed[i]) {
        auto it = groups.find(eid);
        if (it != groups.end()) {
          active_groups_[i].emplace_back(it->first, it->second);
        }
      }
    }
  }

  // 1. Order variables: one per (same-entity pair, order-bound data
  // attribute).  An order-free attribute gets none: nothing ties its order
  // to another variable, so its is-last selectors are pinned directly by
  // the initial order in step 6.
  bound_slot_.resize(spec.num_instances());
  for (int i = 0; i < spec.num_instances(); ++i) {
    const TemporalInstance& inst = spec.instance(i);
    int bound_attrs = 0;
    bound_slot_[i].assign(inst.schema().arity(), -1);
    for (AttrIndex a = 1; a < inst.schema().arity(); ++a) {
      if (spec.OrderBound(i, a)) bound_slot_[i][a] = bound_attrs++;
    }
    if (bound_attrs == 0) continue;
    for (const auto& [eid, members] : active_groups_[i]) {
      (void)eid;
      for (size_t x = 0; x < members.size(); ++x) {
        for (size_t y = x + 1; y < members.size(); ++y) {
          auto key = Canonical(members[x], members[y]);
          int base = s.NumVars();
          for (int a = 0; a < bound_attrs; ++a) s.NewVar();
          pair_base_[i][key] = base;
          num_order_vars_ += bound_attrs;
        }
      }
    }
  }

  // 2. Transitivity: ord(u,v) ∧ ord(v,w) → ord(u,w) for ordered triples.
  for (int i = 0; i < spec.num_instances(); ++i) {
    const TemporalInstance& inst = spec.instance(i);
    for (const auto& [eid, members] : active_groups_[i]) {
      (void)eid;
      if (members.size() < 3) continue;
      for (AttrIndex a = 1; a < inst.schema().arity(); ++a) {
        if (bound_slot_[i][a] < 0) continue;
        for (TupleId u : members) {
          for (TupleId v : members) {
            if (v == u) continue;
            for (TupleId w : members) {
              if (w == u || w == v) continue;
              s.AddClause({sat::Negate(OrdLit(i, a, u, v)),
                           sat::Negate(OrdLit(i, a, v, w)),
                           OrdLit(i, a, u, w)});
            }
          }
        }
      }
    }
  }

  // 3. Initial partial orders (or the chase's strengthening of them).
  // Borrowed, not copied: a PartialOrder is an O(n²) bit matrix, and a
  // per-component build must not pay for the whole instance.
  std::optional<ChaseResult> local_chase;
  const ChaseResult* chase = options.chase_seed;
  bool seed_with_chase = false;
  if (options.seed_with_chase) {
    // The full certain prefix (chase + denial Horn closure): every derived
    // pair holds in all consistent completions, so adding them as units is
    // sound and strengthens propagation.  The chase runs over the whole
    // specification, so the decomposition layer precomputes it once
    // (options.chase_seed) instead of once per component.
    if (chase == nullptr) {
      // options.copy_index (when given) spares the chase its own
      // bucketing pass; it validates the edge count itself.
      ASSIGN_OR_RETURN(local_chase,
                       CertainOrderPrefix(spec, options.copy_index));
      chase = &*local_chase;
    }
    if (!chase->consistent) {
      // Encode inconsistency directly: empty clause.
      s.AddClause({});
    } else {
      seed_with_chase = true;
    }
  }
  auto initial_orders = [&](int i) -> const std::vector<PartialOrder>& {
    return seed_with_chase ? chase->certain_orders[i]
                           : spec.instance(i).orders();
  };
  // Initial orders only relate same-entity tuples (TemporalInstance::
  // AddOrder and the chase both enforce this), so walking entity groups
  // and probing Less covers every pair — in Σ m² instead of the n²/64
  // full-matrix scan of Pairs(), which matters when a filtered encoder is
  // built once per component.
  for (int i = 0; i < spec.num_instances(); ++i) {
    const TemporalInstance& inst = spec.instance(i);
    for (const auto& [eid, members] : active_groups_[i]) {
      (void)eid;
      for (AttrIndex a = 1; a < inst.schema().arity(); ++a) {
        if (bound_slot_[i][a] < 0) continue;
        const PartialOrder& po = initial_orders(i)[a];
        for (TupleId u : members) {
          for (TupleId v : members) {
            if (u == v || !po.Less(u, v)) continue;
            s.AddClause({OrdLit(i, a, u, v)});
          }
        }
      }
    }
  }

  // 4. Copy ≺-compatibility: ord_src(s1,s2) → ord_tgt(t1,t2).  Clauses
  // only arise between mappings agreeing on both the target and the
  // source entity, so encoding walks (target entity, source entity)
  // buckets — Σ |bucket|² instead of |ρ|² work.  A filtered encoder only
  // visits buckets of its own target entities; the decomposition layer
  // shares one prebuilt index across all component builds.
  std::optional<CopyBucketIndex> local_index;
  const CopyBucketIndex* copy_index = options.copy_index;
  if (copy_index == nullptr) {
    local_index = CopyBucketIndex::Build(spec);
    copy_index = &*local_index;
  }
  if (copy_index->per_edge.size() != spec.copy_edges().size()) {
    return Status::Internal("copy-bucket index does not match the spec");
  }
  for (size_t edge_index = 0; edge_index < spec.copy_edges().size();
       ++edge_index) {
    const CopyEdge& edge = spec.copy_edges()[edge_index];
    const Relation& target = spec.instance(edge.target_instance).relation();
    const Relation& source = spec.instance(edge.source_instance).relation();
    ASSIGN_OR_RETURN(auto attrs,
                     edge.fn.ResolveAttrs(target.schema(), source.schema()));
    const CopyBuckets& buckets = copy_index->per_edge[edge_index];
    auto encode_bucket =
        [&](const Value& te,
            const std::map<Value, std::vector<std::pair<TupleId, TupleId>>>&
                by_source) -> Status {
      bool t_in = keep(edge.target_instance, te);
      for (const auto& [se, mapped] : by_source) {
        bool s_in = keep(edge.source_instance, se);
        for (size_t x = 0; x < mapped.size(); ++x) {
          for (size_t y = 0; y < mapped.size(); ++y) {
            auto [t1, s1] = mapped[x];
            auto [t2, s2] = mapped[y];
            if (t1 == t2 || s1 == s2) continue;
            // A clause couples the two entity groups, so a valid
            // decomposition filter keeps either both or neither.
            if (t_in != s_in) {
              return Status::Internal(
                  "entity filter splits a copy-coupled entity pair");
            }
            if (!t_in) continue;
            for (const auto& [a, b] : attrs) {
              s.AddClause(
                  {sat::Negate(OrdLit(edge.source_instance, b, s1, s2)),
                   OrdLit(edge.target_instance, a, t1, t2)});
            }
          }
        }
      }
      return Status::OK();
    };
    if (filter_.has_value()) {
      // Walk the filter's target entities only.  Buckets whose target
      // entity lies outside the filter but whose source entity is inside
      // cannot couple (the decomposition would have merged them), so
      // skipping them is sound.
      if (edge.target_instance <
          static_cast<int>(filter_->allowed.size())) {
        for (const Value& te : filter_->allowed[edge.target_instance]) {
          auto it = buckets.find(te);
          if (it == buckets.end()) continue;
          RETURN_IF_ERROR(encode_bucket(it->first, it->second));
        }
      }
    } else {
      for (const auto& [te, by_source] : buckets) {
        RETURN_IF_ERROR(encode_bucket(te, by_source));
      }
    }
  }

  // 5. Grounded denial constraints.
  for (int i = 0; i < spec.num_instances(); ++i) {
    const Relation& rel = spec.instance(i).relation();
    // All tuple variables of a grounding bind within one entity group,
    // so grounding per active group loses nothing and skips the other
    // components' grounding work entirely.
    for (const auto& dc : spec.constraints_for(i)) {
      for (const auto& [eid, group_members] : active_groups_[i]) {
        (void)eid;
        dc.EnumerateGroundingsForGroup(
          rel, group_members,
          [&](const constraints::Grounding& g) {
            std::vector<sat::Lit> clause;
            clause.reserve(g.premises.size() + 1);
            for (const auto& p : g.premises) {
              clause.push_back(
                  sat::Negate(OrdLit(i, p.attr, p.before, p.after)));
            }
            if (g.conclusion.has_value()) {
              clause.push_back(OrdLit(i, g.conclusion->attr,
                                      g.conclusion->before,
                                      g.conclusion->after));
            }
            s.AddClause(std::move(clause));
          });
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
  if (options.define_is_last) {
    last_tuples_.resize(spec.num_instances());
    is_last_var_.resize(spec.num_instances());
    cell_index_.resize(spec.num_instances());
    for (int i = 0; i < spec.num_instances(); ++i) {
      const TemporalInstance& inst = spec.instance(i);
      const int arity = inst.schema().arity();
      // Rows for this encoder's own tuples only (sorted for IsLastVar's
      // lookup), so the index costs O(own content) like the rest.
      for (const auto& [eid, members] : active_groups_[i]) {
        (void)eid;
        last_tuples_[i].insert(last_tuples_[i].end(), members.begin(),
                               members.end());
      }
      std::sort(last_tuples_[i].begin(), last_tuples_[i].end());
      is_last_var_[i].assign(last_tuples_[i].size() * arity, -1);
      for (const auto& [eid, members] : active_groups_[i]) {
        for (AttrIndex a = 1; a < arity; ++a) {
          const bool bound = bound_slot_[i][a] >= 0;
          const PartialOrder& po = initial_orders(i)[a];
          std::vector<sat::Lit> maximal;  // L(u) of the maximal members
          for (TupleId u : members) {
            sat::Var lv = s.NewVar();
            is_last_var_[i][static_cast<size_t>(LastRow(i, u)) * arity + a] =
                lv;
            if (!bound) {
              bool has_successor = false;
              for (TupleId v : members) has_successor |= po.Less(u, v);
              if (has_successor) {
                s.AddClause({sat::MakeLit(lv, true)});
              } else {
                maximal.push_back(sat::MakeLit(lv));
              }
              continue;
            }
            std::vector<sat::Lit> back{sat::MakeLit(lv)};
            for (TupleId v : members) {
              if (v == u) continue;
              // L(u) → ord(v, u)
              s.AddClause({sat::MakeLit(lv, true), OrdLit(i, a, v, u)});
              back.push_back(sat::Negate(OrdLit(i, a, v, u)));
            }
            // (⋀ ord(v,u)) → L(u)
            s.AddClause(std::move(back));
          }
          if (!bound) {
            for (size_t x = 0; x < maximal.size(); ++x) {
              for (size_t y = x + 1; y < maximal.size(); ++y) {
                s.AddClause({sat::Negate(maximal[x]), sat::Negate(maximal[y])});
              }
            }
            s.AddClause(std::move(maximal));
          }
          // Cell: distinct values of this (attr, entity) with their vars.
          Cell cell;
          cell.inst = i;
          cell.attr = a;
          cell.eid = eid;
          std::map<Value, std::vector<TupleId>> by_value;
          for (TupleId u : members) {
            by_value[inst.relation().tuple(u).at(a)].push_back(u);
          }
          for (const auto& [v, carriers] : by_value) {
            sat::Var vv = s.NewVar();
            cell.values.push_back(v);
            cell.value_vars.push_back(vv);
            // val ⇔ ⋁ L(u).
            std::vector<sat::Lit> def{sat::MakeLit(vv, true)};
            for (TupleId u : carriers) {
              def.push_back(sat::MakeLit(IsLastVar(i, a, u)));
              s.AddClause({sat::MakeLit(IsLastVar(i, a, u), true),
                           sat::MakeLit(vv)});
            }
            s.AddClause(std::move(def));
          }
          cell_index_[i][{a, eid}] = static_cast<int>(cells_.size());
          cells_.push_back(std::move(cell));
        }
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
  if (inst < 0 || inst >= static_cast<int>(cell_index_.size())) {
    return Status::InvalidArgument("instance index out of range");
  }
  auto it = cell_index_[inst].find({attr, eid});
  if (it == cell_index_[inst].end()) {
    return Status::NotFound("no cell for entity " + eid.ToString());
  }
  const Cell& cell = cells_[it->second];
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
    for (const auto& [eid, members] : active_groups_[i]) {
      (void)members;
      std::vector<Value> values(inst.schema().arity());
      values[0] = eid;
      for (AttrIndex a = 1; a < inst.schema().arity(); ++a) {
        auto it = cell_index_[i].find({a, eid});
        if (it == cell_index_[i].end()) {
          return Status::Internal("missing cell in encoder");
        }
        const Cell& cell = cells_[it->second];
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
    for (const auto& [key, base] : pair_base_[i]) {
      auto [u, v] = key;
      for (AttrIndex a = 1; a < arity; ++a) {
        if (bound_slot_[i][a] < 0) continue;
        bool u_before_v = solver_->ModelValue(base + bound_slot_[i][a]);
        // Completions are acyclic by construction (transitivity clauses),
        // so TryAdd cannot fail on a model.
        if (u_before_v) {
          orders[a].TryAdd(u, v);
        } else {
          orders[a].TryAdd(v, u);
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
