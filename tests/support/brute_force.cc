#include "tests/support/brute_force.h"

#include <algorithm>

#include "tests/support/linear_extensions.h"
#include "tests/support/whole_spec.h"

namespace currency::core {

namespace {

/// One (instance, entity group, attribute) slot whose linear extension a
/// completion must choose.
struct Slot {
  int inst;
  AttrIndex attr;
  std::vector<TupleId> members;
  std::vector<std::vector<TupleId>> extensions;  // all linear extensions
};

/// One ≺-compatibility obligation of a copy edge: source pair (s1, s2)
/// on attribute b, target pair (t1, t2) on attribute a, with matching
/// entities on both sides.
struct CopyObligation {
  int source_inst, target_inst;
  AttrIndex a, b;
  TupleId t1, t2, s1, s2;
};

/// What the pruning check reads, computed once per enumeration: it
/// depends only on values, never on the orders a branch chooses.
struct PruneInputs {
  /// groundings[i]: every grounding of instance i's denial constraints.
  std::vector<std::vector<constraints::Grounding>> groundings;
  std::vector<CopyObligation> copies;
};

PruneInputs GroundOnce(const Specification& spec) {
  PruneInputs in;
  in.groundings.resize(spec.num_instances());
  for (int i = 0; i < spec.num_instances(); ++i) {
    const Relation& rel = spec.instance(i).relation();
    for (const auto& dc : spec.constraints_for(i)) {
      dc.EnumerateGroundings(rel, [&](const constraints::Grounding& g) {
        in.groundings[i].push_back(g);
      });
    }
  }
  for (const CopyEdge& edge : spec.copy_edges()) {
    const Relation& target = spec.instance(edge.target_instance).relation();
    const Relation& source = spec.instance(edge.source_instance).relation();
    auto attrs = edge.fn.ResolveAttrs(target.schema(), source.schema());
    if (!attrs.ok()) continue;  // validated at AddCopyFunction time
    for (const auto& [t1, s1] : edge.fn.mapping()) {
      for (const auto& [t2, s2] : edge.fn.mapping()) {
        if (t1 == t2 || s1 == s2) continue;
        if (!(target.tuple(t1).eid() == target.tuple(t2).eid())) continue;
        if (!(source.tuple(s1).eid() == source.tuple(s2).eid())) continue;
        for (const auto& [a, b] : *attrs) {
          in.copies.push_back(CopyObligation{edge.source_instance,
                                             edge.target_instance, a, b, t1,
                                             t2, s1, s2});
        }
      }
    }
  }
  return in;
}

/// Definitive-violation check on partial orders: a grounded denial
/// constraint is hopeless once its premises are present and its conclusion
/// is absent-forever (pure denial, or the reverse pair already holds).
/// Sound for pruning because partial orders only grow along a branch.
bool DefinitelyViolated(const PruneInputs& in, int inst,
                        const std::vector<std::vector<PartialOrder>>& orders) {
  for (const constraints::Grounding& g : in.groundings[inst]) {
    bool premises = true;
    for (const auto& p : g.premises) {
      if (!orders[inst][p.attr].Less(p.before, p.after)) {
        premises = false;
        break;
      }
    }
    if (!premises) continue;
    if (!g.conclusion.has_value()) return true;
    if (orders[inst][g.conclusion->attr].Less(g.conclusion->after,
                                              g.conclusion->before)) {
      return true;
    }
  }
  // ≺-compatibility: a source pair whose target pair is reversed (or vice
  // versa) can never be repaired.
  for (const CopyObligation& c : in.copies) {
    if (orders[c.source_inst][c.b].Less(c.s1, c.s2) &&
        orders[c.target_inst][c.a].Less(c.t2, c.t1)) {
      return true;
    }
  }
  return false;
}

}  // namespace

Result<int64_t> EnumerateConsistentCompletions(
    const Specification& spec,
    const std::function<bool(const Completion&)>& visit,
    const BruteForceOptions& options) {
  // Seed with the certain prefix: every consistent completion contains it,
  // so enumerating extensions of the seed loses nothing and cuts the
  // cross product by orders of magnitude on constrained inputs.
  ASSIGN_OR_RETURN(currency::testing::WholeSpecChase prefix,
                   currency::testing::HornPrefix(spec));
  if (!prefix.consistent) return 0;

  // Collect slots and pre-enumerate their linear extensions, grouped
  // entity-major so the pruning check fires as early as possible.
  std::vector<Slot> slots;
  int64_t candidate_estimate = 1;
  for (int i = 0; i < spec.num_instances(); ++i) {
    const TemporalInstance& inst = spec.instance(i);
    for (const auto& [eid, members] : inst.relation().EntityGroups()) {
      (void)eid;
      if (members.size() <= 1) continue;  // single linearization, no choice
      for (AttrIndex a = 1; a < inst.schema().arity(); ++a) {
        Slot slot;
        slot.inst = i;
        slot.attr = a;
        slot.members = members;
        EnumerateLinearExtensions(prefix.certain_orders[i][a], members,
                                  [&](const std::vector<int>& seq) {
                                    slot.extensions.push_back(seq);
                                    return true;
                                  });
        if (slot.extensions.empty()) return 0;  // seed already cyclic
        candidate_estimate *= static_cast<int64_t>(slot.extensions.size());
        if (candidate_estimate > options.max_candidates) {
          return Status::ResourceExhausted(
              "brute-force oracle would enumerate more than " +
              std::to_string(options.max_candidates) + " candidates");
        }
        slots.push_back(std::move(slot));
      }
    }
    candidate_estimate = std::max<int64_t>(candidate_estimate, 1);
  }

  // Base completion: the certain prefix (covers singleton groups).
  Completion partial;
  partial.orders = prefix.certain_orders;
  const PruneInputs prune = GroundOnce(spec);

  int64_t visited = 0;
  bool stop = false;
  // Backtracks in place: each slot saves the one order it writes and
  // restores it before trying the next extension.
  std::function<Status(size_t)> rec = [&](size_t k) -> Status {
    if (stop) return Status::OK();
    if (k == slots.size()) {
      ASSIGN_OR_RETURN(bool ok, IsConsistentCompletion(spec, partial));
      if (ok) {
        ++visited;
        if (!visit(partial)) stop = true;
      }
      return Status::OK();
    }
    const Slot& slot = slots[k];
    PartialOrder& po = partial.orders[slot.inst][slot.attr];
    const PartialOrder saved = po;
    for (const auto& seq : slot.extensions) {
      bool feasible = true;
      for (size_t j = 0; j + 1 < seq.size(); ++j) {
        if (!po.TryAdd(seq[j], seq[j + 1])) {
          feasible = false;
          break;
        }
      }
      if (feasible && !DefinitelyViolated(prune, slot.inst, partial.orders)) {
        RETURN_IF_ERROR(rec(k + 1));
      }
      po = saved;
      if (stop) return Status::OK();
    }
    return Status::OK();
  };
  RETURN_IF_ERROR(rec(0));
  return visited;
}

Result<bool> BruteForceConsistent(const Specification& spec,
                                  const BruteForceOptions& options) {
  bool found = false;
  ASSIGN_OR_RETURN(int64_t n, EnumerateConsistentCompletions(
                                  spec,
                                  [&](const Completion&) {
                                    found = true;
                                    return false;  // one witness suffices
                                  },
                                  options));
  (void)n;
  return found;
}

Result<bool> BruteForceCertainOrder(const Specification& spec,
                                    const CurrencyOrderQuery& query,
                                    const BruteForceOptions& options) {
  ASSIGN_OR_RETURN(int inst, spec.InstanceIndex(query.relation));
  bool certain = true;
  ASSIGN_OR_RETURN(
      int64_t n,
      EnumerateConsistentCompletions(
          spec,
          [&](const Completion& c) {
            for (const RequiredPair& p : query.pairs) {
              if (!c.orders[inst][p.attr].Less(p.before, p.after)) {
                certain = false;
                return false;
              }
            }
            return true;
          },
          options));
  (void)n;
  return certain;  // vacuously true when no completions exist
}

Result<bool> BruteForceDeterministic(const Specification& spec,
                                     const std::string& relation,
                                     const BruteForceOptions& options) {
  ASSIGN_OR_RETURN(int inst, spec.InstanceIndex(relation));
  bool first = true;
  Relation reference;
  bool deterministic = true;
  Status inner = Status::OK();
  ASSIGN_OR_RETURN(int64_t n,
                   EnumerateConsistentCompletions(
                       spec,
                       [&](const Completion& c) {
                         auto lst = CurrentInstance(spec, c, inst);
                         if (!lst.ok()) {
                           inner = lst.status();
                           return false;
                         }
                         if (first) {
                           reference = std::move(lst).value();
                           first = false;
                           return true;
                         }
                         if (!(lst->tuples() == reference.tuples())) {
                           deterministic = false;
                           return false;
                         }
                         return true;
                       },
                       options));
  (void)n;
  RETURN_IF_ERROR(inner);
  return deterministic;
}

Result<std::set<Tuple>> BruteForceCertainAnswers(
    const Specification& spec, const query::Query& q,
    const BruteForceOptions& options) {
  std::set<Tuple> intersection;
  bool first = true;
  Status inner = Status::OK();
  ASSIGN_OR_RETURN(
      int64_t n,
      EnumerateConsistentCompletions(
          spec,
          [&](const Completion& c) {
            std::vector<Relation> storage;
            auto db = CurrentDatabase(spec, c, &storage);
            if (!db.ok()) {
              inner = db.status();
              return false;
            }
            auto answers = query::EvalQuery(q, *db);
            if (!answers.ok()) {
              inner = answers.status();
              return false;
            }
            if (first) {
              intersection = std::move(answers).value();
              first = false;
            } else {
              std::set<Tuple> merged;
              std::set_intersection(intersection.begin(), intersection.end(),
                                    answers->begin(), answers->end(),
                                    std::inserter(merged, merged.begin()));
              intersection = std::move(merged);
            }
            return true;
          },
          options));
  RETURN_IF_ERROR(inner);
  if (n == 0) {
    return Status::Inconsistent(
        "Mod(S) is empty: every tuple is vacuously a certain answer");
  }
  return intersection;
}

}  // namespace currency::core
