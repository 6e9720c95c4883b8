#include "src/core/certain_order.h"

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "src/core/chase.h"
#include "src/core/decompose.h"
#include "src/exec/thread_pool.h"
#include "src/obs/trace.h"

namespace currency::core {

namespace internal {

Result<int> OrderQueryInstance(const Specification& spec,
                               const CurrencyOrderQuery& query) {
  ASSIGN_OR_RETURN(int inst, spec.InstanceIndex(query.relation));
  const TemporalInstance& instance = spec.instance(inst);
  const Relation& rel = instance.relation();
  for (const RequiredPair& p : query.pairs) {
    if (p.attr < 1 || p.attr >= instance.schema().arity()) {
      return Status::InvalidArgument("required pair attribute out of range");
    }
    if (p.before < 0 || p.before >= rel.size() || p.after < 0 ||
        p.after >= rel.size()) {
      return Status::InvalidArgument("required pair tuple out of range");
    }
  }
  return inst;
}

Result<std::vector<bool>> CertainOrderProbes(
    DecomposedEncoder* engine, const std::vector<CurrencyOrderQuery>& queries,
    exec::ThreadPool* pool) {
  const Specification& spec = engine->spec();
  std::vector<int> inst_of(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSIGN_OR_RETURN(inst_of[i], OrderQueryInstance(spec, queries[i]));
  }
  std::vector<bool> out(queries.size(), true);
  {
    obs::TraceSpan::Stage stage("base_solve", engine->stage_counters());
    ASSIGN_OR_RETURN(bool consistent, engine->EnsureAllSolved(pool));
    if (!consistent) return out;  // Mod(S) = ∅: vacuously certain
  }
  obs::TraceSpan::Stage stage("solve", engine->stage_counters());
  ProbeTally total;
  // Structural refutations need no solver: a reflexive pair
  // (irreflexivity) or a cross-entity pair (no order variable relates
  // tuples of distinct entities) can hold in no completion.  Nor does a
  // pair on an order-free attribute: its order completes to any linear
  // extension of the initial order, whatever the rest of the completion
  // (Mod(S) ≠ ∅ here), so it is certain iff the initial order has it.
  for (size_t i = 0; i < queries.size(); ++i) {
    const TemporalInstance& instance = spec.instance(inst_of[i]);
    const Relation& rel = instance.relation();
    for (const RequiredPair& p : queries[i].pairs) {
      if (p.before == p.after ||
          !(rel.tuple(p.before).eid() == rel.tuple(p.after).eid())) {
        out[i] = false;
        break;
      }
      if (!spec.OrderBound(inst_of[i], p.attr)) {
        ++total.settled;
        if (!instance.order(p.attr).Less(p.before, p.after)) {
          out[i] = false;
          break;
        }
      }
    }
  }
  // Route the remaining order-bound pairs to the component owning their
  // entity, in batch order (so one component's item indices never
  // decrease).
  struct Probe {
    int item;
    const RequiredPair* pair;
  };
  std::map<int, std::vector<Probe>> by_component;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!out[i]) continue;  // answer already settled without a solver
    const Relation& rel = spec.instance(inst_of[i]).relation();
    for (const RequiredPair& p : queries[i].pairs) {
      if (!spec.OrderBound(inst_of[i], p.attr)) continue;  // settled above
      int c = engine->decomposition().ComponentOf(inst_of[i],
                                                  rel.tuple(p.before).eid());
      by_component[c].push_back(Probe{static_cast<int>(i), &p});
    }
  }
  std::vector<int> components;
  std::vector<const std::vector<Probe>*> probes;
  for (const auto& [c, list] : by_component) {
    components.push_back(c);
    probes.push_back(&list);
  }
  // refuted[k]: the items component k refuted, in batch order.  A query
  // refuted by this component's own earlier probes is skipped
  // (deterministic), while refutations found concurrently by other
  // components are deliberately not consulted — cross-task peeking would
  // make each solver's call sequence depend on timing.
  std::vector<std::vector<int>> refuted(components.size());
  std::vector<ProbeTally> tally(components.size());
  auto settled = [&](int k, int item) {
    return !refuted[k].empty() && refuted[k].back() == item;
  };
  // Probes component k's pairs in batch order (the `probe` of
  // DecomposedEncoder::SettleWalk).
  auto probe_component = [&](int k, bool walk) -> Result<bool> {
    const int c = components[k];
    if (engine->chase_routed(c)) {
      // Lemma 6.2 on S|_c: the pair is certain iff it is in the
      // component's PO∞.  The fixpoint is read-only once published.
      ASSIGN_OR_RETURN(const ComponentChase* chase, engine->ChaseFixpoint(c));
      for (const Probe& probe : *probes[k]) {
        if (settled(k, probe.item)) continue;
        const Relation& rel = spec.instance(inst_of[probe.item]).relation();
        if (!chase->CertainLess(inst_of[probe.item],
                                rel.tuple(probe.pair->before).eid(),
                                probe.pair->attr, probe.pair->before,
                                probe.pair->after)) {
          refuted[k].push_back(probe.item);
        }
      }
      return true;
    }
    // Exclusive solver access for the whole probe sequence: a concurrent
    // batch probing the same component waits, keeping both call sequences
    // contiguous.
    bool complete = true;
    RETURN_IF_ERROR(engine->WithComponentEncoder(c, [&](Encoder* encoder) {
      sat::Solver* solver = &encoder->solver();
      for (const Probe& probe : *probes[k]) {
        if (settled(k, probe.item)) continue;
        // A completion with ¬ord(u, v) orders them the other way.
        const sat::Lit other_way = sat::Negate(
            encoder->OrdLit(inst_of[probe.item], probe.pair->attr,
                            probe.pair->before, probe.pair->after));
        std::optional<bool> refutes =
            walk ? SettledCompletionSets(*solver, other_way, &tally[k])
                 : SomeCompletionSets(solver, other_way, &tally[k]);
        if (!refutes.has_value()) {
          complete = false;
          break;
        }
        if (*refutes) refuted[k].push_back(probe.item);
      }
      return Status::OK();
    }));
    return complete;
  };
  RETURN_IF_ERROR(engine->SettleWalk(
      components, probe_component,
      [&](int k) {
        refuted[k].clear();
        tally[k] = ProbeTally{};
      },
      pool));
  for (size_t k = 0; k < components.size(); ++k) {
    for (int item : refuted[k]) out[item] = false;
    total += tally[k];
  }
  engine->CountProbes(total);
  return out;
}

}  // namespace internal

Result<bool> IsCertainOrder(const Specification& spec,
                            const CurrencyOrderQuery& query,
                            const CopOptions& options) {
  // Ot pair (u, v) is certain iff the encoding plus the assumption "v ≺ u
  // or incomparable" is unsatisfiable; with totality baked in, that
  // assumption is just ¬ord(u, v).
  ASSIGN_OR_RETURN(auto engine, DecomposedEncoder::Build(
                                    spec, {}, /*use_chase_routing=*/true));
  exec::ThreadPool pool(options.num_threads);
  ASSIGN_OR_RETURN(std::vector<bool> certain,
                   internal::CertainOrderProbes(engine.get(), {query}, &pool));
  return static_cast<bool>(certain[0]);
}

}  // namespace currency::core
