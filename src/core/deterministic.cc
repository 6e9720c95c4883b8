#include "src/core/deterministic.h"

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "src/core/chase.h"
#include "src/core/decompose.h"
#include "src/exec/thread_pool.h"

namespace currency::core {

namespace internal {

/// Shared implementation deciding determinism for one instance index given
/// an already-built encoder whose formula was just solved satisfiable (the
/// model is current).  On a component encoder, only the groups it defines
/// is-last selectors for are examined — the others belong to different
/// coupling components and are checked against their own encoders.
Result<bool> DeterministicProbe(const Specification& spec, Encoder* encoder,
                                int inst, sat::Portfolio* portfolio) {
  const TemporalInstance& instance = spec.instance(inst);
  const Relation& rel = instance.relation();
  // Phase 1 — snapshot every baseline from the model in hand, BEFORE any
  // assumption solve: a kSat call overwrites the model, and nothing in
  // the solver contract promises it survives a kUnsat call either, so no
  // baseline may be read after solving resumes.
  struct Probe {
    AttrIndex attr;
    TupleId candidate;
  };
  std::vector<Probe> probes;
  for (AttrIndex a = 1; a < instance.schema().arity(); ++a) {
    for (const auto& [eid, members] : rel.EntityGroups()) {
      (void)eid;
      if (members.size() <= 1) continue;
      if (encoder->IsLastVar(inst, a, members[0]) < 0) {
        continue;  // another component's group
      }
      // Baseline value: the tuple the model selects as most current.
      TupleId baseline = -1;
      for (TupleId u : members) {
        if (encoder->solver().ModelValue(encoder->IsLastVar(inst, a, u))) {
          baseline = u;
          break;
        }
      }
      if (baseline < 0) {
        return Status::Internal("model selects no current tuple");
      }
      const Value& base_value = rel.tuple(baseline).at(a);
      // Any candidate with a DIFFERENT value that can be most current
      // witnesses non-determinism.  (Candidates with equal value cannot
      // change the current instance.)
      for (TupleId u : members) {
        if (u == baseline || rel.tuple(u).at(a) == base_value) continue;
        probes.push_back(Probe{a, u});
      }
    }
  }
  // Phase 2 — probe the alternatives.  Every probe is a bare verdict, so
  // racing it through a portfolio cannot change the answer.
  for (const Probe& probe : probes) {
    sat::Lit assume =
        sat::MakeLit(encoder->IsLastVar(inst, probe.attr, probe.candidate));
    if (portfolio != nullptr) {
      ASSIGN_OR_RETURN(sat::SolveResult verdict, portfolio->Solve({assume}));
      if (verdict == sat::SolveResult::kSat) return false;
    } else if (encoder->solver().SolveWithAssumptions({assume}) ==
               sat::SolveResult::kSat) {
      return false;
    }
  }
  return true;
}

bool DeterministicViaComponentChase(const Specification& spec,
                                    const ComponentChase& chase, int inst) {
  const Relation& rel = spec.instance(inst).relation();
  for (const ComponentChase::Node& node : chase.nodes) {
    if (node.inst != inst || node.members.size() <= 1) continue;
    std::vector<int> all(node.members.size());
    for (size_t k = 0; k < all.size(); ++k) all[k] = static_cast<int>(k);
    for (size_t a = 1; a < node.orders.size(); ++a) {
      std::vector<int> sinks = node.orders[a].SinksWithin(all);
      for (size_t k = 1; k < sinks.size(); ++k) {
        if (!(rel.tuple(node.members[sinks[k]]).at(a) ==
              rel.tuple(node.members[sinks[0]]).at(a))) {
          return false;
        }
      }
    }
  }
  return true;
}

Result<std::vector<bool>> DeterminismProbes(
    DecomposedEncoder* engine, const std::vector<int>& instances,
    exec::ThreadPool* pool, const sat::PortfolioOptions* portfolio) {
  const Specification& spec = engine->spec();
  // Route each item to the components of its instance.
  struct Request {
    int item;
    int inst;
  };
  std::map<int, std::vector<Request>> by_component;
  for (size_t i = 0; i < instances.size(); ++i) {
    for (int c : engine->decomposition().ComponentsOfInstance(instances[i])) {
      by_component[c].push_back(Request{static_cast<int>(i), instances[i]});
    }
  }
  std::vector<int> components;
  std::vector<const std::vector<Request>*> requests;
  for (const auto& [c, list] : by_component) {
    components.push_back(c);
    requests.push_back(&list);
  }
  std::vector<std::vector<int>> nondeterministic(components.size());
  RETURN_IF_ERROR(engine->ForEachComponent(
      components, pool, portfolio, [&](int k) -> Status {
        const int c = components[k];
        if (engine->chase_routed(c)) {
          // Theorem 6.1(3) on S|_c: pure reads on the cached fixpoint.
          ASSIGN_OR_RETURN(const ComponentChase* chase,
                           engine->ChaseFixpoint(c));
          for (const Request& req : *requests[k]) {
            if (!DeterministicViaComponentChase(spec, *chase, req.inst)) {
              nondeterministic[k].push_back(req.item);
            }
          }
          return Status::OK();
        }
        return engine->WithComponentEncoder(
            c,
            [&](Encoder* encoder, sat::Portfolio* race) -> Status {
              for (const Request& req : *requests[k]) {
                // Re-establish a model: earlier probes (or a race) left
                // none.  The component is known satisfiable, so kUnsat is
                // a bug.
                if (encoder->solver().Solve() != sat::SolveResult::kSat) {
                  return Status::Internal(
                      "cached-SAT component re-solved unsatisfiable");
                }
                ASSIGN_OR_RETURN(
                    bool deterministic,
                    DeterministicProbe(spec, encoder, req.inst, race));
                if (!deterministic) nondeterministic[k].push_back(req.item);
              }
              return Status::OK();
            },
            portfolio, pool);
      }));
  std::vector<bool> out(instances.size(), true);
  for (const std::vector<int>& items : nondeterministic) {
    for (int item : items) out[item] = false;
  }
  return out;
}

}  // namespace internal

namespace {

/// Whether S is deterministic for every instance of `instances`: a
/// transient engine, its base solve, and one probe phase.
Result<bool> DeterministicFor(const Specification& spec,
                              const std::vector<int>& instances,
                              const DcipOptions& options) {
  Encoder::Options enc = options.encoder;
  enc.define_is_last = true;
  ASSIGN_OR_RETURN(auto engine, DecomposedEncoder::Build(
                                    spec, enc, options.use_chase_routing));
  std::optional<exec::ThreadPool> local_pool;
  exec::ThreadPool* pool =
      exec::ResolvePool(options.pool, options.num_threads, local_pool);
  ASSIGN_OR_RETURN(bool consistent,
                   engine->EnsureAllSolved(pool, &options.portfolio));
  if (!consistent) return true;  // vacuous
  ASSIGN_OR_RETURN(std::vector<bool> deterministic,
                   internal::DeterminismProbes(engine.get(), instances, pool,
                                               &options.portfolio));
  return std::all_of(deterministic.begin(), deterministic.end(),
                     [](bool d) { return d; });
}

}  // namespace

Result<bool> IsDeterministicForRelation(const Specification& spec,
                                        const std::string& relation,
                                        const DcipOptions& options) {
  ASSIGN_OR_RETURN(int inst, spec.InstanceIndex(relation));
  return DeterministicFor(spec, {inst}, options);
}

Result<bool> IsDeterministic(const Specification& spec,
                             const DcipOptions& options) {
  std::vector<int> all(spec.num_instances());
  for (int i = 0; i < spec.num_instances(); ++i) all[i] = i;
  return DeterministicFor(spec, all, options);
}

}  // namespace currency::core
