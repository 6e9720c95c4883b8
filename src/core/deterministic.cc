#include "src/core/deterministic.h"

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/core/chase.h"
#include "src/core/decompose.h"
#include "src/exec/thread_pool.h"
#include "src/obs/trace.h"

namespace currency::core {

namespace internal {

namespace {

/// Whether S is deterministic for the groups a probe covers; nullopt when
/// a walk left it open.
using Verdict = std::optional<bool>;

/// DeterministicProbe's body.  A `walk` calls no solver: it returns
/// nullopt where DeterministicProbe would solve — on a solver that
/// remembers no model, or at the first candidate the record leaves open.
Result<Verdict> ProbeDeterminism(const Specification& spec, Encoder* encoder,
                                 int inst, ProbeTally* tally, bool walk) {
  const TemporalInstance& instance = spec.instance(inst);
  const Relation& rel = instance.relation();
  sat::Solver& solver = encoder->solver();
  if (!solver.HasRememberedModel()) {
    if (walk) return Verdict();
    // No completion witnessed yet (a fresh or snapshot-seeded encoder):
    // find one, so its phases are remembered.  The formula is known
    // satisfiable.
    ++tally->solves;
    if (solver.Solve() != sat::SolveResult::kSat) {
      return Status::Internal("cached-SAT component re-solved unsatisfiable");
    }
  }
  // Pass 1 — read the remembered models: every tuple whose is-last
  // selector some model set true is current in some completion, so two
  // such tuples with different values settle "non-deterministic".
  // Otherwise the remembered current value is the baseline, and every
  // candidate carrying a different value is still open unless its
  // selector is fixed false at the root.
  std::vector<sat::Var> open;
  for (AttrIndex a = 1; a < instance.schema().arity(); ++a) {
    for (const auto& [eid, members] : encoder->Groups(inst)) {
      (void)eid;
      if (members.size() <= 1) continue;
      const Value* baseline = nullptr;
      for (TupleId u : members) {
        if (!solver.SeenInModel(sat::MakeLit(encoder->IsLastVar(inst, a, u)))) {
          continue;
        }
        const Value& value = rel.tuple(u).at(a);
        if (baseline == nullptr) {
          baseline = &value;
        } else if (!(value == *baseline)) {
          ++tally->settled;
          return Verdict(false);
        }
      }
      if (baseline == nullptr) {
        return Status::Internal("no remembered model selects a current tuple");
      }
      // Candidates with equal value cannot change the current instance.
      for (TupleId u : members) {
        if (rel.tuple(u).at(a) == *baseline) continue;
        open.push_back(encoder->IsLastVar(inst, a, u));
      }
    }
  }
  // Pass 2 — probe the open candidates: any one that can be current
  // witnesses non-determinism.  No remembered model selects an open
  // candidate (pass 1 returned otherwise), so the helper settles one only
  // when its selector is fixed false at the root.  A refuted candidate
  // leaves its selector fixed false there, which may fix later ones too.
  for (sat::Var candidate : open) {
    const sat::Lit lit = sat::MakeLit(candidate);
    std::optional<bool> current =
        walk ? SettledCompletionSets(solver, lit, tally)
             : SomeCompletionSets(&solver, lit, tally);
    if (!current.has_value()) return Verdict();
    if (*current) return Verdict(false);
  }
  return Verdict(true);
}

}  // namespace

Result<bool> DeterministicProbe(const Specification& spec, Encoder* encoder,
                                int inst, ProbeTally* tally) {
  ProbeTally local;
  ASSIGN_OR_RETURN(Verdict deterministic,
                   ProbeDeterminism(spec, encoder, inst,
                                    tally != nullptr ? tally : &local,
                                    /*walk=*/false));
  return *deterministic;
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
    DecomposedEncoder* engine, const std::vector<std::string>& relation_names,
    exec::ThreadPool* pool) {
  const Specification& spec = engine->spec();
  std::vector<int> instances(relation_names.size());
  for (size_t i = 0; i < relation_names.size(); ++i) {
    ASSIGN_OR_RETURN(instances[i], spec.InstanceIndex(relation_names[i]));
  }
  std::vector<bool> out(instances.size(), true);
  {
    obs::TraceSpan::Stage stage("base_solve", engine->stage_counters());
    ASSIGN_OR_RETURN(bool consistent, engine->EnsureAllSolved(pool));
    if (!consistent) return out;  // Mod(S) = ∅: vacuously deterministic
  }
  obs::TraceSpan::Stage stage("solve", engine->stage_counters());
  // Chase-routed components first, on the calling thread in component
  // order: Theorem 6.1(3) on S|_c is a pure read of the cached fixpoint,
  // and an item stops at its first refuting component.
  for (size_t i = 0; i < instances.size(); ++i) {
    for (int c : engine->decomposition().ComponentsOfInstance(instances[i])) {
      if (!engine->chase_routed(c)) continue;
      ASSIGN_OR_RETURN(const ComponentChase* chase, engine->ChaseFixpoint(c));
      if (!DeterministicViaComponentChase(spec, *chase, instances[i])) {
        out[i] = false;
        break;
      }
    }
  }
  // Route each item still open to the SAT-routed components of its
  // instance.  The tasks read `out` only as the chase pass left it, so
  // every solver's call sequence is independent of timing.
  struct Request {
    int item;
    int inst;
  };
  std::map<int, std::vector<Request>> by_component;
  for (size_t i = 0; i < instances.size(); ++i) {
    if (!out[i]) continue;
    for (int c : engine->decomposition().ComponentsOfInstance(instances[i])) {
      if (engine->chase_routed(c)) continue;
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
  std::vector<ProbeTally> tally(components.size());
  // Probes component k's items in batch order (the `probe` of
  // DecomposedEncoder::SettleWalk).
  auto probe_component = [&](int k, bool walk) -> Result<bool> {
    bool complete = true;
    RETURN_IF_ERROR(engine->WithComponentEncoder(
        components[k], [&](Encoder* encoder) -> Status {
          for (const Request& req : *requests[k]) {
            ASSIGN_OR_RETURN(Verdict deterministic,
                             ProbeDeterminism(spec, encoder, req.inst,
                                              &tally[k], walk));
            if (!deterministic.has_value()) {
              complete = false;
              break;
            }
            if (!*deterministic) nondeterministic[k].push_back(req.item);
          }
          return Status::OK();
        }));
    return complete;
  };
  RETURN_IF_ERROR(engine->SettleWalk(
      components, probe_component,
      [&](int k) {
        nondeterministic[k].clear();
        tally[k] = ProbeTally{};
      },
      pool));
  ProbeTally total;
  for (size_t k = 0; k < components.size(); ++k) {
    for (int item : nondeterministic[k]) out[item] = false;
    total += tally[k];
  }
  engine->CountProbes(total);
  return out;
}

}  // namespace internal

namespace {

/// Whether S is deterministic for every relation of `relation_names`: a
/// transient engine and one DeterminismProbes call.
Result<bool> DeterministicFor(const Specification& spec,
                              const std::vector<std::string>& relation_names,
                              const DcipOptions& options) {
  ASSIGN_OR_RETURN(auto engine, DecomposedEncoder::Build(
                                    spec, {}, /*use_chase_routing=*/true));
  exec::ThreadPool pool(options.num_threads);
  ASSIGN_OR_RETURN(
      std::vector<bool> deterministic,
      internal::DeterminismProbes(engine.get(), relation_names, &pool));
  return std::all_of(deterministic.begin(), deterministic.end(),
                     [](bool d) { return d; });
}

}  // namespace

Result<bool> IsDeterministicForRelation(const Specification& spec,
                                        const std::string& relation,
                                        const DcipOptions& options) {
  return DeterministicFor(spec, {relation}, options);
}

Result<bool> IsDeterministic(const Specification& spec,
                             const DcipOptions& options) {
  std::vector<std::string> all;
  for (int i = 0; i < spec.num_instances(); ++i) {
    all.push_back(spec.instance(i).name());
  }
  return DeterministicFor(spec, all, options);
}

}  // namespace currency::core
