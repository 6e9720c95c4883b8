#include "tests/support/monolithic.h"

#include <memory>
#include <vector>

#include "src/core/ccqa.h"
#include "src/core/encoder.h"
#include "src/sat/model_enumerator.h"

namespace currency::testing {

namespace {

/// The whole specification's encoding, with the is-last selectors DCIP
/// and CCQA read.
Result<std::unique_ptr<core::Encoder>> BuildWhole(
    const core::Specification& spec) {
  core::Encoder::Options options;
  options.define_is_last = true;
  return core::Encoder::Build(spec, options);
}

std::vector<int> AllInstances(const core::Specification& spec) {
  std::vector<int> all(spec.num_instances());
  for (int i = 0; i < spec.num_instances(); ++i) all[i] = i;
  return all;
}

/// DCIP on the whole encoding by snapshot-then-probe: the baseline current
/// tuple of every group is read off the model in hand, then every
/// candidate carrying a different value is probed with a solve.  It reads
/// one model and never the solver's remembered models or root literals,
/// so it stays an independent algorithm next to core's DeterministicProbe.
/// Requires the solver to currently hold a satisfying model.
Result<bool> SnapshotThenProbe(const core::Specification& spec,
                               core::Encoder* encoder, int inst) {
  const core::TemporalInstance& instance = spec.instance(inst);
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
  // Phase 2 — probe the alternatives.
  for (const Probe& probe : probes) {
    sat::Lit assume =
        sat::MakeLit(encoder->IsLastVar(inst, probe.attr, probe.candidate));
    if (encoder->solver().SolveWithAssumptions({assume}) ==
        sat::SolveResult::kSat) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<bool> MonolithicConsistent(const core::Specification& spec,
                                  core::Completion* witness) {
  ASSIGN_OR_RETURN(auto encoder, BuildWhole(spec));
  if (encoder->solver().Solve() != sat::SolveResult::kSat) return false;
  if (witness != nullptr) *witness = encoder->ExtractCompletion();
  return true;
}

Result<bool> MonolithicCertainOrder(const core::Specification& spec,
                                    const core::CurrencyOrderQuery& query) {
  ASSIGN_OR_RETURN(int inst, core::internal::OrderQueryInstance(spec, query));
  ASSIGN_OR_RETURN(auto encoder, BuildWhole(spec));
  if (encoder->solver().Solve() == sat::SolveResult::kUnsat) {
    return true;  // Mod(S) = ∅: vacuously certain
  }
  for (const core::RequiredPair& p : query.pairs) {
    if (p.before == p.after) return false;  // irreflexivity
    if (!spec.OrderBound(inst, p.attr)) {
      // No order variables: an order-free order completes to every linear
      // extension of the initial one, so only initial pairs are certain.
      if (!spec.instance(inst).order(p.attr).Less(p.before, p.after)) {
        return false;
      }
      continue;
    }
    if (!encoder->HasPairVar(inst, p.before, p.after)) {
      return false;  // cross-entity pairs are never comparable
    }
    sat::Lit lit = encoder->OrdLit(inst, p.attr, p.before, p.after);
    if (encoder->solver().SolveWithAssumptions({sat::Negate(lit)}) ==
        sat::SolveResult::kSat) {
      return false;  // a completion orders them the other way
    }
  }
  return true;
}

Result<bool> MonolithicDeterministic(const core::Specification& spec,
                                     const std::string& relation) {
  ASSIGN_OR_RETURN(int inst, spec.InstanceIndex(relation));
  ASSIGN_OR_RETURN(auto encoder, BuildWhole(spec));
  if (encoder->solver().Solve() == sat::SolveResult::kUnsat) {
    return true;  // vacuous
  }
  return SnapshotThenProbe(spec, encoder.get(), inst);
}

Result<std::set<Tuple>> MonolithicCertainAnswers(
    const core::Specification& spec, const query::Query& q) {
  ASSIGN_OR_RETURN(std::vector<int> instances,
                   core::internal::QueryInstances(spec, q));
  ASSIGN_OR_RETURN(auto encoder, BuildWhole(spec));
  return core::internal::CertainAnswersVia(encoder.get(), nullptr, spec, q,
                                           instances, core::CcqaOptions{});
}

Result<bool> MonolithicIsCertainAnswer(const core::Specification& spec,
                                       const query::Query& q, const Tuple& t) {
  ASSIGN_OR_RETURN(std::vector<int> instances,
                   core::internal::QueryInstances(spec, q));
  ASSIGN_OR_RETURN(auto encoder, BuildWhole(spec));
  // The loop's first Solve is UNSAT on an inconsistent specification,
  // which answers true — the vacuous convention.
  return core::internal::CheckCertainMemberWith(encoder.get(), spec, q, t,
                                                instances, core::CcqaOptions{});
}

Result<int64_t> MonolithicForEachCurrentInstance(
    const core::Specification& spec, int64_t max_instances,
    const std::function<bool(const query::Database&)>& visit) {
  ASSIGN_OR_RETURN(auto encoder, BuildWhole(spec));
  Status inner = Status::OK();
  ASSIGN_OR_RETURN(
      sat::ProjectedModelEnumeration enumeration,
      sat::EnumerateProjectedModels(
          &encoder->solver(), encoder->CellProjection(AllInstances(spec)),
          max_instances, [&](const std::vector<bool>&) {
            auto decoded = encoder->DecodeCurrentInstances();
            if (!decoded.ok()) {
              inner = decoded.status();
              return false;
            }
            query::Database db;
            for (int i = 0; i < spec.num_instances(); ++i) {
              db[spec.instance(i).name()] = &(*decoded)[i];
            }
            return visit(db);
          }));
  RETURN_IF_ERROR(inner);
  return enumeration.models;
}

}  // namespace currency::testing
