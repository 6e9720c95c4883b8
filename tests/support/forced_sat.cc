#include "tests/support/forced_sat.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/decompose.h"
#include "src/exec/thread_pool.h"

namespace currency::testing {

namespace {

/// Runs `run` on a forced-SAT engine over `spec` and the pool `options`
/// asks for.
template <typename T, typename Options>
Result<T> OnForcedEngine(
    const core::Specification& spec, const Options& options,
    const std::function<Result<T>(core::DecomposedEncoder*,
                                  exec::ThreadPool*)>& run) {
  ASSIGN_OR_RETURN(auto engine, core::DecomposedEncoder::Build(
                                    spec, {}, /*use_chase_routing=*/false));
  exec::ThreadPool pool(options.num_threads);
  return run(engine.get(), &pool);
}

Result<bool> DeterministicFor(const core::Specification& spec,
                              const std::vector<std::string>& relation_names,
                              const core::DcipOptions& options) {
  return OnForcedEngine<bool>(
      spec, options,
      [&](core::DecomposedEncoder* engine,
          exec::ThreadPool* pool) -> Result<bool> {
        ASSIGN_OR_RETURN(
            std::vector<bool> deterministic,
            core::internal::DeterminismProbes(engine, relation_names, pool));
        return std::all_of(deterministic.begin(), deterministic.end(),
                           [](bool d) { return d; });
      });
}

/// One CCQA request; the response is `vacuous` when Mod(S) = ∅.
Result<core::CcqaResponse> Answer(const core::Specification& spec,
                                  const core::CcqaRequest& request,
                                  const core::CcqaOptions& options) {
  return OnForcedEngine<core::CcqaResponse>(
      spec, options,
      [&](core::DecomposedEncoder* engine,
          exec::ThreadPool* pool) -> Result<core::CcqaResponse> {
        ASSIGN_OR_RETURN(std::vector<core::CcqaResponse> responses,
                         core::internal::CertainAnswerProbes(
                             engine, {request}, options, pool));
        return std::move(responses[0]);
      });
}

}  // namespace

Result<core::CpsOutcome> ForcedSatConsistency(
    const core::Specification& spec, const core::CpsOptions& options) {
  if (options.want_witness) return core::DecideConsistency(spec, options);
  return OnForcedEngine<core::CpsOutcome>(
      spec, options,
      [&](core::DecomposedEncoder* engine,
          exec::ThreadPool* pool) -> Result<core::CpsOutcome> {
        core::CpsOutcome outcome;
        outcome.components = engine->num_components();
        ASSIGN_OR_RETURN(outcome.consistent, engine->EnsureAllSolved(pool));
        return outcome;
      });
}

Result<bool> ForcedSatCertainOrder(const core::Specification& spec,
                                   const core::CurrencyOrderQuery& query,
                                   const core::CopOptions& options) {
  return OnForcedEngine<bool>(
      spec, options,
      [&](core::DecomposedEncoder* engine,
          exec::ThreadPool* pool) -> Result<bool> {
        ASSIGN_OR_RETURN(
            std::vector<bool> certain,
            core::internal::CertainOrderProbes(engine, {query}, pool));
        return static_cast<bool>(certain[0]);
      });
}

Result<bool> ForcedSatDeterministicForRelation(
    const core::Specification& spec, const std::string& relation,
    const core::DcipOptions& options) {
  return DeterministicFor(spec, {relation}, options);
}

Result<bool> ForcedSatDeterministic(const core::Specification& spec,
                                    const core::DcipOptions& options) {
  std::vector<std::string> all;
  for (int i = 0; i < spec.num_instances(); ++i) {
    all.push_back(spec.instance(i).name());
  }
  return DeterministicFor(spec, all, options);
}

Result<std::set<Tuple>> ForcedSatCertainAnswers(
    const core::Specification& spec, const query::Query& q,
    const core::CcqaOptions& options) {
  ASSIGN_OR_RETURN(core::CcqaResponse response,
                   Answer(spec, core::CcqaRequest{q, std::nullopt}, options));
  if (response.vacuous) {
    return Status::Inconsistent(
        "Mod(S) is empty: every tuple is vacuously a certain answer");
  }
  return *std::move(response.answers);
}

Result<bool> ForcedSatIsCertainAnswer(const core::Specification& spec,
                                      const query::Query& q, const Tuple& t,
                                      const core::CcqaOptions& options) {
  ASSIGN_OR_RETURN(core::CcqaResponse response,
                   Answer(spec, core::CcqaRequest{q, t}, options));
  return response.vacuous || *response.is_certain;
}

Result<int64_t> ForcedSatForEachCurrentInstance(
    const core::Specification& spec, const core::CcqaOptions& options,
    const std::function<bool(const query::Database&)>& visit) {
  return OnForcedEngine<int64_t>(
      spec, options,
      [&](core::DecomposedEncoder* engine, exec::ThreadPool* pool) {
        return core::internal::EnumerateCurrentInstances(engine, options,
                                                         pool, visit);
      });
}

}  // namespace currency::testing
