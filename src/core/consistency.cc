#include "src/core/consistency.h"

#include <utility>

#include "src/core/decompose.h"
#include "src/exec/thread_pool.h"

namespace currency::core {

Result<CpsOutcome> DecideConsistency(const Specification& spec,
                                     const CpsOptions& options) {
  // Mod(S) factors over coupling components, so S is consistent iff every
  // component is.  Chase-eligible components are decided by the chase
  // (Theorem 6.1 on S|_c) unless a witness needs every component's model.
  ASSIGN_OR_RETURN(auto engine,
                   DecomposedEncoder::Build(spec, {}, !options.want_witness));
  CpsOutcome outcome;
  outcome.components = engine->num_components();
  exec::ThreadPool pool(options.num_threads);
  ASSIGN_OR_RETURN(outcome.consistent, engine->EnsureAllSolved(&pool));
  if (!outcome.consistent || !options.want_witness) return outcome;
  // Every component was SAT-solved exactly once above and still holds
  // that model; the per-component models merge into one completion.
  Completion witness;
  witness.orders.resize(spec.num_instances());
  for (int i = 0; i < spec.num_instances(); ++i) {
    const TemporalInstance& inst = spec.instance(i);
    witness.orders[i].assign(inst.schema().arity(),
                             PartialOrder(inst.relation().size()));
  }
  for (int c = 0; c < engine->num_components(); ++c) {
    RETURN_IF_ERROR(engine->WithComponentEncoder(
        c, [&](Encoder* encoder) -> Status {
          Completion part = encoder->ExtractCompletion();
          for (int i = 0; i < spec.num_instances(); ++i) {
            for (size_t a = 1; a < part.orders[i].size(); ++a) {
              for (auto [u, v] : part.orders[i][a].Pairs()) {
                witness.orders[i][a].TryAdd(u, v);
              }
            }
          }
          return Status::OK();
        }));
  }
  outcome.witness = std::move(witness);
  return outcome;
}

}  // namespace currency::core
