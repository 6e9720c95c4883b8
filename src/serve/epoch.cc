#include "src/serve/epoch.h"

#include <utility>

namespace currency::serve {

void SessionCounters::Bind(obs::Registry* registry,
                           const std::string& tenant) {
  obs::Labels t;
  if (!tenant.empty()) t.push_back({"tenant", tenant});
  mutations = registry->GetCounter("currency_serve_mutations_total", t);
  epoch_publishes =
      registry->GetCounter("currency_serve_epoch_publishes_total", t);
  epoch_version = registry->GetGauge("currency_serve_epoch_version", t);
  engine.Bind(registry, t);
}

Result<std::shared_ptr<Epoch>> Epoch::Build(
    core::Specification spec, bool chase_routing,
    const core::EngineCounters* counters) {
  std::shared_ptr<Epoch> epoch(new Epoch(std::move(spec), /*version=*/0));
  // The engine retains a pointer to the specification, so it is built only
  // after the spec has settled at its final (heap) address.
  ASSIGN_OR_RETURN(epoch->engine_,
                   core::DecomposedEncoder::Build(epoch->spec_, {},
                                                  chase_routing, counters));
  return epoch;
}

Result<std::shared_ptr<Epoch>> Epoch::BuildSuccessor(
    core::Specification edited, const Epoch& predecessor) {
  std::shared_ptr<Epoch> epoch(
      new Epoch(std::move(edited), predecessor.version_ + 1));
  ASSIGN_OR_RETURN(epoch->engine_,
                   core::DecomposedEncoder::BuildSuccessor(
                       epoch->spec_, *predecessor.engine_));
  return epoch;
}

}  // namespace currency::serve
