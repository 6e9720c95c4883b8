#include "src/serve/session.h"

#include <map>
#include <utility>

#include "src/core/deterministic.h"
#include "src/wire/spec.h"

namespace currency::serve {

CurrencySession::CurrencySession(const SessionOptions& options)
    : options_(options) {
  if (options_.pool != nullptr) {
    pool_ = options_.pool;
  } else {
    pool_ = &own_pool_.emplace(options_.num_threads);
  }
  if (options_.registry != nullptr) {
    registry_ = options_.registry;
  } else {
    own_registry_ = std::make_unique<obs::Registry>();
    registry_ = own_registry_.get();
  }
  clock_ = obs::ResolveClock(options_.clock);
  counters_.Bind(registry_, options_.instance_label);
  obs::Labels tenant;
  if (!options_.instance_label.empty()) {
    tenant.push_back({"tenant", options_.instance_label});
  }
  auto procedure = [&](const char* name) {
    obs::Labels labels = tenant;
    labels.push_back({"procedure", name});
    ProcedureInstruments p;
    p.batches = registry_->GetCounter("currency_serve_batches_total", labels);
    p.latency =
        registry_->GetHistogram("currency_serve_batch_latency_ns", labels);
    return p;
  };
  cps_ = procedure("cps");
  cop_ = procedure("cop");
  dcip_ = procedure("dcip");
  ccqa_ = procedure("ccqa");
  mutate_ = procedure("mutate");
}

Result<std::unique_ptr<CurrencySession>> CurrencySession::Create(
    core::Specification spec, const SessionOptions& options) {
  return CreateRouted(std::move(spec), options, /*chase_routing=*/true);
}

Result<std::unique_ptr<CurrencySession>>
CurrencySession::CreateForcedSatForTesting(core::Specification spec,
                                           const SessionOptions& options) {
  return CreateRouted(std::move(spec), options, /*chase_routing=*/false);
}

Result<std::unique_ptr<CurrencySession>> CurrencySession::CreateRouted(
    core::Specification spec, const SessionOptions& options,
    bool chase_routing) {
  if (options.num_threads < 1 && options.pool == nullptr) {
    return Status::InvalidArgument("SessionOptions.num_threads must be >= 1");
  }
  if (options.max_current_instances <= 0) {
    return Status::InvalidArgument(
        "SessionOptions.max_current_instances must be >= 1");
  }
  std::unique_ptr<CurrencySession> session(new CurrencySession(options));
  ASSIGN_OR_RETURN(session->current_,
                   Epoch::Build(std::move(spec), chase_routing,
                                &session->counters_.engine));
  session->counters_.epoch_publishes->Increment();  // the seed epoch
  return session;
}

std::shared_ptr<Epoch> CurrencySession::Pin() const {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  return current_;
}

std::shared_ptr<Epoch> CurrencySession::PinStage() const {
  obs::TraceSpan::Stage stage("epoch_pin");
  return Pin();
}

const core::Specification& CurrencySession::spec() const {
  return Pin()->spec();
}

SessionStats CurrencySession::stats() const {
  // A thin view: every field is a registry instrument's current value.
  SessionStats s;
  s.mutations = counters_.mutations->Value();
  s.base_solves = counters_.engine.base_solves->Value();
  s.merged_builds = counters_.engine.merged_builds->Value();
  s.chase_solves = counters_.engine.chase_solves->Value();
  s.last_reused = counters_.engine.last_reused->Value();
  s.last_invalidated = counters_.engine.last_invalidated->Value();
  s.last_chase_reused = counters_.engine.last_chase_reused->Value();
  s.last_chase_rechased = counters_.engine.last_chase_rechased->Value();
  return s;
}

int CurrencySession::num_components() const {
  return Pin()->num_components();
}

int64_t CurrencySession::epoch_version() const { return Pin()->version(); }

Result<bool> CurrencySession::CpsCheck() {
  obs::TraceSpan span(options_.tracer, options_.instance_label, "cps",
                      cps_.latency, clock_);
  cps_.batches->Increment();
  std::shared_ptr<Epoch> epoch = PinStage();
  obs::TraceSpan::Stage stage("solve", epoch->engine().stage_counters());
  return epoch->engine().EnsureAllSolved(pool_);
}

Result<std::vector<bool>> CurrencySession::CopBatch(
    const std::vector<core::CurrencyOrderQuery>& queries) {
  obs::TraceSpan span(options_.tracer, options_.instance_label, "cop",
                      cop_.latency, clock_);
  cop_.batches->Increment();
  std::shared_ptr<Epoch> epoch = PinStage();
  return core::internal::CertainOrderProbes(&epoch->engine(), queries, pool_);
}

Result<std::vector<bool>> CurrencySession::DcipBatch(
    const std::vector<std::string>& relations) {
  obs::TraceSpan span(options_.tracer, options_.instance_label, "dcip",
                      dcip_.latency, clock_);
  dcip_.batches->Increment();
  std::shared_ptr<Epoch> epoch = PinStage();
  return core::internal::DeterminismProbes(&epoch->engine(), relations,
                                           pool_);
}

Result<std::vector<CcqaResponse>> CurrencySession::CcqaBatch(
    const std::vector<CcqaRequest>& requests) {
  obs::TraceSpan span(options_.tracer, options_.instance_label, "ccqa",
                      ccqa_.latency, clock_);
  ccqa_.batches->Increment();
  std::shared_ptr<Epoch> epoch = PinStage();
  core::CcqaOptions ccqa;
  ccqa.max_current_instances = options_.max_current_instances;
  return core::internal::CertainAnswerProbes(&epoch->engine(), requests, ccqa,
                                             pool_);
}

void CurrencySession::ExportWarmState(
    std::string* spec_wire,
    std::vector<std::pair<uint64_t, bool>>* verdicts) const {
  // One pin covers both reads: the spec bytes and the verdicts describe
  // the same epoch even if a Mutate publishes a successor mid-call.
  std::shared_ptr<Epoch> epoch = Pin();
  *spec_wire = wire::SerializeSpecification(epoch->spec());
  const int n = epoch->num_components();
  for (int c = 0; c < n; ++c) {
    const int sat = epoch->engine().CachedSat(c);
    if (sat < 0) continue;  // not yet solved — nothing worth persisting
    verdicts->emplace_back(epoch->engine().component_fingerprint(c),
                           sat == 1);
  }
}

int CurrencySession::AdoptSolvedVerdicts(
    const std::vector<std::pair<uint64_t, bool>>& verdicts) {
  std::shared_ptr<Epoch> epoch = Pin();
  std::map<uint64_t, bool> by_fingerprint(verdicts.begin(), verdicts.end());
  const int n = epoch->num_components();
  int adopted = 0;
  for (int c = 0; c < n; ++c) {
    auto it = by_fingerprint.find(epoch->engine().component_fingerprint(c));
    if (it == by_fingerprint.end()) continue;
    epoch->engine().AdoptSat(c, it->second);
    ++adopted;
  }
  return adopted;
}

Status CurrencySession::Mutate(const std::vector<core::TupleEdit>& edits) {
  obs::TraceSpan span(options_.tracer, options_.instance_label, "mutate",
                      mutate_.latency, clock_);
  mutate_.batches->Increment();
  // One successor epoch is built at a time; concurrent Mutate callers
  // queue here while batches keep running on the published epoch.
  std::lock_guard<std::mutex> writer(writer_mu_);
  std::shared_ptr<Epoch> old = Pin();
  // Copy-then-edit keeps the published epoch bit-frozen: a rejected edit
  // or a failed successor build discards the copy and changes nothing,
  // caches included.
  core::Specification next = old->spec();
  RETURN_IF_ERROR(next.ApplyTupleEdits(edits));
  counters_.mutations->Increment();
  obs::TraceSpan::Stage stage("epoch_build");
  ASSIGN_OR_RETURN(std::shared_ptr<Epoch> epoch,
                   Epoch::BuildSuccessor(std::move(next), *old));
  counters_.epoch_version->Set(epoch->version());
  counters_.epoch_publishes->Increment();
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    current_ = std::move(epoch);
  }
  return Status::OK();
}

}  // namespace currency::serve
