#include "src/serve/session_manager.h"

#include <utility>

#include "src/wire/spec.h"

namespace currency::serve {

SessionManager::SessionManager(const ManagerOptions& options)
    : options_(options),
      own_registry_(options.registry == nullptr ? new obs::Registry()
                                                : nullptr),
      registry_(options.registry != nullptr ? options.registry
                                            : own_registry_.get()),
      tracer_(std::make_unique<obs::Tracer>(options.trace)),
      pool_(options.num_threads) {
  exec::ThreadPool::Instruments pool_instruments;
  pool_instruments.regions =
      registry_->GetCounter("currency_exec_pool_regions_total");
  pool_instruments.tasks =
      registry_->GetCounter("currency_exec_pool_tasks_total");
  pool_instruments.open_regions =
      registry_->GetGauge("currency_exec_pool_open_regions");
  pool_instruments.busy_workers =
      registry_->GetGauge("currency_exec_pool_busy_workers");
  pool_.BindInstruments(pool_instruments);
  registry_->GetGauge("currency_exec_pool_threads")
      ->Set(pool_.num_threads());
}

Result<std::unique_ptr<SessionManager>> SessionManager::Create(
    const ManagerOptions& options) {
  if (options.num_threads < 1) {
    return Status::InvalidArgument("ManagerOptions.num_threads must be >= 1");
  }
  return std::unique_ptr<SessionManager>(new SessionManager(options));
}

Result<std::unique_ptr<SessionManager>> SessionManager::Open(
    const std::string& dir, const ManagerOptions& options) {
  ASSIGN_OR_RETURN(std::unique_ptr<SessionManager> manager, Create(options));
  wal::WalOptions wal_options;
  wal_options.segment_bytes = options.segment_bytes;
  wal_options.registry = manager->registry_;
  wal_options.clock = options.trace.clock;
  ASSIGN_OR_RETURN(manager->wal_, wal::LogWriter::Open(dir, wal_options));
  wal::RecoveredLog recovered = manager->wal_->TakeRecovered();
  // Phase 1: the warm snapshot re-registers every tenant (same choke
  // point as a live Register) and seeds its solved verdicts — components
  // whose content fingerprint still matches skip their base solve.
  if (recovered.has_snapshot) {
    ASSIGN_OR_RETURN(std::vector<TenantSnapshot> tenants,
                     DecodeSnapshot(recovered.snapshot_payload));
    for (TenantSnapshot& t : tenants) {
      Command command;
      command.type = Command::Type::kRegister;
      command.tenant = std::move(t.tenant);
      command.quotas = t.quotas;
      ASSIGN_OR_RETURN(command.spec, wire::ParseSpecification(t.spec_wire));
      const std::string name = command.tenant;
      Status applied = manager->ApplyCommand(std::move(command));
      if (!applied.ok()) {
        return Status::Internal("wal snapshot restore: tenant '" + name +
                                "': " + applied.ToString());
      }
      ASSIGN_OR_RETURN(std::shared_ptr<CurrencySession> session,
                       manager->Lookup(name));
      session->AdoptSolvedVerdicts(t.verdicts);
    }
  }
  // Phase 2: replay the tail of accepted commands in log order.  These
  // all applied cleanly once, so a failure here means the log and the
  // snapshot disagree — surface it, don't serve half a recovery.
  for (wal::LogRecord& record : recovered.records) {
    ASSIGN_OR_RETURN(Command command, DecodeCommand(record.payload));
    Status applied = manager->ApplyCommand(std::move(command));
    if (!applied.ok()) {
      return Status::Internal(
          "wal replay: record " + std::to_string(record.seq) +
          " failed to apply: " + applied.ToString());
    }
  }
  return manager;
}

Status SessionManager::ApplyCommand(Command command) {
  switch (command.type) {
    case Command::Type::kRegister: {
      const std::string& tenant = command.tenant;
      const TenantQuotas& quotas = command.quotas;
      if (tenant.empty()) {
        return Status::InvalidArgument("tenant name must be non-empty");
      }
      if (quotas.max_active_batches < 1) {
        return Status::InvalidArgument(
            "TenantQuotas.max_active_batches must be >= 1");
      }
      if (quotas.max_queued_batches < 0) {
        return Status::InvalidArgument(
            "TenantQuotas.max_queued_batches must be >= 0");
      }
      if (quotas.max_components < 0) {
        return Status::InvalidArgument(
            "TenantQuotas.max_components must be >= 0");
      }
      if (quotas.max_current_instances < 0) {
        return Status::InvalidArgument(
            "TenantQuotas.max_current_instances must be >= 0");
      }
      {
        // Name check before the (possibly expensive) epoch build;
        // re-checked at insertion since the build runs unlocked.
        std::lock_guard<std::mutex> lock(mu_);
        if (tenants_.count(tenant) > 0) {
          return Status::FailedPrecondition("tenant '" + tenant +
                                       "' is already registered");
        }
      }
      SessionOptions session_options;
      session_options.pool = &pool_;
      session_options.num_threads = pool_.num_threads();
      // Every tenant session publishes into the manager's registry,
      // distinguished by the tenant label, and shares the manager's
      // tracer and clock.
      session_options.registry = registry_;
      session_options.instance_label = tenant;
      session_options.tracer = tracer_.get();
      session_options.clock = options_.trace.clock;
      if (quotas.max_current_instances > 0 &&
          quotas.max_current_instances <
              session_options.max_current_instances) {
        session_options.max_current_instances = quotas.max_current_instances;
      }
      ASSIGN_OR_RETURN(
          std::shared_ptr<CurrencySession> session,
          CurrencySession::Create(std::move(command.spec), session_options));
      if (quotas.max_components > 0 &&
          session->num_components() > quotas.max_components) {
        return Status::ResourceExhausted(
            "tenant '" + tenant + "' exceeds its component quota: " +
            std::to_string(session->num_components()) + " > " +
            std::to_string(quotas.max_components));
      }
      auto entry = std::make_shared<Tenant>(std::move(session), quotas);
      // Bind before publishing: once the tenant is in the map another
      // thread may Enter its gate, and BindInstruments must not race.
      BindTenantInstruments(tenant, entry.get());
      std::lock_guard<std::mutex> lock(mu_);
      auto [it, inserted] = tenants_.try_emplace(tenant, std::move(entry));
      (void)it;
      if (!inserted) {
        return Status::FailedPrecondition("tenant '" + tenant +
                                     "' is already registered");
      }
      return Status::OK();
    }
    case Command::Type::kMutate: {
      ASSIGN_OR_RETURN(std::shared_ptr<Tenant> entry, Find(command.tenant));
      return entry->session->Mutate(command.edits);
    }
    case Command::Type::kDrop: {
      std::lock_guard<std::mutex> lock(mu_);
      if (tenants_.erase(command.tenant) == 0) {
        return Status::NotFound("tenant '" + command.tenant +
                                "' is not registered");
      }
      return Status::OK();
    }
  }
  return Status::Internal("unknown command type");
}

Status SessionManager::Commit(Command command) {
  // One mutex across apply + append: the log's record order is exactly
  // the order the state transitions happened in, which is what makes
  // replay reproduce the state.
  std::lock_guard<std::mutex> lock(log_mu_);
  std::string payload;
  if (wal_ != nullptr) {
    // A broken log refuses the command before it is applied: nothing it
    // accepts from here on could be made durable.
    RETURN_IF_ERROR(wal_->status());
    // Encode before apply — apply consumes the command's spec/edits.
    payload = EncodeCommand(command);
  }
  RETURN_IF_ERROR(ApplyCommand(std::move(command)));
  if (wal_ != nullptr) {
    // Apply-then-log: only accepted commands reach the log.  If the
    // append or fsync fails the in-memory state is ahead of the log and
    // the caller gets the error — the command was NOT acknowledged, so
    // losing it on a crash is within contract — and the log stays broken
    // (LogWriter's fail-stop), so every later command is refused until
    // the directory is reopened.
    RETURN_IF_ERROR(wal_->Append(payload).status());
    RETURN_IF_ERROR(wal_->Sync());
    if (options_.snapshot_every > 0 &&
        ++commands_since_snapshot_ >= options_.snapshot_every) {
      RETURN_IF_ERROR(WriteSnapshotLocked());
    }
  }
  return Status::OK();
}

Status SessionManager::Register(const std::string& tenant,
                                core::Specification spec,
                                const TenantQuotas& quotas) {
  Command command;
  command.type = Command::Type::kRegister;
  command.tenant = tenant;
  command.quotas = quotas;
  command.spec = std::move(spec);
  return Commit(std::move(command));
}

Status SessionManager::Drop(const std::string& tenant) {
  Command command;
  command.type = Command::Type::kDrop;
  command.tenant = tenant;
  return Commit(std::move(command));
}

Status SessionManager::Snapshot() {
  std::lock_guard<std::mutex> lock(log_mu_);
  if (wal_ == nullptr) {
    return Status::FailedPrecondition(
        "Snapshot() requires a durable manager (Open, not Create)");
  }
  return WriteSnapshotLocked();
}

Status SessionManager::WriteSnapshotLocked() {
  // log_mu_ is held: no logged mutation can interleave, so the exported
  // state corresponds exactly to the log position last_seq().
  std::vector<std::pair<std::string, std::shared_ptr<Tenant>>> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries.reserve(tenants_.size());
    for (const auto& [name, entry] : tenants_) {
      entries.emplace_back(name, entry);
    }
  }
  std::vector<TenantSnapshot> tenants;
  tenants.reserve(entries.size());
  for (auto& [name, entry] : entries) {
    TenantSnapshot t;
    t.tenant = name;
    t.quotas = entry->quotas;
    entry->session->ExportWarmState(&t.spec_wire, &t.verdicts);
    tenants.push_back(std::move(t));
  }
  RETURN_IF_ERROR(wal_->WriteSnapshot(EncodeSnapshot(tenants)));
  commands_since_snapshot_ = 0;
  return Status::OK();
}

void SessionManager::BindTenantInstruments(const std::string& tenant,
                                           Tenant* entry) {
  const obs::Labels labels = {{"tenant", tenant}};
  exec::AdmissionGate::Instruments gate;
  gate.admitted =
      registry_->GetCounter("currency_exec_admission_admitted_total", labels);
  gate.queued =
      registry_->GetCounter("currency_exec_admission_queued_total", labels);
  gate.rejected =
      registry_->GetCounter("currency_exec_admission_rejected_total", labels);
  gate.queue_depth =
      registry_->GetGauge("currency_exec_admission_queue_depth", labels);
  gate.queue_high_water = registry_->GetGauge(
      "currency_exec_admission_queue_high_water", labels);
  entry->gate.BindInstruments(gate);
  entry->admission_wait =
      registry_->GetHistogram("currency_serve_admission_wait_ns", labels);
}

Result<std::shared_ptr<SessionManager::Tenant>> SessionManager::Find(
    const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return Status::NotFound("tenant '" + tenant + "' is not registered");
  }
  return it->second;
}

Result<std::shared_ptr<CurrencySession>> SessionManager::Lookup(
    const std::string& tenant) const {
  ASSIGN_OR_RETURN(std::shared_ptr<Tenant> entry, Find(tenant));
  return entry->session;
}

std::vector<std::string> SessionManager::Tenants() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, entry] : tenants_) {
    (void)entry;
    names.push_back(name);
  }
  return names;  // map iteration order is already sorted
}

Result<TenantStats> SessionManager::StatsFor(const std::string& tenant) const {
  ASSIGN_OR_RETURN(std::shared_ptr<Tenant> entry, Find(tenant));
  TenantStats stats;
  stats.active_batches = entry->gate.active();
  stats.queued_batches = entry->gate.waiting();
  stats.queue_depth_high_water = entry->gate.queue_high_water();
  stats.rejected_batches = entry->gate.rejected();
  stats.session = entry->session->stats();
  return stats;
}

void SessionManager::SetAdmittedHookForTesting(
    std::function<void(const std::string&)> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  hook_ = std::move(hook);
}

template <typename Fn>
auto SessionManager::WithAdmission(const std::string& tenant,
                                   const char* procedure, const Fn& fn)
    -> decltype(fn(std::declval<CurrencySession&>())) {
  ASSIGN_OR_RETURN(std::shared_ptr<Tenant> entry, Find(tenant));
  // The manager's root span owns the request's trace; the session's own
  // TraceSpan (opened inside fn) nests under it and goes inert, while
  // the session's stages attach here.
  obs::TraceSpan span(tracer_.get(), tenant, procedure);
  Status admitted = [&] {
    obs::TraceSpan::Stage stage("admission_wait");
    obs::ScopedTimer timer(entry->admission_wait, options_.trace.clock);
    return entry->gate.Enter();  // counts admitted/queued/rejected itself
  }();
  if (!admitted.ok()) return admitted;
  std::function<void(const std::string&)> hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    hook = hook_;
  }
  if (hook) hook(tenant);
  auto result = fn(*entry->session);
  entry->gate.Leave();
  return result;
}

Result<bool> SessionManager::CpsCheck(const std::string& tenant) {
  return WithAdmission(tenant, "cps", [](CurrencySession& session) {
    return session.CpsCheck();
  });
}

Result<std::vector<bool>> SessionManager::CopBatch(
    const std::string& tenant,
    const std::vector<core::CurrencyOrderQuery>& queries) {
  return WithAdmission(tenant, "cop", [&](CurrencySession& session) {
    return session.CopBatch(queries);
  });
}

Result<std::vector<bool>> SessionManager::DcipBatch(
    const std::string& tenant, const std::vector<std::string>& relations) {
  return WithAdmission(tenant, "dcip", [&](CurrencySession& session) {
    return session.DcipBatch(relations);
  });
}

Result<std::vector<CcqaResponse>> SessionManager::CcqaBatch(
    const std::string& tenant, const std::vector<CcqaRequest>& requests) {
  return WithAdmission(tenant, "ccqa", [&](CurrencySession& session) {
    return session.CcqaBatch(requests);
  });
}

Status SessionManager::Mutate(const std::string& tenant,
                              const std::vector<core::TupleEdit>& edits) {
  // Admission first (quota bracket), then the durable commit: the
  // admission slot is held across apply + append + fsync, so a tenant's
  // in-flight budget also bounds its outstanding log work.
  return WithAdmission(tenant, "mutate", [&](CurrencySession&) {
    Command command;
    command.type = Command::Type::kMutate;
    command.tenant = tenant;
    command.edits = edits;
    return Commit(std::move(command));
  });
}

}  // namespace currency::serve
