// serve::Command — the serializable unit of serving-state mutation.
//
// Every way the SessionManager's state can change — registering a
// tenant, mutating its tuples, dropping it — is expressed as one of
// these values, applied through the single SessionManager::ApplyCommand
// choke point and (in durable managers) appended to the write-ahead log
// (src/wal) as the "CCMD" wire message defined here.  Recovery is then
// definitionally exact: replaying the decoded commands drives the same
// choke point the live requests drove.
//
// What is deliberately NOT a command: query batches (reads change no
// state) and rejected mutations (a command reaches the log only after it
// has been validated and applied, so the log contains exactly the
// accepted history — apply-then-log, see session_manager.h).
//
// This header also defines the warm-snapshot message ("CSNP"): the full
// serialized specification of every tenant plus the base-satisfiability
// verdicts of its solved components keyed by content fingerprint
// (Decomposition::fingerprint — the same key Mutate uses for cache
// adoption), so a restarted manager re-adopts those verdicts instead of
// re-solving.  Encoders, learnt clauses and chase fixpoints are NOT
// snapshotted: they are derived state, rebuilt lazily on first use.

#ifndef CURRENCY_SRC_SERVE_COMMAND_H_
#define CURRENCY_SRC_SERVE_COMMAND_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/core/specification.h"

namespace currency::serve {

/// Per-tenant resource bounds, fixed at Register (and carried by the
/// kRegister command so recovery restores them).
struct TenantQuotas {
  /// Batches of this tenant running at once (≥ 1; the admission gate
  /// rejects Register otherwise).
  int max_active_batches = 2;
  /// Batches allowed to block waiting for an active slot; one more is
  /// rejected with ResourceExhausted.  ≥ 0; Register rejects a negative
  /// value.
  int max_queued_batches = 8;
  /// Reject Register when the specification decomposes into more coupling
  /// components than this (0 = unlimited).  Components are the unit of
  /// solver work, so this caps the tenant's standing footprint.  ≥ 0;
  /// Register rejects a negative value.
  int max_components = 0;
  /// Clamp on the tenant session's CCQA enumeration budget (0 = keep
  /// SessionOptions' default).  ≥ 0; Register rejects a negative value.
  int64_t max_current_instances = 0;
};

/// One serving-state mutation; see the file comment.
struct Command {
  enum class Type : uint8_t {
    kRegister = 1,  ///< tenant + quotas + spec
    kMutate = 2,    ///< tenant + edits
    kDrop = 3,      ///< tenant
  };
  Type type = Type::kRegister;
  std::string tenant;
  /// kRegister only.
  TenantQuotas quotas;
  core::Specification spec;
  /// kMutate only.
  std::vector<core::TupleEdit> edits;
};

/// The canonical "CCMD" v1 encoding (deterministic: equal commands
/// produce equal bytes).
std::string EncodeCommand(const Command& command);

/// Parses a whole "CCMD" buffer; truncation, bad magic, version skew,
/// unknown command types and trailing bytes fail with InvalidArgument.
Result<Command> DecodeCommand(std::string_view bytes);

/// One tenant's entry in a warm snapshot.
struct TenantSnapshot {
  std::string tenant;
  TenantQuotas quotas;
  /// The tenant's full specification as a "CSPC" blob (wire/spec.h).
  std::string spec_wire;
  /// (component content fingerprint, base-satisfiable) for every
  /// component whose base solve had completed at snapshot time.
  std::vector<std::pair<uint64_t, bool>> verdicts;
};

/// The canonical "CSNP" v1 encoding of a whole manager's warm state.
std::string EncodeSnapshot(const std::vector<TenantSnapshot>& tenants);

Result<std::vector<TenantSnapshot>> DecodeSnapshot(std::string_view bytes);

}  // namespace currency::serve

#endif  // CURRENCY_SRC_SERVE_COMMAND_H_
