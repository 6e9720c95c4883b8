// serve::Epoch — one immutable snapshot of a session's specification plus
// the engine (core::DecomposedEncoder) that caches this snapshot's solver
// work, shared by concurrent query batches.
//
// The session façade (session.h) keeps a shared_ptr to the *current*
// epoch; every query batch pins it (shared_ptr copy under a lock-free-ish
// acquire) and runs to completion against that pinned epoch, while Mutate
// builds the NEXT epoch off to the side and publishes it with one
// shared_ptr swap.  Readers never block writers and writers never block
// readers; an epoch dies when its last pinner lets go.
//
// "Immutable" is logical, not physical: the specification is bit-frozen
// after Build, but the engine's per-component caches — SAT encoders whose
// solvers accumulate learnt clauses, base-satisfiability bits, chase
// fixpoints — fill in lazily under concurrent batches, each slot with its
// own synchronization (see core::DecomposedEncoder).  Mutate builds the
// next epoch with BuildSuccessor, whose engine takes over every component
// of this one whose content fingerprint is unchanged
// (core::DecomposedEncoder::BuildSuccessor); a taken encoder is
// re-pointed at the new epoch's specification copy (a fingerprint match
// means the component's content is identical, so the encoding is
// byte-for-byte what a fresh build would produce).

#ifndef CURRENCY_SRC_SERVE_EPOCH_H_
#define CURRENCY_SRC_SERVE_EPOCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "src/common/result.h"
#include "src/core/decompose.h"
#include "src/core/specification.h"
#include "src/obs/metrics.h"

namespace currency::serve {

/// The session's registry instrument handles, shared by all of its epochs
/// (instruments outlive any single epoch; cache hits and misses accumulate
/// across Mutate).  Updates are relaxed atomics inside the instruments, so
/// concurrent batches bump them without locks, and exposition,
/// SessionStats and TenantStats all read the same values.
///
/// Bind() must run before the first Epoch::Build (CurrencySession's
/// constructor does); every pointer is non-null afterwards.  `tenant`
/// becomes the instruments' tenant label.
struct SessionCounters {
  obs::Counter* mutations = nullptr;
  obs::Counter* epoch_publishes = nullptr;
  obs::Gauge* epoch_version = nullptr;
  /// Cache and solver work, handed to the seed epoch's engine and
  /// inherited by every successor (which also sets the last-Mutate
  /// gauges).
  core::EngineCounters engine;

  /// Resolves every handle in `registry`, labelled {tenant=`tenant`}
  /// (label omitted when `tenant` is empty).
  void Bind(obs::Registry* registry, const std::string& tenant);
};

/// One snapshot: an owned specification copy, its version, and the engine
/// over it.  Refcounted via shared_ptr; see the file comment.
class Epoch {
 public:
  /// Builds the seed snapshot (version 0) over `spec` (moved in):
  /// coupling graph, fingerprints, empty cache slots.  No SAT solving
  /// happens here.  `chase_routing` as in core::DecomposedEncoder::Build.
  /// `counters` must outlive the epoch and every successor (the session
  /// owns both).
  static Result<std::shared_ptr<Epoch>> Build(
      core::Specification spec, bool chase_routing,
      const core::EngineCounters* counters);

  /// Builds the snapshot after `predecessor` (version + 1) over `edited`
  /// (moved in), whose engine inherits the predecessor's routing and
  /// counters and takes over its unchanged components
  /// (core::DecomposedEncoder::BuildSuccessor).  On failure the
  /// predecessor keeps every cache.
  static Result<std::shared_ptr<Epoch>> BuildSuccessor(
      core::Specification edited, const Epoch& predecessor);

  const core::Specification& spec() const { return spec_; }
  /// The engine over spec(); its caches are safe to use concurrently.
  core::DecomposedEncoder& engine() const { return *engine_; }
  int num_components() const { return engine_->num_components(); }
  /// Monotonic publication counter: the seed epoch is 0, each successful
  /// Mutate publishes version + 1.  The linearizability tests bracket
  /// batches with version reads to bound which snapshots a batch could
  /// have pinned.
  int64_t version() const { return version_; }

 private:
  Epoch(core::Specification spec, int64_t version)
      : spec_(std::move(spec)), version_(version) {}

  const core::Specification spec_;
  const int64_t version_;
  std::unique_ptr<core::DecomposedEncoder> engine_;
};

}  // namespace currency::serve

#endif  // CURRENCY_SRC_SERVE_EPOCH_H_
