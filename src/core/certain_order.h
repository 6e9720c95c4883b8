// COP — the certain ordering problem (Section 3): given S, a relation R
// in S, and a currency order Ot for R's temporal instance, does Ot hold
// in every consistent completion of S?
//
// Complexity (Theorem 3.4): coNP-complete (data), Πp2-complete (combined);
// PTIME without denial constraints via PO∞ (Theorem 6.1, Lemma 6.2), which
// chase routing applies component by component.  Vacuously true when
// Mod(S) = ∅.

#ifndef CURRENCY_SRC_CORE_CERTAIN_ORDER_H_
#define CURRENCY_SRC_CORE_CERTAIN_ORDER_H_

#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/core/specification.h"

namespace currency::exec {
class ThreadPool;
}  // namespace currency::exec

namespace currency::core {

class DecomposedEncoder;

/// One required pair of a currency order Ot: before ≺_attr after.
struct RequiredPair {
  AttrIndex attr = -1;
  TupleId before = -1;
  TupleId after = -1;
};

/// A currency order Ot for one relation of the specification.
struct CurrencyOrderQuery {
  std::string relation;
  std::vector<RequiredPair> pairs;
};

/// Options for IsCertainOrder.
struct CopOptions {
  /// Threads: the vacuity check solves components concurrently, then the
  /// pairs that need a solve are refuted in parallel per owning component
  /// (pairs sharing a component stay in query order on that component's
  /// solver).  1 (the default) runs sequentially; the answer is
  /// bit-identical for every value.
  int num_threads = 1;
};

/// Decides whether every pair of `query` holds in every consistent
/// completion of `spec`.  Pairs relating distinct entities or a tuple to
/// itself can hold in no completion (so the answer is false unless
/// Mod(S) = ∅, which makes COP vacuously true).
Result<bool> IsCertainOrder(const Specification& spec,
                            const CurrencyOrderQuery& query,
                            const CopOptions& options = {});

namespace internal {

/// Validates `query` against `spec` — known relation, attributes and tuple
/// ids in range — and returns its instance index.
Result<int> OrderQueryInstance(const Specification& spec,
                               const CurrencyOrderQuery& query);

/// One COP request on a built engine — the whole of IsCertainOrder,
/// serve's CopBatch and the forced-SAT reference — answered in query
/// order:
///   1. every query is validated (OrderQueryInstance), so a malformed one
///      fails the batch before any solve;
///   2. the base solve (EnsureAllSolved) runs inside the calling
///      request's "base_solve" trace stage, and when Mod(S) = ∅ every
///      answer is vacuously true;
///   3. otherwise the probes run inside the "solve" stage.
/// Both stages carry the engine's stage_counters().  Reflexive and
/// cross-entity pairs are refuted structurally, and a pair on an
/// order-free attribute (Specification::OrderBound) is settled from the
/// initial order — certain iff the order has it — and counted as settled.
/// Every other pair is decided inside the component owning its entity —
/// by PO∞ membership on a chase-routed component, else by asking
/// SomeCompletionSets whether some completion sets ¬ord(u, v), which the
/// component solver's own record settles when it can and a SAT probe
/// decides otherwise.  Pairs sharing a component probe its solver in
/// batch order.  DecomposedEncoder::SettleWalk answers what is already
/// cached on the calling thread (a walked SAT-routed component reads
/// SettledCompletionSets under its slot lock) and sends only components
/// with a pair to solve to `pool` (not null), so each solver's call
/// sequence (and hence its learnt-clause state and record) is the same
/// for every thread count.  Probe solves and settled probes are counted
/// into the engine's EngineCounters, once per probe.
Result<std::vector<bool>> CertainOrderProbes(
    DecomposedEncoder* engine, const std::vector<CurrencyOrderQuery>& queries,
    exec::ThreadPool* pool);

}  // namespace internal

}  // namespace currency::core

#endif  // CURRENCY_SRC_CORE_CERTAIN_ORDER_H_
