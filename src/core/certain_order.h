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
#include "src/core/encoder.h"
#include "src/core/specification.h"
#include "src/sat/portfolio.h"

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
  /// Answer pairs owned by chase-eligible components from the component
  /// chase fixpoint (pair certain iff it is in the component's PO∞ —
  /// Lemma 6.2 applied to S|_c) instead of SAT probes; SAT remains the
  /// fallback for constrained components.
  bool use_chase_routing = true;
  /// Threads: the vacuity check solves components concurrently, then the
  /// queried pairs are refuted in parallel per owning component (pairs
  /// sharing a component stay in query order on that component's
  /// solver).  1 (the default) runs sequentially; the answer is
  /// bit-identical for every value.
  int num_threads = 1;
  /// Optional caller-owned pool reused across calls (overrides
  /// `num_threads`; not owned).  See CpsOptions::pool.
  exec::ThreadPool* pool = nullptr;
  /// Verdict-deterministic portfolio racing for dominant components (off
  /// by default): the vacuity base solves and the refutation probes of
  /// components with at least `portfolio.min_component_size` entity
  /// groups race diversified solvers, first verdict wins.  Probe answers
  /// are SAT/UNSAT verdicts, so the COP answer is unchanged for every
  /// thread count and seed set.
  sat::PortfolioOptions portfolio;
  Encoder::Options encoder;
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
/// ids in range — and returns its instance index.  Shared by
/// IsCertainOrder and serve's CopBatch.
Result<int> OrderQueryInstance(const Specification& spec,
                               const CurrencyOrderQuery& query);

/// The COP probe phase shared by IsCertainOrder and serve's CopBatch:
/// answers every query (`inst_of[i]` is its instance index) on an engine
/// whose EnsureAllSolved returned true.  Reflexive and cross-entity pairs
/// are refuted structurally, and a pair on an order-free attribute
/// (Specification::OrderBound) is settled from the initial order — certain
/// iff the order has it — and counted as settled.  Every other pair is
/// decided inside the component owning its entity — by PO∞ membership on a
/// chase-routed
/// component, else from the component solver's own record when that
/// settles it (sat::Solver's "Remembered models": ¬ord(u, v) seen in a
/// remembered model refutes the pair, ord(u, v) fixed at the root makes it
/// certain), else by the SAT probe ¬ord(u, v), raced on dominant
/// components.  Pairs sharing a component probe its solver in batch
/// order, components in parallel; a solver's record is a function of its
/// own call sequence, so without racing that sequence (and hence its
/// learnt-clause state) is the same for every thread count.  Probe solves
/// and settled probes are counted into the engine's EngineCounters.
Result<std::vector<bool>> CertainOrderProbes(
    DecomposedEncoder* engine, const std::vector<CurrencyOrderQuery>& queries,
    const std::vector<int>& inst_of, exec::ThreadPool* pool,
    const sat::PortfolioOptions* portfolio);

}  // namespace internal

}  // namespace currency::core

#endif  // CURRENCY_SRC_CORE_CERTAIN_ORDER_H_
