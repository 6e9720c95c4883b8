// DCIP — the deterministic current instance problem (Section 3): given S
// and a relation R in S, is the current instance of R the same in every
// consistent completion?
//
// Complexity (Theorem 3.4): coNP-complete (data), Πp2-complete (combined);
// PTIME without denial constraints via sink-agreement on PO∞
// (Theorem 6.1), which chase routing applies component by component.
// Vacuously true when Mod(S) = ∅.

#ifndef CURRENCY_SRC_CORE_DETERMINISTIC_H_
#define CURRENCY_SRC_CORE_DETERMINISTIC_H_

#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/core/chase.h"
#include "src/core/encoder.h"
#include "src/core/specification.h"
#include "src/sat/portfolio.h"

namespace currency::exec {
class ThreadPool;
}  // namespace currency::exec

namespace currency::core {

class DecomposedEncoder;

/// Options for the DCIP solvers.
struct DcipOptions {
  /// Decide chase-eligible components by sink-agreement on the component
  /// chase fixpoint (Theorem 6.1(3) applied to S|_c) instead of SAT
  /// probes; SAT remains the fallback for constrained components.
  bool use_chase_routing = true;
  /// Threads: the consistency pre-solve and the per-component determinism
  /// probes run concurrently (each component's probe sequence is confined
  /// to one task).  1 (the default) runs sequentially; the answer is
  /// bit-identical for every value.
  int num_threads = 1;
  /// Optional caller-owned pool reused across calls (overrides
  /// `num_threads`; not owned).  See CpsOptions::pool.
  exec::ThreadPool* pool = nullptr;
  /// Verdict-deterministic portfolio racing for dominant components (off
  /// by default): the consistency pre-solve and the phase-2 determinism
  /// probes of components with at least `portfolio.min_component_size`
  /// entity groups race diversified solvers, first verdict wins.  The
  /// phase-1 baseline still reads a model, which every probe sequence
  /// re-establishes with a plain Solve first; the DCIP answer is
  /// model-independent and thus unchanged.
  sat::PortfolioOptions portfolio;
  Encoder::Options encoder;
};

/// Decides whether S is deterministic for current `relation` instances.
Result<bool> IsDeterministicForRelation(const Specification& spec,
                                        const std::string& relation,
                                        const DcipOptions& options = {});

/// Decides whether S is deterministic for all its current instances.
Result<bool> IsDeterministic(const Specification& spec,
                             const DcipOptions& options = {});

namespace internal {

/// The DCIP probe phase shared by the one-shot solvers and serve's
/// DcipBatch: for each instance index of `instances`, whether S is
/// deterministic for it, on an engine whose EnsureAllSolved returned true.
/// Each item is decided per component of its instance — by sink agreement
/// on a chase-routed component, else by DeterministicProbe on the
/// component's encoder (raced on dominant components).  A component
/// probes its items in batch order, components in parallel.
Result<std::vector<bool>> DeterminismProbes(
    DecomposedEncoder* engine, const std::vector<int>& instances,
    exec::ThreadPool* pool, const sat::PortfolioOptions* portfolio);

/// The SAT-path probe behind DeterminismProbes: decides determinism of
/// `inst`'s entity groups whose is-last selectors `encoder` defines (on a
/// component encoder that is exactly the component's own groups).
/// Requires the encoder's solver to currently hold a satisfying model; the
/// probe sequence generally leaves it without one, so callers re-Solve
/// before probing again.  The answer is model-independent: whichever
/// baseline model is in hand, some alternative-value candidate is
/// satisfiable iff the group's current instance is not unique.  When
/// `portfolio` is non-null (its primary must be `encoder`'s solver), the
/// phase-2 probes race diversified solvers — verdict-only, so the answer
/// is identical.
Result<bool> DeterministicProbe(const Specification& spec, Encoder* encoder,
                                int inst,
                                sat::Portfolio* portfolio = nullptr);

/// The chase-path check behind DeterminismProbes: for every entity group
/// of `inst` inside the (chase-eligible) component, all certain sinks of
/// each attribute's component PO∞ must agree on the attribute value
/// (Theorem 6.1(3) applied to S|_c).  Groups of other instances or
/// components are simply absent from `chase` and checked elsewhere.
bool DeterministicViaComponentChase(const Specification& spec,
                                    const ComponentChase& chase, int inst);

}  // namespace internal

}  // namespace currency::core

#endif  // CURRENCY_SRC_CORE_DETERMINISTIC_H_
