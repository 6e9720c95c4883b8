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
#include "src/core/decompose.h"
#include "src/core/encoder.h"
#include "src/core/specification.h"

namespace currency::core {

/// Options for the DCIP solvers.
struct DcipOptions {
  /// Threads: the consistency pre-solve and the per-component determinism
  /// probes that need a solve run concurrently (each component's probe
  /// sequence is confined to one task).  1 (the default) runs
  /// sequentially; the answer is bit-identical for every value.
  int num_threads = 1;
};

/// Decides whether S is deterministic for current `relation` instances.
Result<bool> IsDeterministicForRelation(const Specification& spec,
                                        const std::string& relation,
                                        const DcipOptions& options = {});

/// Decides whether S is deterministic for all its current instances.
Result<bool> IsDeterministic(const Specification& spec,
                             const DcipOptions& options = {});

namespace internal {

/// One DCIP request on a built engine — the whole of the one-shot
/// solvers, serve's DcipBatch and the forced-SAT reference: for each of
/// `relation_names`, in order, whether S is deterministic for its current
/// instances.
///   1. every name is resolved first, so an unknown one fails the batch
///      (NotFound) before any solve;
///   2. the base solve (EnsureAllSolved) runs inside the calling
///      request's "base_solve" trace stage, and when Mod(S) = ∅ every
///      answer is vacuously true;
///   3. otherwise the probes run inside the "solve" stage.
/// Both stages carry the engine's stage_counters().  Each item is decided
/// per component of its instance.  Chase-routed components go first, on
/// the calling thread in component order, by sink agreement on their
/// fixpoints; an item stops at its first refuting component.  Items
/// still open then run DeterministicProbe on their SAT-routed
/// components' encoders; a component probes its items in batch order.
/// DecomposedEncoder::SettleWalk answers on the calling thread each
/// component whose solver record settles every item — a remembered model
/// to read, and no candidate that needs a solve — and sends only
/// components with a probe to solve to `pool` (not null), so each
/// solver's call sequence is the same for every thread count.  Probe
/// solves and settled probes are counted into the engine's
/// EngineCounters, once per probe.
Result<std::vector<bool>> DeterminismProbes(
    DecomposedEncoder* engine, const std::vector<std::string>& relation_names,
    exec::ThreadPool* pool);

/// The SAT-path probe behind DeterminismProbes: decides determinism of the
/// entity groups of `inst` that `encoder` covers (on a component encoder,
/// exactly the component's own groups), whose formula must be
/// satisfiable.  It reads the solver's remembered models (sat::Solver's
/// "Remembered models"): two tuples of a group made current by remembered
/// models with different values settle "non-deterministic" without a
/// solve; otherwise each candidate carrying a value other than the
/// remembered one goes to SomeCompletionSets, which settles it when its
/// is-last selector is fixed false at the root and probes it with a solve
/// otherwise.  The solver itself solves once first when it remembers no
/// model.  The answer is model-independent: some alternative-value
/// candidate is satisfiable iff the group's current instance is not
/// unique.  `tally` (optional) accumulates the probes solved and settled.
Result<bool> DeterministicProbe(const Specification& spec, Encoder* encoder,
                                int inst, ProbeTally* tally = nullptr);

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
