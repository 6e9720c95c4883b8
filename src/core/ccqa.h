// CCQA — certain current query answering (Section 3): a tuple t is a
// certain current answer to Q w.r.t. S iff t ∈ Q(LST(Dc)) for every
// consistent completion Dc of S.
//
// Complexity (Theorem 3.5): coNP-complete data complexity for all of
// CQ/UCQ/∃FO+/FO; combined complexity Πp2-complete for CQ/UCQ/∃FO+ and
// PSPACE-complete for FO.  With SP queries and no denial constraints the
// problem is PTIME (Proposition 6.3, see sp_ccqa.h); the general solver
// dispatches there automatically.
//
// The general algorithm enumerates the *distinct current instances* of S
// (models of the order encoding projected onto the is-last selectors) and
// intersects Q over them, mirroring the guess-and-check upper bound.

#ifndef CURRENCY_SRC_CORE_CCQA_H_
#define CURRENCY_SRC_CORE_CCQA_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "src/common/result.h"
#include "src/core/encoder.h"
#include "src/core/specification.h"
#include "src/query/classify.h"
#include "src/query/eval.h"

namespace currency::exec {
class ThreadPool;
}  // namespace currency::exec

namespace currency::core {

class DecomposedEncoder;
struct ComponentChase;

/// Options for the CCQA solvers.
struct CcqaOptions {
  /// Budget on distinct current instances enumerated by the general path.
  /// On the decomposed path this additionally bounds every component's
  /// own fragment count (each is a factor of the product, so a component
  /// exceeding the budget implies the product does too).
  int64_t max_current_instances = 1'000'000;
  /// Dispatch SP queries on constraint-free specifications to the PTIME
  /// algorithm of Proposition 6.3.
  bool use_sp_fast_path = true;
  /// Split the SAT path along the coupling graph: certain-membership
  /// loops run on a merged encoder covering only the components the
  /// query's instances touch, and current-instance enumeration walks the
  /// cartesian product of per-component fragments.  Note the product
  /// walk materializes each component's fragments before visiting any
  /// combination, so callers that stop early still pay the per-component
  /// enumeration (never more than the budget above).
  bool use_decomposition = true;
  /// On the decomposed path, serve chase-eligible components (no denial
  /// constraint grounds on any of their entity groups) from the
  /// polynomial chase fixpoint instead of SAT: enumeration builds their
  /// current fragments directly from the per-attribute certain sinks
  /// (singleton, uncoupled components), and SP queries whose relevant
  /// components are all eligible answer via Proposition 6.3 on the
  /// assembled component orders — even when the specification carries
  /// denial constraints elsewhere.  SAT remains the fallback.
  bool use_chase_routing = true;
  /// Threads for the decomposed path: consistency pre-solves and the
  /// per-component current-fragment enumerations run concurrently (the
  /// certain-membership blocking loop itself stays sequential — it works
  /// one merged encoder).  1 (the default) runs sequentially; answers,
  /// counts and enumeration order are bit-identical for every value.
  int num_threads = 1;
  /// Optional caller-owned pool reused across calls (overrides
  /// `num_threads`; not owned).  See CpsOptions::pool.
  exec::ThreadPool* pool = nullptr;
  Encoder::Options encoder;
};

/// Computes the full set of certain current answers ∩_Dc Q(LST(Dc)).
/// Returns Status::Inconsistent when Mod(S) = ∅ (every tuple is then
/// vacuously certain, so no finite answer set exists).
Result<std::set<Tuple>> CertainCurrentAnswers(const Specification& spec,
                                              const query::Query& q,
                                              const CcqaOptions& options = {});

/// Decides whether `t` is a certain current answer (vacuously true when
/// Mod(S) = ∅, matching the paper's convention).
Result<bool> IsCertainCurrentAnswer(const Specification& spec,
                                    const query::Query& q, const Tuple& t,
                                    const CcqaOptions& options = {});

/// Enumerates the distinct current instances of S (at most `options.
/// max_current_instances`), invoking `visit` with a database of current
/// relations; stops early when `visit` returns false.  Returns the number
/// visited.  Exposed for DCIP-style analyses and the benchmarks.
Result<int64_t> ForEachCurrentInstance(
    const Specification& spec, const CcqaOptions& options,
    const std::function<bool(const query::Database&)>& visit);

namespace internal {

/// Instance indices of the relations `q` mentions, in body order.
Result<std::vector<int>> QueryInstances(const Specification& spec,
                                        const query::Query& q);

/// The conflict-driven certain-membership loop on an encoder covering
/// every entity of the query's instances (a component encoder of the
/// query's only component, or a merged encoder from
/// DecomposedEncoder::BuildMergedEncoder).  The blocking clauses go in
/// under a solver scope (sat::Solver::NewScope) that is closed on every
/// return path, so the encoder's formula is left as it was found: any
/// clause learnt from a blocking clause carries the scope literal and is
/// deleted with it, and every clause that survives is implied by the
/// base encoding.  Cached encoders are therefore fair game; the caller
/// only needs exclusive use of the solver for the call.  Returns true
/// when every consistent completion's current instance answers `t`
/// (vacuously true when the encoder is UNSAT), and Status::Internal if a
/// satisfiable encoder rejects a scoped clause.  Shared by the one-shot
/// CCQA solvers and the serving layer's CcqaBatch.
Result<bool> CheckCertainMemberWith(Encoder* encoder,
                                    const Specification& spec,
                                    const query::Query& q, const Tuple& t,
                                    const std::vector<int>& instances,
                                    const CcqaOptions& options);

/// The candidate-and-check loop behind CertainCurrentAnswers: candidates
/// come from `seed`'s first model (certain answers are a subset of every
/// Q(LST)), then each candidate runs CheckCertainMemberWith on `seed`
/// itself.  `make_encoder` is never called; it remains only so existing
/// callers (perfbench's layer twin) keep compiling, and may be null.
/// Returns Status::Inconsistent when the seed is UNSAT (Mod(S) = ∅).
Result<std::set<Tuple>> CertainAnswersVia(
    Encoder* seed,
    const std::function<Result<std::unique_ptr<Encoder>>()>& make_encoder,
    const Specification& spec, const query::Query& q,
    const std::vector<int>& instances, const CcqaOptions& options);

/// The chase-routed SP path shared by the one-shot solvers and the
/// serving layer's CcqaBatch: assembles the query instance's PO∞ from the
/// chase fixpoints of `relevant` and answers `q` via Proposition 6.3.
/// Preconditions the caller must have established: Mod(S) ≠ ∅, `q` is SP
/// over exactly one relation, and `relevant` is exactly that relation's
/// components, all chase-eligible.  Only reads cached fixpoints (computing
/// missing ones), so concurrent callers must warm them first.
Result<std::set<Tuple>> SpAnswersViaComponentChases(
    DecomposedEncoder* decomposed, const Specification& spec,
    const query::Query& q, const std::vector<int>& relevant);

/// As above, but with a caller-supplied fixpoint lookup instead of a
/// DecomposedEncoder — for callers whose fixpoints live elsewhere (the
/// serving layer's epochs cache them in per-component slots).  `chase_for`
/// must return the fixpoint of the given (chase-eligible) component.
Result<std::set<Tuple>> SpAnswersViaComponentChases(
    const std::function<Result<const ComponentChase*>(int)>& chase_for,
    const Specification& spec, const query::Query& q,
    const std::vector<int>& relevant);

}  // namespace internal

}  // namespace currency::core

#endif  // CURRENCY_SRC_CORE_CCQA_H_
