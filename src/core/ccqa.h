// CCQA — certain current query answering (Section 3): a tuple t is a
// certain current answer to Q w.r.t. S iff t ∈ Q(LST(Dc)) for every
// consistent completion Dc of S.
//
// Complexity (Theorem 3.5): coNP-complete data complexity for all of
// CQ/UCQ/∃FO+/FO; combined complexity Πp2-complete for CQ/UCQ/∃FO+ and
// PSPACE-complete for FO.  With SP queries and no denial constraints the
// problem is PTIME (Proposition 6.3, see sp_ccqa.h); chase routing applies
// it to every SP query over one relation whose components are all
// chase-enumerable (uncoupled single entity groups no denial constraint
// grounds on): a coupling copy bucket can tie two attributes' current
// values together, which the construction's independence assumption
// excludes.
//
// The general algorithm searches for a consistent completion whose
// current instance does not answer a candidate, blocking each failed
// attempt (the guess-and-check upper bound), on an encoder covering just
// the components the query can read.  Current-instance enumeration walks
// the cartesian product of per-component current fragments.

#ifndef CURRENCY_SRC_CORE_CCQA_H_
#define CURRENCY_SRC_CORE_CCQA_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
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
  /// Budget on distinct current instances enumerated, and on the
  /// iterations of each certain-membership loop.  Enumeration also
  /// applies it to every component's own fragment count (each is a factor
  /// of the product, so a component exceeding the budget implies the
  /// product does too).  Note the product walk materializes each
  /// component's fragments before visiting any combination, so callers
  /// that stop early still pay the per-component enumeration (never more
  /// than this budget).
  int64_t max_current_instances = 1'000'000;
  /// Threads: consistency pre-solves and the per-component current-
  /// fragment enumerations run concurrently (one certain-membership loop
  /// stays sequential — it works one encoder).  1 (the default) runs
  /// sequentially; answers, counts and enumeration order are bit-identical
  /// for every value.
  int num_threads = 1;
};

/// One CCQA batch item: a full answer-set request (no candidate) or a
/// certain-membership request for `candidate`.
struct CcqaRequest {
  query::Query query;
  std::optional<Tuple> candidate;
};

/// Result of one CCQA batch item.
struct CcqaResponse {
  /// True iff Mod(S) = ∅, making every tuple vacuously certain (the
  /// one-shot CertainCurrentAnswers reports this as Status::Inconsistent;
  /// membership requests additionally get is_certain = true, matching
  /// IsCertainCurrentAnswer's convention).
  bool vacuous = false;
  /// Set for membership requests.
  std::optional<bool> is_certain;
  /// Set for answer-set requests unless `vacuous`.
  std::optional<std::set<Tuple>> answers;
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

/// One CCQA request on a built engine — the whole of the one-shot
/// solvers, serve's CcqaBatch and the forced-SAT reference — answered in
/// request order:
///   1. every request is validated first — its candidate's arity matches
///      its query head, every relation it names exists — so a malformed
///      one fails the batch before any solve;
///   2. the base solve (EnsureAllSolved) runs inside the calling
///      request's "base_solve" trace stage, and when Mod(S) = ∅ every
///      response is `vacuous` (membership requests also get is_certain =
///      true);
///   3. otherwise the requests are answered inside the "solve" stage.
/// Both stages carry the engine's stage_counters().  Each request reads
/// only the components owning the (instance, EID) groups query::EidPins
/// pins, plus every component of an unpinned relation: exact, as Q(D)
/// reads only rows its atoms match and Mod(S) factors over components and
/// is non-empty.  A request whose query is SP over one relation, with all
/// those components chase-enumerable (DecomposedEncoder::
/// chase_routed_enumerable), answers from their fixpoints (Proposition
/// 6.3) on the calling thread.  Every other request runs on the engine's
/// cached encoder for its component set (WithCcqaEncoder), in parallel
/// across those requests on `pool` (not null).  `options` supplies the
/// iteration budget.
Result<std::vector<CcqaResponse>> CertainAnswerProbes(
    DecomposedEncoder* engine, const std::vector<CcqaRequest>& requests,
    const CcqaOptions& options, exec::ThreadPool* pool);

/// The conflict-driven certain-membership loop on an encoder covering
/// every entity the query can read (CertainAnswerProbes' component set:
/// one component's own encoder, or a merged encoder from
/// DecomposedEncoder::BuildMergedEncoder).  The blocking clauses go in
/// under a solver scope (sat::Solver::NewScope) that is closed on every
/// return path, so the encoder's formula is left as it was found: any
/// clause learnt from a blocking clause carries the scope literal and is
/// deleted with it, and every clause that survives is implied by the
/// base encoding.  Cached encoders are therefore fair game; the caller
/// only needs exclusive use of the solver for the call.  Returns true
/// when every consistent completion's current instance answers `t`
/// (vacuously true when the encoder is UNSAT), and Status::Internal if a
/// satisfiable encoder rejects a scoped clause.
Result<bool> CheckCertainMemberWith(Encoder* encoder,
                                    const Specification& spec,
                                    const query::Query& q, const Tuple& t,
                                    const std::vector<int>& instances,
                                    const CcqaOptions& options);

/// The candidate-and-check loop behind answer-set requests: candidates
/// come from `seed`'s first model (certain answers are a subset of every
/// Q(LST)), then each candidate runs CheckCertainMemberWith on `seed`
/// itself.  `make_encoder` is never called; it remains only so existing
/// callers keep compiling, and may be null.  Returns Status::Inconsistent
/// when the seed is UNSAT (Mod(S) = ∅).
Result<std::set<Tuple>> CertainAnswersVia(
    Encoder* seed,
    const std::function<Result<std::unique_ptr<Encoder>>()>& make_encoder,
    const Specification& spec, const query::Query& q,
    const std::vector<int>& instances, const CcqaOptions& options);

/// The chase-routed SP path behind CertainAnswerProbes: answers `q` via
/// Proposition 6.3 from the nodes of `relevant`'s chase fixpoints, looked
/// up through `chase_for` (SpAnswersFromChaseNodes).
/// Preconditions the caller must have established: Mod(S) ≠ ∅, `q` is SP
/// over exactly one relation, and `relevant` holds every component owning
/// an entity `q` can match (the scoped set, or all of the relation's
/// components), all chase-enumerable.  On a chase-eligible component that
/// is not, the answer is a sound subset of the certain answers.
Result<std::set<Tuple>> SpAnswersViaComponentChases(
    const std::function<Result<const ComponentChase*>(int)>& chase_for,
    const Specification& spec, const query::Query& q,
    const std::vector<int>& relevant);

/// ForEachCurrentInstance on a built engine: its base solve, then the
/// walk over the product of per-component current fragments, on `pool`
/// (not null).  `options` supplies the budget.
Result<int64_t> EnumerateCurrentInstances(
    DecomposedEncoder* engine, const CcqaOptions& options,
    exec::ThreadPool* pool,
    const std::function<bool(const query::Database&)>& visit);

}  // namespace internal

}  // namespace currency::core

#endif  // CURRENCY_SRC_CORE_CCQA_H_
