// CPS — the consistency problem for specifications (Section 3):
// given S, is Mod(S) non-empty?
//
// Complexity (Theorem 3.1): NP-complete in data complexity, Σp2-complete
// in combined complexity; PTIME without denial constraints (Theorem 6.1).
// DecideConsistency runs DecomposedEncoder::EnsureAllSolved on a transient
// engine: chase-routed components (no denial constraint grounds on them)
// are decided by the chase, the rest by CDCL search over their order
// encodings, which realizes the upper bound.

#ifndef CURRENCY_SRC_CORE_CONSISTENCY_H_
#define CURRENCY_SRC_CORE_CONSISTENCY_H_

#include <optional>

#include "src/common/result.h"
#include "src/core/completion.h"
#include "src/core/specification.h"

namespace currency::exec {
class ThreadPool;
}  // namespace currency::exec

namespace currency::core {

/// Options for DecideConsistency.
struct CpsOptions {
  /// Always construct a witness completion (routes every component
  /// through SAT: a chase fixpoint carries no witness).
  bool want_witness = false;
  /// Threads (src/exec/thread_pool.h): components are solved concurrently
  /// with first-UNSAT cancellation, on a pool built for the call.  Counts
  /// the calling thread; 1 (the default) runs strictly sequentially.
  /// Answers and witnesses are bit-identical for every value.
  int num_threads = 1;
};

/// Outcome of CPS.
struct CpsOutcome {
  bool consistent = false;
  /// A consistent completion, when `consistent` and `want_witness`.
  std::optional<Completion> witness;
  /// Number of coupling components of the specification.
  int components = 0;
};

/// Decides whether Mod(S) is non-empty.
Result<CpsOutcome> DecideConsistency(const Specification& spec,
                                     const CpsOptions& options = {});

}  // namespace currency::core

#endif  // CURRENCY_SRC_CORE_CONSISTENCY_H_
