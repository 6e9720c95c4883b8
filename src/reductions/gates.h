// Boolean-gate gadgets shared by the CCQA/CPP/BCP reductions (Fig. 2 and
// Fig. 4 of the paper): rigid relations encoding the Boolean domain
// (R01), disjunction (ROr), conjunction (RAnd), negation (RNot) and the
// 0↦'c' / 1↦'a' converter (Rca), plus a small compiler that emits CQ
// atoms evaluating a 3CNF/3DNF matrix over value-carrying terms.  Also
// the assignment-and-flag part the combined-complexity CPP (Fig. 4) and
// BCP (Fig. 6) lower bounds share, with its query.

#ifndef CURRENCY_SRC_REDUCTIONS_GATES_H_
#define CURRENCY_SRC_REDUCTIONS_GATES_H_

#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/core/specification.h"
#include "src/query/ast.h"
#include "src/sat/qbf.h"

namespace currency::reductions {

/// Adds R01, ROr, RAnd, RNot to `spec` (singleton entities: their current
/// instances are rigid).
Status AddGateRelations(core::Specification* spec);

/// Adds the truth-value converter Rca to `spec` (used by the CPP/BCP
/// gadgets to turn a gate output into a joinable constant).  With
/// `one_maps_to_c` false — the Fig. 6 / BCP polarity — Rca = {(0,'c'),
/// (1,'a')} so 'c' flags a FALSIFIED matrix; with true — the Fig. 4 / CPP
/// combined-complexity polarity (the paper's I_ac) — Rca = {(0,'a'),
/// (1,'c')} so 'c' flags a SATISFIED matrix.
Status AddCaRelation(core::Specification* spec, bool one_maps_to_c = false);

/// The part of the CPP (Theorem 5.1, Fig. 4) and BCP (Theorem 5.3,
/// Fig. 6) gadgets over the ∀X∃Y∀Z suffix of the prefix.  Adds to `spec`,
/// in this order:
///   * R_X / R'_X: per X variable, an R_X entity holding both truth
///     values, and in R'_X a "positive" source entity ordered 0 ≺ 1 and a
///     "negative" one ordered 1 ≺ 0, so extensions of ρ_X pin µ_X; a
///     fixed constraint keeps every R_X entity to one variable (the
///     paper's "two possible tuples per entity" device);
///   * R_Y: ∀-side assignments chosen by completions (no copy function);
///   * the gate relations and Rca with polarity `one_maps_to_c`;
///   * R_b / R'_b: the 'c'/'d' flag, with the source ordered d ≺ c;
///   * the empty copy functions ρ_X (RX ⇐ RpX) and ρ_b (Rb ⇐ RpB).
Status AddAssignmentGadget(const std::vector<sat::Var>& xs,
                           const std::vector<sat::Var>& ys,
                           bool one_maps_to_c, core::Specification* spec);

/// Emits CQ atoms that evaluate formulas gate-by-gate; every intermediate
/// value gets a fresh existential variable.
class GateCompiler {
 public:
  explicit GateCompiler(std::vector<query::FormulaPtr>* atoms)
      : atoms_(atoms) {}

  /// Value of `lit` given per-variable value terms (negation via RNot).
  query::Term LiteralValue(sat::Lit lit,
                           const std::vector<query::Term>& var_terms);

  /// Emits gate(out, a, b); returns out.  `gate` is "ROr" or "RAnd".
  query::Term Binary(const std::string& gate, const query::Term& a,
                     const query::Term& b);

  /// Folds terms with a binary gate (requires at least one term).
  query::Term Fold(const std::string& gate,
                   const std::vector<query::Term>& terms);

  /// Evaluates the whole matrix of `qbf` (CNF: AND of ORs; DNF: OR of
  /// ANDs) into one value term.
  query::Term Matrix(const sat::Qbf& qbf,
                     const std::vector<query::Term>& var_terms);

  /// The query over AddAssignmentGadget's relations,
  ///   Q(v) := ∃ …: QX ∧ QY ∧ QZ ∧ Rca(e, ψ, v) ∧ Rb(e', v),
  /// where QX and QY read µ_X and µ_Y from R_X and R_Y, QZ ranges every
  /// z over R01, and ψ is the matrix of `qbf`.  Atoms emitted before
  /// (BCP's QW) stay first in the conjunction; `value_of` carries the
  /// value terms they bound.  Moves the emitted atoms into the query.
  query::Query FlagQuery(const sat::Qbf& qbf, const std::vector<sat::Var>& xs,
                         const std::vector<sat::Var>& ys,
                         const std::vector<sat::Var>& zs,
                         std::vector<query::Term> value_of);

  /// Fresh existential variable (recorded in exist_vars()).
  query::Term Fresh(const std::string& prefix);

  /// Existential variables created so far.
  const std::vector<std::string>& exist_vars() const { return exist_vars_; }

 private:
  std::vector<query::FormulaPtr>* atoms_;
  std::vector<std::string> exist_vars_;
  int counter_ = 0;
};

}  // namespace currency::reductions

#endif  // CURRENCY_SRC_REDUCTIONS_GATES_H_
