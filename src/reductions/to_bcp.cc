#include "src/reductions/to_bcp.h"

#include <string>

#include "src/reductions/gates.h"

namespace currency::reductions {

namespace {

using query::Formula;
using query::FormulaPtr;
using query::Term;

}  // namespace

Result<BcpGadget> SigmaP4ToBcp(const sat::Qbf& qbf) {
  RETURN_IF_ERROR(
      ValidateShape(qbf, {true, false, true, false}, /*matrix_is_cnf=*/false));
  const std::vector<sat::Var>& ws = qbf.prefix[0].vars;
  const std::vector<sat::Var>& xs = qbf.prefix[1].vars;
  const std::vector<sat::Var>& ys = qbf.prefix[2].vars;
  const std::vector<sat::Var>& zs = qbf.prefix[3].vars;
  const int p = static_cast<int>(ws.size());

  BcpGadget gadget;
  gadget.k = p;

  // R_W / R'_W: the budgeted assignment gadget.
  ASSIGN_OR_RETURN(Schema sw, Schema::Make("RW", {"W"}));
  Relation rw(sw);
  for (sat::Var v : ws) {
    RETURN_IF_ERROR(
        rw.AppendValues({Value("w" + std::to_string(v)), Value("bot")})
            .status());
  }
  RETURN_IF_ERROR(
      gadget.spec.AddInstance(core::TemporalInstance(std::move(rw))));
  ASSIGN_OR_RETURN(Schema spw, Schema::Make("RpW", {"W"}));
  Relation rpw(spw);
  for (sat::Var v : ws) {
    Value eid("sw" + std::to_string(v));
    RETURN_IF_ERROR(rpw.AppendValues({eid, Value(1)}).status());
    RETURN_IF_ERROR(rpw.AppendValues({eid, Value(0)}).status());
  }
  RETURN_IF_ERROR(
      gadget.spec.AddInstance(core::TemporalInstance(std::move(rpw))));
  // ϕ1: an R_W entity never holds three pairwise-distinct values
  // (⊥ plus both Booleans), so at most one Boolean is ever imported.
  RETURN_IF_ERROR(gadget.spec.AddConstraintText(
      "FORALL t1, t2, t3 IN RW: t1.W != t2.W AND t1.W != t3.W AND "
      "t2.W != t3.W -> t1 PREC[W] t1"));
  // ϕ2: imported Booleans are more current than ⊥.
  RETURN_IF_ERROR(gadget.spec.AddConstraintText(
      "FORALL t1, t2 IN RW: t1.W = 'bot' AND t2.W != 'bot' "
      "-> t1 PREC[W] t2"));

  // ρ_W (cost 1) first, so it is copy edge 0; then R_X / R'_X (the
  // adversary's assignment gadget, as in Fig. 5), R_Y, the gates, the
  // 0↦'c'/1↦'a' converter and the 'c'/'d' flag pair, with ρ_X and ρ_b
  // (cost k+1: priced out of the budget, the paper's (k+1)-bit-constant
  // device).
  copy::CopySignature sigw;
  sigw.target_relation = "RW";
  sigw.target_attrs = {"W"};
  sigw.source_relation = "RpW";
  sigw.source_attrs = {"W"};
  RETURN_IF_ERROR(gadget.spec.AddCopyFunction(copy::CopyFunction(sigw)));
  RETURN_IF_ERROR(AddAssignmentGadget(xs, ys, /*one_maps_to_c=*/false,
                                      &gadget.spec));

  // Query: Q(v) := ∃ ... QW ∧ QX ∧ QY ∧ QZ ∧ [v = ca(ψ)] ∧ Rb(eb, v):
  // non-empty iff ψ is falsifiable at the current (µW, µX, µY) and 'c' is
  // current in Rb.
  std::vector<FormulaPtr> atoms;
  GateCompiler gates(&atoms);
  std::vector<Term> value_of(qbf.num_vars);
  for (sat::Var v : ws) {
    Term t = gates.Fresh("wv");
    value_of[v] = t;
    atoms.push_back(Formula::Atom(
        "RW", {Term::Const(Value("w" + std::to_string(v))), t}));
  }
  gadget.query = gates.FlagQuery(qbf, xs, ys, zs, std::move(value_of));

  // Options: duplicate imports excluded (the paper's fixed constraints),
  // with ρ_X / ρ_b atoms priced out of the BCP budget.
  gadget.options.skip_duplicate_imports = true;
  gadget.options.max_atoms = 64;
  const int expensive = gadget.k + 1;
  gadget.options.atom_cost = [expensive](const core::ExtensionAtom& atom) {
    return atom.copy_edge == 0 ? 1 : expensive;
  };
  return gadget;
}

}  // namespace currency::reductions
