#include "src/reductions/to_cpp.h"

#include <array>
#include <string>

#include "src/query/parser.h"
#include "src/reductions/gates.h"

namespace currency::reductions {

namespace {

using query::FormulaPtr;
using query::Term;

}  // namespace

Result<CppGadget> PiP2ToCppData(const sat::Qbf& qbf) {
  RETURN_IF_ERROR(ValidateShape(qbf, {false, true}, /*matrix_is_cnf=*/true));
  const std::vector<sat::Var>& xs = qbf.prefix[0].vars;
  const std::vector<sat::Var>& ys = qbf.prefix[1].vars;
  std::vector<int> x_index(qbf.num_vars, -1);
  for (size_t i = 0; i < xs.size(); ++i) x_index[xs[i]] = static_cast<int>(i);

  CppGadget gadget;
  auto var_name = [](sat::Var v) { return "z" + std::to_string(v); };

  // R_XY: one entity per variable, both truth values.
  ASSIGN_OR_RETURN(Schema sxy, Schema::Make("RXY", {"X", "V"}));
  Relation rxy(sxy);
  for (sat::Var v : xs) {
    Value eid("ex" + std::to_string(v));
    RETURN_IF_ERROR(
        rxy.AppendValues({eid, Value(var_name(v)), Value(0)}).status());
    RETURN_IF_ERROR(
        rxy.AppendValues({eid, Value(var_name(v)), Value(1)}).status());
  }
  for (sat::Var v : ys) {
    Value eid("ey" + std::to_string(v));
    RETURN_IF_ERROR(
        rxy.AppendValues({eid, Value(var_name(v)), Value(0)}).status());
    RETURN_IF_ERROR(
        rxy.AppendValues({eid, Value(var_name(v)), Value(1)}).status());
  }
  RETURN_IF_ERROR(
      gadget.spec.AddInstance(core::TemporalInstance(std::move(rxy))));

  // R'_X: per X variable, a "positive" source entity ordered 0 ≺ 1 and a
  // "negative" one ordered 1 ≺ 0.
  ASSIGN_OR_RETURN(Schema spx, Schema::Make("RpX", {"X", "V"}));
  Relation rpx(spx);
  std::vector<std::array<TupleId, 4>> x_rows;  // p0, p1, n0, n1 per X var
  for (sat::Var v : xs) {
    std::array<TupleId, 4> rows;
    Value pos("p" + std::to_string(v));
    Value neg("n" + std::to_string(v));
    ASSIGN_OR_RETURN(
        rows[0], rpx.AppendValues({pos, Value(var_name(v)), Value(0)}));
    ASSIGN_OR_RETURN(
        rows[1], rpx.AppendValues({pos, Value(var_name(v)), Value(1)}));
    ASSIGN_OR_RETURN(
        rows[2], rpx.AppendValues({neg, Value(var_name(v)), Value(0)}));
    ASSIGN_OR_RETURN(
        rows[3], rpx.AppendValues({neg, Value(var_name(v)), Value(1)}));
    x_rows.push_back(rows);
  }
  core::TemporalInstance rpx_inst(std::move(rpx));
  ASSIGN_OR_RETURN(AttrIndex v_attr, spx.IndexOf("V"));
  for (const auto& rows : x_rows) {
    RETURN_IF_ERROR(rpx_inst.AddOrder(v_attr, rows[0], rows[1]));  // 0 ≺ 1
    RETURN_IF_ERROR(rpx_inst.AddOrder(v_attr, rows[3], rows[2]));  // 1 ≺ 0
  }
  RETURN_IF_ERROR(gadget.spec.AddInstance(std::move(rpx_inst)));

  // R_C: the falsifying-assignment rows of each (3-padded) clause.
  ASSIGN_OR_RETURN(Schema sc,
                   Schema::Make("RC", {"CID", "POS", "Z", "V", "C"}));
  Relation rc(sc);
  int uid = 0;
  for (size_t j = 0; j < qbf.terms.size(); ++j) {
    std::vector<sat::Lit> clause = qbf.terms[j];
    while (clause.size() < 3) clause.push_back(clause.back());
    for (size_t i = 0; i < 3; ++i) {
      sat::Lit lit = clause[i];
      RETURN_IF_ERROR(
          rc.AppendValues({Value("c" + std::to_string(uid++)),
                           Value(static_cast<int64_t>(j)),
                           Value(static_cast<int64_t>(i + 1)),
                           Value(var_name(sat::LitVar(lit))),
                           Value(sat::LitIsNeg(lit) ? 1 : 0), Value("c")})
              .status());
    }
  }
  RETURN_IF_ERROR(
      gadget.spec.AddInstance(core::TemporalInstance(std::move(rc))));

  // R_b and R'_b: the 'c'/'d' flag, with the source ordered d ≺ c.
  ASSIGN_OR_RETURN(Schema sb, Schema::Make("Rb", {"C"}));
  Relation rb(sb);
  RETURN_IF_ERROR(rb.AppendValues({Value("b"), Value("c")}).status());
  RETURN_IF_ERROR(rb.AppendValues({Value("b"), Value("d")}).status());
  RETURN_IF_ERROR(
      gadget.spec.AddInstance(core::TemporalInstance(std::move(rb))));
  ASSIGN_OR_RETURN(Schema spb, Schema::Make("RpB", {"C"}));
  Relation rpb(spb);
  ASSIGN_OR_RETURN(TupleId u1, rpb.AppendValues({Value("b"), Value("c")}));
  ASSIGN_OR_RETURN(TupleId u2, rpb.AppendValues({Value("b"), Value("d")}));
  core::TemporalInstance rpb_inst(std::move(rpb));
  ASSIGN_OR_RETURN(AttrIndex c_attr, spb.IndexOf("C"));
  RETURN_IF_ERROR(rpb_inst.AddOrder(c_attr, u2, u1));  // d ≺ c
  RETURN_IF_ERROR(gadget.spec.AddInstance(std::move(rpb_inst)));

  // Fixed constraint: an R_XY entity holds rows of a single variable
  // (the paper's "two possible tuples per entity" device).
  RETURN_IF_ERROR(gadget.spec.AddConstraintText(
      "FORALL t1, t2 IN RXY: t1.X != t2.X -> t1 PREC[X] t1"));

  // Empty copy functions ρ1, ρ2.
  copy::CopySignature sig1;
  sig1.target_relation = "RXY";
  sig1.target_attrs = {"X", "V"};
  sig1.source_relation = "RpX";
  sig1.source_attrs = {"X", "V"};
  RETURN_IF_ERROR(gadget.spec.AddCopyFunction(copy::CopyFunction(sig1)));
  copy::CopySignature sig2;
  sig2.target_relation = "Rb";
  sig2.target_attrs = {"C"};
  sig2.source_relation = "RpB";
  sig2.source_attrs = {"C"};
  RETURN_IF_ERROR(gadget.spec.AddCopyFunction(copy::CopyFunction(sig2)));

  // The FIXED Boolean query: some clause falsified, with 'c' current.
  auto parsed = query::ParseQuery(
      "Q() := EXISTS j, z1, z2, z3, v1, v2, v3, e1, e2, e3, f1, f2, f3, "
      "w, eb: "
      "RXY(f1, z1, v1) AND RXY(f2, z2, v2) AND RXY(f3, z3, v3) AND "
      "RC(e1, j, 1, z1, v1, w) AND RC(e2, j, 2, z2, v2, w) AND "
      "RC(e3, j, 3, z3, v3, w) AND Rb(eb, w)");
  RETURN_IF_ERROR(parsed.status());
  gadget.query = std::move(parsed).value();

  gadget.options.skip_duplicate_imports = true;
  gadget.options.max_atoms =
      static_cast<int>(8 * xs.size() + (xs.size() + ys.size()) * 4 + 8);
  return gadget;
}

Result<CppGadget> PiP3ToCpp(const sat::Qbf& qbf) {
  RETURN_IF_ERROR(
      ValidateShape(qbf, {true, false, true}, /*matrix_is_cnf=*/true));
  const std::vector<sat::Var>& xs = qbf.prefix[0].vars;
  const std::vector<sat::Var>& ys = qbf.prefix[1].vars;
  const std::vector<sat::Var>& zs = qbf.prefix[2].vars;

  // The Fig. 4 assignment gadget — extensions of ρ1 (RX ⇐ RpX) pin µ_X,
  // completions choose µ_Y — with the I_ac converter (1 ↦ 'c') and the
  // 'c'/'d' flag copied by ρ2 (Rb ⇐ RpB).
  CppGadget gadget;
  RETURN_IF_ERROR(
      AddAssignmentGadget(xs, ys, /*one_maps_to_c=*/true, &gadget.spec));

  // Query: Q(v) := ∃ ... QX ∧ QY ∧ QZ ∧ [v = ac(ψ)] ∧ Rb(eb, v) — the
  // answer is {('c')} iff ψ is satisfiable at the current (µX, µY) and
  // 'c' is current in Rb.
  std::vector<FormulaPtr> atoms;
  GateCompiler gates(&atoms);
  gadget.query =
      gates.FlagQuery(qbf, xs, ys, zs, std::vector<Term>(qbf.num_vars));

  gadget.options.skip_duplicate_imports = true;
  gadget.options.max_atoms = 64;
  return gadget;
}

}  // namespace currency::reductions
