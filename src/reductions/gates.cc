#include "src/reductions/gates.h"

#include <array>

namespace currency::reductions {

using query::Formula;
using query::Term;

namespace {

std::string VarName(sat::Var v) { return "z" + std::to_string(v); }

/// `rel` with one entity per variable of `vars`, named `prefix` + var,
/// holding the variable's two truth values.
Status AddTruthValueRows(const std::string& prefix,
                         const std::vector<sat::Var>& vars, Relation* rel) {
  for (sat::Var v : vars) {
    Value eid(prefix + std::to_string(v));
    RETURN_IF_ERROR(rel->AppendValues({eid, Value(VarName(v)), Value(0)})
                        .status());
    RETURN_IF_ERROR(rel->AppendValues({eid, Value(VarName(v)), Value(1)})
                        .status());
  }
  return Status::OK();
}

/// An empty copy function `target` ⇐ `source` over `attrs`.
Status AddEmptyCopy(const std::string& target, const std::string& source,
                    const std::vector<std::string>& attrs,
                    core::Specification* spec) {
  copy::CopySignature sig;
  sig.target_relation = target;
  sig.target_attrs = attrs;
  sig.source_relation = source;
  sig.source_attrs = attrs;
  return spec->AddCopyFunction(copy::CopyFunction(sig));
}

}  // namespace

Status AddGateRelations(core::Specification* spec) {
  int eid = 0;
  auto fresh = [&]() { return Value("g" + std::to_string(eid++)); };
  ASSIGN_OR_RETURN(Schema s01, Schema::Make("R01", {"A"}));
  Relation r01(s01);
  RETURN_IF_ERROR(r01.AppendValues({fresh(), Value(1)}).status());
  RETURN_IF_ERROR(r01.AppendValues({fresh(), Value(0)}).status());
  RETURN_IF_ERROR(spec->AddInstance(core::TemporalInstance(std::move(r01))));

  ASSIGN_OR_RETURN(Schema sor, Schema::Make("ROr", {"A", "A1", "A2"}));
  Relation ror(sor);
  for (int a1 = 0; a1 < 2; ++a1) {
    for (int a2 = 0; a2 < 2; ++a2) {
      RETURN_IF_ERROR(
          ror.AppendValues({fresh(), Value(a1 | a2), Value(a1), Value(a2)})
              .status());
    }
  }
  RETURN_IF_ERROR(spec->AddInstance(core::TemporalInstance(std::move(ror))));

  ASSIGN_OR_RETURN(Schema sand, Schema::Make("RAnd", {"A", "A1", "A2"}));
  Relation rand(sand);
  for (int a1 = 0; a1 < 2; ++a1) {
    for (int a2 = 0; a2 < 2; ++a2) {
      RETURN_IF_ERROR(
          rand.AppendValues({fresh(), Value(a1 & a2), Value(a1), Value(a2)})
              .status());
    }
  }
  RETURN_IF_ERROR(spec->AddInstance(core::TemporalInstance(std::move(rand))));

  ASSIGN_OR_RETURN(Schema snot, Schema::Make("RNot", {"A", "NA"}));
  Relation rnot(snot);
  RETURN_IF_ERROR(rnot.AppendValues({fresh(), Value(0), Value(1)}).status());
  RETURN_IF_ERROR(rnot.AppendValues({fresh(), Value(1), Value(0)}).status());
  RETURN_IF_ERROR(spec->AddInstance(core::TemporalInstance(std::move(rnot))));
  return Status::OK();
}

Status AddCaRelation(core::Specification* spec, bool one_maps_to_c) {
  ASSIGN_OR_RETURN(Schema sca, Schema::Make("Rca", {"A1", "A2"}));
  Relation rca(sca);
  RETURN_IF_ERROR(
      rca.AppendValues({Value("ca0"), Value(0),
                        Value(one_maps_to_c ? "a" : "c")})
          .status());
  RETURN_IF_ERROR(
      rca.AppendValues({Value("ca1"), Value(1),
                        Value(one_maps_to_c ? "c" : "a")})
          .status());
  return spec->AddInstance(core::TemporalInstance(std::move(rca)));
}

Status AddAssignmentGadget(const std::vector<sat::Var>& xs,
                           const std::vector<sat::Var>& ys,
                           bool one_maps_to_c, core::Specification* spec) {
  ASSIGN_OR_RETURN(Schema sx, Schema::Make("RX", {"X", "V"}));
  Relation rx(sx);
  RETURN_IF_ERROR(AddTruthValueRows("ex", xs, &rx));
  RETURN_IF_ERROR(spec->AddInstance(core::TemporalInstance(std::move(rx))));
  ASSIGN_OR_RETURN(Schema spx, Schema::Make("RpX", {"X", "V"}));
  Relation rpx(spx);
  std::vector<std::array<TupleId, 4>> x_rows;  // p0, p1, n0, n1 per X var
  for (sat::Var v : xs) {
    std::array<TupleId, 4> rows;
    Value pos("px" + std::to_string(v));
    Value neg("nx" + std::to_string(v));
    ASSIGN_OR_RETURN(rows[0],
                     rpx.AppendValues({pos, Value(VarName(v)), Value(0)}));
    ASSIGN_OR_RETURN(rows[1],
                     rpx.AppendValues({pos, Value(VarName(v)), Value(1)}));
    ASSIGN_OR_RETURN(rows[2],
                     rpx.AppendValues({neg, Value(VarName(v)), Value(0)}));
    ASSIGN_OR_RETURN(rows[3],
                     rpx.AppendValues({neg, Value(VarName(v)), Value(1)}));
    x_rows.push_back(rows);
  }
  core::TemporalInstance rpx_inst(std::move(rpx));
  ASSIGN_OR_RETURN(AttrIndex v_attr, spx.IndexOf("V"));
  for (const auto& rows : x_rows) {
    RETURN_IF_ERROR(rpx_inst.AddOrder(v_attr, rows[0], rows[1]));  // 0 ≺ 1
    RETURN_IF_ERROR(rpx_inst.AddOrder(v_attr, rows[3], rows[2]));  // 1 ≺ 0
  }
  RETURN_IF_ERROR(spec->AddInstance(std::move(rpx_inst)));
  RETURN_IF_ERROR(spec->AddConstraintText(
      "FORALL t1, t2 IN RX: t1.X != t2.X -> t1 PREC[X] t1"));

  ASSIGN_OR_RETURN(Schema sy, Schema::Make("RY", {"Y", "V"}));
  Relation ry(sy);
  RETURN_IF_ERROR(AddTruthValueRows("ey", ys, &ry));
  RETURN_IF_ERROR(spec->AddInstance(core::TemporalInstance(std::move(ry))));

  RETURN_IF_ERROR(AddGateRelations(spec));
  RETURN_IF_ERROR(AddCaRelation(spec, one_maps_to_c));
  ASSIGN_OR_RETURN(Schema sb, Schema::Make("Rb", {"C"}));
  Relation rb(sb);
  RETURN_IF_ERROR(rb.AppendValues({Value("b"), Value("c")}).status());
  RETURN_IF_ERROR(rb.AppendValues({Value("b"), Value("d")}).status());
  RETURN_IF_ERROR(spec->AddInstance(core::TemporalInstance(std::move(rb))));
  ASSIGN_OR_RETURN(Schema spb, Schema::Make("RpB", {"C"}));
  Relation rpb(spb);
  ASSIGN_OR_RETURN(TupleId u1, rpb.AppendValues({Value("b"), Value("c")}));
  ASSIGN_OR_RETURN(TupleId u2, rpb.AppendValues({Value("b"), Value("d")}));
  core::TemporalInstance rpb_inst(std::move(rpb));
  ASSIGN_OR_RETURN(AttrIndex c_attr, spb.IndexOf("C"));
  RETURN_IF_ERROR(rpb_inst.AddOrder(c_attr, u2, u1));  // d ≺ c
  RETURN_IF_ERROR(spec->AddInstance(std::move(rpb_inst)));

  RETURN_IF_ERROR(AddEmptyCopy("RX", "RpX", {"X", "V"}, spec));
  return AddEmptyCopy("Rb", "RpB", {"C"}, spec);
}

Term GateCompiler::LiteralValue(sat::Lit lit,
                                const std::vector<Term>& var_terms) {
  Term in = var_terms[sat::LitVar(lit)];
  if (!sat::LitIsNeg(lit)) return in;
  Term out = Fresh("neg");
  atoms_->push_back(Formula::Atom("RNot", {Fresh("e"), in, out}));
  return out;
}

Term GateCompiler::Binary(const std::string& gate, const Term& a,
                          const Term& b) {
  Term out = Fresh("val");
  atoms_->push_back(Formula::Atom(gate, {Fresh("e"), out, a, b}));
  return out;
}

Term GateCompiler::Fold(const std::string& gate,
                        const std::vector<Term>& terms) {
  Term acc = terms[0];
  for (size_t i = 1; i < terms.size(); ++i) acc = Binary(gate, acc, terms[i]);
  return acc;
}

Term GateCompiler::Matrix(const sat::Qbf& qbf,
                          const std::vector<Term>& var_terms) {
  const std::string inner = qbf.matrix_is_cnf ? "ROr" : "RAnd";
  const std::string outer = qbf.matrix_is_cnf ? "RAnd" : "ROr";
  std::vector<Term> term_vals;
  for (const auto& term : qbf.terms) {
    std::vector<Term> lit_vals;
    for (sat::Lit lit : term) {
      lit_vals.push_back(LiteralValue(lit, var_terms));
    }
    term_vals.push_back(Fold(inner, lit_vals));
  }
  return Fold(outer, term_vals);
}

query::Query GateCompiler::FlagQuery(const sat::Qbf& qbf,
                                     const std::vector<sat::Var>& xs,
                                     const std::vector<sat::Var>& ys,
                                     const std::vector<sat::Var>& zs,
                                     std::vector<Term> value_of) {
  auto read_assignment = [&](const char* relation, const char* prefix,
                             const char* eid_prefix, sat::Var v) {
    Term t = Fresh(prefix);
    value_of[v] = t;
    atoms_->push_back(Formula::Atom(
        relation, {Term::Const(Value(eid_prefix + std::to_string(v))),
                   Term::Const(Value(VarName(v))), t}));
  };
  for (sat::Var v : xs) read_assignment("RX", "xv", "ex", v);
  for (sat::Var v : ys) read_assignment("RY", "yv", "ey", v);
  for (sat::Var v : zs) {
    Term t = Fresh("zv");
    value_of[v] = t;
    atoms_->push_back(Formula::Atom("R01", {Fresh("e"), t}));
  }
  Term psi = Matrix(qbf, value_of);
  Term flag = Fresh("flag");
  atoms_->push_back(Formula::Atom("Rca", {Fresh("e"), psi, flag}));
  atoms_->push_back(Formula::Atom("Rb", {Fresh("e"), flag}));

  query::Query q;
  q.name = "Q";
  q.head = {flag.var};
  std::vector<std::string> bound;
  for (const std::string& v : exist_vars_) {
    if (v != flag.var) bound.push_back(v);
  }
  q.body = Formula::Exists(std::move(bound), Formula::And(std::move(*atoms_)));
  return q;
}

Term GateCompiler::Fresh(const std::string& prefix) {
  std::string name = prefix + "_" + std::to_string(counter_++);
  exist_vars_.push_back(name);
  return Term::Var(name);
}

}  // namespace currency::reductions
