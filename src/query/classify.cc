#include "src/query/classify.h"

#include <algorithm>
#include <set>

namespace currency::query {

const char* QueryLanguageToString(QueryLanguage lang) {
  switch (lang) {
    case QueryLanguage::kCq:
      return "CQ";
    case QueryLanguage::kUcq:
      return "UCQ";
    case QueryLanguage::kExistsFoPlus:
      return "∃FO+";
    case QueryLanguage::kFo:
      return "FO";
  }
  return "?";
}

namespace {

bool IsCqShaped(const Formula& f) {
  switch (f.kind()) {
    case Formula::Kind::kAtom:
    case Formula::Kind::kCompare:
      return true;
    case Formula::Kind::kAnd:
      return std::all_of(f.children().begin(), f.children().end(),
                         [](const FormulaPtr& c) { return IsCqShaped(*c); });
    case Formula::Kind::kExists:
      return IsCqShaped(*f.child());
    default:
      return false;
  }
}

bool IsUcqShaped(const Formula& f) {
  if (IsCqShaped(f)) return true;
  if (f.kind() == Formula::Kind::kOr) {
    return std::all_of(f.children().begin(), f.children().end(),
                       [](const FormulaPtr& c) { return IsUcqShaped(*c); });
  }
  return false;
}

bool IsPositiveExistential(const Formula& f) {
  switch (f.kind()) {
    case Formula::Kind::kNot:
    case Formula::Kind::kForall:
      return false;
    case Formula::Kind::kAtom:
    case Formula::Kind::kCompare:
      return true;
    default:
      return std::all_of(
          f.children().begin(), f.children().end(),
          [](const FormulaPtr& c) { return IsPositiveExistential(*c); });
  }
}

/// Strips a (possibly repeated) ∃-prefix, returning the matrix.
const Formula* StripExists(const Formula* f) {
  while (f->kind() == Formula::Kind::kExists) f = f->child().get();
  return f;
}

/// Decomposes an SP matrix into (atom, compares); returns nullptr on shape
/// mismatch.
const Formula* SpAtomOf(const Formula* matrix,
                        std::vector<const Formula*>* compares) {
  const Formula* atom = nullptr;
  std::vector<const Formula*> stack{matrix};
  while (!stack.empty()) {
    const Formula* f = stack.back();
    stack.pop_back();
    switch (f->kind()) {
      case Formula::Kind::kAnd:
        for (const auto& c : f->children()) stack.push_back(c.get());
        break;
      case Formula::Kind::kAtom:
        if (atom != nullptr) return nullptr;  // joins are not SP
        atom = f;
        break;
      case Formula::Kind::kCompare:
        if (f->cmp_op() != CmpOp::kEq) return nullptr;
        compares->push_back(f);
        break;
      default:
        return nullptr;
    }
  }
  return atom;
}

}  // namespace

QueryLanguage Classify(const Query& q) {
  if (IsCqShaped(*q.body)) return QueryLanguage::kCq;
  if (IsUcqShaped(*q.body)) return QueryLanguage::kUcq;
  if (IsPositiveExistential(*q.body)) return QueryLanguage::kExistsFoPlus;
  return QueryLanguage::kFo;
}

bool IsSpQuery(const Query& q) {
  const Formula* matrix = StripExists(q.body.get());
  std::vector<const Formula*> compares;
  const Formula* atom = SpAtomOf(matrix, &compares);
  if (atom == nullptr) return false;
  // Atom arguments: pairwise distinct variables.
  std::set<std::string> atom_vars;
  for (const Term& t : atom->args()) {
    if (!t.is_var()) return false;
    if (!atom_vars.insert(t.var).second) return false;
  }
  // Head variables come from the atom.
  for (const std::string& h : q.head) {
    if (!atom_vars.count(h)) return false;
  }
  // Equality atoms only reference atom variables and constants.
  for (const Formula* c : compares) {
    for (const Term* t : {&c->lhs(), &c->rhs()}) {
      if (t->is_var() && !atom_vars.count(t->var)) return false;
    }
  }
  return true;
}

}  // namespace currency::query
