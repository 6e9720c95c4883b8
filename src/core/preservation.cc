#include "src/core/preservation.h"

#include "src/core/consistency.h"

namespace currency::core {

namespace {

/// Certain answers plus a consistency flag (inconsistent specifications
/// have no finite answer set).
struct CertainAnswersOrInconsistent {
  bool consistent = false;
  std::set<Tuple> answers;
};

Result<CertainAnswersOrInconsistent> CertainOrInconsistent(
    const Specification& spec, const query::Query& q) {
  CertainAnswersOrInconsistent out;
  auto answers = CertainCurrentAnswers(spec, q);
  if (!answers.ok()) {
    if (answers.status().code() == StatusCode::kInconsistent) {
      out.consistent = false;
      return out;
    }
    return answers.status();
  }
  out.consistent = true;
  out.answers = std::move(answers).value();
  return out;
}

}  // namespace

Result<std::vector<ExtensionAtom>> EnumerateExtensionAtoms(
    const Specification& spec, bool skip_duplicates) {
  std::vector<ExtensionAtom> atoms;
  for (size_t e = 0; e < spec.copy_edges().size(); ++e) {
    const CopyEdge& edge = spec.copy_edges()[e];
    const TemporalInstance& target = spec.instance(edge.target_instance);
    const TemporalInstance& source = spec.instance(edge.source_instance);
    // Section 4: only signatures covering all target data attributes are
    // extendable.
    if (!edge.fn.CoversAllTargetAttributes(target.schema())) continue;
    ASSIGN_OR_RETURN(auto attrs, edge.fn.ResolveAttrs(target.schema(),
                                                      source.schema()));
    // Kind (a): map existing unmapped target tuples to value-compatible
    // source tuples.
    for (TupleId t = 0; t < target.relation().size(); ++t) {
      if (edge.fn.SourceOf(t) >= 0) continue;
      for (TupleId s = 0; s < source.relation().size(); ++s) {
        bool compatible = true;
        for (const auto& [a, b] : attrs) {
          if (!(target.relation().tuple(t).at(a) ==
                source.relation().tuple(s).at(b))) {
            compatible = false;
            break;
          }
        }
        if (!compatible) continue;
        ExtensionAtom atom;
        atom.copy_edge = static_cast<int>(e);
        atom.maps_existing = true;
        atom.target_tuple = t;
        atom.source_tuple = s;
        atoms.push_back(std::move(atom));
      }
    }
    // Kind (b): import new tuples for existing target entities.
    std::vector<Value> target_entities = target.relation().Entities();
    for (TupleId s = 0; s < source.relation().size(); ++s) {
      for (const Value& eid : target_entities) {
        // Deduplicate: skip when this edge already imports s into eid.
        bool already = false;
        for (const auto& [t, src] : edge.fn.mapping()) {
          if (src == s && target.relation().tuple(t).eid() == eid) {
            already = true;
            break;
          }
        }
        if (already) continue;
        if (skip_duplicates) {
          // Would the imported tuple duplicate an existing one by value?
          bool duplicate = false;
          for (TupleId t = 0; t < target.relation().size(); ++t) {
            if (!(target.relation().tuple(t).eid() == eid)) continue;
            bool same = true;
            for (const auto& [a, b] : attrs) {
              if (!(target.relation().tuple(t).at(a) ==
                    source.relation().tuple(s).at(b))) {
                same = false;
                break;
              }
            }
            if (same) {
              duplicate = true;
              break;
            }
          }
          if (duplicate) continue;
        }
        ExtensionAtom atom;
        atom.copy_edge = static_cast<int>(e);
        atom.maps_existing = false;
        atom.source_tuple = s;
        atom.target_eid = eid;
        atoms.push_back(std::move(atom));
      }
    }
  }
  return atoms;
}

Result<Specification> ApplyExtension(const Specification& spec,
                                     const std::vector<ExtensionAtom>& atoms) {
  Specification extended = spec;  // deep copy (value semantics)
  for (const ExtensionAtom& atom : atoms) {
    if (atom.copy_edge < 0 ||
        atom.copy_edge >= static_cast<int>(extended.copy_edges().size())) {
      return Status::InvalidArgument("extension atom names no copy edge");
    }
    if (atom.maps_existing) {
      CopyEdge* edge = extended.mutable_copy_edge(atom.copy_edge);
      const TemporalInstance& target =
          extended.instance(edge->target_instance);
      const TemporalInstance& source =
          extended.instance(edge->source_instance);
      ASSIGN_OR_RETURN(auto attrs, edge->fn.ResolveAttrs(target.schema(),
                                                         source.schema()));
      if (atom.target_tuple < 0 ||
          atom.target_tuple >= target.relation().size() ||
          atom.source_tuple < 0 ||
          atom.source_tuple >= source.relation().size()) {
        return Status::InvalidArgument("extension atom tuple out of range");
      }
      for (const auto& [a, b] : attrs) {
        if (!(target.relation().tuple(atom.target_tuple).at(a) ==
              source.relation().tuple(atom.source_tuple).at(b))) {
          return Status::FailedPrecondition(
              "kind-(a) extension atom violates the copying condition");
        }
      }
      RETURN_IF_ERROR(edge->fn.Map(atom.target_tuple, atom.source_tuple));
    } else {
      RETURN_IF_ERROR(extended
                          .AppendCopiedTuple(atom.copy_edge, atom.source_tuple,
                                             atom.target_eid)
                          .status());
    }
  }
  return extended;
}

Result<bool> IsCurrencyPreserving(const Specification& spec,
                                  const query::Query& q,
                                  const PreservationOptions& options) {
  ASSIGN_OR_RETURN(CertainAnswersOrInconsistent base,
                   CertainOrInconsistent(spec, q));
  if (!base.consistent) return false;  // definition condition (a)

  ASSIGN_OR_RETURN(std::vector<ExtensionAtom> atoms,
                   EnumerateExtensionAtoms(spec, options.skip_duplicate_imports));
  if (static_cast<int>(atoms.size()) > options.max_atoms) {
    return Status::ResourceExhausted(
        "extension space has " + std::to_string(atoms.size()) +
        " atoms; raise PreservationOptions::max_atoms to enumerate the "
        "subset lattice");
  }
  // DFS over the atom lattice.  Inconsistency is monotone under adding
  // imports, so an inconsistent node prunes its whole subtree.
  bool preserving = true;
  std::function<Result<bool>(const Specification&, size_t)> dfs =
      [&](const Specification& current, size_t next) -> Result<bool> {
    // `current` is consistent here (checked by the caller before recursing).
    for (size_t i = next; i < atoms.size() && preserving; ++i) {
      auto child = ApplyExtension(current, {atoms[i]});
      if (!child.ok()) {
        if (child.status().code() == StatusCode::kFailedPrecondition) {
          continue;  // conflicts with chosen atoms: no such extension
        }
        return child.status();
      }
      ASSIGN_OR_RETURN(CertainAnswersOrInconsistent ext,
                       CertainOrInconsistent(*child, q));
      if (!ext.consistent) continue;  // prune: supersets stay inconsistent
      if (ext.answers != base.answers) {
        preserving = false;
        return false;
      }
      ASSIGN_OR_RETURN(bool sub, dfs(*child, i + 1));
      (void)sub;
    }
    return preserving;
  };
  RETURN_IF_ERROR(dfs(spec, 0).status());
  return preserving;
}

Result<bool> CanExtendToCurrencyPreserving(const Specification& spec,
                                           const query::Query& q) {
  (void)q;  // Proposition 5.2: the answer is independent of the query.
  ASSIGN_OR_RETURN(CpsOutcome cps, DecideConsistency(spec));
  return cps.consistent;
}

Result<std::vector<ExtensionAtom>> MaximalConsistentExtension(
    const Specification& spec, const PreservationOptions& options) {
  (void)options;
  ASSIGN_OR_RETURN(CpsOutcome cps, DecideConsistency(spec));
  if (!cps.consistent) {
    return Status::Inconsistent(
        "an inconsistent specification has no currency-preserving "
        "extension");
  }
  ASSIGN_OR_RETURN(std::vector<ExtensionAtom> atoms,
                   EnumerateExtensionAtoms(spec, options.skip_duplicate_imports));
  // Greedy pass (the constructive argument of Proposition 5.2): keep an
  // atom iff the specification stays consistent.  Consistency is monotone
  // under removing imports, so the greedy result is maximal.
  std::vector<ExtensionAtom> kept;
  Specification current = spec;
  for (const ExtensionAtom& atom : atoms) {
    auto candidate = ApplyExtension(current, {atom});
    if (!candidate.ok()) {
      if (candidate.status().code() == StatusCode::kFailedPrecondition) {
        continue;  // conflicts with a kept atom
      }
      return candidate.status();
    }
    ASSIGN_OR_RETURN(CpsOutcome check, DecideConsistency(*candidate));
    if (check.consistent) {
      kept.push_back(atom);
      current = std::move(candidate).value();
    }
  }
  return kept;
}

Result<bool> HasBoundedCurrencyPreservingExtension(
    const Specification& spec, const query::Query& q, int k,
    const PreservationOptions& options) {
  if (k < 0) return Status::InvalidArgument("k must be non-negative");
  ASSIGN_OR_RETURN(CpsOutcome cps, DecideConsistency(spec));
  if (!cps.consistent) return false;

  ASSIGN_OR_RETURN(std::vector<ExtensionAtom> atoms,
                   EnumerateExtensionAtoms(spec, options.skip_duplicate_imports));
  if (static_cast<int>(atoms.size()) > options.max_atoms) {
    return Status::ResourceExhausted(
        "extension space has " + std::to_string(atoms.size()) +
        " atoms; raise PreservationOptions::max_atoms");
  }
  auto cost_of = [&](const ExtensionAtom& atom) {
    return options.atom_cost ? options.atom_cost(atom) : atom.cost;
  };
  // DFS over candidate extensions of total cost ≤ k, with consistency
  // pruning; each consistent non-empty candidate is tested with CPP.
  bool found = false;
  std::function<Result<bool>(const Specification&, size_t, int, bool)> dfs =
      [&](const Specification& current, size_t next, int budget,
          bool any) -> Result<bool> {
    if (any) {
      ASSIGN_OR_RETURN(bool preserving,
                       IsCurrencyPreserving(current, q, options));
      if (preserving) {
        found = true;
        return true;
      }
    }
    for (size_t i = next; i < atoms.size() && !found; ++i) {
      int c = cost_of(atoms[i]);
      if (c > budget) continue;
      auto child = ApplyExtension(current, {atoms[i]});
      if (!child.ok()) {
        if (child.status().code() == StatusCode::kFailedPrecondition) {
          continue;
        }
        return child.status();
      }
      ASSIGN_OR_RETURN(CpsOutcome check, DecideConsistency(*child));
      if (!check.consistent) continue;  // prune: supersets inconsistent
      ASSIGN_OR_RETURN(bool sub, dfs(*child, i + 1, budget - c, true));
      (void)sub;
    }
    return found;
  };
  RETURN_IF_ERROR(dfs(spec, 0, k, false).status());
  return found;
}

}  // namespace currency::core
