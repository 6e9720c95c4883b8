#include "src/core/ccqa.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "src/core/decompose.h"
#include "src/core/sp_ccqa.h"
#include "src/exec/thread_pool.h"
#include "src/sat/model_enumerator.h"

namespace currency::core {

namespace {

/// Builds the query-visible database view from decoded current instances.
query::Database RestrictTo(const Specification& spec,
                           const std::vector<int>& instances,
                           const std::vector<Relation>& lst) {
  query::Database db;
  for (int i : instances) db[spec.instance(i).name()] = &lst[i];
  return db;
}

/// Blocking clause from a witness derivation: "some cell a derivation row
/// read takes a different current value".  Falls back to blocking the full
/// current-value profile of the query's relations when no support is
/// available (general FO bodies).
Result<std::vector<sat::Lit>> BlockingClause(
    const Encoder& encoder, const Specification& spec,
    const std::vector<int>& instances, const std::vector<Relation>& lst,
    const std::vector<query::SupportRow>* support) {
  std::vector<sat::Lit> clause;
  auto add_row = [&](int inst, const Relation& rel, int row) -> Status {
    const Tuple& t = rel.tuple(row);
    for (AttrIndex a = 1; a < rel.schema().arity(); ++a) {
      ASSIGN_OR_RETURN(sat::Lit lit,
                       encoder.CellValueLit(inst, a, t.eid(), t.at(a)));
      clause.push_back(sat::Negate(lit));
    }
    return Status::OK();
  };
  if (support != nullptr) {
    for (const query::SupportRow& row : *support) {
      ASSIGN_OR_RETURN(int inst, spec.InstanceIndex(row.relation));
      RETURN_IF_ERROR(add_row(inst, lst[inst], row.row));
    }
  } else {
    for (int inst : instances) {
      const Relation& rel = lst[inst];
      for (int row = 0; row < rel.size(); ++row) {
        RETURN_IF_ERROR(add_row(inst, rel, row));
      }
    }
  }
  // Deduplicate literals (rows may overlap).
  std::sort(clause.begin(), clause.end());
  clause.erase(std::unique(clause.begin(), clause.end()), clause.end());
  return clause;
}

/// Conflict-driven certain-membership loop: searches for a consistent
/// completion whose current instance does NOT answer `t`, blocking after
/// each failed attempt only the cells the witnessed derivation read.
/// Terminates because every iteration excludes at least the current
/// projected model; sound and complete per the argument in eval.h.  Runs
/// inside the solver scope CheckCertainMemberWith opens, so the blocking
/// clauses are retractable.
Result<bool> CertainMemberLoop(Encoder* encoder, const Specification& spec,
                               const query::Query& q, const Tuple& t,
                               const std::vector<int>& instances,
                               const CcqaOptions& options) {
  int64_t iterations = 0;
  while (encoder->solver().Solve() == sat::SolveResult::kSat) {
    if (++iterations > options.max_current_instances) {
      return Status::ResourceExhausted(
          "certain-membership search exceeded the current-instance budget");
    }
    ASSIGN_OR_RETURN(std::vector<Relation> lst,
                     encoder->DecodeCurrentInstances());
    query::Database db = RestrictTo(spec, instances, lst);
    auto with_support = query::EvalQueryWithSupport(q, db);
    const std::vector<query::SupportRow>* support = nullptr;
    if (with_support.ok()) {
      auto it = with_support->find(t);
      if (it == with_support->end()) return false;  // witness found
      support = &it->second;
    } else if (with_support.status().code() == StatusCode::kUnsupported) {
      ASSIGN_OR_RETURN(std::set<Tuple> answers, query::EvalQuery(q, db));
      if (!answers.count(t)) return false;  // witness found
    } else {
      return with_support.status();
    }
    ASSIGN_OR_RETURN(
        std::vector<sat::Lit> clause,
        BlockingClause(*encoder, spec, instances, lst, support));
    // A scoped clause is rejected only when the base formula is UNSAT,
    // which the SAT verdict above has just ruled out.  (A blocking clause
    // that is empty — a derivation reading no cell — retires the scope
    // instead, and the next Solve reports every completion covered.)
    if (!encoder->solver().AddClause(std::move(clause))) {
      return Status::Internal(
          "scoped blocking clause rejected by a satisfiable encoder");
    }
  }
  return true;  // every completion answers t
}

}  // namespace

namespace internal {

Result<std::vector<int>> QueryInstances(const Specification& spec,
                                        const query::Query& q) {
  std::vector<int> out;
  for (const std::string& name : q.body->Relations()) {
    ASSIGN_OR_RETURN(int i, spec.InstanceIndex(name));
    out.push_back(i);
  }
  return out;
}

Result<bool> CheckCertainMemberWith(Encoder* encoder,
                                    const Specification& spec,
                                    const query::Query& q, const Tuple& t,
                                    const std::vector<int>& instances,
                                    const CcqaOptions& options) {
  sat::Solver& solver = encoder->solver();
  solver.NewScope();
  Result<bool> certain =
      CertainMemberLoop(encoder, spec, q, t, instances, options);
  solver.CloseScope();
  return certain;
}

Result<std::set<Tuple>> CertainAnswersVia(
    Encoder* seed,
    const std::function<Result<std::unique_ptr<Encoder>>()>& /*make_encoder*/,
    const Specification& spec, const query::Query& q,
    const std::vector<int>& instances, const CcqaOptions& options) {
  // Candidates come from the seed encoder's first model (certain ⊆ each
  // Q(LST)), then each candidate gets a certain-membership check on the
  // seed itself: every check retracts its blocking clauses on return.
  if (seed->solver().Solve() == sat::SolveResult::kUnsat) {
    return Status::Inconsistent(
        "Mod(S) is empty: every tuple is vacuously a certain answer");
  }
  ASSIGN_OR_RETURN(std::vector<Relation> lst, seed->DecodeCurrentInstances());
  query::Database db = RestrictTo(spec, instances, lst);
  ASSIGN_OR_RETURN(std::set<Tuple> candidates, query::EvalQuery(q, db));
  std::set<Tuple> certain;
  for (const Tuple& t : candidates) {
    ASSIGN_OR_RETURN(bool keep, CheckCertainMemberWith(seed, spec, q, t,
                                                       instances, options));
    if (keep) certain.insert(t);
  }
  return certain;
}

Result<std::set<Tuple>> SpAnswersViaComponentChases(
    DecomposedEncoder* decomposed, const Specification& spec,
    const query::Query& q, const std::vector<int>& relevant) {
  return SpAnswersViaComponentChases(
      [decomposed](int c) { return decomposed->ComponentChaseFixpoint(c); },
      spec, q, relevant);
}

Result<std::set<Tuple>> SpAnswersViaComponentChases(
    const std::function<Result<const ComponentChase*>(int)>& chase_for,
    const Specification& spec, const query::Query& q,
    const std::vector<int>& relevant) {
  std::vector<std::string> rels = q.body->Relations();
  if (rels.size() != 1) {
    return Status::Unsupported("SP query must reference exactly one relation");
  }
  ASSIGN_OR_RETURN(int inst, spec.InstanceIndex(rels[0]));
  // Assemble the instance's PO∞ from its components' chase fixpoints.
  // Declared currency orders only relate tuples of one entity, and the
  // chase derives only within-group pairs, so the per-group fixpoints
  // carry every certain pair of the instance.
  std::vector<std::vector<PartialOrder>> orders(spec.num_instances());
  const TemporalInstance& instance = spec.instance(inst);
  orders[inst].assign(instance.schema().arity(),
                      PartialOrder(instance.relation().size()));
  for (int c : relevant) {
    ASSIGN_OR_RETURN(const ComponentChase* chase, chase_for(c));
    RETURN_IF_ERROR(MergeComponentOrdersInto(*chase, inst, &orders[inst]));
  }
  return SpAnswersFromCertainOrders(spec, orders, q);
}

}  // namespace internal

namespace {

/// The component-level SP fast path (Proposition 6.3 applied to S
/// restricted to the query's components): applies when chase routing is
/// on, `q` is SP over exactly one relation, and every component that
/// relation's entities touch is chase-eligible.  Denial constraints
/// elsewhere in the specification do not matter — Mod(S) factors over
/// components, so the query's answers are decided by the eligible
/// components' completions alone (given overall consistency, which
/// SolveAll establishes).  Returns an empty optional when the path does
/// not apply, Status::Inconsistent when Mod(S) = ∅, and the certain
/// current answers otherwise.
Result<std::optional<std::set<Tuple>>> TryComponentSpAnswers(
    DecomposedEncoder* decomposed, const Specification& spec,
    const query::Query& q, const std::vector<int>& relevant,
    const CcqaOptions& options, exec::ThreadPool* pool) {
  std::optional<std::set<Tuple>> not_applicable;
  if (!options.use_sp_fast_path || !decomposed->chase_routing() ||
      !query::IsSpQuery(q)) {
    return not_applicable;
  }
  std::vector<std::string> rels = q.body->Relations();
  if (rels.size() != 1) return not_applicable;
  for (int c : relevant) {
    if (!decomposed->decomposition().chase_eligible(c)) return not_applicable;
  }
  // Vacuity of the WHOLE specification — the intersection defining
  // certain answers ranges over completions of every component.
  ASSIGN_OR_RETURN(bool consistent, decomposed->SolveAll({}, pool));
  if (!consistent) {
    return Status::Inconsistent(
        "Mod(S) is empty: every tuple is vacuously a certain answer");
  }
  ASSIGN_OR_RETURN(
      std::set<Tuple> answers,
      internal::SpAnswersViaComponentChases(decomposed, spec, q, relevant));
  return std::optional<std::set<Tuple>>(std::move(answers));
}

/// Certain-membership check.  The decomposed path restricts the blocking
/// loop to the coupling components the query's instances touch; the other
/// components only matter through the Mod(S) = ∅ vacuity, which their
/// per-component consistency decides.
Result<bool> CheckCertainMember(const Specification& spec,
                                const query::Query& q, const Tuple& t,
                                const std::vector<int>& instances,
                                const CcqaOptions& options) {
  Encoder::Options enc = options.encoder;
  enc.define_is_last = true;
  if (options.use_decomposition) {
    ASSIGN_OR_RETURN(auto decomposed,
                     DecomposedEncoder::Build(spec, enc,
                                              options.use_chase_routing));
    std::vector<int> relevant =
        decomposed->decomposition().ComponentsOfInstances(instances);
    std::optional<exec::ThreadPool> local_pool;
    exec::ThreadPool* pool =
        exec::ResolvePool(options.pool, options.num_threads, local_pool);
    {
      auto sp = TryComponentSpAnswers(decomposed.get(), spec, q, relevant,
                                      options, pool);
      if (!sp.ok() && sp.status().code() == StatusCode::kInconsistent) {
        return true;  // Mod(S) = ∅: vacuously certain
      }
      RETURN_IF_ERROR(sp.status());
      if (sp->has_value()) return (**sp).count(t) > 0;
    }
    ASSIGN_OR_RETURN(bool rest_consistent,
                     decomposed->SolveAll(relevant, pool));
    if (!rest_consistent) return true;  // Mod(S) = ∅: vacuously certain
    ASSIGN_OR_RETURN(auto encoder, decomposed->BuildMergedEncoder(relevant));
    return internal::CheckCertainMemberWith(encoder.get(), spec, q, t,
                                            instances, options);
  }
  ASSIGN_OR_RETURN(auto encoder, Encoder::Build(spec, enc));
  return internal::CheckCertainMemberWith(encoder.get(), spec, q, t,
                                          instances, options);
}

/// Enumerates the distinct current instances of one encoder's formula
/// (models projected onto the cell variables of `instances`), invoking
/// `visit` with the decoded relations per projected model; stops early
/// when `visit` returns false (reported as `stopped` in the outcome).
/// Shared by the monolithic enumeration and the per-component fragment
/// enumeration below.
Result<sat::ProjectedModelEnumeration> EnumerateEncoderCurrentInstances(
    Encoder* encoder, const std::vector<int>& instances, int64_t max_models,
    const std::function<bool(std::vector<Relation>)>& visit) {
  std::vector<sat::Var> projection = encoder->CellProjection(instances);
  Status inner = Status::OK();
  auto result = sat::EnumerateProjectedModels(
      &encoder->solver(), projection, max_models,
      [&](const std::vector<bool>&) {
        auto decoded = encoder->DecodeCurrentInstances();
        if (!decoded.ok()) {
          inner = decoded.status();
          return false;  // surfaces through `inner`, not as a user stop
        }
        return visit(*std::move(decoded));
      });
  RETURN_IF_ERROR(inner);
  return result;
}

/// Enumerates the current fragments of a chase-routed singleton component
/// directly from its chase fixpoint: with no denial constraint grounding
/// and no coupling copy bucket on the group, each attribute picks its
/// current value independently, so the fragments are the cartesian
/// product of the per-attribute certain-sink values (Lemma 6.2 on S|_c).
/// Output is capped at `budget`, mirroring the SAT enumerator's
/// max_models truncation.
Status AppendChaseFragments(DecomposedEncoder* decomposed,
                            const Specification& spec, int c, int64_t budget,
                            std::vector<std::vector<Relation>>* out) {
  ASSIGN_OR_RETURN(const ComponentChase* chase,
                   decomposed->ComponentChaseFixpoint(c));
  if (chase->nodes.size() != 1) {
    return Status::Internal("chase-enumerable component is not a singleton");
  }
  const ComponentChase::Node& node = chase->nodes.front();
  const Relation& rel = spec.instance(node.inst).relation();
  AttrIndex arity = spec.instance(node.inst).schema().arity();
  std::vector<int> all(node.members.size());
  for (size_t k = 0; k < all.size(); ++k) all[k] = static_cast<int>(k);
  // attr_values[a-1]: the distinct possible current values of attribute
  // a, in Value order.
  std::vector<std::vector<Value>> attr_values;
  for (AttrIndex a = 1; a < arity; ++a) {
    std::set<Value> distinct;
    for (int s : node.orders[a].SinksWithin(all)) {
      distinct.insert(rel.tuple(node.members[s]).at(a));
    }
    attr_values.emplace_back(distinct.begin(), distinct.end());
  }
  std::vector<size_t> pick(attr_values.size(), 0);
  while (static_cast<int64_t>(out->size()) < budget) {
    std::vector<Value> values(arity);
    values[0] = node.eid;
    for (AttrIndex a = 1; a < arity; ++a) {
      values[a] = attr_values[a - 1][pick[a - 1]];
    }
    std::vector<Relation> fragment;
    fragment.reserve(spec.num_instances());
    for (int i = 0; i < spec.num_instances(); ++i) {
      fragment.emplace_back(spec.instance(i).schema());
    }
    RETURN_IF_ERROR(
        fragment[node.inst].Append(Tuple(std::move(values))).status());
    out->push_back(std::move(fragment));
    // Advance the odometer.
    size_t a = 0;
    for (; a < pick.size(); ++a) {
      if (++pick[a] < attr_values[a].size()) break;
      pick[a] = 0;
    }
    if (a == pick.size()) break;
  }
  return Status::OK();
}

/// Serialization key of one fragment, used to canonicalize per-component
/// fragment order below.
std::string FragmentKey(const std::vector<Relation>& fragment) {
  std::string key;
  for (const Relation& rel : fragment) {
    for (const Tuple& t : rel.tuples()) {
      key += t.ToString();
      key += '\n';
    }
    key += '\x02';
  }
  return key;
}

/// Sorts a component's fragments by serialized content.  Chase-built
/// fragments and SAT-enumerated projected models traverse the same set in
/// different orders; canonicalizing makes the product walk's enumeration
/// order identical across routing modes (the differential suites assert
/// it bit-for-bit).
void SortFragments(std::vector<std::vector<Relation>>* fragments) {
  std::vector<std::pair<std::string, size_t>> keys;
  keys.reserve(fragments->size());
  for (size_t i = 0; i < fragments->size(); ++i) {
    keys.emplace_back(FragmentKey((*fragments)[i]), i);
  }
  std::sort(keys.begin(), keys.end());
  std::vector<std::vector<Relation>> sorted;
  sorted.reserve(fragments->size());
  for (const auto& [key, i] : keys) {
    sorted.push_back(std::move((*fragments)[i]));
  }
  *fragments = std::move(sorted);
}

/// Decomposed current-instance enumeration: the distinct current
/// instances of S are the cartesian product of the per-component current
/// fragments, so each component is enumerated once (small SAT instances,
/// or the chase fixpoint directly for chase-enumerable components) and
/// the fragments are recombined without further solving.
Result<int64_t> ForEachCurrentInstanceDecomposed(
    const Specification& spec, const Encoder::Options& enc,
    const CcqaOptions& options,
    const std::function<bool(const query::Database&)>& visit) {
  ASSIGN_OR_RETURN(auto decomposed,
                   DecomposedEncoder::Build(spec, enc,
                                            options.use_chase_routing));
  std::optional<exec::ThreadPool> local_pool;
  exec::ThreadPool* pool =
      exec::ResolvePool(options.pool, options.num_threads, local_pool);
  // A single UNSAT component empties Mod(S); detect that with one cheap
  // solve per component before enumerating any fragments (a huge earlier
  // component must not burn the budget when a later one is empty).
  ASSIGN_OR_RETURN(bool consistent, decomposed->SolveAll({}, pool));
  if (!consistent) return 0;
  int num_components = decomposed->num_components();
  std::vector<int> all;
  for (int i = 0; i < spec.num_instances(); ++i) all.push_back(i);
  // fragments[c]: the distinct current fragments of component c, each a
  // per-instance vector of partial relations.  Components enumerate
  // concurrently — each task mutates only its own component encoder (the
  // blocking clauses it adds stay confined there) and fills only its own
  // fragments slot, so every component's fragment list and order is the
  // one the sequential loop computes.  Task outcomes land in per-index
  // slots and are aggregated below in component order, which reproduces
  // the sequential loop's first-error/first-empty semantics: ParallelFor
  // claims indices in increasing order, so tasks skipped by cancellation
  // always form a suffix behind the genuine cause.
  std::vector<Status> component_status(num_components, Status::OK());
  std::vector<std::vector<std::vector<Relation>>> fragments(num_components);
  exec::CancellationToken cancel;
  RETURN_IF_ERROR(pool->ParallelFor(
      num_components,
      [&](int c) -> Status {
        if (decomposed->chase_routed_enumerable(c)) {
          // SolveAll above established the fixpoint's consistency, so
          // the fragment product is never empty here.
          Status built =
              AppendChaseFragments(decomposed.get(), spec, c,
                                   options.max_current_instances,
                                   &fragments[c]);
          if (!built.ok()) {
            component_status[c] = built;
            cancel.Cancel();
          } else {
            SortFragments(&fragments[c]);
          }
          return Status::OK();
        }
        // Chase-routed components that are NOT enumerable (multi-node, or
        // touched by a coupling copy bucket) fall back to the SAT
        // enumerator: ComponentEncoder builds theirs on first use.
        auto encoder = decomposed->ComponentEncoder(c);
        if (!encoder.ok()) {
          component_status[c] = encoder.status();
          cancel.Cancel();
          return Status::OK();
        }
        auto enumerated = EnumerateEncoderCurrentInstances(
            *encoder, all, options.max_current_instances,
            [&](std::vector<Relation> decoded) {
              fragments[c].push_back(std::move(decoded));
              return true;
            });
        if (!enumerated.ok()) {
          component_status[c] = enumerated.status();
          cancel.Cancel();
        } else if (fragments[c].empty()) {
          cancel.Cancel();  // component UNSAT: Mod(S) = ∅, answered below
        } else {
          SortFragments(&fragments[c]);
        }
        return Status::OK();
      },
      &cancel));
  for (int c = 0; c < num_components; ++c) {
    RETURN_IF_ERROR(component_status[c]);
    if (fragments[c].empty()) return 0;  // some component UNSAT: Mod(S) = ∅
  }
  // Walk the cartesian product (odometer order); an empty component list
  // — a specification without entities — still has the one empty current
  // instance, which the odometer's single combination covers.
  std::vector<size_t> pick(num_components, 0);
  int64_t count = 0;
  while (true) {
    if (count >= options.max_current_instances) {
      return Status::ResourceExhausted(
          "model enumeration exceeded " +
          std::to_string(options.max_current_instances) +
          " projected models");
    }
    std::vector<Relation> merged;
    merged.reserve(spec.num_instances());
    for (int i = 0; i < spec.num_instances(); ++i) {
      merged.emplace_back(spec.instance(i).schema());
    }
    for (int c = 0; c < num_components; ++c) {
      const std::vector<Relation>& fragment = fragments[c][pick[c]];
      for (int i = 0; i < spec.num_instances(); ++i) {
        for (const Tuple& tuple : fragment[i].tuples()) {
          RETURN_IF_ERROR(merged[i].Append(tuple).status());
        }
      }
    }
    ++count;
    query::Database db;
    for (int i = 0; i < spec.num_instances(); ++i) {
      db[spec.instance(i).name()] = &merged[i];
    }
    if (!visit(db)) return count;
    // Advance the odometer.
    int c = 0;
    for (; c < num_components; ++c) {
      if (++pick[c] < fragments[c].size()) break;
      pick[c] = 0;
    }
    if (c == num_components) return count;
  }
}

}  // namespace

Result<int64_t> ForEachCurrentInstance(
    const Specification& spec, const CcqaOptions& options,
    const std::function<bool(const query::Database&)>& visit) {
  Encoder::Options enc = options.encoder;
  enc.define_is_last = true;
  if (options.use_decomposition) {
    return ForEachCurrentInstanceDecomposed(spec, enc, options, visit);
  }
  ASSIGN_OR_RETURN(auto encoder, Encoder::Build(spec, enc));
  std::vector<int> all;
  for (int i = 0; i < spec.num_instances(); ++i) all.push_back(i);
  ASSIGN_OR_RETURN(sat::ProjectedModelEnumeration enumeration,
                   EnumerateEncoderCurrentInstances(
                       encoder.get(), all, options.max_current_instances,
                       [&](std::vector<Relation> decoded) {
                         query::Database db;
                         for (int i = 0; i < spec.num_instances(); ++i) {
                           db[spec.instance(i).name()] = &decoded[i];
                         }
                         return visit(db);
                       }));
  return enumeration.models;
}

Result<std::set<Tuple>> CertainCurrentAnswers(const Specification& spec,
                                              const query::Query& q,
                                              const CcqaOptions& options) {
  if (options.use_sp_fast_path && !spec.HasDenialConstraints() &&
      query::IsSpQuery(q)) {
    return SpCertainCurrentAnswers(spec, q);
  }
  ASSIGN_OR_RETURN(std::vector<int> instances,
                   internal::QueryInstances(spec, q));
  Encoder::Options enc = options.encoder;
  enc.define_is_last = true;
  if (options.use_decomposition) {
    ASSIGN_OR_RETURN(auto decomposed,
                     DecomposedEncoder::Build(spec, enc,
                                              options.use_chase_routing));
    std::vector<int> relevant =
        decomposed->decomposition().ComponentsOfInstances(instances);
    // Vacuity of the untouched components, checked once for all
    // candidates; the touched ones are covered by the merged seed solve.
    std::optional<exec::ThreadPool> local_pool;
    exec::ThreadPool* pool =
        exec::ResolvePool(options.pool, options.num_threads, local_pool);
    {
      ASSIGN_OR_RETURN(std::optional<std::set<Tuple>> sp,
                       TryComponentSpAnswers(decomposed.get(), spec, q,
                                             relevant, options, pool));
      if (sp.has_value()) return *std::move(sp);
    }
    ASSIGN_OR_RETURN(bool rest_consistent,
                     decomposed->SolveAll(relevant, pool));
    if (!rest_consistent) {
      return Status::Inconsistent(
          "Mod(S) is empty: every tuple is vacuously a certain answer");
    }
    ASSIGN_OR_RETURN(auto seed, decomposed->BuildMergedEncoder(relevant));
    return internal::CertainAnswersVia(seed.get(), nullptr, spec, q,
                                       instances, options);
  }
  ASSIGN_OR_RETURN(auto seed, Encoder::Build(spec, enc));
  return internal::CertainAnswersVia(seed.get(), nullptr, spec, q, instances,
                                     options);
}

Result<bool> IsCertainCurrentAnswer(const Specification& spec,
                                    const query::Query& q, const Tuple& t,
                                    const CcqaOptions& options) {
  if (static_cast<size_t>(t.arity()) != q.head.size()) {
    return Status::InvalidArgument(
        "candidate tuple arity does not match query head");
  }
  if (options.use_sp_fast_path && !spec.HasDenialConstraints() &&
      query::IsSpQuery(q)) {
    auto answers = SpCertainCurrentAnswers(spec, q);
    if (!answers.ok() && answers.status().code() == StatusCode::kInconsistent) {
      return true;  // vacuous
    }
    RETURN_IF_ERROR(answers.status());
    return answers->count(t) > 0;
  }
  ASSIGN_OR_RETURN(std::vector<int> instances,
                   internal::QueryInstances(spec, q));
  // CheckCertainMember returns true on inconsistent specifications (its
  // first Solve is UNSAT), matching the vacuous-truth convention.
  return CheckCertainMember(spec, q, t, instances, options);
}

}  // namespace currency::core
