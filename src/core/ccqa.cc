#include "src/core/ccqa.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "src/core/decompose.h"
#include "src/core/sp_ccqa.h"
#include "src/exec/thread_pool.h"
#include "src/obs/trace.h"
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

/// The components `q` can read (see CertainAnswerProbes).  Numeric ids
/// stay unpinned: Value equality meets Int and Double, which the component
/// index orders apart.
std::vector<int> RelevantComponents(const DecomposedEncoder& engine,
                                    const query::Query& q,
                                    const std::vector<int>& instances) {
  const Decomposition& decomposition = engine.decomposition();
  std::map<std::string, std::set<Value>> pins = query::EidPins(q);
  std::set<int> components;
  for (int inst : instances) {
    auto pinned = pins.find(engine.spec().instance(inst).name());
    if (pinned == pins.end() ||
        std::any_of(pinned->second.begin(), pinned->second.end(),
                    [](const Value& eid) { return eid.is_numeric(); })) {
      const std::vector<int>& all = decomposition.ComponentsOfInstance(inst);
      components.insert(all.begin(), all.end());
      continue;
    }
    for (const Value& eid : pinned->second) {
      int c = decomposition.ComponentOf(inst, eid);
      if (c >= 0) components.insert(c);
    }
  }
  return std::vector<int>(components.begin(), components.end());
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
    const std::function<Result<const ComponentChase*>(int)>& chase_for,
    const Specification& spec, const query::Query& q,
    const std::vector<int>& relevant) {
  std::vector<const ComponentChase::Node*> nodes;
  for (int c : relevant) {
    ASSIGN_OR_RETURN(const ComponentChase* chase, chase_for(c));
    for (const ComponentChase::Node& node : chase->nodes) {
      nodes.push_back(&node);
    }
  }
  return SpAnswersFromChaseNodes(spec, nodes, q);
}

Result<std::vector<CcqaResponse>> CertainAnswerProbes(
    DecomposedEncoder* engine, const std::vector<CcqaRequest>& requests,
    const CcqaOptions& options, exec::ThreadPool* pool) {
  const Specification& spec = engine->spec();
  std::vector<std::vector<int>> instances(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const CcqaRequest& request = requests[i];
    if (request.candidate.has_value() &&
        static_cast<size_t>(request.candidate->arity()) !=
            request.query.head.size()) {
      return Status::InvalidArgument(
          "candidate tuple arity does not match query head");
    }
    ASSIGN_OR_RETURN(instances[i], QueryInstances(spec, request.query));
  }
  std::vector<CcqaResponse> out(requests.size());
  {
    obs::TraceSpan::Stage stage("base_solve", engine->stage_counters());
    ASSIGN_OR_RETURN(bool consistent, engine->EnsureAllSolved(pool));
    if (!consistent) {
      // Mod(S) = ∅: membership is vacuously true; the answer set is not a
      // finite object (the one-shot API reports Status::Inconsistent).
      for (size_t i = 0; i < requests.size(); ++i) {
        out[i].vacuous = true;
        if (requests[i].candidate.has_value()) out[i].is_certain = true;
      }
      return out;
    }
  }
  obs::TraceSpan::Stage stage("solve", engine->stage_counters());
  // SP routing: a request answers from component chase fixpoints when its
  // query is SP over one relation and every relevant component is
  // chase-enumerable (Proposition 6.3 on those components; Mod(S) factors
  // over components, so denial constraints elsewhere do not matter).  Such
  // a request is a read of cached fixpoints (write-once publication makes
  // computing a missing one safe against concurrent callers), so it is
  // answered here, on the calling thread; only the rest go to the pool.
  std::vector<std::vector<int>> relevant(requests.size());
  std::vector<int> sat_routed;
  for (size_t i = 0; i < requests.size(); ++i) {
    const CcqaRequest& request = requests[i];
    const query::Query& q = request.query;
    relevant[i] = RelevantComponents(*engine, q, instances[i]);
    if (!query::IsSpQuery(q) || q.body->Relations().size() != 1 ||
        !std::all_of(relevant[i].begin(), relevant[i].end(), [&](int c) {
          return engine->chase_routed_enumerable(c);
        })) {
      sat_routed.push_back(static_cast<int>(i));
      continue;
    }
    ASSIGN_OR_RETURN(std::set<Tuple> answers,
                     SpAnswersViaComponentChases(
                         [&](int c) { return engine->ChaseFixpoint(c); },
                         spec, q, relevant[i]));
    if (request.candidate.has_value()) {
      out[i].is_certain = answers.count(*request.candidate) > 0;
    } else {
      out[i].answers = std::move(answers);
    }
  }
  // SAT-routed requests run in parallel and fill only their own response
  // slot, each on a cached encoder under its slot mutex (requests sharing
  // one serialize there); their blocking loops add clauses under a solver
  // scope that is closed before the mutex is released.
  RETURN_IF_ERROR(pool->ParallelFor(
      static_cast<int>(sat_routed.size()), [&](int j) -> Status {
        const int i = sat_routed[j];
        const CcqaRequest& request = requests[i];
        return engine->WithCcqaEncoder(
            relevant[i], [&](Encoder* encoder) -> Status {
              if (request.candidate.has_value()) {
                ASSIGN_OR_RETURN(bool certain,
                                 CheckCertainMemberWith(
                                     encoder, spec, request.query,
                                     *request.candidate, instances[i],
                                     options));
                out[i].is_certain = certain;
                return Status::OK();
              }
              ASSIGN_OR_RETURN(std::set<Tuple> answers,
                               CertainAnswersVia(encoder, nullptr, spec,
                                                 request.query, instances[i],
                                                 options));
              out[i].answers = std::move(answers);
              return Status::OK();
            });
      }));
  return out;
}

}  // namespace internal

namespace {

/// Enumerates the distinct current instances of one encoder's formula
/// (models projected onto the cell variables of `instances`), invoking
/// `visit` with the decoded relations per projected model; stops early
/// when `visit` returns false (reported as `stopped` in the outcome).
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
/// A product over `budget` fails with ResourceExhausted, as the SAT
/// enumerator does past max_models.
Status AppendChaseFragments(DecomposedEncoder* engine, int c, int64_t budget,
                            std::vector<std::vector<Relation>>* out) {
  const Specification& spec = engine->spec();
  ASSIGN_OR_RETURN(const ComponentChase* chase, engine->ChaseFixpoint(c));
  if (chase->nodes.size() != 1) {
    return Status::Internal("chase-enumerable component is not a singleton");
  }
  const ComponentChase::Node& node = chase->nodes.front();
  const Relation& rel = spec.instance(node.inst).relation();
  AttrIndex arity = spec.instance(node.inst).schema().arity();
  std::vector<std::vector<Value>> possible =
      PossibleCurrentValues(rel, node.members, node.orders);
  int64_t product = 1;
  for (AttrIndex a = 1; a < arity; ++a) {
    // product * size > budget, without overflow.
    int64_t size = static_cast<int64_t>(possible[a].size());
    if (size > 0 && product > budget / size) {
      return Status::ResourceExhausted("model enumeration exceeded " +
                                       std::to_string(budget) +
                                       " projected models");
    }
    product *= size;
  }
  std::vector<size_t> pick(arity, 0);
  while (true) {
    std::vector<Value> values(arity);
    values[0] = node.eid;
    for (AttrIndex a = 1; a < arity; ++a) values[a] = possible[a][pick[a]];
    std::vector<Relation> fragment;
    fragment.reserve(spec.num_instances());
    for (int i = 0; i < spec.num_instances(); ++i) {
      fragment.emplace_back(spec.instance(i).schema());
    }
    RETURN_IF_ERROR(
        fragment[node.inst].Append(Tuple(std::move(values))).status());
    out->push_back(std::move(fragment));
    // Advance the odometer.
    AttrIndex a = 1;
    for (; a < arity; ++a) {
      if (++pick[a] < possible[a].size()) break;
      pick[a] = 0;
    }
    if (a == arity) break;
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

}  // namespace

namespace internal {

/// The distinct current instances of S are the cartesian product of the
/// per-component current fragments, so each component is enumerated once
/// (small SAT instances, or the chase fixpoint directly for
/// chase-enumerable components) and the fragments are recombined without
/// further solving.
Result<int64_t> EnumerateCurrentInstances(
    DecomposedEncoder* engine, const CcqaOptions& options,
    exec::ThreadPool* pool,
    const std::function<bool(const query::Database&)>& visit) {
  const Specification& spec = engine->spec();
  // A single UNSAT component empties Mod(S); detect that with one cheap
  // solve per component before enumerating any fragments (a huge earlier
  // component must not burn the budget when a later one is empty).
  ASSIGN_OR_RETURN(bool consistent, engine->EnsureAllSolved(pool));
  if (!consistent) return 0;
  int num_components = engine->num_components();
  std::vector<int> all;
  for (int i = 0; i < spec.num_instances(); ++i) all.push_back(i);
  // fragments[c]: the distinct current fragments of component c, each a
  // per-instance vector of partial relations.  Components enumerate
  // concurrently — each task works only its own component encoder and
  // fills only its own fragments slot, so every component's fragment list
  // is the one the sequential loop computes.  Task outcomes land in
  // per-index slots and are aggregated below in component order, which
  // reproduces the sequential loop's first-error semantics: ParallelFor
  // claims indices in increasing order, so tasks skipped by cancellation
  // always form a suffix behind the genuine cause.
  std::vector<Status> component_status(num_components, Status::OK());
  std::vector<std::vector<std::vector<Relation>>> fragments(num_components);
  exec::CancellationToken cancel;
  RETURN_IF_ERROR(pool->ParallelFor(
      num_components,
      [&](int c) -> Status {
        Status built;
        if (engine->chase_routed_enumerable(c)) {
          built = AppendChaseFragments(engine, c,
                                       options.max_current_instances,
                                       &fragments[c]);
        } else {
          // Every other component (constrained, multi-node, or touched by
          // a coupling copy bucket) enumerates its SAT models.  The
          // blocking clauses go in under a solver scope, so the cached
          // encoder leaves as it came in.
          built = engine->WithComponentEncoder(
              c, [&](Encoder* encoder) -> Status {
                encoder->solver().NewScope();
                auto enumerated = EnumerateEncoderCurrentInstances(
                    encoder, all, options.max_current_instances,
                    [&](std::vector<Relation> decoded) {
                      fragments[c].push_back(std::move(decoded));
                      return true;
                    });
                encoder->solver().CloseScope();
                return enumerated.status();
              });
        }
        if (!built.ok()) {
          component_status[c] = built;
          cancel.Cancel();
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

}  // namespace internal

Result<int64_t> ForEachCurrentInstance(
    const Specification& spec, const CcqaOptions& options,
    const std::function<bool(const query::Database&)>& visit) {
  ASSIGN_OR_RETURN(auto engine, DecomposedEncoder::Build(
                                    spec, {}, /*use_chase_routing=*/true));
  exec::ThreadPool pool(options.num_threads);
  return internal::EnumerateCurrentInstances(engine.get(), options, &pool,
                                             visit);
}

namespace {

/// One CCQA request the one-shot way: a transient engine and one
/// CertainAnswerProbes call.  The response is `vacuous` when Mod(S) = ∅.
Result<CcqaResponse> AnswerOneShot(const Specification& spec,
                                   const CcqaRequest& request,
                                   const CcqaOptions& options) {
  ASSIGN_OR_RETURN(auto engine, DecomposedEncoder::Build(
                                    spec, {}, /*use_chase_routing=*/true));
  exec::ThreadPool pool(options.num_threads);
  ASSIGN_OR_RETURN(std::vector<CcqaResponse> responses,
                   internal::CertainAnswerProbes(engine.get(), {request},
                                                 options, &pool));
  return std::move(responses[0]);
}

}  // namespace

Result<std::set<Tuple>> CertainCurrentAnswers(const Specification& spec,
                                              const query::Query& q,
                                              const CcqaOptions& options) {
  ASSIGN_OR_RETURN(CcqaResponse response,
                   AnswerOneShot(spec, CcqaRequest{q, std::nullopt}, options));
  if (response.vacuous) {
    return Status::Inconsistent(
        "Mod(S) is empty: every tuple is vacuously a certain answer");
  }
  return *std::move(response.answers);
}

Result<bool> IsCertainCurrentAnswer(const Specification& spec,
                                    const query::Query& q, const Tuple& t,
                                    const CcqaOptions& options) {
  ASSIGN_OR_RETURN(CcqaResponse response,
                   AnswerOneShot(spec, CcqaRequest{q, t}, options));
  return response.vacuous || *response.is_certain;
}

}  // namespace currency::core
