#include "src/core/decompose.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>

namespace currency::core {

namespace {

/// 64-bit FNV-1a-style accumulator for component fingerprints.  Not
/// cryptographic: the serving layer's cache reuse is correct modulo
/// 64-bit collisions, which is the usual content-hash trade-off.
struct Fingerprinter {
  uint64_t h = 1469598103934665603ull;  // FNV offset basis

  void Mix(uint64_t x) {
    for (int k = 0; k < 8; ++k) {
      h ^= (x >> (8 * k)) & 0xff;
      h *= 1099511628211ull;  // FNV prime
    }
  }
  void MixValue(const Value& v) {
    // Value::Hash is consistent with operator== (Int/Double interleave),
    // matching the equality the encoder's cell dedup uses.
    Mix(static_cast<uint64_t>(v.Hash()));
  }
  void MixString(const std::string& s) {
    Mix(s.size());
    for (char ch : s) {
      h ^= static_cast<unsigned char>(ch);
      h *= 1099511628211ull;
    }
  }
};

/// Plain union-find over dense node ids.
class UnionFind {
 public:
  explicit UnionFind(int n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  int Find(int x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Unite(int a, int b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<int> parent_;
};

}  // namespace

Result<Decomposition> Decomposition::Build(const Specification& spec) {
  Decomposition d;
  d.num_instances_ = spec.num_instances();

  // Nodes: one per (instance, entity) group, densely numbered in that
  // order, which every component's node list keeps (the encoder and the
  // chase require it).
  std::vector<EntityNode> nodes;
  d.node_component_.resize(spec.num_instances());
  std::vector<std::map<Value, int>> node_id(spec.num_instances());
  for (int i = 0; i < spec.num_instances(); ++i) {
    for (const auto& [eid, members] : spec.instance(i).relation().EntityGroups()) {
      (void)members;
      node_id[i][eid] = static_cast<int>(nodes.size());
      nodes.push_back(EntityNode{i, eid});
    }
  }
  UnionFind uf(static_cast<int>(nodes.size()));
  // Nodes touched by a coupling (≥ 2-distinct-source) copy bucket; such a
  // node's attributes are value-correlated with its bucket peers, which
  // disqualifies it from chase-only fragment ENUMERATION (eligibility for
  // the chase decision procedures is unaffected).
  std::vector<char> coupled(nodes.size(), 0);

  // Copy edges: a ≺-compatibility clause arises between two mappings
  // (t1 ⇐ s1), (t2 ⇐ s2) exactly when t1, t2 share a target entity,
  // s1, s2 share a source entity, and s1 ≠ s2 (target tuples are always
  // distinct).  So a (target entity, source entity) bucket couples its
  // two groups iff it maps from at least two distinct source tuples
  // (CopyBucketIndex::Couples).
  for (const CopyEdge& edge : spec.copy_edges()) {
    if (edge.source_instance < 0 ||
        edge.source_instance >= spec.num_instances() ||
        edge.target_instance < 0 ||
        edge.target_instance >= spec.num_instances()) {
      return Status::Internal("copy edge references an unknown instance");
    }
    const Relation& target = spec.instance(edge.target_instance).relation();
    const Relation& source = spec.instance(edge.source_instance).relation();
    for (const auto& [t, s] : edge.fn.mapping()) {
      if (t < 0 || t >= target.size() || s < 0 || s >= source.size()) {
        return Status::Internal("copy mapping references an unknown tuple");
      }
    }
  }
  d.copy_index_ = CopyBucketIndex::Build(spec);
  // A coupling bucket, kept for its fingerprint contribution below.
  struct CouplingBucket {
    size_t edge;
    const Value* target_eid;
    const Value* source_eid;
    const std::vector<std::pair<TupleId, TupleId>>* mapped;
  };
  std::vector<CouplingBucket> coupling;  // in edge, then bucket order
  for (size_t e = 0; e < spec.copy_edges().size(); ++e) {
    const CopyEdge& edge = spec.copy_edges()[e];
    for (const auto& [te, by_source] : d.copy_index_.per_edge[e]) {
      for (const auto& [se, mapped] : by_source) {
        if (!CopyBucketIndex::Couples(mapped)) continue;
        int tn = node_id[edge.target_instance].at(te);
        int sn = node_id[edge.source_instance].at(se);
        uf.Unite(tn, sn);
        coupled[tn] = 1;
        coupled[sn] = 1;
        coupling.push_back(CouplingBucket{e, &te, &se, &mapped});
      }
    }
  }

  // Grounded denial constraints contribute no edges: in the implemented
  // constraint language every grounding instantiates all tuple variables
  // within one entity group (the EID-equality premises are implicit, and
  // DenialConstraint::EnumerateGroundingsForGroup enforces it
  // structurally — there is no API that could emit a cross-group
  // grounding).  A future multi-entity constraint extension must add its
  // coupling edges here, next to the copy edges above; until then,
  // scanning groundings would only duplicate the encoders' grounding
  // work to discover nothing.

  // Components, numbered in first-encounter order of their nodes (nodes
  // are ordered by instance, then entity value).
  std::map<int, int> root_component;
  for (size_t n = 0; n < nodes.size(); ++n) {
    int root = uf.Find(static_cast<int>(n));
    auto [it, inserted] =
        root_component.try_emplace(root, static_cast<int>(d.components_.size()));
    if (inserted) d.components_.emplace_back();
    d.components_[it->second].push_back(nodes[n]);
    d.node_component_[nodes[n].inst][nodes[n].eid] = it->second;
  }

  d.instance_components_.resize(spec.num_instances());
  for (int i = 0; i < spec.num_instances(); ++i) {
    std::set<int> comps;
    for (const auto& [eid, c] : d.node_component_[i]) {
      (void)eid;
      comps.insert(c);
    }
    d.instance_components_[i].assign(comps.begin(), comps.end());
  }

  // --- Component fingerprints -------------------------------------------
  // Contributions accumulate strictly in the deterministic iteration
  // orders below (nodes in first-encounter order, entity groups and
  // buckets in Value order, mappings in TupleId order), so a component
  // with identical content hashes identically across rebuilds over a
  // mutated specification.  Coverage: a per-component encoder build reads
  // (a) its member tuples, (b) the initial orders among them, (c) the
  // ≥2-distinct-source copy buckets — single-source buckets emit neither
  // ≺-compatibility clauses nor chase derivations, both of which need two
  // mappings with distinct sources — and (d) per member group, the texts
  // of exactly the denial constraints with at least one grounding on the
  // group (a grounding set is a function of the constraint text and the
  // member values, and the values are hashed under 0xA0; constraints that
  // ground to nothing contribute no clauses and no closure rules, so
  // adding or removing one must not — and does not — move any
  // fingerprint).  Schemas are edit-invariant and deliberately not
  // hashed.  The same grounding scan decides chase-eligibility: a
  // component none of whose groups is touched by any grounding is
  // effectively constraint-free.
  std::vector<Fingerprinter> fp(d.components_.size());
  std::vector<std::vector<std::string>> constraint_texts(spec.num_instances());
  for (int i = 0; i < spec.num_instances(); ++i) {
    for (const auto& dc : spec.constraints_for(i)) {
      constraint_texts[i].push_back(dc.ToString(spec.instance(i).schema()));
    }
  }
  d.chase_eligible_.assign(d.components_.size(), 1);
  for (size_t c = 0; c < d.components_.size(); ++c) {
    for (const EntityNode& node : d.components_[c]) {
      const TemporalInstance& inst = spec.instance(node.inst);
      const Relation& rel = inst.relation();
      const std::vector<TupleId>& members = rel.EntityGroups().at(node.eid);
      fp[c].Mix(0xA0);  // domain separator: nodes + members
      fp[c].Mix(static_cast<uint64_t>(node.inst));
      fp[c].MixValue(node.eid);
      const auto& dcs = spec.constraints_for(node.inst);
      for (size_t k = 0; k < dcs.size(); ++k) {
        if (!dcs[k].HasGroundingForGroup(rel, members)) continue;
        d.chase_eligible_[c] = 0;
        fp[c].Mix(0xD0);  // domain separator: grounded constraints
        fp[c].MixString(constraint_texts[node.inst][k]);
      }
      for (TupleId t : members) {
        fp[c].Mix(static_cast<uint64_t>(t));
        for (const Value& v : rel.tuple(t).values()) fp[c].MixValue(v);
      }
      // Initial orders relate same-entity tuples only (the AddOrder
      // invariant), so probing the members with Less covers every pair —
      // Σ m² probes, read the way encoder step 3 and the component chase
      // read them, instead of a scan of each attribute's n×n bit matrix.
      for (AttrIndex a = 1; a < inst.schema().arity(); ++a) {
        const PartialOrder& po = inst.order(a);
        for (TupleId u : members) {
          for (TupleId v : members) {
            if (u == v || !po.Less(u, v)) continue;
            fp[c].Mix(0xB0);  // domain separator: initial orders
            fp[c].Mix(static_cast<uint64_t>(a));
            fp[c].Mix(static_cast<uint64_t>(u));
            fp[c].Mix(static_cast<uint64_t>(v));
          }
        }
      }
    }
  }
  d.chase_enumerable_.assign(d.components_.size(), 0);
  for (size_t c = 0; c < d.components_.size(); ++c) {
    if (!d.chase_eligible_[c] || d.components_[c].size() != 1) continue;
    const EntityNode& node = d.components_[c][0];
    // A singleton component is bucket-free unless a self-copy bucket
    // (target and source the same group) couples its attributes.
    if (!coupled[node_id[node.inst].at(node.eid)]) {
      d.chase_enumerable_[c] = 1;
    }
  }
  for (const CouplingBucket& bucket : coupling) {
    // A coupling bucket's target and source groups share a component.
    const int target = spec.copy_edges()[bucket.edge].target_instance;
    Fingerprinter& f = fp[d.node_component_[target].at(*bucket.target_eid)];
    f.Mix(0xC0);  // domain separator: coupling copy buckets
    f.Mix(bucket.edge);
    f.MixValue(*bucket.target_eid);
    f.MixValue(*bucket.source_eid);
    for (auto [t, s] : *bucket.mapped) {
      f.Mix(static_cast<uint64_t>(t));
      f.Mix(static_cast<uint64_t>(s));
    }
  }
  d.fingerprints_.resize(d.components_.size());
  for (size_t c = 0; c < d.components_.size(); ++c) {
    d.fingerprints_[c] = fp[c].h;
  }
  return d;
}

int Decomposition::ComponentOf(int inst, const Value& eid) const {
  if (inst < 0 || inst >= num_instances_) return -1;
  auto it = node_component_[inst].find(eid);
  return it == node_component_[inst].end() ? -1 : it->second;
}

std::vector<int> Decomposition::ComponentsOfInstances(
    const std::vector<int>& instances) const {
  std::set<int> comps;
  for (int i : instances) {
    comps.insert(instance_components_[i].begin(),
                 instance_components_[i].end());
  }
  return std::vector<int>(comps.begin(), comps.end());
}

void EngineCounters::Bind(obs::Registry* registry, const obs::Labels& labels) {
  auto with = [&](const char* key, const char* value) {
    obs::Labels l = labels;
    l.push_back({key, value});
    return l;
  };
  base_solves = registry->GetCounter(
      "currency_serve_component_base_solves_total", with("routing", "sat"));
  chase_solves = registry->GetCounter(
      "currency_serve_component_base_solves_total", with("routing", "chase"));
  merged_builds = registry->GetCounter(
      "currency_serve_merged_encoder_builds_total", labels);
  cache_hits =
      registry->GetCounter("currency_serve_component_cache_hits_total", labels);
  chase_sat_fallbacks =
      registry->GetCounter("currency_chase_sat_fallbacks_total", labels);
  sat_propagations =
      registry->GetCounter("currency_sat_propagations_total", labels);
  sat_conflicts = registry->GetCounter("currency_sat_conflicts_total", labels);
  sat_gc_runs = registry->GetCounter("currency_sat_gc_runs_total", labels);
  sat_minimized_literals =
      registry->GetCounter("currency_sat_minimized_literals_total", labels);
  sat_demotions = registry->GetCounter("currency_sat_demotions_total", labels);
  sat_arena_bytes = registry->GetGauge("currency_sat_arena_bytes", labels);
  sat_tier_core =
      registry->GetGauge("currency_sat_tier_clauses", with("tier", "core"));
  sat_tier_mid =
      registry->GetGauge("currency_sat_tier_clauses", with("tier", "mid"));
  sat_tier_local =
      registry->GetGauge("currency_sat_tier_clauses", with("tier", "local"));
  chase_passes = registry->GetCounter("currency_chase_passes_total", labels);
  chase_edges_expanded =
      registry->GetCounter("currency_chase_edges_expanded_total", labels);
  probe_solves =
      registry->GetCounter("currency_serve_probe_solves_total", labels);
  probes_settled =
      registry->GetCounter("currency_serve_probes_settled_total", labels);
  last_reused =
      registry->GetGauge("currency_serve_components_last_reused", labels);
  last_invalidated =
      registry->GetGauge("currency_serve_components_last_invalidated", labels);
  last_chase_reused =
      registry->GetGauge("currency_serve_chase_components_last_reused", labels);
  last_chase_rechased = registry->GetGauge(
      "currency_serve_chase_components_last_rechased", labels);
}

namespace {

/// Publishes the work one solver use performed as registry deltas: the
/// solver's cumulative stats are snapshotted before and after.
/// arena_bytes is a level, not a count, so its signed delta goes to a
/// gauge.
void SampleSolverDelta(const EngineCounters& counters,
                       const sat::SolverStats& before,
                       const sat::SolverStats& after) {
  // Every instrument is its own heap allocation, so an update is a
  // (usually cold) cache-line RMW — and a warm probe has a zero delta
  // on everything but propagations.  Adding zero is a no-op, so skip
  // it: this keeps the per-query boundary cost inside
  // bench_obs_overhead's 5% untraced-vs-bare ceiling no matter how many
  // solver counters exist.
  auto bump = [](obs::Counter* c, int64_t delta) {
    if (delta != 0) c->Increment(delta);
  };
  auto shift = [](obs::Gauge* g, int64_t delta) {
    if (delta != 0) g->Add(delta);
  };
  bump(counters.sat_propagations, after.propagations - before.propagations);
  bump(counters.sat_conflicts, after.conflicts - before.conflicts);
  bump(counters.sat_gc_runs, after.gc_runs - before.gc_runs);
  bump(counters.sat_minimized_literals,
       after.minimized_literals - before.minimized_literals);
  bump(counters.sat_demotions, after.demotions - before.demotions);
  shift(counters.sat_arena_bytes, after.arena_bytes - before.arena_bytes);
  shift(counters.sat_tier_core, after.tier_core - before.tier_core);
  shift(counters.sat_tier_mid, after.tier_tier2 - before.tier_tier2);
  shift(counters.sat_tier_local, after.tier_local - before.tier_local);
}

}  // namespace

std::optional<bool> SettledCompletionSets(const sat::Solver& solver,
                                          sat::Lit lit, ProbeTally* tally) {
  const int root = solver.RootValue(lit);
  if (root == 0 && !solver.SeenInModel(lit)) return std::nullopt;
  ++tally->settled;
  return root >= 0;
}

bool SomeCompletionSets(sat::Solver* solver, sat::Lit lit, ProbeTally* tally) {
  std::optional<bool> settled = SettledCompletionSets(*solver, lit, tally);
  if (settled.has_value()) return *settled;
  ++tally->solves;
  return solver->SolveWithAssumptions({lit}) == sat::SolveResult::kSat;
}

Result<std::unique_ptr<DecomposedEncoder>> DecomposedEncoder::Build(
    const Specification& spec, const Encoder::Options& /*options*/,
    bool use_chase_routing, const EngineCounters* counters) {
  std::unique_ptr<DecomposedEncoder> de(new DecomposedEncoder());
  de->spec_ = &spec;
  de->use_chase_routing_ = use_chase_routing;
  de->counters_ = counters;
  // Decomposition::Build touches every instance's EntityGroups(), which
  // warms the Relation-level lazy cache before any parallel work begins;
  // from here on the specification and the decomposition (node lists and
  // copy index) are read-only shared state (see the class comment).
  ASSIGN_OR_RETURN(de->decomposition_, Decomposition::Build(spec));
  de->slots_ = std::make_unique<Slot[]>(
      static_cast<size_t>(de->decomposition_.num_components()));
  return de;
}

Result<std::unique_ptr<DecomposedEncoder>> DecomposedEncoder::BuildSuccessor(
    const Specification& edited, DecomposedEncoder& predecessor) {
  ASSIGN_OR_RETURN(std::unique_ptr<DecomposedEncoder> de,
                   Build(edited, {}, predecessor.use_chase_routing_,
                         predecessor.counters_));
  // Distinct components differ in content (each entity group belongs to
  // exactly one), so fingerprints collide only as 64-bit hash accidents;
  // the first component wins, and is erased once taken.
  std::unordered_map<uint64_t, int> untaken;
  for (int p = 0; p < predecessor.num_components(); ++p) {
    untaken.emplace(predecessor.component_fingerprint(p), p);
  }
  int64_t reused = 0;
  int64_t chase_reused = 0;
  int64_t eligible = 0;
  for (int c = 0; c < de->num_components(); ++c) {
    if (de->decomposition_.chase_eligible(c)) ++eligible;
    auto it = untaken.find(de->component_fingerprint(c));
    if (it == untaken.end()) continue;
    Slot& from = predecessor.slots_[it->second];
    untaken.erase(it);
    Slot& to = de->slots_[c];
    bool took = false;
    // try_lock: never wait on a caller mid-solve on this component, and
    // never take an encoder with an open scope.
    if (from.mu.try_lock()) {
      to.encoder = std::move(from.encoder);
      from.mu.unlock();
      if (to.encoder != nullptr) {
        to.encoder->RebindSpec(edited);
        took = true;
      }
    }
    // Shared, not moved: the predecessor's readers keep their pointers.
    if (de->chase_routed(c) &&
        from.chase_ready.load(std::memory_order_acquire)) {
      to.chase = from.chase;
      to.chase_ready.store(true, std::memory_order_release);
      ++chase_reused;
      took = true;
    }
    const int sat = from.sat.load(std::memory_order_acquire);
    if (sat >= 0) {
      to.sat.store(sat, std::memory_order_release);
      took = true;
    }
    if (took) ++reused;
  }
  if (de->counters_ != nullptr) {
    de->counters_->last_reused->Set(reused);
    de->counters_->last_invalidated->Set(de->num_components() - reused);
    de->counters_->last_chase_reused->Set(chase_reused);
    de->counters_->last_chase_rechased->Set(
        de->use_chase_routing_ ? eligible - chase_reused : 0);
  }
  return de;
}

Result<ComponentChase> DecomposedEncoder::BuildComponentChase(int c) const {
  if (c < 0 || c >= num_components()) {
    return Status::InvalidArgument("component index out of range");
  }
  if (!decomposition_.chase_eligible(c)) {
    return Status::InvalidArgument(
        "component " + std::to_string(c) + " is not chase-eligible");
  }
  return ChaseComponentOrders(*spec_, decomposition_.component(c),
                              decomposition_.copy_index());
}

Result<std::unique_ptr<Encoder>> DecomposedEncoder::BuildComponentEncoder(
    int c) const {
  if (c < 0 || c >= num_components()) {
    return Status::InvalidArgument("component index out of range");
  }
  return Encoder::Build(*spec_,
                        Encoder::Options{&decomposition_.component(c),
                                         &decomposition_.copy_index()});
}

Result<std::unique_ptr<Encoder>> DecomposedEncoder::BuildMergedEncoder(
    const std::vector<int>& components) const {
  std::vector<EntityNode> nodes;
  for (int c : components) {
    if (c < 0 || c >= num_components()) {
      return Status::InvalidArgument("component index out of range");
    }
    const std::vector<EntityNode>& own = decomposition_.component(c);
    nodes.insert(nodes.end(), own.begin(), own.end());
  }
  std::sort(nodes.begin(), nodes.end());
  return Encoder::Build(
      *spec_, Encoder::Options{&nodes, &decomposition_.copy_index()});
}

Status DecomposedEncoder::RunSampled(Encoder* encoder,
                                     const EncoderFn& fn) const {
  const sat::SolverStats before = encoder->solver().stats();
  Status status = fn(encoder);
  // The next holder of the slot must see only implied clauses: scoped
  // blocking clauses are retracted before the mutex is released.
  assert(!encoder->solver().scope_open());
  if (counters_ != nullptr) {
    SampleSolverDelta(*counters_, before, encoder->solver().stats());
  }
  return status;
}

Status DecomposedEncoder::WithComponentEncoder(int c, const EncoderFn& fn) {
  Slot& slot = slots_[c];
  std::lock_guard<std::mutex> lock(slot.mu);
  if (slot.encoder == nullptr) {
    // First use, or a successor took the encoder while this engine was
    // still in use; rebuilding gives identical answers.
    ASSIGN_OR_RETURN(slot.encoder, BuildComponentEncoder(c));
  }
  return RunSampled(slot.encoder.get(), fn);
}

Status DecomposedEncoder::WithCcqaEncoder(const std::vector<int>& components,
                                          const EncoderFn& fn) {
  if (components.size() == 1) return WithComponentEncoder(components[0], fn);
  MergedSlot* slot = nullptr;
  {
    std::lock_guard<std::mutex> lock(merged_mu_);
    std::unique_ptr<MergedSlot>& entry = merged_[components];
    if (entry == nullptr) entry = std::make_unique<MergedSlot>();
    slot = entry.get();
  }
  std::lock_guard<std::mutex> lock(slot->mu);
  if (slot->encoder == nullptr) {
    ASSIGN_OR_RETURN(slot->encoder, BuildMergedEncoder(components));
    Count(&EngineCounters::merged_builds);
  }
  return RunSampled(slot->encoder.get(), fn);
}

Result<bool> DecomposedEncoder::SolveComponentBase(int c) {
  Slot& slot = slots_[c];
  bool sat = false;
  RETURN_IF_ERROR(WithComponentEncoder(c, [&](Encoder* encoder) -> Status {
    // A racing caller may have solved this component while we queued for
    // the slot; its bit is authoritative and costs nothing.
    int cached = slot.sat.load(std::memory_order_acquire);
    if (cached >= 0) {
      Count(&EngineCounters::cache_hits);
      sat = cached == 1;
      return Status::OK();
    }
    sat = encoder->solver().Solve() == sat::SolveResult::kSat;
    Count(&EngineCounters::base_solves);
    // A chase-routing engine reached the SAT path: the component carries a
    // grounded denial constraint, so the polynomial route was unavailable.
    if (use_chase_routing_) Count(&EngineCounters::chase_sat_fallbacks);
    slot.sat.store(sat ? 1 : 0, std::memory_order_release);
    return Status::OK();
  }));
  return sat;
}

Result<const ComponentChase*> DecomposedEncoder::ChaseFixpoint(int c) {
  if (c < 0 || c >= num_components()) {
    return Status::InvalidArgument("component index out of range");
  }
  Slot& slot = slots_[c];
  // Write-once publication: after the release store of chase_ready the
  // shared_ptr is never modified again, so the post-acquire read needs no
  // lock.
  if (slot.chase_ready.load(std::memory_order_acquire)) {
    return slot.chase.get();
  }
  std::lock_guard<std::mutex> lock(slot.chase_mu);
  if (!slot.chase_ready.load(std::memory_order_relaxed)) {
    ASSIGN_OR_RETURN(ComponentChase chase, BuildComponentChase(c));
    Count(&EngineCounters::chase_passes, chase.passes);
    Count(&EngineCounters::chase_edges_expanded, chase.edges_expanded);
    slot.chase = std::make_shared<const ComponentChase>(std::move(chase));
    slot.chase_ready.store(true, std::memory_order_release);
  }
  return slot.chase.get();
}

Result<bool> DecomposedEncoder::EnsureAllSolved(exec::ThreadPool* pool) {
  int n = num_components();
  std::vector<int> todo;
  for (int c = 0; c < n; ++c) {
    int s = slots_[c].sat.load(std::memory_order_acquire);
    if (s < 0) {
      todo.push_back(c);
    } else if (s == 0) {
      Count(&EngineCounters::cache_hits);
      return false;  // a cached UNSAT answers without touching the pool
    }
  }
  Count(&EngineCounters::cache_hits, n - static_cast<int64_t>(todo.size()));
  if (todo.empty()) return true;
  // Components are decided in component order.  (A smallest-first order
  // measured ≈10% slower served CPS and COP on perfbench's
  // giant_component workload, where it moves the one big solve to the
  // end of the claim order.)  Per-task results land in their own
  // slots; the first UNSAT cancels the unclaimed rest, whose bits stay
  // unknown — sound, since the answer is already false and a later call
  // re-solves them through this same path.
  std::vector<std::optional<bool>> outcome(todo.size());
  exec::CancellationToken cancel;
  RETURN_IF_ERROR(pool->ParallelFor(
      static_cast<int>(todo.size()),
      [&](int k) -> Status {
        int c = todo[k];
        if (chase_routed(c)) {
          // Chase-eligible component: consistency is the fixpoint's
          // consistency bit (Theorem 6.1(1) on S|_c); no encoder is
          // built.
          ASSIGN_OR_RETURN(const ComponentChase* chase, ChaseFixpoint(c));
          Count(&EngineCounters::chase_solves);
          outcome[k] = chase->consistent;
        } else {
          ASSIGN_OR_RETURN(bool sat, SolveComponentBase(c));
          outcome[k] = sat;
        }
        if (!*outcome[k]) cancel.Cancel();
        return Status::OK();
      },
      &cancel));
  bool consistent = true;
  for (size_t k = 0; k < todo.size(); ++k) {
    if (outcome[k].has_value()) {
      slots_[todo[k]].sat.store(*outcome[k] ? 1 : 0,
                                std::memory_order_release);
      if (!*outcome[k]) consistent = false;
    } else {
      consistent = false;  // skipped by cancellation ⇒ some task was UNSAT
    }
  }
  return consistent;
}

void DecomposedEncoder::AdoptSat(int c, bool sat) {
  slots_[c].sat.store(sat ? 1 : 0, std::memory_order_release);
}

int DecomposedEncoder::CachedSat(int c) const {
  return slots_[c].sat.load(std::memory_order_acquire);
}

}  // namespace currency::core
