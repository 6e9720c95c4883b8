// perfbench_e2e — the repository's end-to-end benchmark.
//
// One process drives serve::SessionManager through its public batch API
// (Register / CpsCheck / CopBatch / DcipBatch / CcqaBatch / Mutate / Drop)
// from closed-loop client threads, on a durable manager opened with
// SessionManager::Open(dir) and otherwise library-default options.  See
// perfbench/README.md for the workloads and the metric catalogue.
//
//   perfbench_e2e --workload=audit_mix --seed=1 --seconds=20 --trace=0
//                 --work-dir=DIR [--commit=SHA]
//
// --trace=0 reports the end-to-end metrics of an untraced run.
// --trace=1 reports the per-layer metrics: an untraced phase whose
// registry deltas give the R-sourced numbers, then a traced phase that
// replays the same request count with benchmark-side spans around every
// manager call plus a layer-level twin of each request (spans.h).
//
// Every run first self-tests the generators, checks a sample of answers
// against fresh one-shot core:: solves and, after the run, checks that a
// reopened manager reproduces the live one.  The last stdout line is one
// JSON object {correct, attempted, failed, metrics}; the exit code is
// nonzero on any wrong answer.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/gen.h"
#include "perfbench/registry_view.h"
#include "perfbench/spans.h"
#include "src/core/ccqa.h"
#include "src/core/certain_order.h"
#include "src/core/consistency.h"
#include "src/core/decompose.h"
#include "src/core/deterministic.h"
#include "src/query/classify.h"
#include "src/query/parser.h"
#include "src/serve/command.h"
#include "src/serve/session_manager.h"
#include "src/wal/log.h"
#include "src/wire/spec.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace core = currency::core;
namespace serve = currency::serve;
namespace obs = currency::obs;
namespace query = currency::query;
using currency::Status;
using currency::Tuple;

// ---------------------------------------------------------------------------
// Options, requests, per-client logs.

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";
  std::string commit = "unknown";
};

enum Proc { kCps, kCop, kDcip, kCcqa, kMutate, kColdCps, kRegister, kDrop,
            kNumProcs };
const char* const kProcName[kNumProcs] = {
    "cps", "cop", "dcip", "ccqa", "mutate", "cold_cps", "register", "drop"};
/// Traced-run span around each manager call.
const char* const kManagerSpan[kNumProcs] = {
    "manager.cps",    "manager.cop", "manager.dcip",     "manager.ccqa",
    "manager.mutate", "manager.cps", "manager.register", "manager.drop"};

struct CcqaItem {
  std::string text;
  std::optional<Tuple> candidate;
};

struct Request {
  Proc proc = kCps;
  int tenant = 0;
  std::vector<core::CurrencyOrderQuery> cop;
  std::vector<std::string> dcip;
  std::vector<CcqaItem> ccqa;
  std::vector<core::TupleEdit> edits;
};

/// One answer kept for the sampled oracle check.
struct Sample {
  Request request;
  int64_t v0 = 0, v1 = 0;  // tenant epoch versions bracketing the call
  std::shared_ptr<const core::Specification> spec;  // see TenantModel
  std::vector<char> bools;
  std::vector<serve::CcqaResponse> ccqa;
};

struct ClientLog {
  std::vector<double> lat_ms[kNumProcs];
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Sample> samples;
  std::vector<double> invalidated;  // gauge reads after each Mutate
  std::string first_error;
};

/// The benchmark's model of one tenant: its generated spec and the edit
/// batches it has acknowledged, in order (version k = initial + k batches).
struct TenantModel {
  std::string name;
  GeneratedSpec gen;
  std::vector<std::vector<core::TupleEdit>> history;
  /// When set, sampled answers are checked against this spec instead of
  /// the initial spec plus `history` (giant_component's per-iteration
  /// tenants).
  std::shared_ptr<const core::Specification> snapshot;
};

const char* InstName(int inst) {
  static const char* names[] = {"Src0", "Src1", "Src2", "Tgt", "Ref", "Audit"};
  return names[inst];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile of raw samples.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// ---------------------------------------------------------------------------
// Twin: a layer-level replay of each request for the traced run.  It
// keeps its own per-component caches keyed by content fingerprint (as the
// serving layer does), so each span wraps the same public call the
// manager makes for that request.

struct ShapeLog {
  std::mutex mu;
  std::vector<double> components, eligible_frac, largest_groups;
};

class Twin {
 public:
  explicit Twin(ShapeLog* shapes) : shapes_(shapes) {}

  Status Reset(const core::Specification& spec) {
    {
      Span s("serve.twin_create");
      auto twin = serve::CurrencySession::Create(spec);
      if (!twin.ok()) return twin.status();
      session_ = std::move(*twin);
    }
    spec_ = spec;
    enc_.clear();
    chase_.clear();
    return NewEpoch();
  }

  Status Mutate(const std::string& tenant,
                const std::vector<core::TupleEdit>& edits) {
    {
      Span s("wire.encode");
      serve::Command cmd;
      cmd.type = serve::Command::Type::kMutate;
      cmd.tenant = tenant;
      cmd.edits = edits;
      s.set_value(static_cast<int64_t>(serve::EncodeCommand(cmd).size()));
    }
    {
      Span s("serve.mutate_apply");
      RETURN_IF_ERROR(session_->Mutate(edits));
    }
    RETURN_IF_ERROR(spec_.ApplyTupleEdits(edits));
    return NewEpoch();
  }

  Status Cop(const std::vector<core::CurrencyOrderQuery>& queries) {
    for (const auto& q : queries) {
      ASSIGN_OR_RETURN(int inst, spec_.InstanceIndex(q.relation));
      for (const core::RequiredPair& p : q.pairs) {
        const Value& eid =
            spec_.instance(inst).relation().tuple(p.before).eid();
        int c = dec_->decomposition().ComponentOf(inst, eid);
        if (dec_->chase_routed(c)) {
          RETURN_IF_ERROR(EnsureChase(c).status());
          continue;
        }
        ASSIGN_OR_RETURN(Slot * slot, EnsureEncoder(c));
        if (!slot->sat) continue;
        Span s("sat.probe");
        currency::sat::Solver& solver = slot->enc->solver();
        int64_t props = solver.stats().propagations;
        solver.SolveWithAssumptions({currency::sat::Negate(
            slot->enc->OrdLit(inst, p.attr, p.before, p.after))});
        s.set_value(solver.stats().propagations - props);
      }
    }
    return Status::OK();
  }

  Status Dcip(const std::vector<std::string>& relations) {
    for (const std::string& rel : relations) {
      ASSIGN_OR_RETURN(int inst, spec_.InstanceIndex(rel));
      for (int c : dec_->decomposition().ComponentsOfInstance(inst)) {
        if (dec_->chase_routed(c)) {
          ASSIGN_OR_RETURN(const core::ComponentChase* chase, EnsureChase(c));
          Span s("chase.sink_check");
          (void)core::internal::DeterministicViaComponentChase(spec_, *chase,
                                                               inst);
          continue;
        }
        ASSIGN_OR_RETURN(Slot * slot, EnsureEncoder(c));
        if (!slot->sat) continue;
        Span s("sat.probe");
        currency::sat::Solver& solver = slot->enc->solver();
        int64_t props = solver.stats().propagations;
        solver.Solve();
        RETURN_IF_ERROR(
            core::internal::DeterministicProbe(spec_, slot->enc.get(), inst)
                .status());
        s.set_value(solver.stats().propagations - props);
      }
    }
    return Status::OK();
  }

  Status Ccqa(const std::vector<CcqaItem>& items) {
    for (const CcqaItem& item : items) {
      ASSIGN_OR_RETURN(query::Query q, query::ParseQuery(item.text));
      ASSIGN_OR_RETURN(std::vector<int> instances,
                       core::internal::QueryInstances(spec_, q));
      std::vector<int> relevant =
          dec_->decomposition().ComponentsOfInstances(instances);
      bool sp = query::IsSpQuery(q) && q.body->Relations().size() == 1;
      for (int c : relevant) sp = sp && dec_->chase_routed(c);
      if (sp) {
        for (int c : relevant) RETURN_IF_ERROR(EnsureChase(c).status());
        Span s("ccqa.enumerate");
        RETURN_IF_ERROR(core::internal::SpAnswersViaComponentChases(
                            [&](int c) -> currency::Result<
                                           const core::ComponentChase*> {
                              return chase_.at(dec_->component_fingerprint(c))
                                  .get();
                            },
                            spec_, q, relevant)
                            .status());
        continue;
      }
      auto make_encoder =
          [&]() -> currency::Result<std::unique_ptr<core::Encoder>> {
        Span s("encoder.merged_build");
        return dec_->BuildMergedEncoder(relevant);
      };
      ASSIGN_OR_RETURN(auto encoder, make_encoder());
      core::CcqaOptions options;
      Span s("ccqa.enumerate");
      if (item.candidate.has_value()) {
        RETURN_IF_ERROR(core::internal::CheckCertainMemberWith(
                            encoder.get(), spec_, q, *item.candidate,
                            instances, options)
                            .status());
      } else {
        auto answers = core::internal::CertainAnswersVia(
            encoder.get(), make_encoder, spec_, q, instances, options);
        if (!answers.ok() && answers.status().code() != currency::StatusCode::kInconsistent) {
          return answers.status();
        }
      }
    }
    return Status::OK();
  }

 private:
  struct Slot {
    std::unique_ptr<core::Encoder> enc;
    bool sat = false;
  };

  /// decompose.build + encoder.build over the current spec, then the
  /// base solve / chase fixpoint of every component not cached under its
  /// fingerprint (what the serving layer's first CpsCheck after an epoch
  /// change pays).
  Status NewEpoch() {
    {
      Span s("decompose.build");
      ASSIGN_OR_RETURN(core::Decomposition d, core::Decomposition::Build(spec_));
      int eligible = 0, largest = 0;
      for (int c = 0; c < d.num_components(); ++c) {
        eligible += d.chase_eligible(c);
        largest = std::max<int>(largest, d.component(c).size());
      }
      std::lock_guard<std::mutex> lock(shapes_->mu);
      shapes_->components.push_back(d.num_components());
      shapes_->eligible_frac.push_back(
          d.num_components() ? double(eligible) / d.num_components() : 0);
      shapes_->largest_groups.push_back(largest);
    }
    dec_.reset();
    {
      Span s("encoder.build");
      ASSIGN_OR_RETURN(dec_, core::DecomposedEncoder::Build(
                                 spec_, core::Encoder::Options{},
                                 /*use_chase_routing=*/true));
    }
    std::set<uint64_t> live;
    for (int c = 0; c < dec_->num_components(); ++c) {
      live.insert(dec_->component_fingerprint(c));
    }
    std::erase_if(enc_, [&](const auto& e) { return !live.count(e.first); });
    std::erase_if(chase_, [&](const auto& e) { return !live.count(e.first); });
    for (auto& [fp, slot] : enc_) slot.enc->RebindSpec(spec_);
    for (int c = 0; c < dec_->num_components(); ++c) {
      if (dec_->chase_routed(c)) {
        RETURN_IF_ERROR(EnsureChase(c).status());
      } else {
        RETURN_IF_ERROR(EnsureEncoder(c).status());
      }
    }
    return Status::OK();
  }

  currency::Result<Slot*> EnsureEncoder(int c) {
    uint64_t fp = dec_->component_fingerprint(c);
    auto it = enc_.find(fp);
    if (it != enc_.end()) return &it->second;
    Slot slot;
    {
      Span s("encoder.build");
      ASSIGN_OR_RETURN(slot.enc, dec_->BuildComponentEncoder(c));
    }
    {
      Span s("sat.base_solve");
      currency::sat::Solver& solver = slot.enc->solver();
      int64_t props = solver.stats().propagations;
      slot.sat = solver.Solve() == currency::sat::SolveResult::kSat;
      s.set_value(solver.stats().propagations - props);
    }
    return &(enc_[fp] = std::move(slot));
  }

  currency::Result<const core::ComponentChase*> EnsureChase(int c) {
    uint64_t fp = dec_->component_fingerprint(c);
    auto it = chase_.find(fp);
    if (it != chase_.end()) return it->second.get();
    Span s("chase.fixpoint");
    ASSIGN_OR_RETURN(core::ComponentChase chase, dec_->BuildComponentChase(c));
    auto& slot = chase_[fp];
    slot = std::make_unique<core::ComponentChase>(std::move(chase));
    return slot.get();
  }

  ShapeLog* shapes_;
  std::unique_ptr<serve::CurrencySession> session_;
  core::Specification spec_;
  std::unique_ptr<core::DecomposedEncoder> dec_;
  std::map<uint64_t, Slot> enc_;
  std::map<uint64_t, std::unique_ptr<core::ComponentChase>> chase_;
};

// ---------------------------------------------------------------------------
// The bench context: manager, tenants, and request issue.

struct Bench {
  Options opt;
  int nproc = 1;
  std::vector<std::unique_ptr<TenantModel>> tenants;
  obs::Registry registry;
  /// The durable manager the run measures, and its log directory.
  std::unique_ptr<serve::SessionManager> mgr;
  std::string dir;
  bool traced = false;  // phase flag: spans + twins on
  ShapeLog shapes;
  std::vector<std::unique_ptr<Twin>> twins;
  std::vector<std::unique_ptr<std::mutex>> twin_mu;

  serve::ManagerOptions ManagerOptions() {
    serve::ManagerOptions options;
    options.num_threads = nproc;
    options.registry = &registry;
    return options;
  }

  /// Opens (or, after a run, reopens) the durable manager on `dir`.
  Status Open() {
    mgr.reset();
    auto opened = serve::SessionManager::Open(dir, ManagerOptions());
    if (!opened.ok()) return opened.status();
    mgr = std::move(*opened);
    return Status::OK();
  }

  int64_t Version(int t) const {
    auto session = mgr->Lookup(tenants[t]->name);
    return session.ok() ? (*session)->epoch_version() : -1;
  }

  /// Issues one request through the manager; records latency, errors and
  /// (when `sample`) the answer; in traced phases also runs the twin.
  void Issue(const Request& req, ClientLog* log, bool sample) {
    TenantModel& tm = *tenants[req.tenant];
    Sample s;
    if (sample) s.v0 = Version(req.tenant);
    Status status = Status::OK();
    int64_t t0 = NowNs();
    {
      Span span(traced ? kManagerSpan[req.proc] : nullptr);
      switch (req.proc) {
        case kCps:
        case kColdCps: {
          auto r = mgr->CpsCheck(tm.name);
          status = r.status();
          if (r.ok()) s.bools = {static_cast<char>(*r)};
          break;
        }
        case kCop: {
          auto r = mgr->CopBatch(tm.name, req.cop);
          status = r.status();
          if (r.ok()) s.bools.assign(r->begin(), r->end());
          break;
        }
        case kDcip: {
          auto r = mgr->DcipBatch(tm.name, req.dcip);
          status = r.status();
          if (r.ok()) s.bools.assign(r->begin(), r->end());
          break;
        }
        case kCcqa: {
          std::vector<serve::CcqaRequest> items;
          for (const CcqaItem& item : req.ccqa) {
            items.push_back({query::ParseQuery(item.text).value(),
                             item.candidate});
          }
          auto r = mgr->CcqaBatch(tm.name, items);
          status = r.status();
          if (r.ok()) s.ccqa = std::move(*r);
          break;
        }
        case kMutate:
          status = mgr->Mutate(tm.name, req.edits);
          break;
        case kRegister:
          status = mgr->Register(tm.name, tm.gen.spec);
          break;
        case kDrop:
          status = mgr->Drop(tm.name);
          break;
        case kNumProcs:
          break;
      }
    }
    const double ms = (NowNs() - t0) / 1e6;
    ++log->attempted;
    if (!status.ok()) {
      ++log->failed;
      if (log->first_error.empty()) {
        log->first_error = std::string(kProcName[req.proc]) + ": " +
                           status.ToString();
      }
      return;
    }
    log->lat_ms[req.proc].push_back(ms);
    if (req.proc == kMutate) {
      tm.history.push_back(req.edits);
      log->invalidated.push_back(static_cast<double>(
          registry
              .GetGauge("currency_serve_components_last_invalidated",
                        {{"tenant", tm.name}})
              ->Value()));
    }
    if (traced) RunTwin(req);
    if (sample && req.proc != kMutate && req.proc != kRegister &&
        req.proc != kDrop) {
      s.v1 = Version(req.tenant);
      s.spec = tm.snapshot;
      s.request = req;
      log->samples.push_back(std::move(s));
    }
  }

  void RunTwin(const Request& req) {
    std::lock_guard<std::mutex> lock(*twin_mu[req.tenant]);
    Twin* twin = twins[req.tenant].get();
    Status st = Status::OK();
    switch (req.proc) {
      case kRegister:
        st = twin->Reset(tenants[req.tenant]->gen.spec);
        break;
      case kMutate:
        st = twin->Mutate(tenants[req.tenant]->name, req.edits);
        break;
      case kCop:
        st = twin->Cop(req.cop);
        break;
      case kDcip:
        st = twin->Dcip(req.dcip);
        break;
      case kCcqa:
        st = twin->Ccqa(req.ccqa);
        break;
      default:
        break;
    }
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: twin failed: %s\n",
                   st.ToString().c_str());
      std::exit(1);
    }
  }

  /// The spec a tenant had at epoch version v.
  core::Specification SpecAt(int t, int64_t v) const {
    core::Specification spec = tenants[t]->gen.spec;
    for (int64_t k = 0; k < v; ++k) {
      if (!spec.ApplyTupleEdits(tenants[t]->history[k]).ok()) std::abort();
    }
    return spec;
  }
};

// ---------------------------------------------------------------------------
// Request generators shared by the workloads.

core::CurrencyOrderQuery CopQuery(const Group& g, std::mt19937_64* rng) {
  std::uniform_int_distribution<int> pick(0, static_cast<int>(g.tuples.size()) - 1);
  int u = pick(*rng), v = pick(*rng);
  while (v == u) v = pick(*rng);
  core::CurrencyOrderQuery q;
  q.relation = InstName(g.inst);
  q.pairs = {{g.inst == kTgt ? kTgtA : kSrcA, g.tuples[u], g.tuples[v]}};
  return q;
}

const Group& PickGroup(const std::vector<Group>& groups, std::mt19937_64* rng) {
  return groups[std::uniform_int_distribution<size_t>(0, groups.size() - 1)(
      *rng)];
}

CcqaItem RefItem(const GeneratedSpec& g, const ZipfPicker& zipf,
                 std::mt19937_64* rng, bool membership) {
  int r = zipf(rng) % static_cast<int>(g.ref_eids.size());
  CcqaItem item;
  item.text = "Q(v) := EXISTS e, w: Ref(e, v, w) AND e = '" +
              g.ref_eids[r].AsString() + "'";
  if (membership) {
    item.candidate = Tuple({Value(std::uniform_int_distribution<int>(0, 4)(*rng))});
  }
  return item;
}

CcqaItem AuditItem(const std::string& eid, std::mt19937_64* rng,
                   bool membership, const char* rel = "Audit") {
  CcqaItem item;
  item.text = std::string("Q(a) := EXISTS p: ") + rel + "('" + eid + "', " +
              (std::string(rel) == "Tgt" ? "a, p)" : "p, a)");
  if (membership) {
    item.candidate = Tuple({Value(std::uniform_int_distribution<int>(0, 3)(*rng))});
  }
  return item;
}

/// A note edit (constraint-free) on a random tuple of `g`.
core::TupleEdit NoteEdit(const Group& g, std::mt19937_64* rng) {
  TupleId t =
      g.tuples[std::uniform_int_distribution<size_t>(0, g.tuples.size() - 1)(
          *rng)];
  return {g.inst, t, g.inst == kTgt ? kTgtNote : kSrcNote,
          Value(std::uniform_int_distribution<int>(0, 999)(*rng))};
}

std::string PickEid(const std::vector<Value>& eids, std::mt19937_64* rng) {
  return eids[std::uniform_int_distribution<size_t>(0, eids.size() - 1)(*rng)]
      .AsString();
}

// ---------------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the tenant models (untimed).
  virtual void Generate(Bench* b) = 0;
  /// Registers the standing tenants on `mgr` and runs their first
  /// CpsCheck: the timed set-up.
  virtual Status SetUp(const Bench& b, serve::SessionManager* mgr) = 0;
  virtual int Clients(const Bench& b) const = 0;
  /// Runs one closed-loop step (one or more requests) of client `c`.
  virtual void Step(Bench* b, int c, std::mt19937_64* rng, ClientLog* log,
                    int64_t step) = 0;
  /// Tenants registered after a run, by model index.
  virtual std::vector<int> Standing(const Bench& b) const = 0;
};

/// Brings every tenant model up on `mgr` at once, one thread per tenant,
/// as a restarting server would: Register, then the first CpsCheck; with
/// `drop`, then Drop.
Status BringUpAll(const Bench& b, serve::SessionManager* mgr, bool drop) {
  std::vector<Status> status(b.tenants.size(), Status::OK());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < b.tenants.size(); ++t) {
    threads.emplace_back([&, t] {
      status[t] = [&]() -> Status {
        const TenantModel& tm = *b.tenants[t];
        RETURN_IF_ERROR(mgr->Register(tm.name, tm.gen.spec));
        ASSIGN_OR_RETURN(bool consistent, mgr->CpsCheck(tm.name));
        if (!consistent) {
          return Status::Internal("generated tenant is inconsistent");
        }
        return drop ? mgr->Drop(tm.name) : Status::OK();
      }();
    });
  }
  for (auto& thread : threads) thread.join();
  for (const Status& st : status) RETURN_IF_ERROR(st);
  return Status::OK();
}

/// audit_mix: read-mostly and multi-tenant — nproc tenants, nproc clients.
class AuditMix : public Workload {
 public:
  void Generate(Bench* b) override {
    for (int t = 0; t < b->nproc; ++t) {
      auto tm = std::make_unique<TenantModel>();
      tm->name = "tenant" + std::to_string(t);
      tm->gen = MakeImprove3CSpec(Mix(b->opt.seed, 100 + t));
      b->tenants.push_back(std::move(tm));
    }
  }
  Status SetUp(const Bench& b, serve::SessionManager* mgr) override {
    return BringUpAll(b, mgr, /*drop=*/false);
  }
  int Clients(const Bench& b) const override { return b.nproc; }
  std::vector<int> Standing(const Bench& b) const override {
    std::vector<int> all;
    for (size_t t = 0; t < b.tenants.size(); ++t) all.push_back(t);
    return all;
  }
  void Step(Bench* b, int c, std::mt19937_64* rng, ClientLog* log,
            int64_t step) override {
    const int tenants = static_cast<int>(b->tenants.size());
    const int roll = std::uniform_int_distribution<int>(0, 999)(*rng);
    Request req;
    // Each client mutates only its own tenant, so a tenant's edit order is
    // the order in which its one mutating client issued them.
    req.tenant = roll < 10 ? c % tenants
                           : std::uniform_int_distribution<int>(
                                 0, tenants - 1)(*rng);
    const GeneratedSpec& g = b->tenants[req.tenant]->gen;
    if (roll < 10) {
      req.proc = kMutate;
      req.edits = {NoteEdit(PickGroup(g.groups_by_rank[zipf_(rng)], rng), rng)};
    } else if (roll < 150) {
      req.proc = kCps;
    } else if (roll < 700) {
      req.proc = kCop;
      for (int k = 0; k < 8; ++k) {
        req.cop.push_back(
            CopQuery(PickGroup(g.groups_by_rank[zipf_(rng)], rng), rng));
      }
    } else if (roll < 850) {
      // Same-shaped batches (two small relations, one Src relation) keep
      // the DCIP latency distribution unimodal.
      req.proc = kDcip;
      req.dcip = {"Audit", "Ref",
                  InstName(std::uniform_int_distribution<int>(0, 2)(*rng))};
    } else {
      req.proc = kCcqa;
      // One SP answer-set request (chase-routed) and one non-SP answer-set
      // request (merged encoder + candidate-and-check loop) per batch.
      req.ccqa = {RefItem(g, ref_zipf_, rng, false),
                  AuditItem(PickEid(g.audit_eids, rng), rng, false)};
    }
    b->Issue(req, log, step % 16 == 0);
  }

 private:
  ZipfPicker zipf_{kChains};
  ZipfPicker ref_zipf_{kRefEntities};
};

/// giant_component: nproc clients, each registering a fresh
/// single-giant-component tenant of its own per step.  Several clients
/// spread the solver work over every CPU, so one slow CPU of a shared
/// host weighs on a share of the samples rather than on all of them.
class GiantComponent : public Workload {
 public:
  static constexpr int kObjects = 48;
  static constexpr int kRefTail = 6;

  void Generate(Bench* b) override {
    for (int c = 0; c < b->nproc; ++c) {
      auto tm = std::make_unique<TenantModel>();
      tm->name = "giant" + std::to_string(c);
      tm->gen = MakeGiantSpec(Mix(b->opt.seed, 300 + c), kObjects, kRefTail, 0);
      b->tenants.push_back(std::move(tm));
    }
  }
  /// Brings up every client's first giant tenant, then drops them: the
  /// steps register their own.
  Status SetUp(const Bench& b, serve::SessionManager* mgr) override {
    return BringUpAll(b, mgr, /*drop=*/true);
  }
  int Clients(const Bench& b) const override { return b.nproc; }
  std::vector<int> Standing(const Bench&) const override { return {}; }
  void Step(Bench* b, int c, std::mt19937_64* rng, ClientLog* log,
            int64_t step) override {
    TenantModel& tm = *b->tenants[c];
    auto issue = [&](Request req, bool sample) {
      req.tenant = c;
      b->Issue(req, log, sample);
    };
    const uint64_t spec_seed = Mix(b->opt.seed, 1000 + (*rng)());
    const bool gadget = step % 4 == 3;
    std::vector<core::CurrencyOrderQuery> cop;
    if (gadget) {
      // The formula comes from a fixed pool of eight (see gen.h).
      auto made = MakeGadgetSpec(step % 32, kGadgetVars, kGadgetClauses);
      if (!made.ok()) std::abort();
      tm.gen = GeneratedSpec{};
      tm.gen.spec = std::move(made->spec);
      cop = {made->order};
    } else {
      tm.gen = MakeGiantSpec(spec_seed, kObjects, kRefTail, step % 8);
      for (int k = 0; k < 4; ++k) {
        cop.push_back(CopQuery(PickGroup(tm.gen.groups_by_rank[0], rng), rng));
      }
    }
    tm.history.clear();
    const bool sample = step % 8 == 0 || step % 8 == 3;
    tm.snapshot = sample ? std::make_shared<core::Specification>(tm.gen.spec)
                         : nullptr;

    const size_t registered = log->lat_ms[kRegister].size();
    const size_t checked = log->lat_ms[kColdCps].size();
    Request reg;
    reg.proc = kRegister;
    issue(reg, false);
    Request cold;
    cold.proc = kColdCps;
    issue(cold, sample);
    // cold_cps is Register + the first CpsCheck; the CpsCheck alone also
    // counts as a cps sample.
    if (log->lat_ms[kRegister].size() > registered &&
        log->lat_ms[kColdCps].size() > checked) {
      double check = log->lat_ms[kColdCps].back();
      log->lat_ms[kColdCps].back() = check + log->lat_ms[kRegister].back();
      log->lat_ms[kCps].push_back(check);
    }

    Request cop_req;
    cop_req.proc = kCop;
    cop_req.cop = cop;
    issue(cop_req, sample);

    Request dcip;
    dcip.proc = kDcip;
    dcip.dcip = {gadget ? "RC" : "Src0"};
    issue(dcip, sample);

    if (!gadget) {
      const Group& g = PickGroup(tm.gen.groups_by_rank[0], rng);
      const Group& t = g.inst == kTgt ? g : tm.gen.groups_by_rank[0][kObjects + 1];
      Request ccqa;
      ccqa.proc = kCcqa;
      ccqa.ccqa = {AuditItem(t.eid.AsString(), rng, true, "Tgt"),
                   RefItem(tm.gen, ref_zipf_, rng, false)};
      issue(ccqa, sample);

      Request mutate;
      mutate.proc = kMutate;
      mutate.edits = {NoteEdit(g, rng)};
      issue(mutate, false);
    }

    Request drop;
    drop.proc = kDrop;
    issue(drop, false);
  }

 private:
  static constexpr int kGadgetVars = 3;
  static constexpr int kGadgetClauses = 4;
  ZipfPicker ref_zipf_{kRefTail};
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "audit_mix") return std::make_unique<AuditMix>();
  if (name == "giant_component") return std::make_unique<GiantComponent>();
  return nullptr;
}

// ---------------------------------------------------------------------------
// Phases.

struct Phase {
  std::vector<ClientLog> logs;
  std::vector<int64_t> steps;
  double wall_s = 0;

  int64_t Attempted() const {
    int64_t n = 0;
    for (const auto& l : logs) n += l.attempted;
    return n;
  }
  int64_t Failed() const {
    int64_t n = 0;
    for (const auto& l : logs) n += l.failed;
    return n;
  }
  std::vector<double> Latencies(Proc p) const {
    std::vector<double> out;
    for (const auto& l : logs) {
      out.insert(out.end(), l.lat_ms[p].begin(), l.lat_ms[p].end());
    }
    return out;
  }
};

/// Runs every client closed-loop until `seconds` elapse — or, when
/// `step_quota` is given, until each client has run its quota of steps
/// (bounded by `seconds` as a safety cap).
Phase RunPhase(Bench* b, Workload* w, double seconds, uint64_t salt,
               const std::vector<int64_t>* step_quota) {
  const int clients = w->Clients(*b);
  Phase phase;
  phase.logs.resize(clients);
  phase.steps.assign(clients, 0);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::mt19937_64 rng(Mix(b->opt.seed, salt * 1000 + c));
      int64_t& step = phase.steps[c];
      while (true) {
        if (step_quota != nullptr && step >= (*step_quota)[c]) break;
        if (NowNs() >= deadline) break;
        Span root(b->traced ? "trace.request" : nullptr);
        w->Step(b, c, &rng, &phase.logs[c], step);
        ++step;
      }
    });
  }
  for (auto& t : threads) t.join();
  phase.wall_s = (NowNs() - start) / 1e9;
  return phase;
}

// ---------------------------------------------------------------------------
// Correctness: sampled one-shot oracle and the recovery check.

bool MatchesOracle(const Sample& s, const core::Specification& spec) {
  const Request& r = s.request;
  switch (r.proc) {
    case kCps:
    case kColdCps: {
      auto out = core::DecideConsistency(spec);
      return out.ok() && out->consistent == (s.bools.at(0) != 0);
    }
    case kCop:
      for (size_t i = 0; i < r.cop.size(); ++i) {
        auto out = core::IsCertainOrder(spec, r.cop[i]);
        if (!out.ok() || *out != (s.bools.at(i) != 0)) return false;
      }
      return true;
    case kDcip:
      for (size_t i = 0; i < r.dcip.size(); ++i) {
        auto out = core::IsDeterministicForRelation(spec, r.dcip[i]);
        if (!out.ok() || *out != (s.bools.at(i) != 0)) return false;
      }
      return true;
    case kCcqa:
      for (size_t i = 0; i < r.ccqa.size(); ++i) {
        query::Query q = query::ParseQuery(r.ccqa[i].text).value();
        const serve::CcqaResponse& got = s.ccqa.at(i);
        if (r.ccqa[i].candidate.has_value()) {
          auto out = core::IsCertainCurrentAnswer(spec, q, *r.ccqa[i].candidate);
          if (!out.ok() || !got.is_certain.has_value() ||
              *out != *got.is_certain) {
            return false;
          }
        } else {
          auto out = core::CertainCurrentAnswers(spec, q);
          if (!out.ok()) {
            if (out.status().code() != currency::StatusCode::kInconsistent ||
                !got.vacuous) {
              return false;
            }
          } else if (!got.answers.has_value() || *out != *got.answers) {
            return false;
          }
        }
      }
      return true;
    default:
      return true;
  }
}

/// Checks up to `per_proc` evenly spread samples of each procedure against
/// fresh one-shot solves on every spec version the request could have
/// pinned.  Returns the number checked; sets *error on a mismatch.
int VerifySamples(const Bench& b, const Phase& phase, int per_proc,
                  std::string* error) {
  std::map<int, std::vector<const Sample*>> by_proc;
  for (const auto& log : phase.logs) {
    for (const Sample& s : log.samples) by_proc[s.request.proc].push_back(&s);
  }
  int checked = 0;
  for (auto& [proc, samples] : by_proc) {
    const size_t n = samples.size();
    const size_t take = std::min<size_t>(n, per_proc);
    for (size_t k = 0; k < take; ++k) {
      const Sample& s = *samples[k * n / take];
      bool ok = false;
      for (int64_t v = s.v0; v <= std::max(s.v0, s.v1) && !ok; ++v) {
        ok = s.spec ? MatchesOracle(s, *s.spec)
                    : MatchesOracle(s, b.SpecAt(s.request.tenant, v));
      }
      ++checked;
      if (!ok && error->empty()) {
        *error = std::string("sampled ") + kProcName[proc] +
                 " answer differs from the one-shot solver";
      }
    }
  }
  return checked;
}

struct LiveState {
  std::vector<std::string> tenants;
  std::vector<std::string> spec_bytes;
  std::vector<char> cps;
  std::vector<std::vector<bool>> cop;
};

/// The standing tenants' spec bytes and CPS/COP answers.
currency::Result<LiveState> Capture(Bench* b, const std::vector<int>& standing) {
  LiveState st;
  serve::SessionManager* mgr = b->mgr.get();
  st.tenants = mgr->Tenants();
  for (int t : standing) {
    const TenantModel& tm = *b->tenants[t];
    ASSIGN_OR_RETURN(auto session, mgr->Lookup(tm.name));
    st.spec_bytes.push_back(currency::wire::SerializeSpecification(session->spec()));
    ASSIGN_OR_RETURN(bool cps, mgr->CpsCheck(tm.name));
    st.cps.push_back(cps);
    std::vector<core::CurrencyOrderQuery> queries;
    std::mt19937_64 rng(7);
    for (size_t r = 0; r < std::min<size_t>(4, tm.gen.groups_by_rank.size()); ++r) {
      queries.push_back(CopQuery(tm.gen.groups_by_rank[r][0], &rng));
    }
    ASSIGN_OR_RETURN(auto cop, mgr->CopBatch(tm.name, queries));
    st.cop.push_back(cop);
  }
  return st;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Report {
  struct Metric {
    double value;
    std::string unit;
    std::string note;
  };
  std::map<std::string, Metric> metrics;
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics[name] = {value, unit, note};
  }
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// p50 and tail of one procedure's latencies, when it ran.
void AddLatency(Report* r, const Phase& phase, Proc p) {
  std::vector<double> lat = phase.Latencies(p);
  if (lat.empty()) return;
  const std::string n = std::to_string(lat.size());
  r->Add(std::string(kProcName[p]) + "_p50_ms", Quantile(lat, 0.5), "ms",
         "n=" + n);
  const double q = TailQuantile(static_cast<double>(lat.size()));
  char note[64];
  std::snprintf(note, sizeof note, "p%g of n=%zu", q * 100, lat.size());
  r->Add(std::string(kProcName[p]) + "_tail_ms", Quantile(lat, q), "ms", note);
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;
}

/// Per-span-name aggregates over the traced run.
struct SpanTotals {
  int64_t count = 0;
  int64_t self_ns = 0;
  int64_t value = 0;
  double MeanMs() const { return count ? self_ns / 1e6 / count : 0; }
};

void AddRegistryMetrics(Report* r, const RegistrySnapshot& before,
                        const RegistrySnapshot& after, const Phase& phase) {
  auto delta = [&](const std::string& name,
                   const std::map<std::string, std::string>& match = {}) {
    return after.Sum(name, match) - before.Sum(name, match);
  };
  auto hist = [&](const std::string& family,
                  const std::map<std::string, std::string>& match = {}) {
    return BucketDelta(before.Buckets(family, match),
                       after.Buckets(family, match));
  };
  for (const char* proc : {"cps", "cop", "dcip", "ccqa"}) {
    auto h = hist("currency_serve_batch_latency_ns", {{"procedure", proc}});
    r->Add(std::string("serve.batch_p50_us.") + proc,
           BucketQuantile(h, 0.5) / 1e3, "us",
           "n=" + Num(BucketCount(h)));
  }
  const double hits = delta("currency_serve_component_cache_hits_total");
  const double sat_solves =
      delta("currency_serve_component_base_solves_total", {{"routing", "sat"}});
  const double chase_solves = delta(
      "currency_serve_component_base_solves_total", {{"routing", "chase"}});
  r->Add("serve.cache_hit_ratio",
         hits + sat_solves + chase_solves > 0
             ? hits / (hits + sat_solves + chase_solves)
             : 0,
         "ratio");
  r->Add("serve.base_solves.sat", sat_solves, "count");
  r->Add("serve.base_solves.chase", chase_solves, "count");
  std::vector<double> inval;
  for (const auto& l : phase.logs) {
    inval.insert(inval.end(), l.invalidated.begin(), l.invalidated.end());
  }
  double inval_sum = 0;
  for (double v : inval) inval_sum += v;
  r->Add("serve.invalidated_per_mutate",
         inval.empty() ? 0 : inval_sum / inval.size(), "count",
         "mutates=" + std::to_string(inval.size()));
  r->Add("serve.merged_builds",
         delta("currency_serve_merged_encoder_builds_total"), "count");
  auto wait = hist("currency_serve_admission_wait_ns");
  r->Add("exec.admission_wait_p50_us", BucketQuantile(wait, 0.5) / 1e3, "us");
  const double wq = TailQuantile(BucketCount(wait));
  r->Add("exec.admission_wait_tail_us", BucketQuantile(wait, wq) / 1e3, "us",
         "p" + Num(wq * 100));
  const double requests = static_cast<double>(phase.Attempted());
  r->Add("exec.pool_tasks_per_request",
         requests > 0 ? delta("currency_exec_pool_tasks_total") / requests : 0,
         "count");
  r->Add("chase.passes", delta("currency_chase_passes_total"), "count");
  r->Add("chase.edges_expanded", delta("currency_chase_edges_expanded_total"),
         "count");
  r->Add("chase.sat_fallbacks", delta("currency_chase_sat_fallbacks_total"),
         "count");
  r->Add("sat.propagations", delta("currency_sat_propagations_total"), "count");
  r->Add("sat.conflicts", delta("currency_sat_conflicts_total"), "count");
  r->Add("sat.arena_bytes", after.Sum("currency_sat_arena_bytes"), "B");
  auto append = hist("currency_wal_append_latency_ns");
  auto fsync = hist("currency_wal_fsync_latency_ns");
  r->Add("wal.append_p50_us", BucketQuantile(append, 0.5) / 1e3, "us",
         "n=" + Num(BucketCount(append)));
  r->Add("wal.fsync_p50_us", BucketQuantile(fsync, 0.5) / 1e3, "us",
         "n=" + Num(BucketCount(fsync)));
  const double fq = TailQuantile(BucketCount(fsync));
  r->Add("wal.fsync_tail_us", BucketQuantile(fsync, fq) / 1e3, "us",
         "p" + Num(fq * 100));
}

// ---------------------------------------------------------------------------
// Generator self-test.

std::string CheckShape(const core::Specification& spec, int min_c, int max_c,
                       double min_eligible, double max_eligible,
                       int largest_groups) {
  auto d = core::Decomposition::Build(spec);
  if (!d.ok()) return d.status().ToString();
  int eligible = 0, largest = 0;
  for (int c = 0; c < d->num_components(); ++c) {
    eligible += d->chase_eligible(c);
    largest = std::max<int>(largest, d->component(c).size());
  }
  const double frac = double(eligible) / d->num_components();
  char buf[256];
  if (d->num_components() < min_c || d->num_components() > max_c ||
      frac < min_eligible || frac > max_eligible || largest != largest_groups) {
    std::snprintf(buf, sizeof buf,
                  "shape out of range: components=%d eligible_frac=%.3f "
                  "largest_component_groups=%d",
                  d->num_components(), frac, largest);
    return buf;
  }
  return "";
}

/// One seed must give byte-identical specs, and the decompositions must
/// keep the shape the README states.
std::string SelfTest(uint64_t seed) {
  using currency::wire::SerializeSpecification;
  if (SerializeSpecification(MakeImprove3CSpec(Mix(seed, 1)).spec) !=
          SerializeSpecification(MakeImprove3CSpec(Mix(seed, 1)).spec) ||
      SerializeSpecification(MakeGiantSpec(Mix(seed, 2), 48, 6, 1).spec) !=
          SerializeSpecification(MakeGiantSpec(Mix(seed, 2), 48, 6, 1).spec) ||
      SerializeSpecification(MakeGadgetSpec(Mix(seed, 3), 3, 4)->spec) !=
          SerializeSpecification(MakeGadgetSpec(Mix(seed, 3), 3, 4)->spec)) {
    return "a generator is not deterministic in its seed";
  }
  // 160 chains + 48 Ref + 4 Audit singletons; the rank-1 chain of 16
  // objects has 33 groups; 17 chains plus the 4 Audit entities are
  // constrained.
  std::string why = CheckShape(MakeImprove3CSpec(Mix(seed, 1)).spec,
                               212, 212, 0.80, 0.96, 33);
  if (!why.empty()) return "improve3c " + why;
  // One 97-group chain, 6 Ref singletons, 1 Audit singleton.
  why = CheckShape(MakeGiantSpec(Mix(seed, 2), 48, 6, 1).spec, 8, 8, 0.74, 0.76,
                   97);
  if (!why.empty()) return "giant " + why;
  return "";
}

// ---------------------------------------------------------------------------
// Main.

int Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  return 1;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const Report& report) {
  for (const auto& [name, m] : report.metrics) {
    std::printf("metric %-36s %16s %-6s %s\n", name.c_str(),
                Num(m.value).c_str(), m.unit.c_str(), m.note.c_str());
  }
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : report.metrics) {
    json += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " +
            Num(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* key) -> const char* {
      size_t n = std::strlen(key);
      return arg.compare(0, n, key) == 0 ? argv[i] + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      opt.workload = v;
    } else if (const char* v = value("--seed=")) {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      opt.seconds = std::atof(v);
    } else if (const char* v = value("--trace=")) {
      opt.trace = std::atoi(v) != 0;
    } else if (const char* v = value("--work-dir=")) {
      opt.work_dir = v;
    } else if (const char* v = value("--commit=")) {
      opt.commit = v;
    } else {
      return Fail("unknown argument " + arg);
    }
  }
  std::unique_ptr<Workload> workload = MakeWorkload(opt.workload);
  if (workload == nullptr || opt.seconds <= 0) {
    return Fail("usage: --workload=audit_mix|giant_component "
                "--seed=N --seconds=S --trace=0|1 --work-dir=DIR");
  }

  Bench b;
  b.opt = opt;
  b.nproc = std::max(1, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)));
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::printf("stamp nproc=%d compiler=\"%s\" build_type=%s%s commit=%s "
              "seed=%llu workload=%s trace=%d\n",
              b.nproc, __VERSION__, PERFBENCH_BUILD_TYPE,
              optimized ? "" : " (NOT OPTIMISED: numbers are not comparable)",
              opt.commit.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.workload.c_str(), opt.trace ? 1 : 0);
  std::printf("stamp options: library defaults — ManagerOptions{} and "
              "SessionOptions{} except num_threads=nproc and an injected "
              "obs::Registry; tracer disabled; durable manager via "
              "SessionManager::Open(dir); setup_s timed on in-memory "
              "SessionManager::Create\n");

  if (std::string why = SelfTest(opt.seed); !why.empty()) {
    return Fail("generator self-test: " + why);
  }

  namespace fs = std::filesystem;
  const fs::path root = fs::path(opt.work_dir) /
                        (opt.workload + "-" + std::to_string(opt.seed) + "-" +
                         std::to_string(getpid()));
  fs::remove_all(root);
  fs::create_directories(root);
  workload->Generate(&b);
  for (size_t t = 0; t < b.tenants.size(); ++t) {
    b.twins.push_back(std::make_unique<Twin>(&b.shapes));
    b.twin_mu.push_back(std::make_unique<std::mutex>());
  }

  // Timed set-up on fresh in-memory managers (the durable manager's fsyncs
  // would make it follow the shared disk): standing tenants registered and
  // cold-checked.  The untraced run repeats it, half before and half after
  // the measured phase and 200 ms apart, so that the reps see several of a
  // shared host's speed phases, and reports the median.  The durable
  // manager is then set up the same way, untimed.
  std::vector<double> setups;
  auto time_setups = [&](int reps) -> Status {
    for (int k = 0; k < reps; ++k) {
      const int64_t t0 = NowNs();
      ASSIGN_OR_RETURN(auto mgr,
                       serve::SessionManager::Create(b.ManagerOptions()));
      RETURN_IF_ERROR(workload->SetUp(b, mgr.get()));
      setups.push_back((NowNs() - t0) / 1e9);
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    return Status::OK();
  };
  const int setup_reps = opt.trace ? 0 : 10;
  if (Status st = time_setups(setup_reps); !st.ok()) {
    return Fail("set-up: " + st.ToString());
  }
  b.dir = (root / "wal").string();
  if (Status st = b.Open(); !st.ok()) return Fail("open: " + st.ToString());
  if (Status st = workload->SetUp(b, b.mgr.get()); !st.ok()) {
    return Fail("set-up: " + st.ToString());
  }

  Report report;
  std::string error;
  Phase measured;
  if (!opt.trace) {
    measured = RunPhase(&b, workload.get(), opt.seconds, 1, nullptr);
    if (Status st = time_setups(setup_reps); !st.ok()) {
      return Fail("set-up: " + st.ToString());
    }
    report.Add("setup_s", Median(setups), "s",
               "median of " + std::to_string(setups.size()));
    report.Add("throughput_rps",
               (measured.Attempted() - measured.Failed()) / measured.wall_s,
               "req/s", "clients=" + std::to_string(workload->Clients(b)));
    report.Add("failed_frac",
               measured.Attempted() ? double(measured.Failed()) /
                                          measured.Attempted()
                                    : 0,
               "ratio");
    for (Proc p : {kCps, kCop, kDcip, kCcqa, kMutate, kColdCps, kRegister, kDrop}) {
      AddLatency(&report, measured, p);
    }
  } else {
    // Phase A: untraced, registry deltas.
    RegistrySnapshot before = RegistrySnapshot::Take(b.registry);
    Phase a = RunPhase(&b, workload.get(), opt.seconds / 2, 1, nullptr);
    RegistrySnapshot after = RegistrySnapshot::Take(b.registry);
    AddRegistryMetrics(&report, before, after, a);
    // Twins of the standing tenants, then phase B: the same step counts,
    // traced.
    Spans::Get().Enable();
    for (int t : workload->Standing(b)) {
      std::lock_guard<std::mutex> lock(*b.twin_mu[t]);
      Status st = b.twins[t]->Reset(b.SpecAt(t, b.tenants[t]->history.size()));
      if (!st.ok()) return Fail("twin bring-up: " + st.ToString());
    }
    b.traced = true;
    const int64_t window_start = NowNs();
    measured = RunPhase(&b, workload.get(), 4 * opt.seconds + 10, 2, &a.steps);
    const int64_t window_end = NowNs();
    b.traced = false;
    {
      Span s("wal.read");
      auto log = currency::wal::LogReader::ReadDir(b.dir);
      if (!log.ok()) return Fail("wal read: " + log.status().ToString());
    }
    // Coverage: how much of the manager calls' time the twin's layer
    // spans (which run after each call, as its siblings) account for.
    std::map<std::string, SpanTotals> totals;
    int64_t layer_self_ns = 0, manager_ns = 0;
    std::vector<SpanRecord> spans = Spans::Get().All();
    for (const SpanRecord& s : spans) {
      SpanTotals& t = totals[s.name];
      ++t.count;
      t.self_ns += s.SelfNs();
      t.value += s.value;
      if (s.start_ns < window_start || s.end_ns > window_end) continue;
      if (std::strncmp(s.name, "manager.", 8) == 0) {
        manager_ns += s.end_ns - s.start_ns;
      } else if (std::strncmp(s.name, "trace.", 6) != 0) {
        layer_self_ns += s.SelfNs();
      }
    }
    auto mean_ms = [&](const char* name) { return totals[name].MeanMs(); };
    report.Add("serve.mutate_apply_ms", mean_ms("serve.mutate_apply"), "ms");
    report.Add("decompose.build_ms", mean_ms("decompose.build"), "ms",
               "n=" + std::to_string(totals["decompose.build"].count));
    report.Add("decompose.components", Median(b.shapes.components), "count");
    report.Add("decompose.chase_eligible_frac", Median(b.shapes.eligible_frac),
               "ratio");
    report.Add("decompose.largest_component_groups",
               Median(b.shapes.largest_groups), "count");
    report.Add("encoder.build_ms", mean_ms("encoder.build"), "ms",
               "n=" + std::to_string(totals["encoder.build"].count));
    report.Add("encoder.merged_build_ms", mean_ms("encoder.merged_build"), "ms",
               "n=" + std::to_string(totals["encoder.merged_build"].count));
    report.Add("chase.fixpoint_ms", mean_ms("chase.fixpoint"), "ms",
               "n=" + std::to_string(totals["chase.fixpoint"].count));
    report.Add("sat.base_solve_ms", mean_ms("sat.base_solve"), "ms",
               "n=" + std::to_string(totals["sat.base_solve"].count));
    report.Add("sat.probe_ms", mean_ms("sat.probe"), "ms",
               "n=" + std::to_string(totals["sat.probe"].count));
    const double search_s =
        (totals["sat.base_solve"].self_ns + totals["sat.probe"].self_ns) / 1e9;
    report.Add("sat.props_per_s",
               search_s > 0 ? (totals["sat.base_solve"].value +
                               totals["sat.probe"].value) / search_s
                            : 0,
               "1/s", "twin solvers");
    report.Add("ccqa.enumerate_ms", mean_ms("ccqa.enumerate"), "ms",
               "n=" + std::to_string(totals["ccqa.enumerate"].count));
    const SpanTotals& enc = totals["wire.encode"];
    report.Add("wire.encode_us", enc.MeanMs() * 1e3, "us");
    report.Add("wire.bytes_per_mutate",
               enc.count ? double(enc.value) / enc.count : 0, "B");
    report.Add("wal.read_ms", mean_ms("wal.read"), "ms");
    const double window_s = (window_end - window_start) / 1e9;
    report.Add("trace.coverage_frac",
               manager_ns > 0 ? double(layer_self_ns) / manager_ns : 0,
               "ratio", "twin layer self time / manager call time");
    const double per_step_a = a.wall_s / std::max<int64_t>(1, a.Attempted());
    const double per_step_b =
        window_s / std::max<int64_t>(1, measured.Attempted());
    report.Add("trace.overhead_frac", per_step_b / per_step_a - 1, "ratio",
               "traced vs untraced wall per request");
    // The span dump: one JSON object per span.
    const fs::path dump = fs::path(opt.work_dir) /
                          ("spans-" + opt.workload + "-" +
                           std::to_string(opt.seed) + ".jsonl");
    std::ofstream out(dump);
    for (const SpanRecord& s : spans) {
      out << "{\"thread\": " << s.thread << ", \"name\": \"" << s.name
          << "\", \"parent\": " << s.parent << ", \"start_ns\": " << s.start_ns
          << ", \"dur_ns\": " << (s.end_ns - s.start_ns)
          << ", \"self_ns\": " << s.SelfNs() << ", \"value\": " << s.value
          << "}\n";
    }
    std::printf("spans %zu written to %s\n", spans.size(), dump.c_str());
    measured.logs.insert(measured.logs.end(), a.logs.begin(), a.logs.end());
  }
  for (const auto& log : measured.logs) {
    if (!log.first_error.empty()) {
      std::fprintf(stderr, "perfbench: request failed: %s\n",
                   log.first_error.c_str());
    }
  }

  // Recovery: reopen the directory and compare with the live manager.
  const std::vector<int> standing = workload->Standing(b);
  auto live = Capture(&b, standing);
  if (!live.ok()) return Fail("capture: " + live.status().ToString());
  const int64_t t0 = NowNs();
  if (Status st = b.Open(); !st.ok()) return Fail("reopen: " + st.ToString());
  for (int t : standing) {
    auto cps = b.mgr->CpsCheck(b.tenants[t]->name);
    if (!cps.ok()) return Fail("reopen: " + cps.status().ToString());
  }
  const double recover_s = (NowNs() - t0) / 1e9;
  auto recovered = Capture(&b, standing);
  if (!recovered.ok()) return Fail("capture: " + recovered.status().ToString());
  if (recovered->tenants != live->tenants ||
      recovered->spec_bytes != live->spec_bytes ||
      recovered->cps != live->cps || recovered->cop != live->cop) {
    error = "reopened manager differs from the live one";
  }
  if (!opt.trace) report.Add("recover_s", recover_s, "s");

  const int checked = VerifySamples(b, measured, opt.workload == "audit_mix" ? 4 : 8,
                                    &error);
  std::printf("verified %d sampled answers against one-shot solves; "
              "recovery check %s\n",
              checked, error.empty() ? "passed" : "FAILED");
  b.mgr.reset();
  fs::remove_all(root);
  if (!opt.trace) report.Add("peak_rss_mb", PeakRssMb(), "MiB");
  const bool correct = error.empty() && checked > 0;
  PrintResult(correct, measured.Attempted(), measured.Failed(), report);
  if (!correct) return Fail(error.empty() ? "no answers verified" : error);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
