// Concurrency tests for the serving layer: snapshot isolation
// (linearizability of batches against epoch snapshots), the multi-region
// thread pool, the admission primitives, and the multi-tenant
// SessionManager.  scripts/check.sh runs this suite under both
// ThreadSanitizer and AddressSanitizer.
//
// The linearizability fuzz is the heart: N reader threads fire query
// batches while one mutator streams edit batches.  Every batch pins one
// epoch, so its answers must equal a fresh monolithic solve of SOME
// specification version the batch overlapped — the version window is
// bounded by epoch_version() reads bracketing the batch, and the mutator
// keeps a shadow copy of every published version.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/ccqa.h"
#include "src/core/certain_order.h"
#include "src/core/consistency.h"
#include "src/core/deterministic.h"
#include "src/exec/semaphore.h"
#include "src/exec/thread_pool.h"
#include "src/query/parser.h"
#include "src/serve/session.h"
#include "src/serve/session_manager.h"
#include "tests/fixtures.h"
#include "tests/support/monolithic.h"

namespace currency::serve {
namespace {

using currency::testing::MakeRandomSpec;

// ---------------------------------------------------------------------------
// exec::AdmissionGate
// ---------------------------------------------------------------------------

TEST(AdmissionGateTest, RejectsBeyondQueue) {
  exec::AdmissionGate gate(/*max_active=*/1, /*max_waiting=*/0);
  ASSERT_TRUE(gate.Enter().ok());
  Status second = gate.Enter();
  EXPECT_EQ(second.code(), StatusCode::kResourceExhausted) << second;
  gate.Leave();
  ASSERT_TRUE(gate.Enter().ok());
  gate.Leave();
  EXPECT_EQ(gate.active(), 0);
}

TEST(AdmissionGateTest, ZeroActiveRejectsEverything) {
  exec::AdmissionGate gate(/*max_active=*/0, /*max_waiting=*/4);
  EXPECT_EQ(gate.Enter().code(), StatusCode::kResourceExhausted);
}

TEST(AdmissionGateTest, QueuedCallerUnblocksOnLeave) {
  exec::AdmissionGate gate(/*max_active=*/1, /*max_waiting=*/1);
  ASSERT_TRUE(gate.Enter().ok());
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    Status st = gate.Enter();
    ASSERT_TRUE(st.ok()) << st;
    admitted.store(true);
    gate.Leave();
  });
  while (gate.waiting() == 0) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(admitted.load());
  gate.Leave();
  waiter.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(gate.active(), 0);
  EXPECT_EQ(gate.waiting(), 0);
}

// ---------------------------------------------------------------------------
// exec::ThreadPool multi-region behaviour
// ---------------------------------------------------------------------------

TEST(ThreadPoolConcurrentTest, ConcurrentRegionsComputeIndependently) {
  exec::ThreadPool pool(4);
  constexpr int kRegions = 4;
  constexpr int kTasks = 64;
  std::vector<std::vector<int>> results(kRegions,
                                        std::vector<int>(kTasks, -1));
  std::vector<std::thread> callers;
  for (int r = 0; r < kRegions; ++r) {
    callers.emplace_back([&, r] {
      Status st = pool.ParallelFor(kTasks, [&, r](int task) -> Status {
        results[r][task] = r * 1000 + task;
        return Status::OK();
      });
      ASSERT_TRUE(st.ok()) << st;
    });
  }
  for (std::thread& t : callers) t.join();
  for (int r = 0; r < kRegions; ++r) {
    for (int task = 0; task < kTasks; ++task) {
      ASSERT_EQ(results[r][task], r * 1000 + task);
    }
  }
}

TEST(ThreadPoolConcurrentTest, CallerDrainsOwnRegionEvenWhenWorkersAreBusy) {
  // Region A's tasks block until region B completes.  If region B's
  // progress depended on pool workers (which may all be stuck in A), this
  // would deadlock; the caller-drains-own-region contract guarantees B
  // finishes on its submitting thread.
  exec::ThreadPool pool(3);  // 2 workers
  std::mutex mu;
  std::condition_variable cv;
  bool b_done = false;
  std::thread a_caller([&] {
    Status st = pool.ParallelFor(4, [&](int) -> Status {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return b_done; });
      return Status::OK();
    });
    ASSERT_TRUE(st.ok()) << st;
  });
  std::thread b_caller([&] {
    std::atomic<int> ran{0};
    Status st = pool.ParallelFor(8, [&](int) -> Status {
      ran.fetch_add(1);
      return Status::OK();
    });
    ASSERT_TRUE(st.ok()) << st;
    ASSERT_EQ(ran.load(), 8);
    {
      std::lock_guard<std::mutex> lock(mu);
      b_done = true;
    }
    cv.notify_all();
  });
  b_caller.join();
  a_caller.join();
}

TEST(ThreadPoolConcurrentTest, ConcurrentRegionErrorsStayPerRegion) {
  exec::ThreadPool pool(4);
  std::vector<std::thread> callers;
  std::vector<Status> statuses(2, Status::OK());
  for (int r = 0; r < 2; ++r) {
    callers.emplace_back([&, r] {
      statuses[r] = pool.ParallelFor(32, [&, r](int task) -> Status {
        if (r == 0 && task == 7) {
          return Status::Internal("region 0 fails");
        }
        return Status::OK();
      });
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(statuses[0].code(), StatusCode::kInternal) << statuses[0];
  EXPECT_TRUE(statuses[1].ok()) << statuses[1];
}

// ---------------------------------------------------------------------------
// CurrencySession option validation (satellite)
// ---------------------------------------------------------------------------

TEST(SessionValidationTest, RejectsNonPositiveNumThreads) {
  SessionOptions options;
  options.num_threads = 0;
  auto session = CurrencySession::Create(MakeRandomSpec(1, true, true), options);
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument)
      << session.status();
}

TEST(SessionValidationTest, RejectsNonPositiveInstanceBudget) {
  SessionOptions options;
  options.max_current_instances = 0;
  auto session = CurrencySession::Create(MakeRandomSpec(1, true, true), options);
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument)
      << session.status();
}

// ---------------------------------------------------------------------------
// Linearizability fuzz: N readers × 1 mutator
// ---------------------------------------------------------------------------

/// Fresh monolithic answers for one specification version (decomposition
/// and fast paths off — a maximally independent comparator).
struct FreshAnswers {
  bool cps = false;
  std::vector<bool> cop;
  std::vector<bool> dcip;
  bool ccqa_vacuous = false;
  std::set<Tuple> ccqa_answers;
};

/// What one reader batch observed, with the epoch-version window that
/// bounds which specification versions it could have pinned.
struct BatchRecord {
  int64_t v0 = 0;
  int64_t v1 = 0;
  int kind = 0;  // 0 = CPS, 1 = COP, 2 = DCIP, 3 = CCQA
  bool cps = false;
  std::vector<bool> flags;  // COP / DCIP answers
  bool ccqa_vacuous = false;
  std::set<Tuple> ccqa_answers;
};

std::vector<core::CurrencyOrderQuery> MakeFuzzCopQueries(
    const core::Specification& spec) {
  const Relation& rel = spec.instance(0).relation();
  std::vector<core::CurrencyOrderQuery> queries;
  auto add = [&](int attr, int before, int after) {
    core::CurrencyOrderQuery q;
    q.relation = "R";
    q.pairs = {core::RequiredPair{attr, before % rel.size(),
                                  after % rel.size()}};
    queries.push_back(std::move(q));
  };
  add(1, 0, 1);
  add(2, 1, 0);
  add(1, 0, 2);
  add(1, 2, 3);
  return queries;
}

/// The fuzz's CCQA query: over R (two or more components, so a merged
/// encoder), or over R2 (one entity, so its component's own encoder — the
/// solver COP and DCIP probe too).
query::Query MakeFuzzQuery(bool on_r2) {
  return query::ParseQuery(on_r2 ? "Q(x) := R2('f0', x)"
                                 : "Q(x) := EXISTS y: R('e0', x, y)")
      .value();
}

Result<FreshAnswers> SolveFresh(const core::Specification& spec,
                                const std::vector<core::CurrencyOrderQuery>&
                                    cop_queries,
                                const std::vector<std::string>& relations,
                                const query::Query& ccqa_query) {
  FreshAnswers fresh;
  ASSIGN_OR_RETURN(fresh.cps, currency::testing::MonolithicConsistent(spec));
  for (const core::CurrencyOrderQuery& q : cop_queries) {
    ASSIGN_OR_RETURN(bool certain,
                     currency::testing::MonolithicCertainOrder(spec, q));
    fresh.cop.push_back(certain);
  }
  for (const std::string& rel : relations) {
    ASSIGN_OR_RETURN(bool deterministic,
                     currency::testing::MonolithicDeterministic(spec, rel));
    fresh.dcip.push_back(deterministic);
  }
  auto answers =
      currency::testing::MonolithicCertainAnswers(spec, ccqa_query);
  if (!answers.ok()) {
    if (answers.status().code() != StatusCode::kInconsistent) {
      return answers.status();
    }
    fresh.ccqa_vacuous = true;
  } else {
    fresh.ccqa_answers = *answers;
  }
  return fresh;
}

bool Matches(const BatchRecord& rec, const FreshAnswers& fresh) {
  switch (rec.kind) {
    case 0:
      return rec.cps == fresh.cps;
    case 1:
      return rec.flags == fresh.cop;
    case 2:
      return rec.flags == fresh.dcip;
    default:
      if (rec.ccqa_vacuous != fresh.ccqa_vacuous) return false;
      return rec.ccqa_vacuous || rec.ccqa_answers == fresh.ccqa_answers;
  }
}

class ConcurrentLinearizability : public ::testing::TestWithParam<int> {};

TEST_P(ConcurrentLinearizability, BatchAnswersMatchSomeOverlappedEpoch) {
  constexpr int kReaders = 3;
  constexpr int kBatchesPerReader = 5;
  constexpr int kMutations = 4;
  const int session_threads = GetParam();

  for (int variant = 0; variant < 3; ++variant) {
    SCOPED_TRACE("threads=" + std::to_string(session_threads) +
                 " variant=" + std::to_string(variant));
    // Variant 0: SAT-routed (ungated constraints).  Variant 1: mixed
    // chase/SAT routing (entity-gated constraints, half the groups free).
    // Variant 2: everything on SAT, CCQA over the one-component R2, and
    // COP pairs on R2 too — scoped CCQA loops and COP/DCIP probes race
    // for one cached solver.
    const bool on_r2 = variant == 2;
    unsigned seed = 97 + variant;
    core::Specification spec;
    while (true) {
      spec = MakeRandomSpec(seed++, /*with_copy=*/true,
                            /*with_constraints=*/true,
                            /*constraint_free_fraction=*/variant == 1 ? 0.5
                                                                      : 0.0);
      if (!on_r2 || spec.instance(1).relation().size() >= 2) break;
    }
    const query::Query ccqa_query = MakeFuzzQuery(on_r2);
    std::vector<core::CurrencyOrderQuery> cop_queries =
        MakeFuzzCopQueries(spec);
    if (on_r2) {
      for (auto [before, after] : {std::pair{0, 1}, std::pair{1, 0}}) {
        core::CurrencyOrderQuery q;
        q.relation = "R2";
        q.pairs = {core::RequiredPair{1, before, after}};
        cop_queries.push_back(std::move(q));
      }
    }
    std::vector<std::string> relations;
    for (int i = 0; i < spec.num_instances(); ++i) {
      relations.push_back(spec.instance(i).name());
    }

    SessionOptions options;
    options.num_threads = session_threads;
    auto created =
        on_r2 ? CurrencySession::CreateForcedSatForTesting(spec, options)
              : CurrencySession::Create(spec, options);
    ASSERT_TRUE(created.ok()) << created.status();
    CurrencySession* session = created->get();

    // Shadow history: shadows[v] is the specification at epoch version v.
    std::mutex shadow_mu;
    std::vector<core::Specification> shadows = {spec};

    std::mutex record_mu;
    std::vector<BatchRecord> records;
    std::atomic<bool> failed{false};

    std::vector<std::thread> threads;
    for (int reader = 0; reader < kReaders; ++reader) {
      threads.emplace_back([&, reader] {
        for (int b = 0; b < kBatchesPerReader && !failed.load(); ++b) {
          BatchRecord rec;
          rec.kind = (reader + b) % 4;
          rec.v0 = session->epoch_version();
          switch (rec.kind) {
            case 0: {
              auto got = session->CpsCheck();
              if (!got.ok()) {
                failed.store(true);
                ADD_FAILURE() << got.status();
                return;
              }
              rec.cps = *got;
              break;
            }
            case 1: {
              auto got = session->CopBatch(cop_queries);
              if (!got.ok()) {
                failed.store(true);
                ADD_FAILURE() << got.status();
                return;
              }
              rec.flags = *got;
              break;
            }
            case 2: {
              auto got = session->DcipBatch(relations);
              if (!got.ok()) {
                failed.store(true);
                ADD_FAILURE() << got.status();
                return;
              }
              rec.flags = *got;
              break;
            }
            default: {
              std::vector<CcqaRequest> requests;
              requests.push_back(CcqaRequest{ccqa_query, std::nullopt});
              auto got = session->CcqaBatch(requests);
              if (!got.ok()) {
                failed.store(true);
                ADD_FAILURE() << got.status();
                return;
              }
              rec.ccqa_vacuous = (*got)[0].vacuous;
              if ((*got)[0].answers.has_value()) {
                rec.ccqa_answers = *(*got)[0].answers;
              }
              break;
            }
          }
          rec.v1 = session->epoch_version();
          std::lock_guard<std::mutex> lock(record_mu);
          records.push_back(std::move(rec));
        }
      });
    }
    std::thread mutator([&] {
      std::mt19937 rng(1009 * (variant + 1) + session_threads);
      auto rnd = [&](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
      };
      for (int m = 0; m < kMutations && !failed.load(); ++m) {
        core::Specification next;
        {
          std::lock_guard<std::mutex> lock(shadow_mu);
          next = shadows.back();
        }
        // Free-attribute (B) edits only: always accepted, and they flow
        // through the full fingerprint/invalidation machinery.
        const Relation& rel = next.instance(0).relation();
        std::vector<core::TupleEdit> edits = {
            core::TupleEdit{0, rnd(0, rel.size() - 1), 2, Value(rnd(0, 3))}};
        Status shadow_st = next.ApplyTupleEdits(edits);
        Status st = session->Mutate(edits);
        if (st.ok() != shadow_st.ok()) {
          failed.store(true);
          ADD_FAILURE() << "session Mutate " << st << " vs shadow "
                        << shadow_st;
          return;
        }
        if (st.ok()) {
          std::lock_guard<std::mutex> lock(shadow_mu);
          shadows.push_back(std::move(next));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    for (std::thread& t : threads) t.join();
    mutator.join();
    if (failed.load()) return;

    // Verify: every batch's answers equal a fresh monolithic solve of
    // some version inside its window.
    std::map<int64_t, FreshAnswers> memo;
    for (size_t r = 0; r < records.size(); ++r) {
      const BatchRecord& rec = records[r];
      ASSERT_LE(rec.v0, rec.v1);
      ASSERT_LT(static_cast<size_t>(rec.v1), shadows.size());
      bool matched = false;
      for (int64_t v = rec.v0; v <= rec.v1 && !matched; ++v) {
        auto it = memo.find(v);
        if (it == memo.end()) {
          auto fresh =
              SolveFresh(shadows[v], cop_queries, relations, ccqa_query);
          ASSERT_TRUE(fresh.ok()) << fresh.status();
          it = memo.emplace(v, *fresh).first;
        }
        matched = Matches(rec, it->second);
      }
      EXPECT_TRUE(matched) << "record " << r << " kind " << rec.kind
                           << " window [" << rec.v0 << ", " << rec.v1
                           << "] matches no overlapped epoch";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ConcurrentLinearizability,
                         ::testing::Values(1, 2, 8));

// ---------------------------------------------------------------------------
// SessionManager
// ---------------------------------------------------------------------------

TEST(SessionManagerTest, RegisterLookupDropLifecycle) {
  auto manager = SessionManager::Create();
  ASSERT_TRUE(manager.ok()) << manager.status();
  ASSERT_TRUE(
      (*manager)->Register("beta", MakeRandomSpec(2, true, true)).ok());
  ASSERT_TRUE(
      (*manager)->Register("alpha", MakeRandomSpec(3, false, true)).ok());
  EXPECT_EQ((*manager)->Tenants(),
            (std::vector<std::string>{"alpha", "beta"}));
  Status dup = (*manager)->Register("alpha", MakeRandomSpec(4, true, false));
  EXPECT_EQ(dup.code(), StatusCode::kFailedPrecondition) << dup;
  auto session = (*manager)->Lookup("alpha");
  ASSERT_TRUE(session.ok()) << session.status();
  EXPECT_GE((*session)->num_components(), 1);
  ASSERT_TRUE((*manager)->Drop("alpha").ok());
  EXPECT_EQ((*manager)->Lookup("alpha").status().code(), StatusCode::kNotFound);
  EXPECT_EQ((*manager)->Drop("alpha").code(), StatusCode::kNotFound);
  auto cps = (*manager)->CpsCheck("beta");
  ASSERT_TRUE(cps.ok()) << cps.status();
}

TEST(SessionManagerTest, RejectsInvalidQuotasAndNames) {
  auto manager = SessionManager::Create();
  ASSERT_TRUE(manager.ok()) << manager.status();
  TenantQuotas quotas;
  quotas.max_active_batches = 0;
  EXPECT_EQ((*manager)
                ->Register("t", MakeRandomSpec(5, false, false), quotas)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*manager)->Register("", MakeRandomSpec(5, false, false)).code(),
            StatusCode::kInvalidArgument);
  // A negative quota is rejected, never read as "unlimited" or "default".
  TenantQuotas negative_queue;
  negative_queue.max_queued_batches = -1;
  TenantQuotas negative_components;
  negative_components.max_components = -1;
  TenantQuotas negative_instances;
  negative_instances.max_current_instances = -1;
  for (const TenantQuotas& bad :
       {negative_queue, negative_components, negative_instances}) {
    EXPECT_EQ(
        (*manager)->Register("t", MakeRandomSpec(5, false, false), bad).code(),
        StatusCode::kInvalidArgument);
  }
  EXPECT_TRUE((*manager)->Tenants().empty());
}

TEST(SessionManagerTest, ComponentQuotaRejectsAtRegister) {
  auto manager = SessionManager::Create();
  ASSERT_TRUE(manager.ok()) << manager.status();
  // The random spec with a copy relation decomposes into ≥ 2 components.
  TenantQuotas quotas;
  quotas.max_components = 1;
  Status st =
      (*manager)->Register("big", MakeRandomSpec(6, true, true), quotas);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st;
  EXPECT_TRUE((*manager)->Tenants().empty());
}

TEST(SessionManagerTest, OverQuotaSubmissionRejectedNotDeadlocked) {
  auto manager = SessionManager::Create();
  ASSERT_TRUE(manager.ok()) << manager.status();
  TenantQuotas quotas;
  quotas.max_active_batches = 1;
  quotas.max_queued_batches = 0;
  ASSERT_TRUE(
      (*manager)->Register("t", MakeRandomSpec(7, true, true), quotas).ok());

  std::mutex mu;
  std::condition_variable cv;
  bool in_batch = false;
  bool release = false;
  (*manager)->SetAdmittedHookForTesting([&](const std::string&) {
    std::unique_lock<std::mutex> lock(mu);
    in_batch = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  std::thread holder([&] {
    auto got = (*manager)->CpsCheck("t");
    ASSERT_TRUE(got.ok()) << got.status();
  });
  {
    // Wait until the holder owns the tenant's single active slot.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return in_batch; });
  }
  // The quota is saturated and the queue is zero: rejected immediately.
  auto rejected = (*manager)->CpsCheck("t");
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted)
      << rejected.status();
  auto stats = (*manager)->StatsFor("t");
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->active_batches, 1);
  EXPECT_EQ(stats->rejected_batches, 1);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  holder.join();
  (*manager)->SetAdmittedHookForTesting(nullptr);
  auto after = (*manager)->StatsFor("t");
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->active_batches, 0);
}

TEST(SessionManagerTest, QueuedSubmissionWaitsForSlot) {
  auto manager = SessionManager::Create();
  ASSERT_TRUE(manager.ok()) << manager.status();
  TenantQuotas quotas;
  quotas.max_active_batches = 1;
  quotas.max_queued_batches = 1;
  ASSERT_TRUE(
      (*manager)->Register("t", MakeRandomSpec(8, false, true), quotas).ok());

  std::mutex mu;
  std::condition_variable cv;
  bool first_in = false;
  bool release = false;
  std::atomic<int> admitted{0};
  (*manager)->SetAdmittedHookForTesting([&](const std::string&) {
    if (admitted.fetch_add(1) > 0) return;  // only the first holds the slot
    std::unique_lock<std::mutex> lock(mu);
    first_in = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  std::thread holder([&] {
    auto got = (*manager)->CpsCheck("t");
    ASSERT_TRUE(got.ok()) << got.status();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return first_in; });
  }
  std::thread queued([&] {
    auto got = (*manager)->CpsCheck("t");  // waits in the admission queue
    ASSERT_TRUE(got.ok()) << got.status();
  });
  // The queued batch parks without being rejected...
  while (true) {
    auto stats = (*manager)->StatsFor("t");
    ASSERT_TRUE(stats.ok()) << stats.status();
    ASSERT_EQ(stats->rejected_batches, 0);
    if (stats->queued_batches == 1) break;
    std::this_thread::yield();
  }
  // ... and runs once the holder leaves.
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  holder.join();
  queued.join();
  (*manager)->SetAdmittedHookForTesting(nullptr);
  EXPECT_EQ(admitted.load(), 2);
}

TEST(SessionManagerTest, DropWhileBatchInFlight) {
  auto manager = SessionManager::Create();
  ASSERT_TRUE(manager.ok()) << manager.status();
  ASSERT_TRUE((*manager)->Register("t", MakeRandomSpec(9, true, true)).ok());
  std::mutex mu;
  std::condition_variable cv;
  bool in_batch = false;
  bool release = false;
  (*manager)->SetAdmittedHookForTesting([&](const std::string&) {
    std::unique_lock<std::mutex> lock(mu);
    in_batch = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  std::thread inflight([&] {
    auto got = (*manager)->CpsCheck("t");
    // The batch was admitted before the Drop; it completes normally on
    // the session it pinned.
    ASSERT_TRUE(got.ok()) << got.status();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return in_batch; });
  }
  ASSERT_TRUE((*manager)->Drop("t").ok());
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  inflight.join();
  (*manager)->SetAdmittedHookForTesting(nullptr);
  EXPECT_EQ((*manager)->CpsCheck("t").status().code(), StatusCode::kNotFound);
}

TEST(SessionManagerTest, TwoTenantsServeConcurrently) {
  ManagerOptions options;
  options.num_threads = 4;
  auto manager = SessionManager::Create(options);
  ASSERT_TRUE(manager.ok()) << manager.status();
  core::Specification spec_a = MakeRandomSpec(10, true, true);
  core::Specification spec_b = MakeRandomSpec(11, true, false);
  ASSERT_TRUE((*manager)->Register("a", spec_a).ok());
  ASSERT_TRUE((*manager)->Register("b", spec_b).ok());

  // Expected answers from the monolithic reference per tenant.
  auto outcome_a = currency::testing::MonolithicConsistent(spec_a);
  auto outcome_b = currency::testing::MonolithicConsistent(spec_b);
  ASSERT_TRUE(outcome_a.ok()) << outcome_a.status();
  ASSERT_TRUE(outcome_b.ok()) << outcome_b.status();
  const bool expect_a = *outcome_a;
  const bool expect_b = *outcome_b;

  std::atomic<bool> failed{false};
  std::vector<std::thread> clients;
  for (int k = 0; k < 4; ++k) {
    clients.emplace_back([&, k] {
      const std::string tenant = (k % 2 == 0) ? "a" : "b";
      const bool expected = (k % 2 == 0) ? expect_a : expect_b;
      for (int i = 0; i < 4; ++i) {
        auto got = (*manager)->CpsCheck(tenant);
        if (!got.ok() || *got != expected) {
          failed.store(true);
          ADD_FAILURE() << "tenant " << tenant << ": " << got.status();
          return;
        }
        std::vector<std::string> relations = {"R"};
        auto dcip = (*manager)->DcipBatch(tenant, relations);
        if (!dcip.ok()) {
          failed.store(true);
          ADD_FAILURE() << "tenant " << tenant << ": " << dcip.status();
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_FALSE(failed.load());
  auto stats_a = (*manager)->StatsFor("a");
  ASSERT_TRUE(stats_a.ok());
  EXPECT_EQ(stats_a->rejected_batches, 0);
}

/// R(A) with two e0 tuples, A = 0 and A = 1.  `deny_every_completion`
/// adds a pure denial whose premises are value-only, so Mod(S) = ∅.
core::Specification TwoTupleSpec(bool deny_every_completion) {
  core::Specification spec;
  Relation r(Schema::Make("R", {"A"}).value());
  (void)r.AppendValues({Value("e0"), Value(0)});
  (void)r.AppendValues({Value("e0"), Value(1)});
  (void)spec.AddInstance(core::TemporalInstance(std::move(r)));
  if (deny_every_completion) {
    (void)spec.AddConstraintText(
        "FORALL s, t IN R: s.A = 0 AND t.A = 1 -> s PREC[A] s");
  }
  return spec;
}

TEST(SessionManagerTest, TracesTheStagesOfEveryRequestKind) {
  ManagerOptions options;
  options.trace.enabled = true;
  auto manager = SessionManager::Create(options);
  ASSERT_TRUE(manager.ok()) << manager.status();
  ASSERT_TRUE((*manager)->Register("ok", TwoTupleSpec(false)).ok());
  ASSERT_TRUE((*manager)->Register("empty", TwoTupleSpec(true)).ok());

  core::CurrencyOrderQuery order;
  order.relation = "R";
  order.pairs = {core::RequiredPair{1, 0, 1}};
  core::CurrencyOrderQuery unknown;
  unknown.relation = "Nope";
  const query::Query query = query::ParseQuery("Q(x) := R('e0', x)").value();
  ASSERT_TRUE((*manager)->CpsCheck("ok").value());
  ASSERT_TRUE((*manager)->CopBatch("ok", {order}).ok());
  ASSERT_TRUE((*manager)->DcipBatch("ok", {"R"}).ok());
  ASSERT_TRUE(
      (*manager)->CcqaBatch("ok", {CcqaRequest{query, std::nullopt}}).ok());
  ASSERT_TRUE(
      (*manager)->Mutate("ok", {core::TupleEdit{0, 0, 1, Value(2)}}).ok());
  ASSERT_TRUE((*manager)->CopBatch("empty", {order})->at(0));
  ASSERT_FALSE((*manager)->CopBatch("ok", {unknown}).ok());

  using Stages = std::vector<std::string>;
  const Stages batch = {"admission_wait", "epoch_pin", "base_solve",
                        "solve"};
  const std::vector<std::pair<std::string, Stages>> expected = {
      {"ok/cps", {"admission_wait", "epoch_pin", "solve"}},
      {"ok/cop", batch},
      {"ok/dcip", batch},
      {"ok/ccqa", batch},
      {"ok/mutate", {"admission_wait", "epoch_build"}},
      // Mod(S) = ∅ answers vacuously: no probe phase.
      {"empty/cop", {"admission_wait", "epoch_pin", "base_solve"}},
      // A malformed batch fails before any solving.
      {"ok/cop", {"admission_wait", "epoch_pin"}},
  };
  const std::vector<obs::Trace> traces = (*manager)->tracer()->RecentTraces();
  ASSERT_EQ(traces.size(), expected.size());
  for (size_t i = 0; i < traces.size(); ++i) {
    Stages names;
    for (const obs::TraceStage& stage : traces[i].stages) {
      names.push_back(stage.name);
    }
    EXPECT_EQ(traces[i].tenant + "/" + traces[i].procedure,
              expected[i].first);
    EXPECT_EQ(names, expected[i].second) << expected[i].first;
  }
}

}  // namespace
}  // namespace currency::serve
