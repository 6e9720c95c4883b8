// Tests for the observability layer: registry instruments (concurrent
// updates, histogram bucket semantics, label canonicalization and the
// cardinality cap, exposition formats) and request tracing (ring
// overflow, slow log, span attachment rules) — the latter driven by a
// ManualClock so timing assertions are exact.

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/exec/semaphore.h"
#include "src/obs/clock.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace currency::obs {
namespace {

// ---------------------------------------------------------------------------
// Instruments under concurrency (the TSan pass exercises these hard).

TEST(ObsMetricsTest, ConcurrentCounterIncrementsSumExactly) {
  Registry registry;
  Counter* counter = registry.GetCounter("currency_test_hits_total");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kPerThread; ++i) counter->Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter->Value(), int64_t{kThreads} * kPerThread);
}

TEST(ObsMetricsTest, ConcurrentHistogramObservationsKeepCountAndSum) {
  Registry registry;
  Histogram* h = registry.GetHistogram("currency_test_latency_ns");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h, t] {
      for (int i = 0; i < kPerThread; ++i) h->Observe(1'000 * (t + 1));
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h->Count(), int64_t{kThreads} * kPerThread);
  int64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    expected_sum += int64_t{kPerThread} * 1'000 * (t + 1);
  }
  EXPECT_EQ(h->Sum(), expected_sum);
  std::vector<int64_t> counts = h->BucketCounts();
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  EXPECT_EQ(total, h->Count());
}

TEST(ObsMetricsTest, ConcurrentGetOrCreateReturnsOneHandle) {
  Registry registry;
  constexpr int kThreads = 8;
  std::vector<Counter*> handles(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &handles, t] {
      handles[t] = registry.GetCounter("currency_test_shared_total",
                                       {{"tenant", "a"}});
      handles[t]->Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(handles[t], handles[0]);
  EXPECT_EQ(handles[0]->Value(), kThreads);
}

TEST(ObsMetricsTest, GaugeUpdateMaxIsAHighWaterMark) {
  Registry registry;
  Gauge* g = registry.GetGauge("currency_test_depth");
  g->UpdateMax(3);
  g->UpdateMax(7);
  g->UpdateMax(5);  // lower: must not regress
  EXPECT_EQ(g->Value(), 7);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([g, t] {
      for (int i = 0; i < 1'000; ++i) g->UpdateMax(t * 1'000 + i);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(g->Value(), 7'999);
}

// ---------------------------------------------------------------------------
// Histogram bucket semantics.

TEST(ObsMetricsTest, HistogramBucketBoundariesAreInclusiveUpperBounds) {
  Registry registry;
  Histogram* h = registry.GetHistogram("currency_test_bounds_ns", {},
                                       {10, 20, 50});
  h->Observe(10);  // == bound: lands IN bucket 10 (Prometheus le semantics)
  h->Observe(11);  // > 10, <= 20
  h->Observe(20);
  h->Observe(50);
  h->Observe(51);  // beyond the last bound: +Inf bucket
  h->Observe(-1);  // below everything: first bucket
  std::vector<int64_t> counts = h->BucketCounts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + Inf
  EXPECT_EQ(counts[0], 2);       // 10, -1
  EXPECT_EQ(counts[1], 2);       // 11, 20
  EXPECT_EQ(counts[2], 1);       // 50
  EXPECT_EQ(counts[3], 1);       // 51
  EXPECT_EQ(h->Count(), 6);
}

TEST(ObsMetricsTest, DefaultLatencyBucketsAre125PerDecade) {
  const std::vector<int64_t>& b = LatencyBucketsNs();
  ASSERT_GE(b.size(), 4u);
  EXPECT_EQ(b[0], 1'000);
  EXPECT_EQ(b[1], 2'000);
  EXPECT_EQ(b[2], 5'000);
  EXPECT_EQ(b.back(), 10'000'000'000);
  EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
}

TEST(ObsMetricsTest, ApproxQuantileReturnsBucketUpperBound) {
  Registry registry;
  Histogram* h = registry.GetHistogram("currency_test_quantile_ns", {},
                                       {10, 100, 1'000});
  for (int i = 0; i < 99; ++i) h->Observe(5);  // bucket le=10
  h->Observe(500);                             // bucket le=1000
  EXPECT_EQ(h->ApproxQuantile(0.5), 10);
  EXPECT_EQ(h->ApproxQuantile(0.999), 1'000);
  Histogram* empty = registry.GetHistogram("currency_test_empty_ns");
  EXPECT_EQ(empty->ApproxQuantile(0.5), 0);
}

// ---------------------------------------------------------------------------
// Label handling and the cardinality cap.

TEST(ObsMetricsTest, LabelOrderDoesNotSplitSeries) {
  Registry registry;
  Counter* a = registry.GetCounter(
      "currency_test_labels_total", {{"tenant", "t"}, {"procedure", "cps"}});
  Counter* b = registry.GetCounter(
      "currency_test_labels_total", {{"procedure", "cps"}, {"tenant", "t"}});
  EXPECT_EQ(a, b);
}

TEST(ObsMetricsTest, CardinalityCapCoalescesIntoOverflowSeries) {
  Registry registry;
  // Fill the family to the cap with distinct tenants.
  for (int i = 0; i < Registry::kMaxSeriesPerFamily; ++i) {
    registry.GetCounter("currency_test_cap_total",
                        {{"tenant", "t" + std::to_string(i)}});
  }
  Counter* over1 = registry.GetCounter("currency_test_cap_total",
                                       {{"tenant", "one-too-many"}});
  Counter* over2 = registry.GetCounter("currency_test_cap_total",
                                       {{"tenant", "another"}});
  EXPECT_EQ(over1, over2);  // both coalesced into {overflow="true"}
  over1->Increment(5);
  std::string text = registry.ExposeText();
  EXPECT_NE(text.find("currency_test_cap_total{overflow=\"true\"} 5"),
            std::string::npos);
  // A capped-out label set still resolves to the overflow series, and an
  // existing series keeps resolving to itself.
  Counter* existing =
      registry.GetCounter("currency_test_cap_total", {{"tenant", "t0"}});
  EXPECT_NE(existing, over1);
}

TEST(ObsMetricsTest, KindMismatchYieldsDeadInstrumentNotCrash) {
  Registry registry;
  Counter* counter = registry.GetCounter("currency_test_kind_total");
  counter->Increment();
  Gauge* wrong = registry.GetGauge("currency_test_kind_total");
  wrong->Set(42);  // dead sink: must not crash or clobber the counter
  EXPECT_EQ(counter->Value(), 1);
  std::string text = registry.ExposeText();
  EXPECT_NE(text.find("currency_test_kind_total 1"), std::string::npos);
  EXPECT_EQ(text.find("42"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Exposition.

TEST(ObsMetricsTest, ExposeTextEmitsTypeLinesAndCumulativeBuckets) {
  Registry registry;
  registry.GetCounter("currency_test_a_total", {{"tenant", "x"}})
      ->Increment(3);
  registry.GetGauge("currency_test_b")->Set(-7);
  Histogram* h =
      registry.GetHistogram("currency_test_c_ns", {}, {10, 20});
  h->Observe(5);
  h->Observe(15);
  h->Observe(99);
  std::string text = registry.ExposeText();
  EXPECT_NE(text.find("# TYPE currency_test_a_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("currency_test_a_total{tenant=\"x\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE currency_test_b gauge\n"), std::string::npos);
  EXPECT_NE(text.find("currency_test_b -7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE currency_test_c_ns histogram\n"),
            std::string::npos);
  // Cumulative: le=10 has 1, le=20 has 2, +Inf has all 3.
  EXPECT_NE(text.find("currency_test_c_ns_bucket{le=\"10\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("currency_test_c_ns_bucket{le=\"20\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("currency_test_c_ns_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("currency_test_c_ns_sum 119\n"), std::string::npos);
  EXPECT_NE(text.find("currency_test_c_ns_count 3\n"), std::string::npos);
}

TEST(ObsMetricsTest, ExposeTextEscapesLabelValues) {
  Registry registry;
  registry.GetCounter("currency_test_esc_total",
                      {{"tenant", "a\"b\\c\nd"}});
  std::string text = registry.ExposeText();
  EXPECT_NE(text.find("tenant=\"a\\\"b\\\\c\\nd\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Clocks.

TEST(ObsClockTest, ManualClockAdvances) {
  ManualClock clock;
  EXPECT_EQ(clock.NowNanos(), 0);
  clock.Advance(5);
  EXPECT_EQ(clock.NowNanos(), 5);
  clock.Set(1'000);
  EXPECT_EQ(clock.NowNanos(), 1'000);
}

TEST(ObsClockTest, MonotonicClockNeverGoesBackwards) {
  const Clock* clock = MonotonicClock::Get();
  int64_t a = clock->NowNanos();
  int64_t b = clock->NowNanos();
  EXPECT_LE(a, b);
  EXPECT_EQ(ResolveClock(nullptr), MonotonicClock::Get());
  ManualClock manual;
  EXPECT_EQ(ResolveClock(&manual), &manual);
}

// ---------------------------------------------------------------------------
// Tracing.

TraceOptions TestTraceOptions(const ManualClock* clock) {
  TraceOptions options;
  options.enabled = true;
  options.ring_capacity = 4;
  options.slow_threshold_ns = 1'000;
  options.slow_log_capacity = 2;
  options.clock = clock;
  return options;
}

TEST(ObsTraceTest, SpanRecordsStagesWithTimings) {
  ManualClock clock;
  Tracer tracer(TestTraceOptions(&clock));
  Registry registry;
  Counter* props = registry.GetCounter("currency_sat_propagations_total");
  {
    TraceSpan span(&tracer, "acme", "cps");
    {
      TraceSpan::Stage stage("epoch_pin");
      clock.Advance(10);
    }
    {
      StageCounters counters;
      counters.sat_propagations = props;
      TraceSpan::Stage stage("solve", counters);
      clock.Advance(90);
      props->Increment(7);
    }
  }
  std::vector<Trace> traces = tracer.RecentTraces();
  ASSERT_EQ(traces.size(), 1u);
  const Trace& t = traces[0];
  EXPECT_EQ(t.tenant, "acme");
  EXPECT_EQ(t.procedure, "cps");
  EXPECT_EQ(t.DurationNs(), 100);
  ASSERT_EQ(t.stages.size(), 2u);
  EXPECT_STREQ(t.stages[0].name, "epoch_pin");
  EXPECT_EQ(t.stages[0].end_ns - t.stages[0].start_ns, 10);
  EXPECT_STREQ(t.stages[1].name, "solve");
  EXPECT_EQ(t.stages[1].end_ns - t.stages[1].start_ns, 90);
  EXPECT_EQ(t.stages[1].sat_propagations, 7);  // delta, not the total
  EXPECT_EQ(tracer.recorded_traces(), 1);
}

TEST(ObsTraceTest, RingOverflowDropsOldestAndCounts) {
  ManualClock clock;
  Tracer tracer(TestTraceOptions(&clock));  // ring_capacity = 4
  for (int i = 0; i < 6; ++i) {
    TraceSpan span(&tracer, "t", "cps" + std::to_string(i));
  }
  std::vector<Trace> traces = tracer.RecentTraces();
  ASSERT_EQ(traces.size(), 4u);
  EXPECT_EQ(traces.front().procedure, "cps2");  // 0 and 1 evicted
  EXPECT_EQ(traces.back().procedure, "cps5");
  EXPECT_EQ(tracer.recorded_traces(), 6);
  EXPECT_EQ(tracer.dropped_traces(), 2);
}

TEST(ObsTraceTest, RecycledStageBuffersCarryNoStaleStages) {
  ManualClock clock;
  Tracer tracer(TestTraceOptions(&clock));  // ring_capacity = 4
  for (int i = 0; i < 9; ++i) {
    TraceSpan span(&tracer, "t", "cps" + std::to_string(i));
    for (int k = 0; k <= i % 3; ++k) {
      TraceSpan::Stage stage("solve");
      clock.Advance(1);
    }
  }
  std::vector<Trace> traces = tracer.RecentTraces();
  ASSERT_EQ(traces.size(), 4u);
  for (int j = 0; j < 4; ++j) {
    const int i = 5 + j;
    EXPECT_EQ(traces[j].procedure, "cps" + std::to_string(i));
    EXPECT_EQ(traces[j].stages.size(), static_cast<size_t>(i % 3 + 1));
  }
}

TEST(ObsTraceTest, SlowLogCapturesOnlySlowRequests) {
  ManualClock clock;
  Tracer tracer(TestTraceOptions(&clock));  // threshold 1000 ns, cap 2
  {
    TraceSpan fast(&tracer, "t", "fast");
    clock.Advance(999);
  }
  for (int i = 0; i < 3; ++i) {
    TraceSpan slow(&tracer, "t", "slow" + std::to_string(i));
    clock.Advance(2'000);
  }
  std::vector<std::string> log = tracer.SlowLog();
  ASSERT_EQ(log.size(), 2u);  // capacity 2: slow0 evicted
  EXPECT_NE(log[0].find("procedure=slow1"), std::string::npos);
  EXPECT_NE(log[1].find("procedure=slow2"), std::string::npos);
  EXPECT_NE(log[1].find("total_ns=2000"), std::string::npos);
}

TEST(ObsTraceTest, DisabledTracerRecordsNothing) {
  ManualClock clock;
  TraceOptions options = TestTraceOptions(&clock);
  options.enabled = false;
  Tracer tracer(options);
  {
    TraceSpan span(&tracer, "t", "cps");
    TraceSpan::Stage stage("solve");
    EXPECT_FALSE(span.active());
    EXPECT_EQ(TraceSpan::Current(), nullptr);
  }
  EXPECT_EQ(tracer.recorded_traces(), 0);
  EXPECT_TRUE(tracer.RecentTraces().empty());
  // Runtime re-enable works without reconstructing.
  tracer.set_enabled(true);
  { TraceSpan span(&tracer, "t", "cps"); }
  EXPECT_EQ(tracer.recorded_traces(), 1);
}

TEST(ObsTraceTest, NestedRootIsInertAndItsStagesAttachToOuter) {
  ManualClock clock;
  Tracer tracer(TestTraceOptions(&clock));
  {
    TraceSpan outer(&tracer, "t", "outer");
    EXPECT_TRUE(outer.active());
    {
      // A session-level span opened under a manager's span.
      TraceSpan inner(&tracer, "t", "inner");
      EXPECT_FALSE(inner.active());
      TraceSpan::Stage stage("solve");
      clock.Advance(42);
    }
  }
  std::vector<Trace> traces = tracer.RecentTraces();
  ASSERT_EQ(traces.size(), 1u);  // only the outer root recorded
  EXPECT_EQ(traces[0].procedure, "outer");
  ASSERT_EQ(traces[0].stages.size(), 1u);  // inner's stage attached here
  EXPECT_EQ(traces[0].stages[0].end_ns - traces[0].stages[0].start_ns, 42);
}

TEST(ObsTraceTest, NullTracerSpanIsInert) {
  TraceSpan span(nullptr, "t", "cps");
  EXPECT_FALSE(span.active());
  TraceSpan::Stage stage("solve");  // must not crash with no root
}

TEST(ObsTraceTest, WorkerThreadStagesAreInert) {
  ManualClock clock;
  Tracer tracer(TestTraceOptions(&clock));
  TraceSpan span(&tracer, "t", "cps");
  std::thread worker([] {
    // The root lives on the request thread; this thread has none.
    EXPECT_EQ(TraceSpan::Current(), nullptr);
    TraceSpan::Stage stage("solve");  // inert, not attached, no crash
  });
  worker.join();
}

TEST(ObsTraceTest, ScopedTimerObservesElapsedIntoHistogram) {
  Registry registry;
  ManualClock clock;
  Histogram* h = registry.GetHistogram("currency_test_timer_ns", {}, {100});
  {
    ScopedTimer timer(h, &clock);
    clock.Advance(70);
  }
  EXPECT_EQ(h->Count(), 1);
  EXPECT_EQ(h->Sum(), 70);
  { ScopedTimer inert(nullptr, &clock); }  // null histogram: no-op
  EXPECT_EQ(h->Count(), 1);
}

TEST(ObsTraceTest, SpanTimesItsRequestIntoALatencyHistogram) {
  ManualClock clock;
  Tracer tracer(TestTraceOptions(&clock));
  Registry registry;
  Histogram* latency = registry.GetHistogram("currency_test_latency_ns");
  {
    // Traced on the histogram's clock: one pair of reads serves both, and
    // the gap before the stage counts toward it (stages tile the trace).
    TraceSpan span(&tracer, "t", "cop", latency, &clock);
    clock.Advance(5);
    {
      TraceSpan::Stage stage("solve");
      clock.Advance(20);
    }
    clock.Advance(3);
  }
  ASSERT_EQ(tracer.RecentTraces().size(), 1u);
  const Trace t = tracer.RecentTraces()[0];
  EXPECT_EQ(t.DurationNs(), 28);
  ASSERT_EQ(t.stages.size(), 1u);
  EXPECT_EQ(t.stages[0].end_ns - t.stages[0].start_ns, 25);
  EXPECT_EQ(latency->Count(), 1);
  EXPECT_EQ(latency->Sum(), 28);
  {
    // Nested under another root: inert for tracing, still timed.
    TraceSpan outer(&tracer, "t", "outer");
    TraceSpan inner(&tracer, "t", "cop", latency, &clock);
    EXPECT_FALSE(inner.active());
    clock.Advance(7);
  }
  EXPECT_EQ(latency->Count(), 2);
  EXPECT_EQ(latency->Sum(), 35);
  {
    // Traced on a different clock: the histogram reads its own.
    ManualClock other(1'000);
    TraceSpan span(&tracer, "t", "cop", latency, &other);
    other.Advance(11);
    clock.Advance(2);
  }
  EXPECT_EQ(latency->Count(), 3);
  EXPECT_EQ(latency->Sum(), 46);
  EXPECT_EQ(tracer.RecentTraces().back().DurationNs(), 2);
}

TEST(ObsTraceTest, ZeroCapacityRingDropsEverything) {
  ManualClock clock;
  TraceOptions options = TestTraceOptions(&clock);
  options.ring_capacity = 0;
  Tracer tracer(options);
  { TraceSpan span(&tracer, "t", "cps"); }
  EXPECT_TRUE(tracer.RecentTraces().empty());
  EXPECT_EQ(tracer.recorded_traces(), 1);
  EXPECT_EQ(tracer.dropped_traces(), 1);
}

// ---------------------------------------------------------------------------
// AdmissionGate instrument binding (the gate's own counters are covered
// in exec_test; here: the registry instruments it drives).

TEST(ObsGateTest, GateDrivesRegistryInstruments) {
  Registry registry;
  exec::AdmissionGate gate(/*max_active=*/1, /*max_waiting=*/0);
  exec::AdmissionGate::Instruments instruments;
  instruments.admitted =
      registry.GetCounter("currency_exec_admission_admitted_total");
  instruments.rejected =
      registry.GetCounter("currency_exec_admission_rejected_total");
  instruments.queue_high_water =
      registry.GetGauge("currency_exec_admission_queue_high_water");
  gate.BindInstruments(instruments);
  ASSERT_TRUE(gate.Enter().ok());
  EXPECT_FALSE(gate.Enter().ok());  // active full, queue capacity 0
  gate.Leave();
  EXPECT_EQ(instruments.admitted->Value(), 1);
  EXPECT_EQ(instruments.rejected->Value(), 1);
  EXPECT_EQ(gate.rejected(), 1);
  EXPECT_EQ(gate.queue_high_water(), 0);
}

}  // namespace
}  // namespace currency::obs
