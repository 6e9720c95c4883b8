// Figures 2, 4, 5, 6 — gadget construction costs and encoded sizes.
//
// The paper's lower-bound proofs manufacture specific temporal instances
// (Fig. 2: CCQA gates; Fig. 5: CPP assignment/flag instances; Fig. 6:
// BCP's budgeted I_W/I'_W; the Betweenness and ∃∀3DNF instances of
// Thm 3.1).  This binary measures building each family and reports the
// encoded problem sizes (rows, SAT order variables) the constructions
// produce.

#include <benchmark/benchmark.h>

#include <random>

#include "src/core/encoder.h"
#include "src/reductions/to_bcp.h"
#include "src/reductions/to_ccqa.h"
#include "src/reductions/to_cop.h"
#include "src/reductions/to_cpp.h"
#include "src/reductions/to_cps.h"
#include "tests/support/whole_spec.h"

namespace {

using namespace currency;  // NOLINT

void BM_Gadget_SigmaP2Cps(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::mt19937 rng(1);
  sat::Qbf qbf =
      sat::RandomQbf({n, n}, true, n + 2, /*cnf=*/false, &rng);
  int64_t rows = 0;
  for (auto _ : state) {
    auto spec = reductions::SigmaP2ToCps(qbf);
    rows = spec->TotalTuples();
    benchmark::DoNotOptimize(spec);
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.SetLabel("Thm 3.1 instance builder");
}
BENCHMARK(BM_Gadget_SigmaP2Cps)->DenseRange(2, 8, 2)->Unit(benchmark::kMicrosecond);

void BM_Gadget_Betweenness(benchmark::State& state) {
  const int triples = static_cast<int>(state.range(0));
  std::mt19937 rng(2);
  auto inst = reductions::RandomBetweenness(triples + 2, triples, &rng);
  int64_t rows = 0;
  for (auto _ : state) {
    auto spec = reductions::BetweennessToCps(inst);
    rows = spec->TotalTuples();
    benchmark::DoNotOptimize(spec);
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.SetLabel("Thm 3.1 data-complexity builder");
}
BENCHMARK(BM_Gadget_Betweenness)->DenseRange(2, 10, 2)->Unit(benchmark::kMicrosecond);

void BM_Gadget_Fig2Ccqa(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::mt19937 rng(3);
  sat::Qbf qbf = sat::RandomQbf({n, n}, false, n + 2, /*cnf=*/true, &rng);
  int64_t rows = 0;
  for (auto _ : state) {
    auto gadget = reductions::PiP2ToCcqa(qbf);
    rows = gadget->spec.TotalTuples();
    benchmark::DoNotOptimize(gadget);
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.SetLabel("Fig. 2 builder (gates + RX)");
}
BENCHMARK(BM_Gadget_Fig2Ccqa)->DenseRange(2, 8, 2)->Unit(benchmark::kMicrosecond);

void BM_Gadget_Fig5Cpp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::mt19937 rng(4);
  sat::Qbf qbf = sat::RandomQbf({n, n}, false, n + 1, /*cnf=*/true, &rng);
  int64_t rows = 0;
  for (auto _ : state) {
    auto gadget = reductions::PiP2ToCppData(qbf);
    rows = gadget->spec.TotalTuples();
    benchmark::DoNotOptimize(gadget);
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.SetLabel("Fig. 5 builder (RXY, R'X, RC, Rb, R'b)");
}
BENCHMARK(BM_Gadget_Fig5Cpp)->DenseRange(2, 8, 2)->Unit(benchmark::kMicrosecond);

void BM_Gadget_Fig6Bcp(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  std::mt19937 rng(5);
  sat::Qbf qbf =
      sat::RandomQbf({p, p, p, p}, true, p + 1, /*cnf=*/false, &rng);
  int64_t rows = 0;
  for (auto _ : state) {
    auto gadget = reductions::SigmaP4ToBcp(qbf);
    rows = gadget->spec.TotalTuples();
    benchmark::DoNotOptimize(gadget);
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["budget_k"] = p;
  state.SetLabel("Fig. 6 builder (I_W, I'_W + Fig. 4 parts)");
}
BENCHMARK(BM_Gadget_Fig6Bcp)->DenseRange(1, 4)->Unit(benchmark::kMicrosecond);

// SAT encoding sizes for the hard families: the encoder realizes the
// paper's "guess a completion" oracle; order-variable counts grow with
// the square of entity-group sizes.
void BM_Encode_Betweenness(benchmark::State& state) {
  const int triples = static_cast<int>(state.range(0));
  std::mt19937 rng(6);
  auto inst = reductions::RandomBetweenness(triples + 2, triples, &rng);
  auto spec = reductions::BetweennessToCps(inst);
  int order_vars = 0;
  for (auto _ : state) {
    auto encoder = currency::testing::BuildWholeSpecEncoder(*spec);
    order_vars = (*encoder)->num_order_vars();
    benchmark::DoNotOptimize(encoder);
  }
  state.counters["order_vars"] = order_vars;
  state.SetLabel("order-literal encoding build");
}
BENCHMARK(BM_Encode_Betweenness)->DenseRange(2, 6, 2)->Unit(benchmark::kMillisecond);

}  // namespace
