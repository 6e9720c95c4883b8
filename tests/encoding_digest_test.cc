// Golden digests of the component encodings.  A routing-off engine encodes
// every component of a fixed specification set; per component the digest
// reads the fingerprint, the variable counts, the arena size, the first
// Solve's search statistics and model, and every cell's values and
// variables.  Encoder and solver refactors that claim to emit the same
// encoding (same variable numbers, same clauses in the same order) are
// checked against these values by identity: a moved variable, a reordered
// clause stream or a different simplification changes the arena, the
// search path or the model, and so the digest.
//
// The golden values were recorded on the encoder that built per-instance
// pair maps and by-value clause vectors; they hold in every build type
// (the solver is deterministic and uses no fast-math).  A change that
// means to move the encoding updates them and says why.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/core/decompose.h"
#include "src/core/encoder.h"
#include "tests/fixtures.h"

namespace currency::core {
namespace {

/// FNV-1a over 64-bit words.
struct Digest {
  uint64_t h = 1469598103934665603ULL;

  void Mix(uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  void MixString(const std::string& s) {
    Mix(s.size());
    for (unsigned char c : s) Mix(c);
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

/// Mixes every component encoding of `spec` into `d`.
void MixSpec(const Specification& spec, Digest* d) {
  auto engine = DecomposedEncoder::Build(spec, {}, /*use_chase_routing=*/false);
  ASSERT_TRUE(engine.ok()) << engine.status();
  d->Mix((*engine)->num_components());
  for (int c = 0; c < (*engine)->num_components(); ++c) {
    d->Mix((*engine)->component_fingerprint(c));
    auto built = (*engine)->BuildComponentEncoder(c);
    ASSERT_TRUE(built.ok()) << built.status();
    Encoder& encoder = **built;
    sat::Solver& solver = encoder.solver();
    d->Mix(solver.NumVars());
    d->Mix(encoder.num_order_vars());
    d->Mix(solver.stats().arena_bytes);
    const bool satisfiable = solver.Solve() == sat::SolveResult::kSat;
    d->Mix(satisfiable);
    d->Mix(solver.stats().decisions);
    d->Mix(solver.stats().propagations);
    d->Mix(solver.stats().conflicts);
    if (satisfiable) {
      for (int8_t v : solver.model()) d->Mix(static_cast<uint64_t>(v));
    }
    for (const Encoder::Cell& cell : encoder.cells()) {
      d->Mix(cell.inst);
      d->Mix(cell.attr);
      d->MixString(cell.eid.ToString());
      for (size_t k = 0; k < cell.values.size(); ++k) {
        d->Mix(static_cast<uint64_t>(cell.values[k].kind()));
        d->MixString(cell.values[k].ToString());
        d->Mix(cell.value_vars[k]);
      }
    }
  }
}

/// Planted-satisfiable ternary denial constraints over the A orders of a
/// 4-tuple group, pinned to tuples through P: the order by P satisfies
/// every clause, and each clause denies one orientation triple.
void AddPuzzle(Specification* spec, const std::string& relation,
               std::mt19937_64* rng) {
  std::uniform_int_distribution<int> tup(0, 3);
  std::uniform_int_distribution<int> coin(0, 1);
  const char* vars[] = {"a", "b", "c", "d", "e", "f"};
  for (int n = 0; n < 10; ++n) {
    std::string text = "FORALL a, b, c, d, e, f IN " + relation + ": ";
    std::string atoms;
    bool any_identity = false;
    for (int k = 0; k < 3; ++k) {
      int lo = tup(*rng);
      int hi = tup(*rng);
      while (hi == lo) hi = tup(*rng);
      if (lo > hi) std::swap(lo, hi);
      bool identity = coin(*rng) == 1 || (k == 2 && !any_identity);
      any_identity |= identity;
      const std::string l = vars[2 * k], h = vars[2 * k + 1];
      text += l + ".P = " + std::to_string(lo) + " AND " + h +
              ".P = " + std::to_string(hi) + " AND ";
      atoms += identity ? h + " PREC[A] " + l : l + " PREC[A] " + h;
      atoms += k < 2 ? " AND " : " -> a PREC[A] a";
    }
    ASSERT_TRUE(spec->AddConstraintText(text + atoms).ok()) << text + atoms;
  }
}

/// One coupling chain of `objects` objects in the shape of an Improve3C
/// cleaning tenant: source groups s_0..s_objects of four tuples spread
/// over Src0..Src2 (P, A, note), each target group t_i of Tgt (A, note)
/// copying A from two tuples of s_i and two of s_{i+1}, and ten puzzle
/// constraints per source relation.  The copy buckets couple the whole
/// chain into one component of a few thousand variables.
Specification MakePuzzleChain(int objects, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> note(0, 999);
  std::vector<Relation> src;
  for (int s = 0; s < 3; ++s) {
    src.emplace_back(
        Schema::Make("Src" + std::to_string(s), {"P", "A", "note"}).value());
  }
  Relation tgt(Schema::Make("Tgt", {"A", "note"}).value());
  std::vector<std::pair<TupleId, TupleId>> maps[3], orders[3];
  std::vector<std::vector<TupleId>> chain(objects + 1);
  for (int j = 0; j <= objects; ++j) {
    for (int k = 0; k < 4; ++k) {
      chain[j].push_back(src[j % 3]
                             .AppendValues({Value("s" + std::to_string(j)),
                                            Value(k), Value(k),
                                            Value(note(rng))})
                             .value());
    }
    if (j % 2 == 0) orders[j % 3].emplace_back(chain[j][0], chain[j][1]);
  }
  for (int i = 0; i < objects; ++i) {
    const Value eid("t" + std::to_string(i));
    const std::pair<int, int> from[4] = {
        {i, 0}, {i, 2}, {i + 1, 1}, {i + 1, 3}};
    for (auto [j, k] : from) {
      TupleId id = tgt.AppendValues({eid, Value(k), Value(note(rng))}).value();
      maps[j % 3].emplace_back(id, chain[j][k]);
    }
  }
  Specification spec;
  for (int s = 0; s < 3; ++s) {
    TemporalInstance inst(std::move(src[s]));
    for (auto [u, v] : orders[s]) EXPECT_TRUE(inst.AddOrder(2, u, v).ok());
    EXPECT_TRUE(spec.AddInstance(std::move(inst)).ok());
  }
  EXPECT_TRUE(spec.AddInstance(TemporalInstance(std::move(tgt))).ok());
  for (int s = 0; s < 3; ++s) AddPuzzle(&spec, "Src" + std::to_string(s), &rng);
  for (int s = 0; s < 3; ++s) {
    copy::CopySignature sig;
    sig.target_relation = "Tgt";
    sig.target_attrs = {"A"};
    sig.source_relation = "Src" + std::to_string(s);
    sig.source_attrs = {"A"};
    copy::CopyFunction fn(sig);
    for (auto [t, source] : maps[s]) EXPECT_TRUE(fn.Map(t, source).ok());
    EXPECT_TRUE(spec.AddCopyFunction(std::move(fn)).ok());
  }
  return spec;
}

TEST(EncodingDigestTest, RunningExamples) {
  Digest d;
  MixSpec(testing::MakeS0(), &d);
  MixSpec(testing::MakeS1(), &d);
  EXPECT_EQ(d.Hex(), "465b07dad3977d27");
}

TEST(EncodingDigestTest, RandomSpecs) {
  Digest d;
  for (double fraction : {0.0, 0.5}) {
    for (unsigned seed = 0; seed < 200; ++seed) {
      MixSpec(testing::MakeRandomSpec(seed, /*with_copy=*/true,
                                      /*with_constraints=*/true, fraction),
              &d);
    }
  }
  EXPECT_EQ(d.Hex(), "0e94487638068860");
}

// One component: 2,526 variables, 13,442 decisions and 145 conflicts.
TEST(EncodingDigestTest, PuzzleChain) {
  Digest d;
  MixSpec(MakePuzzleChain(/*objects=*/48, /*seed=*/1), &d);
  EXPECT_EQ(d.Hex(), "996df9dbce5ab150");
}

}  // namespace
}  // namespace currency::core
