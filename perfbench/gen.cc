#include "perfbench/gen.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/copy/copy_function.h"
#include "src/reductions/to_cop.h"
#include "src/sat/qbf.h"

namespace perfbench {

namespace core = currency::core;
namespace copy = currency::copy;
using currency::Relation;
using currency::Schema;

namespace {

constexpr int kGroup = 4;     // tuples per Src / Tgt / Audit entity
constexpr int kClauses = 10;  // puzzle clauses per constrained relation

void Check(const currency::Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: generator invariant broken: %s\n",
                 status.ToString().c_str());
    std::abort();
  }
}

std::string Id(const char* prefix, int a, int b = -1) {
  char buf[48];
  if (b < 0) {
    std::snprintf(buf, sizeof buf, "%s%05d", prefix, a);
  } else {
    std::snprintf(buf, sizeof buf, "%s%05d_%03d", prefix, a, b);
  }
  return buf;
}

/// Planted-satisfiable ternary clauses over the A-order literals of a
/// four-tuple group (the order by P satisfies every clause), pinned to
/// tuples through P — the bench_serve puzzle scheme.
void AddPuzzle(core::Specification* spec, const std::string& relation,
               uint64_t puzzle) {
  std::mt19937_64 engine(Mix(0x70757a7a6c65ULL, puzzle));
  std::mt19937_64* rng = &engine;
  std::uniform_int_distribution<int> tup(0, kGroup - 1);
  std::uniform_int_distribution<int> coin(0, 1);
  const char* vars[] = {"a", "b", "c", "d", "e", "f"};
  for (int n = 0; n < kClauses; ++n) {
    int lo[3], hi[3];
    bool identity[3];
    bool any_identity = false;
    for (int k = 0; k < 3; ++k) {
      lo[k] = tup(*rng);
      hi[k] = tup(*rng);
      while (hi[k] == lo[k]) hi[k] = tup(*rng);
      if (lo[k] > hi[k]) std::swap(lo[k], hi[k]);
      identity[k] = coin(*rng) == 1;
      if (k == 2 && !any_identity) identity[k] = true;
      any_identity |= identity[k];
    }
    std::string text = "FORALL a, b, c, d, e, f IN " + relation + ": ";
    for (int k = 0; k < 3; ++k) {
      text += std::string(vars[2 * k]) + ".P = " + std::to_string(lo[k]) +
              " AND " + vars[2 * k + 1] + ".P = " + std::to_string(hi[k]) +
              " AND ";
    }
    for (int k = 0; k < 3; ++k) {
      std::string l = vars[2 * k], h = vars[2 * k + 1];
      text += identity[k] ? h + " PREC[A] " + l : l + " PREC[A] " + h;
      text += (k < 2) ? " AND " : " -> a PREC[A] a";
    }
    Check(spec->AddConstraintText(text));
  }
}

/// Builder state shared by the Improve3C and giant layouts.
struct Layout {
  Relation src[3] = {Relation(Schema::Make("Src0", {"P", "A", "note"}).value()),
                     Relation(Schema::Make("Src1", {"P", "A", "note"}).value()),
                     Relation(Schema::Make("Src2", {"P", "A", "note"}).value())};
  Relation tgt{Schema::Make("Tgt", {"A", "note"}).value()};
  Relation ref{Schema::Make("Ref", {"V", "W"}).value()};
  Relation audit{Schema::Make("Audit", {"P", "A"}).value()};
  /// (target tuple, source tuple) per source relation.
  std::vector<std::pair<TupleId, TupleId>> maps[3];
  /// Initial A-order pairs per source relation and on Tgt / Ref.
  std::vector<std::pair<TupleId, TupleId>> src_orders[3], ref_orders;
};

/// Appends one chain of `objects` objects; returns its Src/Tgt groups.
std::vector<Group> AddChain(Layout* l, int rank, int objects, bool constrained,
                            std::mt19937_64* rng) {
  std::uniform_int_distribution<int> note(0, 999);
  std::vector<Group> groups;
  const int base = rank % 3;
  std::vector<std::vector<TupleId>> src_tuples(objects + 1);
  for (int j = 0; j <= objects; ++j) {
    const int s = (base + j) % 3;
    Group g;
    g.inst = s;
    g.eid = Value(Id("s", rank, j));
    for (int k = 0; k < kGroup; ++k) {
      const int p = constrained ? k : 10 + k;
      TupleId id = l->src[s]
                       .AppendValues({g.eid, Value(p), Value(k),
                                      Value(note(*rng))})
                       .value();
      g.tuples.push_back(id);
    }
    // Initial orders follow the layout, not the seed (see gen.h).
    if ((rank + j) % 2 == 0) {
      l->src_orders[s].push_back({g.tuples[0], g.tuples[1]});
    }
    src_tuples[j] = g.tuples;
    groups.push_back(std::move(g));
  }
  for (int i = 0; i < objects; ++i) {
    Group g;
    g.inst = kTgt;
    g.eid = Value(Id("t", rank, i));
    // Two A values from s_i (tuples 0, 2) and two from s_{i+1} (1, 3).
    const std::pair<int, int> from[4] = {{i, 0}, {i, 2}, {i + 1, 1}, {i + 1, 3}};
    for (auto [j, k] : from) {
      TupleId id = l->tgt.AppendValues({g.eid, Value(k), Value(note(*rng))})
                       .value();
      l->maps[(base + j) % 3].push_back({id, src_tuples[j][k]});
      g.tuples.push_back(id);
    }
    groups.push_back(std::move(g));
  }
  return groups;
}

void AddRef(Layout* l, GeneratedSpec* out, int entities, std::mt19937_64* rng) {
  std::uniform_int_distribution<int> val(0, 4);
  for (int e = 0; e < entities; ++e) {
    Value eid(Id("r", e));
    TupleId first = -1;
    for (int k = 0; k < 3; ++k) {
      TupleId id =
          l->ref.AppendValues({eid, Value(val(*rng)), Value(val(*rng))}).value();
      if (k == 0) first = id;
    }
    if (e % 2 == 0) l->ref_orders.push_back({first, first + 1});
    out->ref_eids.push_back(eid);
  }
}

void AddAudit(Layout* l, GeneratedSpec* out, int entities) {
  for (int e = 0; e < entities; ++e) {
    Value eid(Id("a", e));
    for (int k = 0; k < kGroup; ++k) {
      (void)l->audit.AppendValues({eid, Value(k), Value(k % 3)}).value();
    }
    out->audit_eids.push_back(eid);
  }
}

/// Moves the layout into out->spec: instances in Inst order, puzzles
/// `puzzle`..`puzzle`+3 on the Src relations and Audit, then the three copy
/// functions.
void Finish(Layout* l, GeneratedSpec* out, int puzzle) {
  core::Specification& spec = out->spec;
  for (int s = 0; s < 3; ++s) {
    core::TemporalInstance inst(std::move(l->src[s]));
    for (auto [u, v] : l->src_orders[s]) Check(inst.AddOrder(kSrcA, u, v));
    Check(spec.AddInstance(std::move(inst)));
  }
  Check(spec.AddInstance(core::TemporalInstance(std::move(l->tgt))));
  core::TemporalInstance ref(std::move(l->ref));
  for (auto [u, v] : l->ref_orders) Check(ref.AddOrder(1, u, v));
  Check(spec.AddInstance(std::move(ref)));
  Check(spec.AddInstance(core::TemporalInstance(std::move(l->audit))));
  for (const char* rel : {"Src0", "Src1", "Src2", "Audit"}) {
    AddPuzzle(&spec, rel, puzzle++);
  }
  for (int s = 0; s < 3; ++s) {
    copy::CopySignature sig;
    sig.target_relation = "Tgt";
    sig.target_attrs = {"A"};
    sig.source_relation = "Src" + std::to_string(s);
    sig.source_attrs = {"A"};
    copy::CopyFunction fn(sig);
    for (auto [t, src] : l->maps[s]) Check(fn.Map(t, src));
    Check(spec.AddCopyFunction(std::move(fn)));
  }
}

}  // namespace

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

GeneratedSpec MakeImprove3CSpec(uint64_t seed) {
  std::mt19937_64 rng(seed);
  GeneratedSpec out;
  Layout l;
  for (int r = 0; r < kChains; ++r) {
    const int objects = std::max(
        1, static_cast<int>(std::lround(kLargestObjects /
                                        std::pow(r + 1, kZipfS))));
    const bool constrained =
        r < kConstrainedTop || r % kConstrainedEvery == 5;
    out.groups_by_rank.push_back(AddChain(&l, r, objects, constrained, &rng));
  }
  AddRef(&l, &out, kRefEntities, &rng);
  AddAudit(&l, &out, kAuditEntities);
  Finish(&l, &out, /*puzzle=*/0);
  return out;
}

GeneratedSpec MakeGiantSpec(uint64_t seed, int objects, int ref_entities,
                            int puzzle) {
  std::mt19937_64 rng(seed);
  GeneratedSpec out;
  Layout l;
  out.groups_by_rank.push_back(AddChain(&l, 0, objects, true, &rng));
  AddRef(&l, &out, ref_entities, &rng);
  AddAudit(&l, &out, 1);
  Finish(&l, &out, 4 * puzzle);
  return out;
}

Result<Gadget> MakeGadgetSpec(uint64_t seed, int vars, int clauses) {
  std::mt19937 rng(static_cast<uint32_t>(seed));
  currency::sat::Qbf qbf =
      currency::sat::RandomQbf({vars}, /*first_exists=*/true, clauses,
                               /*cnf=*/true, &rng);
  ASSIGN_OR_RETURN(currency::reductions::CopGadget gadget,
                   currency::reductions::Sat3ToCopDcip(qbf));
  return Gadget{std::move(gadget.spec), std::move(gadget.order)};
}

ZipfPicker::ZipfPicker(int n, double s) {
  double total = 0;
  for (int r = 0; r < n; ++r) {
    total += 1.0 / std::pow(r + 1, s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

int ZipfPicker::operator()(std::mt19937_64* rng) const {
  double u = std::uniform_real_distribution<double>(0.0, 1.0)(*rng);
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<int>(it - cdf_.begin()),
                  static_cast<int>(cdf_.size()) - 1);
}

}  // namespace perfbench
