// Seeded workload generators for the end-to-end benchmark.
//
// Every specification here is a pure function of its seed and shape: the
// same arguments give byte-identical wire::SerializeSpecification output
// (the self-test in e2e.cc checks this on every run).
//
// Improve3C-shaped tenant (MakeImprove3CSpec): three source relations
// Src0..Src2 (EID, P, A, note) feed a master relation Tgt (EID, A, note)
// through copy functions on A.  Entities are laid out as coupling chains:
// a chain of m objects has source groups s_0..s_m and target groups
// t_0..t_{m-1}, where t_i copies two A values from s_i and two from
// s_{i+1}, so the whole chain is one coupling component of 2m+1 entity
// groups.  Chain lengths follow a Zipf rank-size law (rank r gets
// max(1, round(largest / r^s)) objects), so a few large components sit
// next to a long tail of three-group ones.  The top-ranked chains and
// every 12th chain of the tail carry planted-satisfiable "puzzle"
// denial constraints (ternary clauses over A-order literals pinned to
// tuples through P = 0..3); every other chain uses P = 10..13, on which
// no constraint grounds, so it is chase-eligible.  Two side relations
// complete the tenant: Ref (EID, V, W), constraint-free singleton
// entities for SP queries answered from the chase, and Audit (EID, P, A),
// a handful of puzzle-constrained singletons for non-SP CCQA.
//
// Giant component (MakeGiantSpec): the same layout with ONE long
// constrained chain plus a few Ref entities — SAT and encoder work
// dominate.  Gadget (MakeGadgetSpec): reductions::Sat3ToCopDcip over a
// seeded 3-CNF, a single constrained entity group.
//
// The structure — chain lengths, which chains are constrained, initial
// orders, and the puzzle clause sets (a small fixed pool, `puzzle`) — is
// fixed by the shape, not by the seed.  The seed varies the data values
// (notes, Ref values) and the request streams.  The hardness of the
// constrained components, the dominant cost driver, thus stays the same
// from seed to seed, so runs with different seeds measure the same work.

#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/core/certain_order.h"
#include "src/core/specification.h"

namespace perfbench {

using currency::Result;
using currency::TupleId;
using currency::Value;

/// Instance indices of the Improve3C layout.
enum Inst : int { kSrc0 = 0, kSrc1 = 1, kSrc2 = 2, kTgt = 3, kRef = 4, kAudit = 5 };

/// Data attribute indices (attribute 0 is the EID).
constexpr int kSrcP = 1, kSrcA = 2, kSrcNote = 3;
constexpr int kTgtA = 1, kTgtNote = 2;

/// The Improve3C tenant's fixed shape.
constexpr int kChains = 160;           // coupling chains (components of the main part)
constexpr int kLargestObjects = 16;    // objects in the rank-1 chain
constexpr double kZipfS = 1.0;         // rank-size exponent
constexpr int kConstrainedTop = 4;     // top-ranked chains that carry constraints
constexpr int kConstrainedEvery = 12;  // ... and every 12th chain of the tail
constexpr int kRefEntities = 48;
constexpr int kAuditEntities = 4;

/// One Src/Tgt entity group, as the request generators address it.
struct Group {
  int inst = -1;
  Value eid;
  std::vector<TupleId> tuples;
};

struct GeneratedSpec {
  currency::core::Specification spec;
  /// groups_by_rank[r]: the Src/Tgt groups of the rank-r chain.
  std::vector<std::vector<Group>> groups_by_rank;
  std::vector<Value> ref_eids;
  std::vector<Value> audit_eids;
};

/// Deterministic 64-bit mix (splitmix64) for deriving sub-seeds.
uint64_t Mix(uint64_t seed, uint64_t salt);

GeneratedSpec MakeImprove3CSpec(uint64_t seed);

/// One constrained chain of `objects` objects plus `ref_entities` Ref
/// singletons, with clause sets from pool entry `puzzle`.
GeneratedSpec MakeGiantSpec(uint64_t seed, int objects, int ref_entities,
                            int puzzle);

struct Gadget {
  currency::core::Specification spec;
  currency::core::CurrencyOrderQuery order;
};

/// reductions::Sat3ToCopDcip over a seeded random 3-CNF.
Result<Gadget> MakeGadgetSpec(uint64_t seed, int vars, int clauses);

/// Zipf(1) rank draw over [0, n): P(r) ∝ 1 / (r + 1).
class ZipfPicker {
 public:
  explicit ZipfPicker(int n, double s = 1.0);
  int operator()(std::mt19937_64* rng) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
