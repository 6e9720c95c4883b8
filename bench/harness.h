// Scaffolding shared by the plain benches (bench_serve,
// bench_chase_routing, bench_concurrent_serve, bench_recovery,
// bench_obs_overhead, bench_sat_core) and bench_scale_decomposition's
// workload: the sharded planted-puzzle specification, the spread COP
// queries, latency series, flag parsing, and the one report layout every
// BENCH_*.json takes:
//
//   {
//     "host": {"nproc": N},
//     "bench": "<binary>",
//     "workload": {"<parameter>": number, ...},
//     "results": [
//       {"name": "<phase>", "<field>": number, ...},
//       ...
//     ],
//     "ratios": {"<derived or gated figure>": number, ...}
//   }
//
// `host.nproc` is the process's CPU affinity count (what nproc prints).
// A 1-CPU host also gets a `caveat`: there the concurrent phases can
// show overhead parity, never parallel speedup.  `host` is the one place
// a report describes its host.  Every number is printed with up to six
// decimals (trailing zeros trimmed), enough for sub-microsecond p50s
// given in milliseconds.
//
// Plain C++ with no Google Benchmark dependency, so the plain benches
// build where that package is absent.

#ifndef CURRENCY_BENCH_HARNESS_H_
#define CURRENCY_BENCH_HARNESS_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "src/core/certain_order.h"
#include "src/core/specification.h"

namespace currency::bench {

/// Zero-padded ids keep Value order aligned with creation order.
std::string PadId(const char* prefix, int e);

/// Shape of the sharded master/replica workload of MakeShardedSpec.
struct ShardShape {
  int group = 4;             ///< tuples per R entity
  int clauses = 10;          ///< planted puzzle clauses per entity
  unsigned seed = 11;        ///< seed of the puzzle draw
  bool replica = true;       ///< add R2, copying A from two R tuples
  bool plant_unsat = false;  ///< prepend one search-refutable UNSAT entity
};

/// Relation R(P, A, B) holds `entities` entities of `shape.group` tuples
/// (tuple k carries P = A = k and B = k mod 2).  Each entity carries the
/// same search puzzle: `shape.clauses` random ternary denial constraints
/// over its A-order literals, pinned to tuples through the P selector and
/// planted to be satisfied by the identity order (tuple i more stale than
/// tuple j for i < j), so every entity group grounds each constraint to
/// exactly one clause and its component pays a few genuine CDCL
/// conflicts.  With `shape.replica`, R2(C) copies A from tuples 0 and 2
/// of each entity, so every coupling component is one {R-entity,
/// R2-entity} pair.  With `shape.plant_unsat`, one entity sorting before
/// all others holds three P = 99 tuples that a no-chain denial refutes,
/// but only after case analysis, not at unit-propagation level; it
/// shifts every other tuple id by three.
core::Specification MakeShardedSpec(int entities, const ShardShape& shape);

/// COP queries spread over the entities of a sharded specification (no
/// planted UNSAT entity), two A-order pairs each: the planted
/// t0 ≺ t1 and the reversed t3 ≺ t2.
std::vector<core::CurrencyOrderQuery> MakeSpreadQueries(int entities,
                                                        int queries,
                                                        int group);

/// Milliseconds on the steady clock.
double NowMs();

/// The latency samples of one measured phase: one `results` row.
struct Series {
  std::string name;
  std::vector<double> samples_ms = {};  // lets Series{"name"} stay terse
  /// When > 0, ops_per_sec divides by this wall clock instead of the
  /// sample total (concurrent phases, whose samples overlap).
  double wall_ms = 0;

  double Total() const;
  double Percentile(double q) const;
};

/// One `--name=value` flag and the variable its value lands in.
struct Flag {
  const char* name;
  std::variant<int*, int64_t*, double*, std::string*> value;
};

/// One bench run's report: its flags, its failures, and the JSON it
/// writes in the layout of the file comment.
class Report {
 public:
  explicit Report(std::string bench) : bench_(std::move(bench)) {}

  /// Parses every argument as one of `flags` or `--out=FILE` (where
  /// Write puts the report).  Anything else prints "<bench>: unknown flag
  /// <arg>" and returns false.
  bool ParseFlags(int argc, char** argv, std::initializer_list<Flag> flags);

  /// Prints "<bench>: FAILED: <what>" and returns the exit code 1.
  int Fail(const std::string& what) const;

  void Workload(const std::string& key, double value);
  void Row(const Series& series);
  void Row(const std::string& name,
           const std::vector<std::pair<std::string, double>>& fields);
  void Ratio(const std::string& key, double value);

  /// Fails the run unless ratio `key` is at least `bound` (a
  /// --require-speedup floor) or, for Ceiling, at most `bound` (a
  /// --max-overhead ceiling); a bound of 0 (the flag's absence) enforces
  /// nothing.  `message` is a printf format receiving the ratio and the
  /// bound, printed after "<bench>: FAILED: ".
  void Floor(const std::string& key, double bound, std::string message);
  void Ceiling(const std::string& key, double bound, std::string message);

  /// Writes the report to --out (stdout without it), then applies the
  /// floors and ceilings.  Returns the exit code.
  int Write() const;

 private:
  struct Gate {
    std::string key;
    double bound;
    bool ceiling;
    std::string message;
  };

  std::string bench_;
  std::string out_path_;
  std::vector<std::string> workload_;  // rendered "key": value
  std::vector<std::string> rows_;      // rendered row objects
  std::vector<std::pair<std::string, double>> ratios_;
  std::vector<Gate> gates_;
};

}  // namespace currency::bench

#endif  // CURRENCY_BENCH_HARNESS_H_
