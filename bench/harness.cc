#include "bench/harness.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <thread>
#include <type_traits>

namespace currency::bench {

namespace {

/// Ternary clauses over the A-order literals of one entity, each literal
/// ordering a random tuple pair either as the identity order does or
/// reversed; the third literal is forced to the identity order when the
/// first two are not, which plants satisfiability.  Each clause becomes a
/// denial constraint whose premises are the negated literals (negating an
/// order atom flips its direction, by totality) over tuple variables
/// pinned through the P selector.
std::vector<std::string> MakePuzzleConstraints(const ShardShape& shape) {
  std::mt19937 rng(shape.seed);
  std::uniform_int_distribution<int> tup(0, shape.group - 1);
  std::uniform_int_distribution<int> coin(0, 1);
  const char* vars[] = {"a", "b", "c", "d", "e", "f"};
  std::vector<std::string> out;
  while (static_cast<int>(out.size()) < shape.clauses) {
    struct Literal {
      int lo, hi;
      bool identity;  // the literal is lo ≺ hi, true in the identity order
    };
    std::vector<Literal> lits;
    bool any_identity = false;
    for (int k = 0; k < 3; ++k) {
      int lo = tup(rng), hi = tup(rng);
      while (hi == lo) hi = tup(rng);
      if (lo > hi) std::swap(lo, hi);
      bool identity = coin(rng) == 1;
      if (k == 2 && !any_identity) identity = true;
      any_identity |= identity;
      lits.push_back({lo, hi, identity});
    }
    std::string text = "FORALL a, b, c, d, e, f IN R: ";
    for (int k = 0; k < 3; ++k) {
      text += std::string(vars[2 * k]) + ".P = " + std::to_string(lits[k].lo) +
              " AND " + vars[2 * k + 1] + ".P = " +
              std::to_string(lits[k].hi) + " AND ";
    }
    for (int k = 0; k < 3; ++k) {
      std::string lo = vars[2 * k], hi = vars[2 * k + 1];
      text += lits[k].identity ? hi + " PREC[A] " + lo
                               : lo + " PREC[A] " + hi;
      text += (k < 2) ? " AND " : " -> a PREC[A] a";  // pure denial
    }
    out.push_back(std::move(text));
  }
  return out;
}

/// `value` with up to six decimals, trailing zeros trimmed.
std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", value);
  std::string out = buf;
  out.erase(out.find_last_not_of('0') + 1);
  if (out.back() == '.') out.pop_back();
  return out;
}

std::string Quoted(const std::string& text) { return "\"" + text + "\""; }

/// The CPUs this process may run on: what nproc prints.
int AffinityCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

}  // namespace

std::string PadId(const char* prefix, int e) {
  std::string digits = std::to_string(e);
  return std::string(prefix) + std::string(6 - digits.size(), '0') + digits;
}

core::Specification MakeShardedSpec(int entities, const ShardShape& shape) {
  core::Specification spec;
  Relation r(Schema::Make("R", {"P", "A", "B"}).value());
  if (shape.plant_unsat) {
    Value eid("a-plant");  // sorts before every e...-entity
    for (int k = 0; k < 3; ++k) {
      (void)r.AppendValues({eid, Value(99), Value(k), Value(k)});
    }
  }
  for (int e = 0; e < entities; ++e) {
    Value eid(PadId("e", e));
    for (int k = 0; k < shape.group; ++k) {
      (void)r.AppendValues({eid, Value(k), Value(k), Value(k % 2)});
    }
  }
  (void)spec.AddInstance(core::TemporalInstance(std::move(r)));
  for (const std::string& text : MakePuzzleConstraints(shape)) {
    (void)spec.AddConstraintText(text);
  }
  if (shape.plant_unsat) {
    // No A-chains among the planted tuples: every completion of a
    // three-tuple group has one.
    (void)spec.AddConstraintText(
        "FORALL s, t, u IN R: s.P = 99 AND t.P = 99 AND u.P = 99 AND "
        "t PREC[A] s AND u PREC[A] t -> u PREC[A] u");
  }
  if (!shape.replica) return spec;

  int base = shape.plant_unsat ? 3 : 0;
  Relation r2(Schema::Make("R2", {"C"}).value());
  copy::CopySignature sig;
  sig.target_relation = "R2";
  sig.target_attrs = {"C"};
  sig.source_relation = "R";
  sig.source_attrs = {"A"};
  copy::CopyFunction fn(sig);
  for (int e = 0; e < entities; ++e) {
    Value eid(PadId("f", e));
    auto t0 = r2.AppendValues({eid, Value(0)});
    auto t1 = r2.AppendValues({eid, Value(2)});
    (void)fn.Map(*t0, base + e * shape.group);      // carries A = 0
    (void)fn.Map(*t1, base + e * shape.group + 2);  // carries A = 2
  }
  (void)spec.AddInstance(core::TemporalInstance(std::move(r2)));
  (void)spec.AddCopyFunction(std::move(fn));
  return spec;
}

std::vector<core::CurrencyOrderQuery> MakeSpreadQueries(int entities,
                                                        int queries,
                                                        int group) {
  std::vector<core::CurrencyOrderQuery> out;
  for (int k = 0; k < queries; ++k) {
    int e = (static_cast<int64_t>(k) * entities) / queries;
    core::CurrencyOrderQuery q;
    q.relation = "R";
    q.pairs = {core::RequiredPair{2, e * group, e * group + 1},
               core::RequiredPair{2, e * group + 3, e * group + 2}};
    out.push_back(std::move(q));
  }
  return out;
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Series::Total() const {
  double t = 0;
  for (double s : samples_ms) t += s;
  return t;
}

double Series::Percentile(double q) const {
  if (samples_ms.empty()) return 0;
  std::vector<double> sorted = samples_ms;
  std::sort(sorted.begin(), sorted.end());
  size_t rank = static_cast<size_t>(q * (sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

bool Report::ParseFlags(int argc, char** argv,
                        std::initializer_list<Flag> flags) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    size_t eq = arg.find('=');
    std::string name = arg.rfind("--", 0) == 0 && eq != std::string::npos
                           ? arg.substr(2, eq - 2)
                           : "";
    const char* text = name.empty() ? "" : argv[i] + eq + 1;
    if (name == "out") {
      out_path_ = text;
      continue;
    }
    auto flag = std::find_if(flags.begin(), flags.end(),
                             [&](const Flag& f) { return name == f.name; });
    if (name.empty() || flag == flags.end()) {
      std::fprintf(stderr, "%s: unknown flag %s\n", bench_.c_str(), argv[i]);
      return false;
    }
    std::visit(
        [&](auto* target) {
          using T = std::remove_pointer_t<decltype(target)>;
          if constexpr (std::is_same_v<T, int>) {
            *target = std::atoi(text);
          } else if constexpr (std::is_same_v<T, int64_t>) {
            *target = std::atoll(text);
          } else if constexpr (std::is_same_v<T, double>) {
            *target = std::atof(text);
          } else {
            *target = text;
          }
        },
        flag->value);
  }
  return true;
}

int Report::Fail(const std::string& what) const {
  std::fprintf(stderr, "%s: FAILED: %s\n", bench_.c_str(), what.c_str());
  return 1;
}

void Report::Workload(const std::string& key, double value) {
  workload_.push_back(Quoted(key) + ": " + Number(value));
}

void Report::Workload(const std::string& key, const std::string& value) {
  workload_.push_back(Quoted(key) + ": " + Quoted(value));
}

void Report::Row(const Series& series) {
  size_t n = series.samples_ms.size();
  double denom = series.wall_ms > 0 ? series.wall_ms : series.Total();
  Row(series.name,
      {{"n", static_cast<double>(n)},
       {"ops_per_sec", n == 0 || denom <= 0 ? 0.0 : 1000.0 * n / denom},
       {"p50_ms", series.Percentile(0.50)},
       {"p95_ms", series.Percentile(0.95)},
       {"mean_ms", n == 0 ? 0.0 : series.Total() / n}});
}

void Report::Row(const std::string& name,
                 const std::vector<std::pair<std::string, double>>& fields) {
  std::string row = "{\"name\": " + Quoted(name);
  for (const auto& [key, value] : fields) {
    row += ", " + Quoted(key) + ": " + Number(value);
  }
  rows_.push_back(row + "}");
}

void Report::Ratio(const std::string& key, double value) {
  ratios_.emplace_back(key, value);
}

void Report::Floor(const std::string& key, double bound,
                   std::string message) {
  gates_.push_back({key, bound, /*ceiling=*/false, std::move(message)});
}

void Report::Ceiling(const std::string& key, double bound,
                     std::string message) {
  gates_.push_back({key, bound, /*ceiling=*/true, std::move(message)});
}

int Report::Write() const {
  int cpus = AffinityCpus();
  std::string json = "{\n  \"host\": {\"nproc\": " + std::to_string(cpus);
  if (cpus == 1) {
    json += ", \"caveat\": \"measured with 1 CPU: concurrent phases show "
            "overhead parity, not parallel speedup\"";
  }
  json += "},\n  \"bench\": " + Quoted(bench_) + ",\n  \"workload\": {";
  for (size_t k = 0; k < workload_.size(); ++k) {
    json += (k ? ", " : "") + workload_[k];
  }
  json += "},\n  \"results\": [";
  for (size_t k = 0; k < rows_.size(); ++k) {
    json += std::string(k ? "," : "") + "\n    " + rows_[k];
  }
  json += "\n  ],\n  \"ratios\": {";
  std::string summary;
  for (size_t k = 0; k < ratios_.size(); ++k) {
    const auto& [key, value] = ratios_[k];
    json += std::string(k ? "," : "") + "\n    " + Quoted(key) + ": " +
            Number(value);
    summary += (k ? ", " : " (") + key + " " + Number(value);
  }
  json += ratios_.empty() ? "}\n}\n" : "\n  }\n}\n";
  if (!summary.empty()) summary += ")";

  if (out_path_.empty()) {
    std::fputs(json.c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(out_path_.c_str(), "w");
    if (f == nullptr) return Fail("cannot open --out file");
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("%s: wrote %s%s\n", bench_.c_str(), out_path_.c_str(),
                summary.c_str());
  }
  for (const Gate& gate : gates_) {
    auto ratio =
        std::find_if(ratios_.begin(), ratios_.end(),
                     [&](const auto& r) { return r.first == gate.key; });
    if (gate.bound <= 0 || ratio == ratios_.end()) continue;
    if (gate.ceiling ? ratio->second > gate.bound
                     : ratio->second < gate.bound) {
      std::fprintf(stderr, "%s: FAILED: ", bench_.c_str());
      std::fprintf(stderr, gate.message.c_str(), ratio->second, gate.bound);
      std::fputc('\n', stderr);
      return 1;
    }
  }
  return 0;
}

}  // namespace currency::bench
