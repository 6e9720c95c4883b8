// Crash-recovery tests for the durability stack: the log layer
// (src/wal) under torn and bit-flipped tails, and the SessionManager's
// command log end to end — kill/reopen at EVERY log prefix, replaying
// into a recovered manager whose CPS/COP/DCIP/CCQA answers must equal
// the live manager's.
//
// The crash model: a crash can cut the log at any byte (torn tail) or
// damage unsynced tail bytes (bit flips).  Recovery must (a) never
// crash, (b) keep exactly the longest valid record prefix — acknowledged
// commands survive because Mutate fsyncs before returning — and
// (c) produce a manager whose state equals replaying that prefix of
// accepted commands.  Rejected mutations are never logged, so they must
// be absent from every recovered state.
//
// Log directories live under the current working directory (the build
// tree when run via ctest) in wal_test_dirs/, which is gitignored, and
// are removed on test exit.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/certain_order.h"
#include "src/core/specification.h"
#include "src/query/parser.h"
#include "src/serve/session_manager.h"
#include "src/wal/log.h"
#include "src/wire/spec.h"
#include "tests/fixtures.h"

namespace currency {
namespace {

namespace fs = std::filesystem;
using currency::testing::MakeRandomSpec;
using serve::ManagerOptions;
using serve::SessionManager;

/// A unique log directory under ./wal_test_dirs, removed at destruction.
class TestDir {
 public:
  explicit TestDir(const std::string& name) {
    static std::atomic<int> counter{0};
    path_ = "wal_test_dirs/" + name + "_" +
            std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1));
    fs::create_directories(path_);
  }
  ~TestDir() {
    // Remove only this test's directory — suites run as parallel ctest
    // processes sharing the wal_test_dirs root.
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

  /// A sibling copy of this directory (fresh name), for destructive
  /// crash experiments that must not disturb the original.
  std::string Clone(const std::string& suffix) const {
    std::string copy = path_ + "_" + suffix;
    std::error_code ec;
    fs::remove_all(copy, ec);
    fs::copy(path_, copy, fs::copy_options::recursive);
    return copy;
  }

 private:
  std::string path_;
};

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteWholeFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The segment files of a log directory, sorted (= sequence order).
std::vector<std::string> SegmentFiles(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0) out.push_back(entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

uint32_t LoadU32At(const std::string& bytes, size_t off) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(bytes[off + i]))
         << (8 * i);
  }
  return v;
}

/// Byte offsets of record boundaries in one segment file: the first
/// entry is the 16-byte header boundary, then one entry per record end.
/// Walks the length fields only — exactly what an adversary tearing the
/// file cannot change without also failing the CRC.
std::vector<size_t> RecordBoundaries(const std::string& segment_bytes) {
  std::vector<size_t> bounds{16};
  size_t off = 16;
  while (off + 16 <= segment_bytes.size()) {
    const uint32_t len = LoadU32At(segment_bytes, off + 4);
    if (segment_bytes.size() - off - 16 < len) break;
    off += 16 + len;
    bounds.push_back(off);
  }
  return bounds;
}

// ---------------------------------------------------------------------------
// Log layer.
// ---------------------------------------------------------------------------

TEST(WalLog, AppendRecoverContinue) {
  TestDir dir("basic");
  {
    auto writer = wal::LogWriter::Open(dir.path());
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    EXPECT_EQ(writer.value()->last_seq(), 0u);
    for (int i = 0; i < 5; ++i) {
      auto seq = writer.value()->Append("payload-" + std::to_string(i));
      ASSERT_TRUE(seq.ok());
      EXPECT_EQ(seq.value(), static_cast<uint64_t>(i + 1));
    }
    ASSERT_TRUE(writer.value()->Sync().ok());
  }
  {
    auto writer = wal::LogWriter::Open(dir.path());
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    const wal::RecoveredLog& rec = writer.value()->recovered();
    ASSERT_EQ(rec.records.size(), 5u);
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(rec.records[i].seq, static_cast<uint64_t>(i + 1));
      EXPECT_EQ(rec.records[i].payload, "payload-" + std::to_string(i));
    }
    EXPECT_EQ(rec.last_seq, 5u);
    EXPECT_EQ(rec.dropped_bytes, 0u);
    // Sequence numbers continue where the previous incarnation stopped.
    auto seq = writer.value()->Append("after-restart");
    ASSERT_TRUE(seq.ok());
    EXPECT_EQ(seq.value(), 6u);
  }
}

TEST(WalLog, EmptyDirectoryIsEmptyLog) {
  TestDir dir("empty");
  auto rec = wal::LogReader::ReadDir(dir.path());
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_FALSE(rec.value().has_snapshot);
  EXPECT_TRUE(rec.value().records.empty());
}

TEST(WalLog, EveryTornPrefixRecoversTheValidRecords) {
  TestDir dir("torn");
  constexpr int kRecords = 6;
  {
    auto writer = wal::LogWriter::Open(dir.path());
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < kRecords; ++i) {
      ASSERT_TRUE(
          writer.value()->Append("record-" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(writer.value()->Sync().ok());
  }
  std::vector<std::string> segments = SegmentFiles(dir.path());
  ASSERT_EQ(segments.size(), 1u);
  const std::string full = ReadWholeFile(segments[0]);
  const std::vector<size_t> bounds = RecordBoundaries(full);
  ASSERT_EQ(bounds.size(), static_cast<size_t>(kRecords + 1));

  // Cut the segment at EVERY byte length, not just record boundaries.
  for (size_t cut = 0; cut <= full.size(); ++cut) {
    std::string copy = dir.Clone("cut" + std::to_string(cut));
    std::vector<std::string> copy_segments = SegmentFiles(copy);
    ASSERT_EQ(copy_segments.size(), 1u);
    WriteWholeFile(copy_segments[0], full.substr(0, cut));

    // The number of whole records below the cut.
    size_t expect = 0;
    while (expect + 1 < bounds.size() && bounds[expect + 1] <= cut) ++expect;

    auto rec = wal::LogReader::ReadDir(copy);
    ASSERT_TRUE(rec.ok()) << "cut=" << cut << ": " << rec.status().ToString();
    ASSERT_EQ(rec.value().records.size(), expect) << "cut=" << cut;
    for (size_t i = 0; i < expect; ++i) {
      EXPECT_EQ(rec.value().records[i].payload,
                "record-" + std::to_string(i));
    }
    // A writer opened on the torn directory truncates and can continue.
    auto writer = wal::LogWriter::Open(copy);
    ASSERT_TRUE(writer.ok()) << "cut=" << cut;
    EXPECT_EQ(writer.value()->recovered().records.size(), expect);
    auto seq = writer.value()->Append("continued");
    ASSERT_TRUE(seq.ok());
    EXPECT_EQ(seq.value(), static_cast<uint64_t>(expect + 1));
    std::error_code ec;
    fs::remove_all(copy, ec);
  }
}

TEST(WalLog, BitFlippedTailKeepsOnlyAValidPrefix) {
  TestDir dir("flip");
  constexpr int kRecords = 4;
  {
    auto writer = wal::LogWriter::Open(dir.path());
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < kRecords; ++i) {
      ASSERT_TRUE(writer.value()->Append("record-" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(writer.value()->Sync().ok());
  }
  std::vector<std::string> segments = SegmentFiles(dir.path());
  ASSERT_EQ(segments.size(), 1u);
  const std::string full = ReadWholeFile(segments[0]);
  const std::vector<size_t> bounds = RecordBoundaries(full);

  for (size_t pos = 0; pos < full.size(); ++pos) {
    std::string copy = dir.Clone("flip" + std::to_string(pos));
    std::vector<std::string> copy_segments = SegmentFiles(copy);
    std::string damaged = full;
    damaged[pos] = static_cast<char>(damaged[pos] ^ 0x40);
    WriteWholeFile(copy_segments[0], damaged);

    auto rec = wal::LogReader::ReadDir(copy);
    ASSERT_TRUE(rec.ok()) << "pos=" << pos << ": " << rec.status().ToString();
    const auto& records = rec.value().records;
    if (pos < 16) {
      // Header damage invalidates the whole segment.
      EXPECT_TRUE(records.empty()) << "pos=" << pos;
    } else {
      // Damage inside record k kills k and everything after it; records
      // before k are untouched.  (The flip always lands inside some
      // record: CRC covers the full frame, so survival would require a
      // CRC collision — with one deterministic bit flip there is none.)
      size_t k = 0;
      while (k + 1 < bounds.size() && bounds[k + 1] <= pos) ++k;
      ASSERT_EQ(records.size(), k) << "pos=" << pos;
      for (size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].payload, "record-" + std::to_string(i));
      }
    }
    std::error_code ec;
    fs::remove_all(copy, ec);
  }
}

TEST(WalLog, RotationSplitsAndRecoveryCrossesSegments) {
  TestDir dir("rotate");
  wal::WalOptions options;
  options.segment_bytes = 64;  // a few records per segment
  {
    auto writer = wal::LogWriter::Open(dir.path(), options);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(writer.value()->Append("r" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(writer.value()->Sync().ok());
  }
  EXPECT_GT(SegmentFiles(dir.path()).size(), 2u);
  auto rec = wal::LogReader::ReadDir(dir.path());
  ASSERT_TRUE(rec.ok());
  ASSERT_EQ(rec.value().records.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(rec.value().records[i].seq, static_cast<uint64_t>(i + 1));
    EXPECT_EQ(rec.value().records[i].payload, "r" + std::to_string(i));
  }
}

TEST(WalLog, SnapshotPrunesSegmentsAndSeedsRecovery) {
  TestDir dir("snap");
  wal::WalOptions options;
  options.segment_bytes = 64;
  {
    auto writer = wal::LogWriter::Open(dir.path(), options);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(writer.value()->Append("pre" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(writer.value()->Sync().ok());
    ASSERT_TRUE(writer.value()->WriteSnapshot("state-at-10").ok());
    // Everything at or below seq 10 is covered: only the fresh tail
    // segment survives.
    EXPECT_EQ(SegmentFiles(dir.path()).size(), 1u);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(writer.value()->Append("post" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(writer.value()->Sync().ok());
  }
  auto rec = wal::LogReader::ReadDir(dir.path());
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(rec.value().has_snapshot);
  EXPECT_EQ(rec.value().snapshot_seq, 10u);
  EXPECT_EQ(rec.value().snapshot_payload, "state-at-10");
  ASSERT_EQ(rec.value().records.size(), 3u);
  EXPECT_EQ(rec.value().records[0].seq, 11u);
  EXPECT_EQ(rec.value().records[0].payload, "post0");
  EXPECT_EQ(rec.value().last_seq, 13u);
}

TEST(WalLog, CorruptSnapshotIsAHardError) {
  TestDir dir("badsnap");
  {
    auto writer = wal::LogWriter::Open(dir.path());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->Append("x").ok());
    ASSERT_TRUE(writer.value()->Sync().ok());
    ASSERT_TRUE(writer.value()->WriteSnapshot("snapshot-bytes").ok());
  }
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snap-", 0) != 0) continue;
    std::string bytes = ReadWholeFile(entry.path().string());
    bytes[bytes.size() / 2] ^= 0x01;
    WriteWholeFile(entry.path().string(), bytes);
  }
  // Unlike a torn log tail there is no fallback: the covered records are
  // pruned, so recovery must refuse rather than resurrect partial state.
  EXPECT_FALSE(wal::LogReader::ReadDir(dir.path()).ok());
  EXPECT_FALSE(wal::LogWriter::Open(dir.path()).ok());
}

/// Lowers this process's RLIMIT_FSIZE soft limit to `bytes`, with SIGXFSZ
/// ignored so that a write crossing it stops part way and the next write
/// fails with EFBIG instead of killing the process.  Restores both on
/// destruction.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(uintmax_t bytes) {
    EXPECT_EQ(::getrlimit(RLIMIT_FSIZE, &saved_), 0);
    saved_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    struct rlimit lowered = saved_;
    lowered.rlim_cur = static_cast<rlim_t>(bytes);
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &lowered), 0);
  }
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, saved_handler_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  struct rlimit saved_;
  void (*saved_handler_)(int);
};

// A write that stops part way leaves a torn record in the tail, and
// recovery drops everything behind it — so a writer that kept appending
// would acknowledge records recovery then loses.  It fails stop instead.
TEST(WalLog, TornAppendBreaksTheWriterUntilReopened) {
  TestDir dir("torn_append");
  auto writer = wal::LogWriter::Open(dir.path());
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  wal::LogWriter& w = *writer.value();
  ASSERT_EQ(w.Append("first").value(), 1u);
  ASSERT_TRUE(w.Sync().ok());
  const std::vector<std::string> segments = SegmentFiles(dir.path());
  ASSERT_EQ(segments.size(), 1u);
  const uintmax_t synced_bytes = fs::file_size(segments[0]);
  {
    // Room for the next record's 16-byte header and 4 payload bytes.
    FileSizeLimit limit(synced_bytes + 20);
    EXPECT_FALSE(w.Append(std::string(100, 'x')).ok());
  }
  ASSERT_GT(fs::file_size(segments[0]), synced_bytes)
      << "the append must stop part way, leaving a torn record";
  EXPECT_EQ(w.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(w.Append("third").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(w.Sync().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(w.WriteSnapshot("snapshot").code(),
            StatusCode::kFailedPrecondition);
  // Every acknowledged record survives.
  auto recovered = wal::LogReader::ReadDir(dir.path());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered.value().records.size(), 1u);
  EXPECT_EQ(recovered.value().records[0].payload, "first");
  EXPECT_GT(recovered.value().dropped_bytes, 0u);
  writer.value().reset();

  // Reopening truncates the torn tail, and appends are durable again.
  auto reopened = wal::LogWriter::Open(dir.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(reopened.value()->status().ok());
  ASSERT_EQ(reopened.value()->Append("third").value(), 2u);
  ASSERT_TRUE(reopened.value()->Sync().ok());
  recovered = wal::LogReader::ReadDir(dir.path());
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ(recovered.value().records.size(), 2u);
  EXPECT_EQ(recovered.value().records[1].payload, "third");
  EXPECT_EQ(recovered.value().dropped_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Manager level: commands, replay, answer equality.
// ---------------------------------------------------------------------------

core::CurrencyOrderQuery MakeCopQuery() {
  core::CurrencyOrderQuery q;
  q.relation = "R";
  core::RequiredPair p;
  p.attr = 1;
  p.before = 0;
  p.after = 1;  // tuples 0 and 1 are both entity e0 by construction
  q.pairs.push_back(p);
  return q;
}

struct Answers {
  bool cps = false;
  std::vector<bool> cop;
  std::vector<bool> dcip;
  std::vector<serve::CcqaResponse> ccqa;
};

Answers QueryAll(SessionManager* manager, const std::string& tenant) {
  Answers a;
  auto cps = manager->CpsCheck(tenant);
  EXPECT_TRUE(cps.ok()) << cps.status().ToString();
  a.cps = cps.ok() && cps.value();
  auto cop = manager->CopBatch(tenant, {MakeCopQuery()});
  EXPECT_TRUE(cop.ok()) << cop.status().ToString();
  if (cop.ok()) a.cop = cop.value();
  auto dcip = manager->DcipBatch(tenant, {"R"});
  EXPECT_TRUE(dcip.ok()) << dcip.status().ToString();
  if (dcip.ok()) a.dcip = dcip.value();
  serve::CcqaRequest req;
  req.query = query::ParseQuery("Q(x) := EXISTS y: R('e0', x, y)").value();
  auto ccqa = manager->CcqaBatch(tenant, {req});
  EXPECT_TRUE(ccqa.ok()) << ccqa.status().ToString();
  if (ccqa.ok()) a.ccqa = ccqa.value();
  return a;
}

void ExpectSameAnswers(const Answers& live, const Answers& recovered) {
  EXPECT_EQ(live.cps, recovered.cps);
  EXPECT_EQ(live.cop, recovered.cop);
  EXPECT_EQ(live.dcip, recovered.dcip);
  ASSERT_EQ(live.ccqa.size(), recovered.ccqa.size());
  for (size_t i = 0; i < live.ccqa.size(); ++i) {
    EXPECT_EQ(live.ccqa[i].vacuous, recovered.ccqa[i].vacuous);
    EXPECT_EQ(live.ccqa[i].is_certain, recovered.ccqa[i].is_certain);
    EXPECT_EQ(live.ccqa[i].answers, recovered.ccqa[i].answers);
  }
}

std::string TenantSpecWire(SessionManager* manager,
                           const std::string& tenant) {
  auto session = manager->Lookup(tenant);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  if (!session.ok()) return "";
  return wire::SerializeSpecification(session.value()->spec());
}

/// The crash-recovery fuzz of the ISSUE: random accepted/rejected
/// mutation rounds against a durable manager, then kill/reopen at every
/// record-boundary prefix of the log (plus torn and bit-flipped tails)
/// and require the recovered state to equal the corresponding accepted
/// prefix — with full answer equality at a sample of prefixes.
TEST(WalManager, RecoveryFuzzEveryPrefix) {
  for (unsigned seed : {7u, 21u}) {
    TestDir dir("fuzz" + std::to_string(seed));
    std::mt19937 rng(seed);
    auto rnd = [&](int lo, int hi) {
      return std::uniform_int_distribution<int>(lo, hi)(rng);
    };

    core::Specification spec =
        MakeRandomSpec(seed, /*with_copy=*/true, /*with_constraints=*/true);
    const int num_tuples =
        static_cast<int>(spec.instance(0).relation().size());
    // The accepted history, replayed by hand alongside the manager.
    std::vector<core::Specification> expected;
    expected.push_back(spec);  // state after the register

    {
      auto manager = SessionManager::Open(dir.path());
      ASSERT_TRUE(manager.ok()) << manager.status().ToString();
      ASSERT_TRUE(
          manager.value()->Register("t", std::move(spec), {}).ok());
      for (int round = 0; round < 8; ++round) {
        if (rnd(0, 3) == 0) {
          // A rejected round: invalid attribute.  Must leave no trace in
          // the log or the state.
          std::vector<core::TupleEdit> bad;
          bad.push_back({0, 0, 99, Value(1)});
          EXPECT_FALSE(manager.value()->Mutate("t", bad).ok());
          continue;
        }
        // Accepted edits target B (attr 2): it is never a copy source, so
        // the copying condition cannot reject the batch.
        std::vector<core::TupleEdit> edits;
        const int batch = rnd(1, 3);
        for (int e = 0; e < batch; ++e) {
          edits.push_back({0, rnd(0, num_tuples - 1), 2, Value(rnd(0, 3))});
        }
        ASSERT_TRUE(manager.value()->Mutate("t", edits).ok());
        core::Specification next = expected.back();
        ASSERT_TRUE(next.ApplyTupleEdits(edits).ok());
        expected.push_back(std::move(next));
        // Occasionally warm the caches mid-stream: solver state must not
        // leak into what gets logged.
        if (rnd(0, 1) == 0) {
          auto cps = manager.value()->CpsCheck("t");
          ASSERT_TRUE(cps.ok());
        }
      }
    }

    std::vector<std::string> segments = SegmentFiles(dir.path());
    ASSERT_EQ(segments.size(), 1u);  // default segment size: no rotation
    const std::string full = ReadWholeFile(segments[0]);
    const std::vector<size_t> bounds = RecordBoundaries(full);
    // records = 1 register + |expected|-1 accepted mutates.
    ASSERT_EQ(bounds.size(), expected.size() + 1);

    // Reference answers per prefix come from a fresh in-memory manager
    // over the hand-replayed specification.
    for (size_t k = 0; k < bounds.size(); ++k) {
      // Prefix k keeps the first k records.  Also test a torn variant
      // that cuts mid-record-(k+1) — it must recover identically.
      for (int torn = 0; torn < 2; ++torn) {
        size_t cut = bounds[k];
        if (torn == 1) {
          if (k + 1 >= bounds.size()) continue;
          cut += 7;  // into the next record's frame
        }
        std::string copy =
            dir.Clone("k" + std::to_string(k) + "t" + std::to_string(torn));
        WriteWholeFile(SegmentFiles(copy)[0], full.substr(0, cut));
        auto recovered = SessionManager::Open(copy);
        ASSERT_TRUE(recovered.ok())
            << "seed=" << seed << " k=" << k << " torn=" << torn << ": "
            << recovered.status().ToString();
        if (k == 0) {
          EXPECT_TRUE(recovered.value()->Tenants().empty());
        } else {
          const core::Specification& want = expected[k - 1];
          EXPECT_EQ(TenantSpecWire(recovered.value().get(), "t"),
                    wire::SerializeSpecification(want))
              << "seed=" << seed << " k=" << k << " torn=" << torn;
          // Full answer equality on a sample of prefixes (every prefix
          // would be all solving, little extra coverage).
          if (!torn && (k == 1 || k == bounds.size() / 2 ||
                        k + 1 == bounds.size())) {
            auto reference = SessionManager::Create();
            ASSERT_TRUE(reference.ok());
            core::Specification ref_spec = want;
            ASSERT_TRUE(reference.value()
                            ->Register("t", std::move(ref_spec), {})
                            .ok());
            ExpectSameAnswers(QueryAll(reference.value().get(), "t"),
                              QueryAll(recovered.value().get(), "t"));
          }
        }
        std::error_code ec;
        fs::remove_all(copy, ec);
      }
    }

    // Bit-flip the last record's payload: recovery drops exactly it.
    {
      std::string copy = dir.Clone("lastflip");
      std::string damaged = full;
      damaged[bounds[bounds.size() - 2] + 20] ^= 0x10;
      WriteWholeFile(SegmentFiles(copy)[0], damaged);
      auto recovered = SessionManager::Open(copy);
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      EXPECT_EQ(TenantSpecWire(recovered.value().get(), "t"),
                wire::SerializeSpecification(expected[expected.size() - 2]));
      std::error_code ec;
      fs::remove_all(copy, ec);
    }

    // And the intact directory recovers the full state — then keeps
    // accepting durable mutations (recovery is not read-only).
    {
      auto recovered = SessionManager::Open(dir.path());
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      EXPECT_EQ(TenantSpecWire(recovered.value().get(), "t"),
                wire::SerializeSpecification(expected.back()));
      std::vector<core::TupleEdit> more;
      more.push_back({0, 0, 2, Value(2)});
      ASSERT_TRUE(recovered.value()->Mutate("t", more).ok());
    }
    {
      auto recovered = SessionManager::Open(dir.path());
      ASSERT_TRUE(recovered.ok());
      core::Specification want = expected.back();
      std::vector<core::TupleEdit> more;
      more.push_back({0, 0, 2, Value(2)});
      ASSERT_TRUE(want.ApplyTupleEdits(more).ok());
      EXPECT_EQ(TenantSpecWire(recovered.value().get(), "t"),
                wire::SerializeSpecification(want));
    }
  }
}

TEST(WalManager, RejectedMutationsAreNeverLogged) {
  TestDir dir("rejected");
  {
    auto manager = SessionManager::Open(dir.path());
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE(manager.value()
                    ->Register("t", MakeRandomSpec(3, false, true), {})
                    .ok());
    std::vector<core::TupleEdit> bad;
    bad.push_back({5, 0, 1, Value(1)});  // no such instance
    EXPECT_FALSE(manager.value()->Mutate("t", bad).ok());
    std::vector<core::TupleEdit> good;
    good.push_back({0, 0, 1, Value(3)});
    ASSERT_TRUE(manager.value()->Mutate("t", good).ok());
  }
  auto rec = wal::LogReader::ReadDir(dir.path());
  ASSERT_TRUE(rec.ok());
  // Exactly the accepted history: one register, one mutate.
  EXPECT_EQ(rec.value().records.size(), 2u);
}

TEST(WalManager, BrokenLogRefusesCommandsUntilReopened) {
  TestDir dir("broken_log");
  const core::Specification spec = MakeRandomSpec(3, false, true);
  {
    auto manager = SessionManager::Open(dir.path());
    ASSERT_TRUE(manager.ok());
    SessionManager& m = *manager.value();
    ASSERT_TRUE(m.Register("t", spec, {}).ok());
    const std::vector<std::string> segments = SegmentFiles(dir.path());
    ASSERT_FALSE(segments.empty());
    {
      FileSizeLimit limit(fs::file_size(segments.back()) + 20);
      EXPECT_FALSE(m.Mutate("t", {{0, 0, 1, Value(3)}}).ok());
    }
    // Refused before apply: the tenant's state stays as it was.
    const std::string before = TenantSpecWire(&m, "t");
    EXPECT_EQ(m.Mutate("t", {{0, 0, 1, Value(5)}}).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(TenantSpecWire(&m, "t"), before);
    EXPECT_EQ(m.Register("u", spec, {}).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(m.Drop("t").code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(m.Tenants(), std::vector<std::string>{"t"});
    EXPECT_EQ(m.Snapshot().code(), StatusCode::kFailedPrecondition);
  }
  // Reopening recovers the acknowledged history and accepts commands.
  auto manager = SessionManager::Open(dir.path());
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  EXPECT_EQ(TenantSpecWire(manager.value().get(), "t"),
            wire::SerializeSpecification(spec));
  EXPECT_TRUE(manager.value()->Mutate("t", {{0, 0, 1, Value(5)}}).ok());
  auto recovered = wal::LogReader::ReadDir(dir.path());
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().records.size(), 2u);
}

TEST(WalManager, DropAndReRegisterAreDurable) {
  TestDir dir("drop");
  {
    auto manager = SessionManager::Open(dir.path());
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE(manager.value()
                    ->Register("a", MakeRandomSpec(1, false, false), {})
                    .ok());
    ASSERT_TRUE(manager.value()
                    ->Register("b", MakeRandomSpec(2, false, false), {})
                    .ok());
    ASSERT_TRUE(manager.value()->Drop("a").ok());
    // Re-registering a dropped name is a fresh tenant.
    ASSERT_TRUE(manager.value()
                    ->Register("a", MakeRandomSpec(4, true, true), {})
                    .ok());
  }
  auto manager = SessionManager::Open(dir.path());
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  EXPECT_EQ(manager.value()->Tenants(),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(TenantSpecWire(manager.value().get(), "a"),
            wire::SerializeSpecification(MakeRandomSpec(4, true, true)));
}

TEST(WalManager, QuotasSurviveRecovery) {
  TestDir dir("quotas");
  serve::TenantQuotas quotas;
  quotas.max_active_batches = 1;
  quotas.max_queued_batches = 0;
  quotas.max_current_instances = 12345;
  {
    auto manager = SessionManager::Open(dir.path());
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE(manager.value()
                    ->Register("t", MakeRandomSpec(5, false, true), quotas)
                    .ok());
  }
  auto manager = SessionManager::Open(dir.path());
  ASSERT_TRUE(manager.ok());
  auto stats = manager.value()->StatsFor("t");
  ASSERT_TRUE(stats.ok());
  // The gate was rebuilt from the recovered quotas: a single blocking
  // slot with no queue rejects a second admission immediately — observed
  // via the test hook below in serve_test; here the cheap proxy is that
  // the tenant exists and answers.
  EXPECT_TRUE(manager.value()->CpsCheck("t").ok());
}

TEST(WalManager, SnapshotSkipsReplayAndReAdoptsVerdicts) {
  TestDir dir("snapshot");
  std::string final_wire;
  Answers live;
  {
    auto manager = SessionManager::Open(dir.path());
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE(manager.value()
                    ->Register("t", MakeRandomSpec(11, true, true), {})
                    .ok());
    for (int round = 0; round < 5; ++round) {
      std::vector<core::TupleEdit> edits;
      edits.push_back({0, round % 4, 2, Value(round % 3)});
      ASSERT_TRUE(manager.value()->Mutate("t", edits).ok());
    }
    live = QueryAll(manager.value().get(), "t");  // warms every base solve
    ASSERT_TRUE(manager.value()->Snapshot().ok());
    final_wire = TenantSpecWire(manager.value().get(), "t");
  }
  // The snapshot replaced the replay: no command records remain.
  auto rec = wal::LogReader::ReadDir(dir.path());
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(rec.value().has_snapshot);
  EXPECT_TRUE(rec.value().records.empty());

  auto manager = SessionManager::Open(dir.path());
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  EXPECT_EQ(TenantSpecWire(manager.value().get(), "t"), final_wire);
  // Warm restart: every component's base verdict was adopted from the
  // snapshot by content fingerprint, so the first CpsCheck performs NO
  // base solves.
  auto session = manager.value()->Lookup("t");
  ASSERT_TRUE(session.ok());
  auto cps = manager.value()->CpsCheck("t");
  ASSERT_TRUE(cps.ok());
  EXPECT_EQ(cps.value(), live.cps);
  EXPECT_EQ(session.value()->stats().base_solves, 0);
  ExpectSameAnswers(live, QueryAll(manager.value().get(), "t"));
}

TEST(WalManager, AutoSnapshotKicksInEveryN) {
  TestDir dir("autosnap");
  ManagerOptions options;
  options.snapshot_every = 3;
  {
    auto manager = SessionManager::Open(dir.path(), options);
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE(manager.value()
                    ->Register("t", MakeRandomSpec(9, false, true), {})
                    .ok());
    for (int round = 0; round < 7; ++round) {
      std::vector<core::TupleEdit> edits;
      edits.push_back({0, 0, 1, Value(round)});
      ASSERT_TRUE(manager.value()->Mutate("t", edits).ok());
    }
  }
  // 8 commands at snapshot_every=3 → snapshots after 3 and 6; the last
  // two commands remain as replay records.
  auto rec = wal::LogReader::ReadDir(dir.path());
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(rec.value().has_snapshot);
  EXPECT_EQ(rec.value().snapshot_seq, 6u);
  EXPECT_EQ(rec.value().records.size(), 2u);
  auto manager = SessionManager::Open(dir.path(), options);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  core::Specification want = MakeRandomSpec(9, false, true);
  for (int round = 0; round < 7; ++round) {
    std::vector<core::TupleEdit> edits;
    edits.push_back({0, 0, 1, Value(round)});
    ASSERT_TRUE(want.ApplyTupleEdits(edits).ok());
  }
  EXPECT_EQ(TenantSpecWire(manager.value().get(), "t"),
            wire::SerializeSpecification(want));
}

TEST(WalManager, InMemoryManagerRejectsSnapshot) {
  auto manager = SessionManager::Create();
  ASSERT_TRUE(manager.ok());
  EXPECT_EQ(manager.value()->Snapshot().code(),
            StatusCode::kFailedPrecondition);
}

/// Concurrent readers during logged Mutates: the TSan pass of
/// scripts/check.sh runs this to prove the commit path (log_mu_ around
/// apply + append + fsync) does not race the snapshot-isolated readers.
TEST(WalManager, ConcurrentReadersDuringLoggedMutates) {
  TestDir dir("concurrent");
  ManagerOptions options;
  options.num_threads = 2;
  auto manager = SessionManager::Open(dir.path(), options);
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE(manager.value()
                  ->Register("t", MakeRandomSpec(13, true, true), {})
                  .ok());
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto cps = manager.value()->CpsCheck("t");
        ASSERT_TRUE(cps.ok()) << cps.status().ToString();
        auto cop = manager.value()->CopBatch("t", {MakeCopQuery()});
        ASSERT_TRUE(cop.ok()) << cop.status().ToString();
      }
    });
  }
  std::mt19937 rng(99);
  auto rnd = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  for (int round = 0; round < 12; ++round) {
    std::vector<core::TupleEdit> edits;
    edits.push_back({0, rnd(0, 3), 2, Value(rnd(0, 3))});
    ASSERT_TRUE(manager.value()->Mutate("t", edits).ok());
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  // The log replays to exactly the final state despite the concurrency.
  auto recovered = SessionManager::Open(dir.path());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(TenantSpecWire(recovered.value().get(), "t"),
            TenantSpecWire(manager.value().get(), "t"));
}

}  // namespace
}  // namespace currency
