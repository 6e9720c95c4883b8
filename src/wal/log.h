// src/wal — the durable write-ahead commit log under the serving layer.
//
// A log directory contains:
//   * numbered segment files  wal-<first_seq, hex>.log  holding the
//     record stream,
//   * at most one snapshot file  snap-<seq, hex>.snap  holding an opaque
//     payload that summarizes every record with sequence number <= seq,
//   * a MANIFEST naming the live segments (ascending) and the snapshot —
//     rewritten atomically (tmp + fsync + rename + directory fsync), so
//     a crash mid-update leaves the previous manifest in force and at
//     worst some unreferenced files, which the next Open sweeps.
//
// Segment files start with a 16-byte header (magic "CWLG", format
// version, first sequence number) followed by CRC32-framed records:
//
//   [u32 crc] [u32 len] [u64 seq] [len payload bytes]
//
// crc covers (len, seq, payload), sequence numbers are contiguous and
// monotonically increasing across segment boundaries, and payloads are
// opaque bytes (the serving layer's encoded commands, serve/command.h).
//
// Durability contract: Append writes the record into the OS; Sync
// fsyncs it.  A caller that acknowledges work only after Sync returns
// gets the classic WAL guarantee — every acknowledged record survives a
// crash.  Records written but not yet synced may survive or may be torn;
// recovery handles both.
//
// Fail-stop: the first I/O failure in Append, Sync or WriteSnapshot (a
// failed write, rotation or fsync) breaks the writer for good.  A write
// that stops part way leaves a torn record in the tail, and recovery
// drops everything after the first torn record, so a record appended
// behind it would be lost even once synced.  After a failed fsync the
// kernel may have dropped the dirty pages, so a retry that succeeds
// proves nothing.  Every later Append, Sync and WriteSnapshot therefore
// fails until the directory is reopened, which truncates the torn tail.
//
// Recovery (LogWriter::Open / LogReader::ReadDir) walks the manifest's
// segments in order and accepts the longest valid prefix of the record
// stream: the first torn (short) record, CRC mismatch, length overrun or
// sequence break TRUNCATES the log there — the offending bytes and every
// later segment are dropped (the writer physically ftruncates and
// unlinks; the reader just stops).  Truncation is deliberately the ONLY
// response to tail damage: a record that fails its CRC cannot be
// skipped-and-resumed, because everything after it is unanchored — so a
// corrupt tail can never be silently reordered or resurrected.  A
// corrupt SNAPSHOT file, by contrast, is a hard error: its records were
// pruned, so there is nothing to fall back to.

#ifndef CURRENCY_SRC_WAL_LOG_H_
#define CURRENCY_SRC_WAL_LOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/obs/clock.h"
#include "src/obs/metrics.h"

namespace currency::wal {

/// One validated log record.
struct LogRecord {
  uint64_t seq = 0;
  std::string payload;
};

/// Everything recovery found in a log directory.
struct RecoveredLog {
  bool has_snapshot = false;
  /// Every record with seq <= snapshot_seq is summarized by the snapshot
  /// payload (and has typically been pruned from the segments).
  uint64_t snapshot_seq = 0;
  std::string snapshot_payload;
  /// Valid records with seq > snapshot_seq, ascending and contiguous.
  std::vector<LogRecord> records;
  /// Highest durable sequence number (snapshot_seq when no records).
  uint64_t last_seq = 0;
  /// Bytes of torn/corrupt tail that recovery truncated (diagnostics).
  uint64_t dropped_bytes = 0;
};

struct WalOptions {
  /// Rotate to a new segment once the current one exceeds this size.
  uint64_t segment_bytes = 8u << 20;
  /// Optional metrics registry: the writer registers the currency_wal_*
  /// families there (append/fsync latency histograms, record/byte/fsync/
  /// snapshot counters, recovery replay/truncation counters).  Null means
  /// no metrics.
  obs::Registry* registry = nullptr;
  /// Time source for the latency histograms; null means the monotonic
  /// wall clock.  Ignored without a registry.
  const obs::Clock* clock = nullptr;
};

/// Read-only recovery: scans a log directory and returns the longest
/// valid prefix without modifying anything (the writer's Open performs
/// the same scan and then truncates).  A directory without a MANIFEST is
/// an empty log.
class LogReader {
 public:
  static Result<RecoveredLog> ReadDir(const std::string& dir);
};

/// The single-writer append end of a log directory.  Not thread-safe:
/// the owner serializes Append/Sync/WriteSnapshot (the SessionManager
/// holds its commit mutex across apply + append + fsync, which is also
/// what makes log order equal apply order).
class LogWriter {
 public:
  /// Opens (creating if needed) the log rooted at `dir`: scans like
  /// LogReader, ftruncates the torn/corrupt tail away, unlinks
  /// unreferenced or dropped files, and positions for appending at
  /// last_seq + 1.  The recovered state is available via recovered().
  static Result<std::unique_ptr<LogWriter>> Open(const std::string& dir,
                                                 const WalOptions& options = {});

  ~LogWriter();
  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;

  /// What Open recovered; the caller replays this once and may then
  /// free the memory via TakeRecovered().
  const RecoveredLog& recovered() const { return recovered_; }
  RecoveredLog TakeRecovered() { return std::move(recovered_); }

  /// Appends a record (rotating segments as configured) and returns its
  /// sequence number.  NOT yet durable — call Sync before acknowledging.
  Result<uint64_t> Append(std::string_view payload);

  /// fsyncs the current segment: every Append so far is durable after
  /// this returns.
  Status Sync();

  /// Installs `payload` as the snapshot covering every record appended
  /// so far (seq <= last_seq()): rotates to a fresh segment, writes the
  /// CRC-framed snapshot file, atomically republishes the manifest, and
  /// prunes fully covered segments plus the previous snapshot.  The
  /// payload is opaque to the log.
  Status WriteSnapshot(std::string_view payload);

  uint64_t last_seq() const { return last_seq_; }
  const std::string& dir() const { return dir_; }

  /// OK until an I/O failure breaks the writer; from then on
  /// FailedPrecondition naming that first failure, which every later
  /// Append, Sync and WriteSnapshot returns (see "Fail-stop" above).
  const Status& status() const { return broken_; }

 private:
  struct Segment {
    std::string file;  // basename
    uint64_t first_seq = 0;
  };

  LogWriter(std::string dir, const WalOptions& options)
      : dir_(dir), options_(options) {}

  /// Registers the currency_wal_* instrument families in
  /// options_.registry and records what recovery found (replayed
  /// records, truncated bytes, snapshot restores).  No-op without a
  /// registry.
  void BindInstruments();

  Status WriteManifest() const;
  /// Creates segment `first_seq`, making it current (header written and
  /// synced); appends it to segments_ and republishes the manifest.
  Status StartSegment(uint64_t first_seq);
  /// Closes the current segment and opens a fresh one at last_seq_ + 1.
  Status Rotate();
  /// Unlinks wal-/snap- files the manifest does not reference.
  void SweepUnreferenced() const;
  /// Breaks the writer on the first failed `s` (see status()); returns
  /// `s` unchanged.
  Status Latch(Status s);

  std::string dir_;
  WalOptions options_;
  RecoveredLog recovered_;
  std::vector<Segment> segments_;
  bool has_snapshot_ = false;
  uint64_t snapshot_seq_ = 0;
  std::string snapshot_file_;
  int fd_ = -1;                 // current (last) segment, O_WRONLY at end
  uint64_t segment_size_ = 0;   // bytes written to the current segment
  uint64_t last_seq_ = 0;
  Status broken_;  // see status()

  // Registry instruments (all null without a registry in the options).
  const obs::Clock* clock_ = nullptr;
  obs::Histogram* append_latency_ns_ = nullptr;
  obs::Histogram* fsync_latency_ns_ = nullptr;
  obs::Counter* appended_records_ = nullptr;
  obs::Counter* appended_bytes_ = nullptr;
  obs::Counter* fsyncs_ = nullptr;
  obs::Counter* snapshot_writes_ = nullptr;
};

}  // namespace currency::wal

#endif  // CURRENCY_SRC_WAL_LOG_H_
