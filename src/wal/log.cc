#include "src/wal/log.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <set>
#include <sstream>
#include <utility>

#include "src/obs/trace.h"
#include "src/wal/crc32.h"

namespace currency::wal {

namespace {

constexpr char kSegmentMagic[4] = {'C', 'W', 'L', 'G'};
constexpr uint32_t kSegmentVersion = 1;
constexpr size_t kSegmentHeaderBytes = 16;  // magic + version + first_seq
constexpr size_t kRecordHeaderBytes = 16;   // crc + len + seq
// A single command never approaches this; a larger declared length is
// corruption, not data.
constexpr uint32_t kMaxRecordBytes = 1u << 30;
constexpr char kManifestHeader[] = "CWAL-MANIFEST 1";

Status IoError(const char* what, const std::string& path) {
  return Status::Internal(std::string("wal: ") + what + " " + path + ": " +
                          std::strerror(errno));
}

std::string SegmentName(uint64_t first_seq) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "wal-%016llx.log",
                static_cast<unsigned long long>(first_seq));
  return buf;
}

std::string SnapshotName(uint64_t seq) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "snap-%016llx.snap",
                static_cast<unsigned long long>(seq));
  return buf;
}

void StoreU32(char* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

void StoreU64(char* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

uint32_t LoadU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

uint64_t LoadU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

Status WriteFull(int fd, const char* data, size_t size,
                 const std::string& path) {
  size_t done = 0;
  while (done < size) {
    ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoError("write", path);
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<std::string> ReadFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return IoError("open", path);
  std::string out;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return IoError("read", path);
    }
    if (n == 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Status FsyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return IoError("open dir", dir);
  if (::fsync(fd) != 0) {
    Status s = IoError("fsync dir", dir);
    ::close(fd);
    return s;
  }
  ::close(fd);
  return Status::OK();
}

struct ScannedSegment {
  std::string file;  // basename
  uint64_t first_seq = 0;
};

// Everything a scan of the directory establishes.  `segments` holds only
// the surviving segments (the valid prefix); the last one's usable byte
// count is `tail_valid_bytes`.
struct ScanResult {
  bool manifest_exists = false;
  RecoveredLog log;
  bool has_snapshot = false;
  uint64_t snapshot_seq = 0;
  std::string snapshot_file;
  std::vector<ScannedSegment> segments;
  uint64_t tail_valid_bytes = 0;
  // True when the scan dropped segments or tail bytes relative to the
  // manifest, i.e. a writer should ftruncate / republish.
  bool truncated = false;
};

Result<ScanResult> ScanDir(const std::string& dir) {
  ScanResult out;
  const std::string manifest_path = dir + "/MANIFEST";
  if (!FileExists(manifest_path)) return out;  // fresh/empty log
  out.manifest_exists = true;

  ASSIGN_OR_RETURN(std::string manifest, ReadFile(manifest_path));
  std::istringstream in(manifest);
  std::string line;
  if (!std::getline(in, line) || line != kManifestHeader) {
    return Status::Internal("wal: malformed MANIFEST header in " + dir);
  }
  std::vector<ScannedSegment> manifest_segments;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string kind, file;
    uint64_t seq = 0;
    if (!(fields >> kind >> file >> seq)) {
      return Status::Internal("wal: malformed MANIFEST line \"" + line +
                              "\" in " + dir);
    }
    if (kind == "snapshot") {
      if (out.has_snapshot) {
        return Status::Internal("wal: MANIFEST lists two snapshots in " + dir);
      }
      out.has_snapshot = true;
      out.snapshot_file = file;
      out.snapshot_seq = seq;
    } else if (kind == "segment") {
      if (!manifest_segments.empty() &&
          seq <= manifest_segments.back().first_seq) {
        return Status::Internal("wal: MANIFEST segments out of order in " +
                                dir);
      }
      manifest_segments.push_back({file, seq});
    } else {
      return Status::Internal("wal: unknown MANIFEST entry \"" + kind +
                              "\" in " + dir);
    }
  }

  // The snapshot is load-bearing: the records it summarizes were pruned,
  // so unlike a damaged log tail there is nothing to fall back to.
  if (out.has_snapshot) {
    ASSIGN_OR_RETURN(std::string snap,
                     ReadFile(dir + "/" + out.snapshot_file));
    if (snap.size() < 8) {
      return Status::Internal("wal: snapshot file " + out.snapshot_file +
                              " is truncated");
    }
    const uint32_t crc = LoadU32(snap.data());
    const uint32_t len = LoadU32(snap.data() + 4);
    if (len != snap.size() - 8 ||
        Crc32(snap.data() + 4, snap.size() - 4) != crc) {
      return Status::Internal("wal: snapshot file " + out.snapshot_file +
                              " fails its checksum");
    }
    out.log.has_snapshot = true;
    out.log.snapshot_seq = out.snapshot_seq;
    out.log.snapshot_payload = snap.substr(8);
    out.log.last_seq = out.snapshot_seq;
  }

  // Walk the record stream.  The first torn/corrupt/out-of-sequence byte
  // ends the log: that segment keeps only its valid prefix and every
  // later segment is dropped entirely.
  uint64_t expected_seq = 0;  // 0 = take the first segment's declared start
  bool stopped = false;
  for (size_t si = 0; si < manifest_segments.size(); ++si) {
    const ScannedSegment& seg = manifest_segments[si];
    const std::string path = dir + "/" + seg.file;
    if (stopped) {
      struct stat st;
      if (::stat(path.c_str(), &st) == 0) {
        out.log.dropped_bytes += static_cast<uint64_t>(st.st_size);
      }
      out.truncated = true;
      continue;
    }
    std::string data;
    {
      auto read = ReadFile(path);
      if (!read.ok()) {
        // A listed segment that cannot be read at all ends the log here.
        stopped = true;
        out.truncated = true;
        continue;
      }
      data = std::move(read).value();
    }
    // Header must identify this exact segment.
    bool header_ok = data.size() >= kSegmentHeaderBytes &&
                     std::memcmp(data.data(), kSegmentMagic, 4) == 0 &&
                     LoadU32(data.data() + 4) == kSegmentVersion &&
                     LoadU64(data.data() + 8) == seg.first_seq;
    // Cross-segment continuity: a segment may not skip sequence numbers.
    if (header_ok && expected_seq != 0 && seg.first_seq != expected_seq) {
      header_ok = false;
    }
    if (header_ok && expected_seq == 0) {
      const uint64_t floor = out.has_snapshot ? out.snapshot_seq + 1 : 1;
      if (seg.first_seq > floor) header_ok = false;  // gap after snapshot
    }
    if (!header_ok) {
      out.log.dropped_bytes += data.size();
      out.truncated = true;
      stopped = true;
      continue;
    }
    if (expected_seq == 0) expected_seq = seg.first_seq;

    size_t offset = kSegmentHeaderBytes;
    while (offset < data.size()) {
      if (data.size() - offset < kRecordHeaderBytes) break;  // torn header
      const uint32_t crc = LoadU32(data.data() + offset);
      const uint32_t len = LoadU32(data.data() + offset + 4);
      const uint64_t seq = LoadU64(data.data() + offset + 8);
      if (len > kMaxRecordBytes) break;
      if (data.size() - offset - kRecordHeaderBytes < len) break;  // torn
      if (Crc32(static_cast<const void*>(data.data() + offset + 4),
                size_t{12} + len) != crc) break;
      if (seq != expected_seq) break;
      if (seq > out.log.snapshot_seq || !out.log.has_snapshot) {
        LogRecord rec;
        rec.seq = seq;
        rec.payload.assign(data.data() + offset + kRecordHeaderBytes, len);
        out.log.records.push_back(std::move(rec));
      }
      out.log.last_seq = seq;
      ++expected_seq;
      offset += kRecordHeaderBytes + len;
    }
    out.segments.push_back(seg);
    out.tail_valid_bytes = offset;
    if (offset < data.size()) {
      out.log.dropped_bytes += data.size() - offset;
      out.truncated = true;
      stopped = true;
    }
  }
  return out;
}

}  // namespace

Result<RecoveredLog> LogReader::ReadDir(const std::string& dir) {
  ASSIGN_OR_RETURN(ScanResult scan, ScanDir(dir));
  return std::move(scan.log);
}

LogWriter::~LogWriter() {
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
  }
}

Result<std::unique_ptr<LogWriter>> LogWriter::Open(const std::string& dir,
                                                   const WalOptions& options) {
  if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
    return IoError("mkdir", dir);
  }
  ASSIGN_OR_RETURN(ScanResult scan, ScanDir(dir));

  std::unique_ptr<LogWriter> w(new LogWriter(dir, options));
  w->recovered_ = std::move(scan.log);
  for (const ScannedSegment& s : scan.segments) {
    w->segments_.push_back(Segment{s.file, s.first_seq});
  }
  w->has_snapshot_ = scan.has_snapshot;
  w->snapshot_seq_ = scan.snapshot_seq;
  w->snapshot_file_ = scan.snapshot_file;
  w->last_seq_ = w->recovered_.last_seq;

  if (w->segments_.empty()) {
    // Fresh directory, or every listed segment was damaged: start a new
    // tail right after the recovered history.
    RETURN_IF_ERROR(w->StartSegment(w->last_seq_ + 1));
  } else {
    const std::string tail_path = dir + "/" + w->segments_.back().file;
    if (scan.truncated &&
        ::truncate(tail_path.c_str(), static_cast<off_t>(
                       scan.tail_valid_bytes)) != 0) {
      return IoError("truncate", tail_path);
    }
    int fd = ::open(tail_path.c_str(), O_WRONLY | O_APPEND);
    if (fd < 0) return IoError("open", tail_path);
    w->fd_ = fd;
    w->segment_size_ = scan.tail_valid_bytes;
    RETURN_IF_ERROR(w->WriteManifest());
  }
  w->SweepUnreferenced();
  w->BindInstruments();
  return w;
}

void LogWriter::BindInstruments() {
  obs::Registry* registry = options_.registry;
  if (registry == nullptr) return;
  clock_ = obs::ResolveClock(options_.clock);
  append_latency_ns_ =
      registry->GetHistogram("currency_wal_append_latency_ns", {});
  fsync_latency_ns_ =
      registry->GetHistogram("currency_wal_fsync_latency_ns", {});
  appended_records_ =
      registry->GetCounter("currency_wal_appended_records_total", {});
  appended_bytes_ =
      registry->GetCounter("currency_wal_appended_bytes_total", {});
  fsyncs_ = registry->GetCounter("currency_wal_fsyncs_total", {});
  snapshot_writes_ =
      registry->GetCounter("currency_wal_snapshot_writes_total", {});
  // Recovery outcomes, recorded once per Open.
  registry->GetCounter("currency_wal_replayed_records_total", {})
      ->Increment(static_cast<int64_t>(recovered_.records.size()));
  registry->GetCounter("currency_wal_truncated_bytes_total", {})
      ->Increment(static_cast<int64_t>(recovered_.dropped_bytes));
  if (recovered_.has_snapshot) {
    registry->GetCounter("currency_wal_snapshot_restores_total", {})
        ->Increment();
  }
}

Status LogWriter::Latch(Status s) {
  if (!s.ok() && broken_.ok()) {
    broken_ = Status::FailedPrecondition(
        "wal: log is broken until the directory is reopened; first "
        "failure: " + s.ToString());
  }
  return s;
}

Result<uint64_t> LogWriter::Append(std::string_view payload) {
  obs::ScopedTimer timer(append_latency_ns_, clock_);
  RETURN_IF_ERROR(broken_);
  if (payload.size() > kMaxRecordBytes) {
    return Status::InvalidArgument("wal: record payload exceeds 1 GiB");
  }
  if (segment_size_ >= options_.segment_bytes) {
    RETURN_IF_ERROR(Latch(Rotate()));
  }
  const uint64_t seq = last_seq_ + 1;
  std::string rec(kRecordHeaderBytes, '\0');
  StoreU32(rec.data() + 4, static_cast<uint32_t>(payload.size()));
  StoreU64(rec.data() + 8, seq);
  rec.append(payload.data(), payload.size());
  StoreU32(rec.data(), Crc32(rec.data() + 4, rec.size() - 4));
  RETURN_IF_ERROR(Latch(WriteFull(fd_, rec.data(), rec.size(),
                                  dir_ + "/" + segments_.back().file)));
  segment_size_ += rec.size();
  last_seq_ = seq;
  if (appended_records_ != nullptr) {
    appended_records_->Increment();
    appended_bytes_->Increment(static_cast<int64_t>(rec.size()));
  }
  return seq;
}

Status LogWriter::Sync() {
  obs::ScopedTimer timer(fsync_latency_ns_, clock_);
  RETURN_IF_ERROR(broken_);
  if (::fsync(fd_) != 0) {
    return Latch(IoError("fsync", dir_ + "/" + segments_.back().file));
  }
  if (fsyncs_ != nullptr) fsyncs_->Increment();
  return Status::OK();
}

Status LogWriter::WriteSnapshot(std::string_view payload) {
  RETURN_IF_ERROR(broken_);
  // Freeze the record stream: everything <= last_seq_ lives in closed
  // segments once we rotate, so those segments become prunable.
  if (segment_size_ > kSegmentHeaderBytes) {
    RETURN_IF_ERROR(Latch(Rotate()));
  }
  const uint64_t seq = last_seq_;
  const std::string name = SnapshotName(seq);
  const std::string path = dir_ + "/" + name;
  std::string blob(8, '\0');
  StoreU32(blob.data() + 4, static_cast<uint32_t>(payload.size()));
  blob.append(payload.data(), payload.size());
  StoreU32(blob.data(), Crc32(blob.data() + 4, blob.size() - 4));
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Latch(IoError("open", path));
  Status s = WriteFull(fd, blob.data(), blob.size(), path);
  if (s.ok() && ::fsync(fd) != 0) s = IoError("fsync", path);
  ::close(fd);
  RETURN_IF_ERROR(Latch(s));

  const std::string old_snapshot =
      (has_snapshot_ && snapshot_file_ != name) ? snapshot_file_ : "";
  has_snapshot_ = true;
  snapshot_seq_ = seq;
  snapshot_file_ = name;
  // Drop segments whose records are all covered; the open tail segment
  // (first_seq == seq + 1 after the rotate) always stays.
  std::vector<std::string> pruned;
  while (segments_.size() > 1 && segments_[1].first_seq <= seq + 1) {
    pruned.push_back(segments_.front().file);
    segments_.erase(segments_.begin());
  }
  // The manifest rewrite is the commit point: after it, recovery uses
  // the new snapshot; before it, the old manifest still works and the
  // new snap file is merely unreferenced.
  RETURN_IF_ERROR(Latch(WriteManifest()));
  for (const std::string& file : pruned) {
    ::unlink((dir_ + "/" + file).c_str());
  }
  if (!old_snapshot.empty()) {
    ::unlink((dir_ + "/" + old_snapshot).c_str());
  }
  if (snapshot_writes_ != nullptr) snapshot_writes_->Increment();
  return Status::OK();
}

Status LogWriter::WriteManifest() const {
  std::string text(kManifestHeader);
  text += '\n';
  if (has_snapshot_) {
    text += "snapshot " + snapshot_file_ + " " +
            std::to_string(snapshot_seq_) + "\n";
  }
  for (const Segment& seg : segments_) {
    text += "segment " + seg.file + " " + std::to_string(seg.first_seq) + "\n";
  }
  const std::string tmp = dir_ + "/MANIFEST.tmp";
  const std::string final_path = dir_ + "/MANIFEST";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return IoError("open", tmp);
  Status s = WriteFull(fd, text.data(), text.size(), tmp);
  if (s.ok() && ::fsync(fd) != 0) s = IoError("fsync", tmp);
  ::close(fd);
  RETURN_IF_ERROR(s);
  if (::rename(tmp.c_str(), final_path.c_str()) != 0) {
    return IoError("rename", tmp);
  }
  return FsyncDir(dir_);
}

Status LogWriter::StartSegment(uint64_t first_seq) {
  const std::string name = SegmentName(first_seq);
  const std::string path = dir_ + "/" + name;
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return IoError("open", path);
  char header[kSegmentHeaderBytes];
  std::memcpy(header, kSegmentMagic, 4);
  StoreU32(header + 4, kSegmentVersion);
  StoreU64(header + 8, first_seq);
  Status s = WriteFull(fd, header, sizeof(header), path);
  if (s.ok() && ::fsync(fd) != 0) s = IoError("fsync", path);
  if (!s.ok()) {
    ::close(fd);
    return s;
  }
  fd_ = fd;
  segment_size_ = kSegmentHeaderBytes;
  segments_.push_back(Segment{name, first_seq});
  return WriteManifest();
}

Status LogWriter::Rotate() {
  if (fd_ >= 0) {
    if (::fsync(fd_) != 0) {
      return IoError("fsync", dir_ + "/" + segments_.back().file);
    }
    ::close(fd_);
    fd_ = -1;
  }
  return StartSegment(last_seq_ + 1);
}

void LogWriter::SweepUnreferenced() const {
  std::set<std::string> referenced;
  for (const Segment& seg : segments_) referenced.insert(seg.file);
  if (has_snapshot_) referenced.insert(snapshot_file_);
  referenced.insert("MANIFEST");
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) return;
  std::vector<std::string> doomed;
  while (struct dirent* ent = ::readdir(d)) {
    const std::string name = ent->d_name;
    const bool wal_file =
        (name.rfind("wal-", 0) == 0 || name.rfind("snap-", 0) == 0 ||
         name == "MANIFEST.tmp");
    if (wal_file && referenced.count(name) == 0) doomed.push_back(name);
  }
  ::closedir(d);
  for (const std::string& name : doomed) {
    ::unlink((dir_ + "/" + name).c_str());
  }
}

}  // namespace currency::wal
