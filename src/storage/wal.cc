#include "storage/wal.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <thread>

#include "storage/crash_point.h"

namespace x100ir::storage {

namespace fs = std::filesystem;

// Group-commit batching window: before flushing, a leader with other Sync
// calls already in flight sleeps this long so concurrent appenders can
// join the batch (the commit-siblings heuristic); a lone serial writer
// never pays it.
constexpr auto kGroupWindow = std::chrono::microseconds(150);

uint32_t Crc32(const void* data, size_t len) {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

namespace {

constexpr const char* kWalPrefix = "wal_";
constexpr const char* kWalSuffix = ".log";
// Replay refuses frames claiming more payload than any record we write
// (the largest Add is nterms bounded by vocab size; 64 MiB is far past it).
constexpr uint32_t kMaxPayload = 64u << 20;

std::string WalFileName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%06llu%s", kWalPrefix,
                static_cast<unsigned long long>(seq), kWalSuffix);
  return buf;
}

// Parses "wal_<seq>.log"; false for anything else.
bool ParseWalFileName(const std::string& name, uint64_t* seq) {
  const size_t prefix = std::strlen(kWalPrefix);
  const size_t suffix = std::strlen(kWalSuffix);
  if (name.size() <= prefix + suffix) return false;
  if (name.compare(0, prefix, kWalPrefix) != 0) return false;
  if (name.compare(name.size() - suffix, suffix, kWalSuffix) != 0) return false;
  uint64_t v = 0;
  for (size_t i = prefix; i < name.size() - suffix; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    v = v * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *seq = v;
  return true;
}

template <typename T>
void AppendScalar(std::vector<uint8_t>* out, T v) {
  // resize + memcpy rather than a range insert: g++ 12 cannot see that
  // an insert of sizeof(T) bytes into an empty vector stays in bounds
  // (-Wstringop-overflow).
  const size_t at = out->size();
  out->resize(at + sizeof(v));
  std::memcpy(out->data() + at, &v, sizeof(v));
}

template <typename T>
bool ReadScalar(const uint8_t** p, const uint8_t* end, T* v) {
  if (static_cast<size_t>(end - *p) < sizeof(T)) return false;
  std::memcpy(v, *p, sizeof(T));
  *p += sizeof(T);
  return true;
}

}  // namespace

std::string Wal::FilePath(uint64_t seq) const {
  return dir_ + "/" + WalFileName(seq);
}

Status Wal::Open(const std::string& dir, uint64_t corpus_fingerprint,
                 const WalOptions& options) {
  std::lock_guard<std::mutex> lock(append_mu_);
  if (f_ != nullptr) return FailedPrecondition("wal already open");
  dir_ = dir;
  fingerprint_ = corpus_fingerprint;
  options_ = options;
  file_seqs_.clear();

  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    uint64_t seq = 0;
    if (!ParseWalFileName(entry.path().filename().string(), &seq)) continue;
    file_seqs_.push_back(seq);
  }
  if (ec) return IOError("wal: cannot scan " + dir_ + ": " + ec.message());
  std::sort(file_seqs_.begin(), file_seqs_.end());

  // A file whose header doesn't match this corpus (or can't be read at
  // all) belongs to a previous life of the directory: drop it and
  // everything after it — the valid prefix ends where continuity breaks.
  size_t keep = 0;
  for (; keep < file_seqs_.size(); ++keep) {
    std::FILE* f = std::fopen(FilePath(file_seqs_[keep]).c_str(), "rb");
    if (f == nullptr) break;
    WalFileHeader hdr;
    const bool ok = std::fread(&hdr, sizeof(hdr), 1, f) == 1 &&
                    hdr.magic == WalFileHeader::kMagic &&
                    hdr.version == WalFileHeader::kVersion &&
                    hdr.seq == file_seqs_[keep] &&
                    hdr.corpus_fingerprint == fingerprint_;
    std::fclose(f);
    if (!ok) break;
  }
  for (size_t i = keep; i < file_seqs_.size(); ++i) {
    fs::remove(FilePath(file_seqs_[i]), ec);
  }
  file_seqs_.resize(keep);

  if (file_seqs_.empty()) {
    seq_ = 0;
    return OpenFileForAppend(seq_, /*create=*/true);
  }
  seq_ = file_seqs_.back();
  file_seqs_.pop_back();  // OpenFileForAppend re-adds the live seq
  return OpenFileForAppend(seq_, /*create=*/false);
}

Status Wal::OpenFileForAppend(uint64_t seq, bool create) {
  // Caller holds append_mu_.
  if (CrashedNow()) return IOError("simulated crash");
  const std::string path = FilePath(seq);
  std::FILE* f = std::fopen(path.c_str(), create ? "wb" : "ab");
  if (f == nullptr) return IOError("wal: cannot open " + path);
  if (create) {
    WalFileHeader hdr;
    hdr.seq = seq;
    hdr.corpus_fingerprint = fingerprint_;
    if (std::fwrite(&hdr, sizeof(hdr), 1, f) != 1 || std::fflush(f) != 0) {
      std::fclose(f);
      return IOError("wal: cannot write header to " + path);
    }
  }
  f_ = f;
  fd_ = fileno(f);
  file_seqs_.push_back(seq);
  return OkStatus();
}

Status Wal::Replay(const std::function<Status(const WalRecordView&)>& fn) {
  std::unique_lock<std::mutex> lock(append_mu_);
  if (f_ == nullptr) return FailedPrecondition("wal not open");
  // No appends can have happened yet (Replay runs during Open, before the
  // manager publishes), so closing the live handle for re-reading is safe.
  std::fclose(f_);
  f_ = nullptr;
  fd_ = -1;

  uint64_t records = 0;
  uint64_t truncated = 0;
  Status result = OkStatus();
  size_t stop_file = file_seqs_.size();  // first file index to discard fully

  for (size_t i = 0; i < file_seqs_.size() && result.ok(); ++i) {
    const std::string path = FilePath(file_seqs_[i]);
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return IOError("wal: cannot reopen " + path);
    std::fseek(f, 0, SEEK_END);
    const long file_size = std::ftell(f);
    std::fseek(f, static_cast<long>(sizeof(WalFileHeader)), SEEK_SET);

    long valid_end = static_cast<long>(sizeof(WalFileHeader));
    std::vector<uint8_t> buf;
    bool torn = false;
    while (true) {
      WalRecordHeader hdr;
      if (std::fread(&hdr, sizeof(hdr), 1, f) != 1) {
        torn = valid_end != file_size;  // trailing partial header
        break;
      }
      if (hdr.len > kMaxPayload) {
        torn = true;
        break;
      }
      buf.resize(sizeof(hdr.len) + sizeof(hdr.type) + hdr.len);
      std::memcpy(buf.data(), &hdr.len, sizeof(hdr.len));
      std::memcpy(buf.data() + sizeof(hdr.len), &hdr.type, sizeof(hdr.type));
      if (hdr.len > 0 &&
          std::fread(buf.data() + 8, 1, hdr.len, f) != hdr.len) {
        torn = true;  // trailing partial payload
        break;
      }
      if (Crc32(buf.data(), buf.size()) != hdr.crc) {
        torn = true;
        break;
      }
      WalRecordView rec{static_cast<WalRecordType>(hdr.type), buf.data() + 8,
                        hdr.len};
      Status s = fn(rec);
      if (s.code() == StatusCode::kOutOfRange) {
        // The caller judged the log inconsistent from here: cut the tail
        // as if it were torn, keep what already applied.
        torn = true;
        break;
      }
      if (!s.ok()) {
        result = s;
        break;
      }
      ++records;
      valid_end += static_cast<long>(sizeof(hdr) + hdr.len);
    }
    std::fclose(f);
    if (!result.ok()) break;
    if (torn) {
      truncated += static_cast<uint64_t>(file_size - valid_end);
      std::error_code ec;
      fs::resize_file(path, static_cast<uintmax_t>(valid_end), ec);
      if (ec) {
        return IOError("wal: cannot truncate torn tail of " + path + ": " +
                       ec.message());
      }
      stop_file = i + 1;
      break;
    }
  }
  if (!result.ok()) return result;

  // Drop every file after the torn one — records beyond a torn tail were
  // never acknowledged and must not resurface on the next recovery.
  for (size_t i = stop_file; i < file_seqs_.size(); ++i) {
    std::error_code ec;
    const uintmax_t sz = fs::file_size(FilePath(file_seqs_[i]), ec);
    if (!ec) truncated += static_cast<uint64_t>(sz);
    fs::remove(FilePath(file_seqs_[i]), ec);
  }
  if (stop_file < file_seqs_.size()) {
    seq_ = file_seqs_[stop_file - 1];
    file_seqs_.resize(stop_file);
  }

  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    stats_.replayed_records = records;
    stats_.truncated_bytes = truncated;
  }

  // Reopen the live file for appends; its size is the LSN origin.
  file_seqs_.pop_back();
  X100IR_RETURN_IF_ERROR(OpenFileForAppend(seq_, /*create=*/false));
  std::error_code size_ec;
  const uintmax_t live_size = fs::file_size(FilePath(seq_), size_ec);
  if (size_ec) {
    return IOError("wal: cannot stat " + FilePath(seq_) + ": " +
                   size_ec.message());
  }
  next_lsn_ = static_cast<uint64_t>(live_size);
  next_record_ = records;
  {
    std::lock_guard<std::mutex> slock(sync_mu_);
    durable_lsn_ = next_lsn_;
    durable_record_ = records;
  }
  return OkStatus();
}

Status Wal::Append(WalRecordType type, const void* payload, uint32_t len,
                   uint64_t* lsn) {
  std::lock_guard<std::mutex> lock(append_mu_);
  if (f_ == nullptr) return FailedPrecondition("wal not open");
  if (CrashedNow()) return IOError("simulated crash");

  WalRecordHeader hdr;
  hdr.len = len;
  hdr.type = static_cast<uint32_t>(type);
  std::vector<uint8_t> crc_buf(size_t{8} + len);
  std::memcpy(crc_buf.data(), &hdr.len, 4);
  std::memcpy(crc_buf.data() + 4, &hdr.type, 4);
  if (len > 0) std::memcpy(crc_buf.data() + 8, payload, len);
  hdr.crc = Crc32(crc_buf.data(), crc_buf.size());

  if (std::fwrite(&hdr, sizeof(hdr), 1, f_) != 1 ||
      (len > 0 && std::fwrite(payload, 1, len, f_) != len) ||
      std::fflush(f_) != 0) {
    return IOError("wal: append failed on " + FilePath(seq_));
  }
  next_lsn_ += sizeof(hdr) + len;
  ++next_record_;
  if (lsn != nullptr) *lsn = next_lsn_;
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.appends;
  }
  if (CrashReached(CrashSite::kWalAfterAppend)) {
    // The bytes are in the file (they survive the simulated power cut),
    // but the caller must treat the write as failed: never acknowledged.
    return IOError("simulated crash");
  }
  return OkStatus();
}

Status Wal::FsyncLocked() {
  // Caller holds append_mu_. Bypasses group commit: used by Rotate and by
  // kFsyncPerWrite mode.
  if (std::fflush(f_) != 0 || fsync(fd_) != 0) {
    return IOError("wal: fsync failed on " + FilePath(seq_));
  }
  return OkStatus();
}

Status Wal::Sync(uint64_t lsn) {
  if (options_.mode == WalSyncMode::kFsyncPerWrite) {
    uint64_t covered_lsn = 0;
    uint64_t covered_record = 0;
    {
      std::lock_guard<std::mutex> lock(append_mu_);
      if (f_ == nullptr) return FailedPrecondition("wal not open");
      if (CrashedNow()) return IOError("simulated crash");
      X100IR_RETURN_IF_ERROR(FsyncLocked());
      covered_lsn = next_lsn_;
      covered_record = next_record_;
    }
    {
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++stats_.fsyncs;
      ++stats_.batches;
      ++stats_.batch_records_sum;
      stats_.batch_records_max = std::max<uint64_t>(
          stats_.batch_records_max, 1);
    }
    {
      std::lock_guard<std::mutex> slock(sync_mu_);
      durable_lsn_ = std::max(durable_lsn_, covered_lsn);
      durable_record_ = std::max(durable_record_, covered_record);
    }
    if (CrashReached(CrashSite::kWalAfterFsync)) {
      return IOError("simulated crash");
    }
    return OkStatus();
  }

  // Group commit. One waiter at a time is the flush leader; everyone whose
  // LSN an in-flight flush will cover just waits for it.
  sync_pending_.fetch_add(1, std::memory_order_relaxed);
  struct PendingGuard {
    std::atomic<uint32_t>* p;
    ~PendingGuard() { p->fetch_sub(1, std::memory_order_relaxed); }
  } pending_guard{&sync_pending_};
  std::unique_lock<std::mutex> lock(sync_mu_);
  bool waited = false;
  while (durable_lsn_ < lsn) {
    if (!sticky_error_.ok()) return sticky_error_;
    if (CrashedNow()) return IOError("simulated crash");
    if (flush_in_flight_) {
      waited = true;
      sync_cv_.wait(lock);
      continue;
    }
    // Become the leader: flush everything appended so far.
    flush_in_flight_ = true;
    lock.unlock();

    // The batching window (commit-siblings heuristic): if other Sync calls
    // are in flight, give their appends — and any appenders right behind
    // them — a moment to land before the flush target is captured, so one
    // fsync covers them all. A lone writer sees sync_pending_ == 1 and
    // proceeds immediately: serial latency is never taxed for a batch that
    // cannot form.
    if (sync_pending_.load(std::memory_order_relaxed) > 1) {
      std::this_thread::sleep_for(kGroupWindow);
    }

    uint64_t target_lsn = 0;
    uint64_t target_record = 0;
    Status s;
    {
      std::lock_guard<std::mutex> alock(append_mu_);
      if (f_ == nullptr) {
        s = FailedPrecondition("wal not open");
      } else if (CrashedNow()) {
        s = IOError("simulated crash");
      } else {
        target_lsn = next_lsn_;
        target_record = next_record_;
        if (std::fflush(f_) != 0) {
          s = IOError("wal: fflush failed on " + FilePath(seq_));
        }
      }
    }
    if (s.ok()) {
      // The actual fsync runs with append_mu_ released: concurrent
      // appenders keep filling the next batch while this one hardens.
      int fd;
      {
        std::lock_guard<std::mutex> alock(append_mu_);
        fd = fd_;
      }
      if (fsync(fd) != 0) s = IOError("wal: fsync failed");
    }

    lock.lock();
    flush_in_flight_ = false;
    if (s.ok()) {
      const uint64_t batch = target_record - durable_record_;
      durable_lsn_ = std::max(durable_lsn_, target_lsn);
      durable_record_ = std::max(durable_record_, target_record);
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++stats_.fsyncs;
      if (batch > 0) {
        ++stats_.batches;
        stats_.batch_records_sum += batch;
        stats_.batch_records_max = std::max(stats_.batch_records_max, batch);
      }
    } else {
      sticky_error_ = s;
    }
    sync_cv_.notify_all();
    if (!s.ok()) return s;
    if (CrashReached(CrashSite::kWalAfterFsync)) {
      // Durable but unacknowledged: the record is on disk, the caller is
      // told the write failed. Recovery may legitimately surface it.
      sync_cv_.notify_all();
      return IOError("simulated crash");
    }
  }
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    if (waited) ++stats_.sync_waits;
  }
  if (CrashedNow()) return IOError("simulated crash");
  return OkStatus();
}

Status Wal::Rotate(uint64_t* sealed_seq) {
  // Drain any in-flight group-commit flush first so the fd we're about to
  // close isn't being fsynced concurrently.
  {
    std::unique_lock<std::mutex> lock(sync_mu_);
    sync_cv_.wait(lock, [this] { return !flush_in_flight_; });
    flush_in_flight_ = true;  // block new leaders while we swap files
  }
  Status s;
  uint64_t old_seq = 0;
  uint64_t covered_lsn = 0;
  uint64_t covered_record = 0;
  {
    std::lock_guard<std::mutex> lock(append_mu_);
    if (f_ == nullptr) {
      s = FailedPrecondition("wal not open");
    } else if (CrashedNow()) {
      s = IOError("simulated crash");
    } else {
      s = FsyncLocked();
      if (s.ok() && CrashReached(CrashSite::kWalAfterFsync)) {
        s = IOError("simulated crash");
      }
      if (s.ok()) {
        std::lock_guard<std::mutex> slock(stats_mu_);
        ++stats_.fsyncs;
      }
      if (s.ok()) {
        covered_lsn = next_lsn_;
        covered_record = next_record_;
        old_seq = seq_;
        std::fclose(f_);
        f_ = nullptr;
        fd_ = -1;
        seq_ = old_seq + 1;
        s = OpenFileForAppend(seq_, /*create=*/true);
        if (s.ok() && CrashReached(CrashSite::kWalAfterRotate)) {
          s = IOError("simulated crash");
        }
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(sync_mu_);
    flush_in_flight_ = false;
    if (s.ok()) {
      // Everything in the closed file is now durable.
      durable_lsn_ = std::max(durable_lsn_, covered_lsn);
      durable_record_ = std::max(durable_record_, covered_record);
    } else if (sticky_error_.ok() && CrashedNow()) {
      sticky_error_ = IOError("simulated crash");
    }
  }
  sync_cv_.notify_all();
  if (s.ok() && sealed_seq != nullptr) *sealed_seq = old_seq;
  return s;
}

Status Wal::DropFilesUpTo(uint64_t upto_seq) {
  std::lock_guard<std::mutex> lock(append_mu_);
  if (CrashedNow()) return IOError("simulated crash");
  std::vector<uint64_t> kept;
  Status s = OkStatus();
  for (uint64_t seq : file_seqs_) {
    if (!s.ok() || seq > upto_seq || seq == seq_) {
      kept.push_back(seq);
      continue;
    }
    if (CrashReached(CrashSite::kWalBeforeDropFile)) {
      s = IOError("simulated crash");
      kept.push_back(seq);
      continue;
    }
    std::error_code ec;
    fs::remove(FilePath(seq), ec);
  }
  file_seqs_ = std::move(kept);
  return s;
}

void Wal::Close() {
  std::lock_guard<std::mutex> lock(append_mu_);
  if (f_ == nullptr) return;
  // A crashed process writes nothing more — not even the close-time
  // flush; stdio may still flush buffered bytes in fclose, so everything
  // is fflushed at append time and fclose has nothing buffered.
  std::fclose(f_);
  f_ = nullptr;
  fd_ = -1;
}

void Wal::RemoveFiles(const std::string& dir) {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint64_t seq = 0;
    if (!ParseWalFileName(entry.path().filename().string(), &seq)) continue;
    std::error_code rec;
    fs::remove(entry.path(), rec);
  }
}

WalStats Wal::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

// --- Payload encode/decode -------------------------------------------------

std::vector<uint8_t> Wal::EncodeAdd(
    int32_t docid, const std::vector<std::pair<uint32_t, int32_t>>& terms) {
  std::vector<uint8_t> out;
  out.reserve(8 + terms.size() * 8);
  AppendScalar(&out, docid);
  AppendScalar(&out, static_cast<uint32_t>(terms.size()));
  for (const auto& [term, tf] : terms) {
    AppendScalar(&out, term);
    AppendScalar(&out, tf);
  }
  return out;
}

bool Wal::DecodeAdd(const WalRecordView& rec, AddPayload* out) {
  const uint8_t* p = rec.payload;
  const uint8_t* end = rec.payload + rec.len;
  uint32_t nterms = 0;
  if (!ReadScalar(&p, end, &out->docid) || !ReadScalar(&p, end, &nterms)) {
    return false;
  }
  if (static_cast<size_t>(end - p) != static_cast<size_t>(nterms) * 8) {
    return false;
  }
  out->terms.clear();
  out->terms.reserve(nterms);
  for (uint32_t i = 0; i < nterms; ++i) {
    uint32_t term = 0;
    int32_t tf = 0;
    if (!ReadScalar(&p, end, &term) || !ReadScalar(&p, end, &tf)) {
      return false;
    }
    out->terms.emplace_back(term, tf);
  }
  return true;
}

std::vector<uint8_t> Wal::EncodeDocid(int32_t docid) {
  std::vector<uint8_t> out;
  AppendScalar(&out, docid);
  return out;
}

bool Wal::DecodeDocid(const WalRecordView& rec, int32_t* docid) {
  const uint8_t* p = rec.payload;
  return ReadScalar(&p, rec.payload + rec.len, docid) &&
         p == rec.payload + rec.len;
}

std::vector<uint8_t> Wal::EncodeMergeCommitted(int32_t cutoff,
                                               uint64_t epoch) {
  std::vector<uint8_t> out;
  AppendScalar(&out, cutoff);
  AppendScalar(&out, epoch);
  return out;
}

bool Wal::DecodeMergeCommitted(const WalRecordView& rec, int32_t* cutoff,
                               uint64_t* epoch) {
  const uint8_t* p = rec.payload;
  const uint8_t* end = rec.payload + rec.len;
  return ReadScalar(&p, end, cutoff) && ReadScalar(&p, end, epoch) &&
         p == end;
}

}  // namespace x100ir::storage
