// Durable write-ahead log for the delta tier (DESIGN.md §13). The
// segmented index's write buffer is in-memory; every mutation that touches
// it (AddDocument, DeleteDocument, the seal that starts a merge, the merge
// commit) is first framed into this append-only, CRC32-guarded log so a
// reopen can replay the exact pre-crash visible state against the manifest.
//
// Format. A log is a sequence of files `wal_<seq>.log` under the database
// directory. Each file starts with a WalFileHeader (magic, version,
// sequence number, corpus fingerprint — a log is paired with the database
// it was written for, like the manifest). Records follow back to back:
//
//   WalRecordHeader { uint32 crc; uint32 len; uint32 type; }
//   uint8 payload[len]
//
// crc is CRC-32 (IEEE) over [len, type, payload]. Replay accepts the
// longest valid prefix: a short header, short payload, impossible length,
// or CRC mismatch ends the log — the torn tail is physically truncated and
// any later files are dropped, so garbage is never served and never
// resurfaces on the next recovery (replay twice = same state, the
// double-recovery property test).
//
// Rotation. StartMerge seals the active delta; the DeltaSealed record is
// the last record of the current file and a fresh file begins. At merge
// commit, everything at or below the sealed file's sequence is redundant
// (the merged segment + manifest carry it), so after the manifest rename
// the manager appends MergeCommitted to the live file and drops the
// obsolete ones. A crash between rename and drop leaves stale files whose
// records replay idempotently (docids below the manifest high-water mark
// are skipped; deletes of already-gone docs are no-ops).
//
// Group commit. Append (cheap: fwrite + fflush under the append mutex)
// assigns a monotonically increasing LSN; Sync(lsn) blocks until an fsync
// covers it. In kGroupCommit mode one waiter becomes the flush leader;
// when other Sync calls are already in flight it waits a bounded 150 µs
// window (the commit-siblings heuristic — a lone writer skips it) so the
// batch can fill, then fsyncs *everything appended so far* without
// holding the append mutex — concurrent writers keep appending into the
// next batch — and wakes every waiter the batch covered: one fsync
// amortized over the whole batch.
// kFsyncPerWrite serializes an fsync per Sync call (the bench baseline).
// Every on-disk database keeps a Wal; an in-memory one has none.
//
// Crash simulation: every durable step consults storage/crash_point.h, so
// the recovery battery can kill the process model between any append,
// fsync, rename, and truncation.
#ifndef X100IR_STORAGE_WAL_H_
#define X100IR_STORAGE_WAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace x100ir::storage {

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the frame checksum.
// Exposed so tests and the torn-tail fuzzer can build and break frames.
uint32_t Crc32(const void* data, size_t len);

enum class WalSyncMode : uint8_t {
  kFsyncPerWrite = 0,  // every Sync issues its own fsync, serialized
  kGroupCommit = 1,    // leader-based batching: one fsync per window
};

struct WalOptions {
  // Must stay true: an on-disk database always keeps a WAL, and opening
  // one with false fails InvalidArgument. The field remains only so that
  // callers which set it keep compiling.
  bool enabled = true;
  WalSyncMode mode = WalSyncMode::kGroupCommit;
};

enum class WalRecordType : uint32_t {
  kAddDocument = 1,    // i32 docid, u32 nterms, nterms x {u32 term, i32 tf}
  kDeleteDocument = 2, // i32 docid
  kDeltaSealed = 3,    // i32 cutoff docid (== next_docid at seal)
  kMergeCommitted = 4, // i32 cutoff docid, u64 epoch (post-rename marker)
};

struct WalFileHeader {
  static constexpr uint32_t kMagic = 0x4C415758;  // "XWAL"
  static constexpr uint32_t kVersion = 1;

  uint32_t magic = kMagic;
  uint32_t version = kVersion;
  uint64_t seq = 0;
  uint64_t corpus_fingerprint = 0;
};

struct WalRecordHeader {
  uint32_t crc = 0;
  uint32_t len = 0;
  uint32_t type = 0;
};

// One decoded record handed to the replay callback.
struct WalRecordView {
  WalRecordType type;
  const uint8_t* payload;
  uint32_t len;
};

// Monotonic counters since Open (stats() snapshots them under the lock).
struct WalStats {
  uint64_t appends = 0;       // records framed into the log
  uint64_t fsyncs = 0;        // fsync syscalls issued
  uint64_t sync_waits = 0;    // Sync calls that waited on another flush
  uint64_t batches = 0;       // group-commit flushes (== fsyncs in practice)
  uint64_t batch_records_sum = 0;  // records covered across all batches
  uint64_t batch_records_max = 0;  // largest single batch
  uint64_t replayed_records = 0;   // records accepted by the last Replay
  uint64_t truncated_bytes = 0;    // torn tail removed by the last Replay
};

class Wal {
 public:
  Wal() = default;
  ~Wal() { Close(); }
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  // Scans `dir` for wal_<seq>.log files belonging to `corpus_fingerprint`
  // (mismatched or unreadable headers read as "no log") and prepares for
  // Replay + append. Creates the first file when none exists.
  Status Open(const std::string& dir, uint64_t corpus_fingerprint,
              const WalOptions& options);

  // Replays every valid record, in (file seq, offset) order, through `fn`.
  // The longest valid prefix wins: the first torn/corrupt frame truncates
  // its file there and drops all later files. `fn` returning OutOfRange
  // also truncates at that record (the caller judged the log inconsistent
  // from there — defense in depth); any other non-OK status aborts and is
  // returned. Call once, after Open, before the first Append.
  Status Replay(const std::function<Status(const WalRecordView&)>& fn);

  // Frames one record into the live file (fwrite + fflush; durable only
  // after a covering Sync). Thread-safe. *lsn (may be null) receives the
  // record's LSN for Sync.
  Status Append(WalRecordType type, const void* payload, uint32_t len,
                uint64_t* lsn);

  // Blocks until an fsync covers `lsn`. Group-commit batching per the
  // header comment. Thread-safe.
  Status Sync(uint64_t lsn);

  // Fsyncs the live file, closes it, and starts wal_<seq+1>.log. The
  // caller serializes rotation against itself (the manager's commit mutex
  // does); concurrent Append/Sync are excluded internally. Returns the
  // sequence number the *closed* file had via *sealed_seq.
  Status Rotate(uint64_t* sealed_seq);

  // Unlinks every log file with seq <= `upto_seq` (the post-merge-commit
  // truncation). Hits CrashSite::kWalBeforeDropFile before each unlink.
  Status DropFilesUpTo(uint64_t upto_seq);

  void Close();

  // Removes every wal_*.log under `dir` — the torn-manifest fallback: a
  // log is only meaningful against the manifest it was written with.
  static void RemoveFiles(const std::string& dir);

  WalStats stats() const;

  // --- Payload encode/decode helpers (shared by manager and tests) ------
  struct AddPayload {
    int32_t docid = 0;
    std::vector<std::pair<uint32_t, int32_t>> terms;  // (term, tf)
  };
  static std::vector<uint8_t> EncodeAdd(
      int32_t docid, const std::vector<std::pair<uint32_t, int32_t>>& terms);
  static bool DecodeAdd(const WalRecordView& rec, AddPayload* out);
  static std::vector<uint8_t> EncodeDocid(int32_t docid);
  static bool DecodeDocid(const WalRecordView& rec, int32_t* docid);
  static std::vector<uint8_t> EncodeMergeCommitted(int32_t cutoff,
                                                   uint64_t epoch);
  static bool DecodeMergeCommitted(const WalRecordView& rec, int32_t* cutoff,
                                   uint64_t* epoch);

 private:
  std::string FilePath(uint64_t seq) const;
  Status OpenFileForAppend(uint64_t seq, bool create);
  Status FsyncLocked();

  std::string dir_;
  uint64_t fingerprint_ = 0;
  WalOptions options_;

  // append_mu_ protects the FILE*, the LSN/record counters, and the file
  // list; sync_mu_/sync_cv_ carry the group-commit flush state. An fsync
  // runs with append_mu_ *released* so writers keep appending into the
  // next batch (stdio FILE is internally locked, so fflush/fwrite overlap
  // is safe).
  mutable std::mutex append_mu_;
  std::FILE* f_ = nullptr;
  int fd_ = -1;
  uint64_t seq_ = 0;
  uint64_t next_lsn_ = 0;      // bytes framed, monotone across rotations
  uint64_t next_record_ = 0;   // records framed
  std::vector<uint64_t> file_seqs_;  // every live file, ascending

  std::mutex sync_mu_;
  std::condition_variable sync_cv_;
  // Sync calls currently in flight (group mode): the leader's window-wait
  // trigger. Atomic so the leader reads it without re-taking sync_mu_.
  std::atomic<uint32_t> sync_pending_{0};
  bool flush_in_flight_ = false;
  uint64_t durable_lsn_ = 0;
  uint64_t durable_record_ = 0;
  Status sticky_error_;  // a failed flush poisons later Syncs

  mutable std::mutex stats_mu_;
  WalStats stats_;
};

}  // namespace x100ir::storage

#endif  // X100IR_STORAGE_WAL_H_
