// Deterministic kill-point injection for crash-recovery testing
// (DESIGN.md §13.3). A CrashSite marks one instant in a durable-write
// protocol — after a WAL record hits the file but before its fsync, after
// MANIFEST.tmp is complete but before the rename, and so on. Test code arms
// a site with a 1-based countdown; the countdown-th time execution reaches
// that site the singleton flips to "crashed" and every durable-write path
// in the process refuses to touch disk from then on. The paths that check
// CrashPoint::IsCrashed(): wal.cc, the manifest writer, storage::FileWriter
// (the one writer of column files, index.meta and segment.meta; it checks
// at Open and at every Append), the index builder before it creates a
// directory, and segment retirement.
// The net effect is exactly a power cut at that instant: bytes already
// written stay, nothing later is written — including by destructors — so
// a test can destroy the Database object and reopen against the on-disk
// state the "crash" left behind.
//
// A site can also be held: the next thread to reach it parks there until
// the test releases it, so a test can act while a background operation sits
// at a known point (the merge between its segment build and its commit).
//
// The un-armed fast path is one relaxed atomic load, cheap enough to sit on
// the per-record WAL append path. Arm/Hold/Release/Reset are test-only and
// not meant to race live traffic; Reached() itself is thread-safe (the
// background merge thread hits sites concurrently with the test thread's
// bookkeeping).
#ifndef X100IR_STORAGE_CRASH_POINT_H_
#define X100IR_STORAGE_CRASH_POINT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace x100ir::storage {

enum class CrashSite : uint32_t {
  // WAL record bytes are in the file (fwrite + fflush), fsync not yet
  // issued — the record may or may not survive a real power cut; in the
  // simulation it survives, and the torn-tail fuzzer covers the loss case.
  kWalAfterAppend = 0,
  // fsync returned: the record is durable, but the caller has not been
  // acknowledged yet.
  kWalAfterFsync,
  // A rotation created the next WAL file (header written) but the
  // DeltaSealed boundary's bookkeeping after it has not run.
  kWalAfterRotate,
  // About to unlink one obsolete WAL file after a merge commit (hit once
  // per file, so counted arming covers mid-truncation crashes).
  kWalBeforeDropFile,
  // The merged segment's column files are complete on disk, manifest not
  // yet written — the segment exists but nothing references it.
  kMergeAfterSegmentBuild,
  // MANIFEST.tmp fully written, rename not yet issued (a merge commit, or
  // a first open's epoch-0 manifest).
  kManifestAfterTmpWrite,
  // rename(MANIFEST.tmp, MANIFEST) returned — the commit point passed,
  // post-commit cleanup (MergeCommitted record, WAL truncation; at a first
  // open, the WAL's creation) pending.
  kManifestAfterRename,
  // An index build appended one chunk of postings to both score column
  // files; the rest of those columns and index.meta are not written yet.
  // Hit once per chunk, in every on-disk build (seg_0 and merges).
  kScoresAfterChunk,
  kNumSites,
};

inline const char* CrashSiteName(CrashSite s) {
  switch (s) {
    case CrashSite::kWalAfterAppend: return "wal_after_append";
    case CrashSite::kWalAfterFsync: return "wal_after_fsync";
    case CrashSite::kWalAfterRotate: return "wal_after_rotate";
    case CrashSite::kWalBeforeDropFile: return "wal_before_drop_file";
    case CrashSite::kMergeAfterSegmentBuild: return "merge_after_segment_build";
    case CrashSite::kManifestAfterTmpWrite: return "manifest_after_tmp_write";
    case CrashSite::kManifestAfterRename: return "manifest_after_rename";
    case CrashSite::kScoresAfterChunk: return "scores_after_chunk";
    case CrashSite::kNumSites: break;
  }
  return "unknown";
}

class CrashPoint {
 public:
  static CrashPoint& Instance();

  // Arms `site` to crash on its `countdown`-th future hit (1-based).
  // Re-arming replaces any previous arming; only one site is armed at a
  // time (the battery iterates sites one by one).
  void Arm(CrashSite site, uint64_t countdown);

  // Clears the armed site, the crashed flag, all hit counters and any hold,
  // releasing a parked thread.
  void Reset();

  // Parks the next thread that reaches `site` until Release() or Reset().
  // One held site at a time; Hold replaces an earlier hold nobody reached.
  void Hold(CrashSite site);

  // Blocks until a thread is parked at the held site.
  void WaitHeld();

  // Un-parks the held thread, or cancels a hold no thread has reached yet.
  void Release();

  // True once an armed countdown fired. Durable-write code checks this at
  // entry and refuses with IOError("simulated crash") — the process is
  // conceptually dead.
  bool IsCrashed() const {
    return crashed_.load(std::memory_order_acquire);
  }

  // Marks execution reaching `site`. Returns true when this hit fired the
  // armed countdown (or the process already crashed): the caller must
  // abandon the operation without further writes.
  bool Reached(CrashSite site);

  // Hits per site since the last Reset — how the battery discovers when a
  // site's occurrence count is exhausted for a given operation.
  uint64_t hits(CrashSite site) const;

 private:
  CrashPoint() = default;

  std::atomic<bool> armed_{false};
  std::atomic<bool> crashed_{false};
  mutable std::mutex mu_;
  CrashSite armed_site_ = CrashSite::kNumSites;
  uint64_t countdown_ = 0;
  uint64_t hits_[static_cast<size_t>(CrashSite::kNumSites)] = {};
  CrashSite held_site_ = CrashSite::kNumSites;
  bool parked_ = false;
  std::condition_variable held_cv_;  // parked_ flips, under mu_
};

// Convenience wrappers for the call sites.
inline bool CrashReached(CrashSite site) {
  return CrashPoint::Instance().Reached(site);
}
inline bool CrashedNow() { return CrashPoint::Instance().IsCrashed(); }

}  // namespace x100ir::storage

#endif  // X100IR_STORAGE_CRASH_POINT_H_
