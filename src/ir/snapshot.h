// Snapshot reads and live updates over the segmented index (DESIGN.md §10).
//
// The SnapshotManager owns the database's mutable truth: the immutable
// Segment set, per-segment tombstone bitmaps, the ordered DeltaSegment write
// buffers (sealed ones awaiting a merge commit, then the active one), the
// live CollectionStats, and the docid/segment-id allocators. Every mutation
// (AddDocument, DeleteDocument, merge commit) happens under one commit
// mutex and ends by publishing a brand-new immutable Snapshot; Acquire
// hands a query a shared_ptr to the current one. In-flight queries
// therefore pin a consistent segment set for their whole duration —
// shared_ptr refcounts ARE the pin counts, and a segment replaced by a
// merge is marked retire-on-release so the last pin's release (not the
// commit) deletes its files and drops its pages from the shared pool.
//
// Tombstones are copy-on-write: DeleteDocument copies the affected
// bitmap, sets one bit, and publishes the copy; snapshots hold the version
// they were born with, so a query never sees a delete that committed after
// it started.
//
// Merge protocol (one background merge at a time, on a 1-thread pool):
//   StartMerge  seals the active delta if it holds documents (starting a
//               fresh one at the next docid), adopts every sealed delta +
//               every segment as merge input, and kicks the background
//               compaction. Queries keep running against the sealed
//               deltas + old segments throughout.
//   background  compacts every live input document (global docid order)
//               into one new compressed Segment under dir/seg_<id>.
//   commit      turns deletes that landed during the merge (the journal)
//               into tombstones on the new segment, writes the manifest of
//               the next segment list via tmp+rename (the atomic switch;
//               meta-written-last discipline), and only after the rename
//               installs that list: the compacted deltas leave, the old
//               segments retire.
//   failure     before the rename nothing live has changed: the sealed
//               deltas, with every delete that landed on them, stay
//               queryable and become input to the next merge attempt.
//
// Durability (DESIGN.md §13): merges persist through the manifest; the
// delta tier persists through the write-ahead log (storage/wal.h). Every
// AddDocument/DeleteDocument appends a WAL record under the commit mutex
// and is acknowledged only after a covering fsync (group-committed), so a
// reopen replays the log against the adopted manifest and reconstructs the
// exact acknowledged pre-crash state. StartMerge writes a DeltaSealed
// record and rotates the log; the merge commit appends MergeCommitted
// after the manifest rename and drops the now-redundant files.
//
// One on-disk layout, one reopen path: every segment lives in
// dir/seg_<id>/, seg_0 included. A fresh Open builds seg_0 from the corpus
// and commits the epoch-0 manifest before the WAL opens; every reopen
// adopts the manifest, loads each segment it lists and replays the WAL. A
// seg_0 that fails to load is rebuilt from the corpus in place, keeping
// the manifest's tombstones and the log. A missing, torn or mismatched
// manifest (or a torn merged segment under it) falls back to a clean
// rebuild from the corpus and discards the log — WAL records are only
// meaningful against the manifest they were written with.
#ifndef X100IR_IR_SNAPSHOT_H_
#define X100IR_IR_SNAPSHOT_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "ir/collection_stats.h"
#include "ir/corpus.h"
#include "ir/delta_segment.h"
#include "ir/search_engine.h"
#include "ir/segment.h"
#include "storage/buffer_manager.h"

namespace x100ir::ir {

using TombstoneBits = std::shared_ptr<const std::vector<uint64_t>>;

// One consistent, immutable view of the collection. Everything is held by
// shared_ptr: the snapshot outlives any commit that happens after it.
struct Snapshot {
  struct SegmentRead {
    std::shared_ptr<Segment> seg;
    TombstoneBits tombstones;  // local-docid bitmap; null = no deletes
  };
  struct DeltaRead {
    std::shared_ptr<DeltaSegment> delta;
    uint32_t visible = 0;      // doc-count prefix this snapshot may read
    TombstoneBits tombstones;  // delta-local bitmap; null = no deletes
  };

  uint64_t epoch = 0;
  // The database has a buffer pool, so the storage runs may run: every
  // segment's columns are pool-served. Not read off the segments — a
  // merge may leave none.
  bool has_storage = false;
  // Segments in ascending global-docid order, then deltas in ascending
  // base order — concatenating per-structure docid-ordered results yields
  // globally docid-ordered results.
  std::vector<SegmentRead> segments;
  std::vector<DeltaRead> deltas;
  std::shared_ptr<const CollectionStats> stats;
};

// Executes one query against a snapshot — the engine's one read path
// (DESIGN.md §10.2): PrepareQuery, then every segment through the normal
// SearchEngine and every delta buffer through the same scan and join plans
// over its copied postings, merged by one Gather in global docid space.
// Scores under `user_opts.global_stats` when set, else the snapshot's live
// stats; `user_opts.tombstones` is replaced per part. Thread-safe.
Status SearchSnapshot(const Snapshot& snap, const Query& query, RunType type,
                      const SearchOptions& user_opts, SearchResult* result);

class SnapshotManager {
 public:
  SnapshotManager() = default;
  ~SnapshotManager();
  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  // Opens the segmented index under `dir` along the one reopen path above
  // (a usable manifest is the only reuse check). `corpus` is borrowed and
  // must outlive the manager. Empty dir = fully in-memory (seg_0 in
  // memory, no manifest, no WAL, no storage runs); on disk
  // `storage.wal.enabled` must be true, else InvalidArgument.
  Status Open(const Corpus* corpus, const std::string& dir,
              const storage::StorageOptions& storage, BuildStats* stats);

  // Current snapshot; never null after a successful Open.
  std::shared_ptr<const Snapshot> Acquire() const;

  uint64_t epoch() const;

  // Appends one document (term occurrences, any order; duplicates become
  // tf) to the write buffer. Returns its global docid — docids are
  // allocated in add order and never reused.
  Status AddDocument(const std::vector<uint32_t>& terms, int32_t* docid);

  // Tombstones one live document. NotFound when the docid was never
  // allocated or is already deleted.
  Status DeleteDocument(int32_t docid);

  // Background merge controls. StartMerge fails FailedPrecondition while a
  // merge is running; WaitMerge blocks until the running merge (if any)
  // finishes and returns its status; Merge() is the synchronous pair.
  Status StartMerge();
  Status WaitMerge();
  Status Merge();
  bool merge_running() const;

  // Shared storage (null for in-memory databases).
  storage::BufferManager* pool() const { return pool_.get(); }
  const storage::SimulatedDisk* disk() const { return disk_.get(); }

  // Write-path durability counters (zeros for an in-memory database).
  storage::WalStats wal_stats() const;

 private:
  struct MergeInput {
    std::vector<Snapshot::SegmentRead> segments;
    std::vector<Snapshot::DeltaRead> deltas;  // sealed, fully visible
    uint32_t seg_id = 0;
    // WAL file sequence sealed by the StartMerge rotation; everything at or
    // below it becomes droppable once this merge's manifest commits.
    uint64_t wal_sealed_seq = 0;
  };

  // One resolved DeleteDocument target: which structure owns the docid and
  // where, so validation (Find) can precede mutation (Apply).
  struct DeleteTarget {
    bool in_delta = false;  // deltas_[index], else segments_[index]
    size_t index = 0;
    uint32_t local = 0;  // structure-local docid
  };

  // Rebuilds live num_docs/total_len/df from the current segment set and
  // tombstones (Open).
  void RecountLiveStatsLocked();
  // Freezes the live counters into a CollectionStats (exactly the numbers
  // a fresh monolithic build over the live corpus would compute).
  std::shared_ptr<const CollectionStats> FreezeStatsLocked() const;
  // Publishes a new Snapshot of the current state at epoch_.
  void PublishLocked();
  // Serializes `segments` at `epoch` to MANIFEST via tmp + rename.
  // *renamed (may be null) reports whether the rename — the commit point —
  // happened, so a caller can distinguish pre- from post-commit failure.
  Status WriteManifestLocked(const std::vector<Snapshot::SegmentRead>& segments,
                             uint64_t epoch, bool* renamed = nullptr);
  // Applies one normalized document to the active delta (stats + epoch, no
  // WAL, no publish) — the shared tail of AddDocument and WAL replay.
  Status ApplyAddLocked(std::vector<DocTerm> doc, int32_t len, int32_t* docid);
  // Seals the active delta if it holds documents and opens a fresh one at
  // next_docid_ (StartMerge and the DeltaSealed replay).
  void SealActiveLocked();
  // Resolves a docid to its owning structure. NotFound for never-allocated
  // or already-deleted docids.
  Status FindDeleteTargetLocked(int32_t docid, DeleteTarget* target) const;
  // Tombstones a resolved target and takes its document's terms out of the
  // live stats, reading them from its structure's forward store (stats +
  // merge journal + epoch, no WAL, no manifest, no publish).
  void ApplyDeleteLocked(const DeleteTarget& target, int32_t docid);
  // Replays the opened WAL against the adopted state (Open only).
  Status ReplayWalLocked();
  // Adopts dir_'s manifest: loads the listed segments (rebuilding a seg_0
  // that fails to load) and tombstones. Any failure, NotFound when no
  // manifest exists, means the caller falls back to a clean rebuild.
  Status TryLoadManifest(BuildStats* stats);
  // The background compaction body (runs on merge_pool_).
  void RunMerge(MergeInput input);
  // The posting-list merge (DESIGN.md §10.3): every live input document,
  // in global docid order, into one segment; null when none is live.
  Status BuildMergedSegment(const MergeInput& input,
                            std::shared_ptr<Segment>* out);
  // *committed reports whether the merge passed its commit point (manifest
  // rename) — a post-commit failure must not retire the now-live segment.
  // Before that point it changes no member.
  Status CommitMergeLocked(const MergeInput& input,
                           std::shared_ptr<Segment> merged, bool* committed);

  const Corpus* corpus_ = nullptr;
  std::string dir_;
  // corpus_->Fingerprint(), hashed once per on-disk Open (a full pass over
  // the postings) for the manifest check, every manifest write and the WAL
  // header; a merge commit writes it while holding mu_.
  uint64_t corpus_fingerprint_ = 0;
  // Declaration order is destruction order in reverse: merge_pool_ (last)
  // joins the background merge first, then snapshots/segments release and
  // detach from pool_, then pool_/disk_ die.
  std::unique_ptr<storage::SimulatedDisk> disk_;
  std::unique_ptr<storage::BufferManager> pool_;
  // Null for an in-memory database.
  // Appends happen under mu_; Sync (the fsync wait) deliberately outside.
  std::unique_ptr<storage::Wal> wal_;

  mutable std::mutex mu_;
  uint64_t epoch_ = 0;
  uint32_t next_seg_id_ = 1;
  int32_t next_docid_ = 0;
  std::vector<Snapshot::SegmentRead> segments_;
  // Write buffers in ascending base order: sealed ones (a running merge's
  // input, or a failed merge's for the next attempt), then the active one
  // at back(), which takes every add. `visible` is set when a delta is
  // handed out (publish, merge input), not kept here.
  std::vector<Snapshot::DeltaRead> deltas_;
  uint32_t live_num_docs_ = 0;
  uint64_t live_total_len_ = 0;
  std::vector<uint32_t> live_df_;
  std::shared_ptr<const Snapshot> current_;

  bool merge_running_ = false;
  Status merge_status_;
  std::condition_variable merge_cv_;
  // Global docids deleted while a merge runs that fall below the merge
  // cutoff (== are part of the merge's input): re-applied as tombstones on
  // the merged segment at commit.
  std::vector<int32_t> merge_deletes_;
  int32_t merge_cutoff_ = 0;

  ThreadPool merge_pool_{1};
};

}  // namespace x100ir::ir

#endif  // X100IR_IR_SNAPSHOT_H_
