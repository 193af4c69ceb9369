// The engine facade the benches (and any embedder) program against: Open
// generates the deterministic corpus and stands up the segmented index
// (ir::SnapshotManager) over it — building seg_0 under options.dir on the
// first open, adopting the manifest on every reopen — and Search runs one
// query against the current snapshot.
//
// This is the API seam between the retrieval model (ir/) and the relational
// executor (vec/): later layers (storage/ buffer manager, dist/ partitions)
// slot in behind this interface without touching callers (DESIGN.md §6.1).
//
// Live updates (DESIGN.md §10): AddDocument appends to the in-memory write
// buffer, DeleteDocument tombstones, StartMerge kicks the background
// compaction. Search stays const and thread-safe throughout — every query
// pins one immutable Snapshot for its whole duration, so readers never
// block on writers or on a running merge.
#ifndef X100IR_CORE_DATABASE_H_
#define X100IR_CORE_DATABASE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "ir/corpus.h"
#include "ir/index_builder.h"
#include "ir/search_engine.h"
#include "ir/snapshot.h"

namespace x100ir::core {

struct DatabaseOptions {
  // Database directory: MANIFEST, the WAL files and one seg_<id>/
  // directory per segment. The first open builds seg_0 here; a reopen
  // adopts the manifest when its corpus fingerprint matches. Empty =
  // in-memory only (the storage-era RunTypes then report
  // FailedPrecondition).
  std::string dir;
  ir::CorpusOptions corpus;
  // Buffer pool / page size / simulated-disk model for the storage runs.
  // Only meaningful with a non-empty dir. One pool serves every segment.
  storage::StorageOptions storage;
};

class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // Generates the corpus and opens the segmented index over it (adopting a
  // valid manifest under options.dir, else building seg_0). Safe to call
  // again (rebuilds against the new options).
  Status Open(const DatabaseOptions& options);

  // Opens over a caller-built corpus instead of generating one — the
  // dist/ path: a cluster node adopts its doc-partition slice
  // (Corpus::Slice over a contiguous global-docid range) and gets
  // the same build-or-adopt, segmented-index, private-buffer-pool stack a
  // generated database gets. The corpus is moved in; the manifest's reuse
  // check keys on its content fingerprint, so a reopened node only
  // rebuilds when its slice actually changed.
  Status OpenWithCorpus(ir::Corpus corpus, const std::string& dir,
                        const storage::StorageOptions& storage);

  // Runs one query against the current snapshot; fails before Open. Const
  // and thread-safe after Open (DESIGN.md §9.1/§10): the query pins the
  // snapshot's segments for its whole duration, so concurrent adds,
  // deletes, and merge commits never change what it observes. Stamps
  // result->epoch with the snapshot's epoch.
  Status Search(const ir::Query& query, ir::RunType type,
                const ir::SearchOptions& opts,
                ir::SearchResult* result) const;

  // Live updates — see ir::SnapshotManager for the contracts.
  Status AddDocument(const std::vector<uint32_t>& terms, int32_t* docid);
  Status DeleteDocument(int32_t docid);
  Status StartMerge();
  Status WaitMerge();
  Status Merge();
  bool merge_running() const;
  uint64_t epoch() const;
  std::shared_ptr<const ir::Snapshot> Acquire() const;

  bool is_open() const { return open_; }
  const ir::Corpus& corpus() const { return corpus_; }
  // The base (oldest) segment's index — the monolithic view every
  // pre-segmentation test and bench programs against. Valid until the next
  // merge commit replaces the segment set; null only when every document
  // has been deleted and merged away.
  const ir::InvertedIndex* index() const;
  const ir::BuildStats& build_stats() const { return build_stats_; }

  // Storage-layer telemetry: buffer pool hit/miss/eviction counters,
  // aggregated across the pool's lock stripes (a snapshot by value — there
  // is no single stats object once the pool is striped). All-zero for
  // in-memory-only databases; has_storage() disambiguates.
  bool has_storage() const {
    return manager_ != nullptr && manager_->pool() != nullptr;
  }
  storage::BufferStats buffer_stats() const {
    return has_storage() ? manager_->pool()->stats() : storage::BufferStats{};
  }
  // Write-path durability counters (DESIGN.md §13). All-zero for an
  // in-memory database.
  storage::WalStats wal_stats() const {
    return manager_ != nullptr ? manager_->wal_stats() : storage::WalStats{};
  }
  const storage::SimulatedDisk* disk() const {
    return manager_ != nullptr ? manager_->disk() : nullptr;
  }

 private:
  // Stands up the SnapshotManager over the already-populated corpus_ —
  // the shared tail of Open and OpenWithCorpus.
  Status OpenPrepared(const std::string& dir,
                      const storage::StorageOptions& storage);

  bool open_ = false;
  ir::Corpus corpus_;
  // Owns segments, write buffer, snapshots, and the shared buffer pool.
  // unique_ptr so a re-Open tears the old world down (joining its
  // background merge) before the corpus it borrows is regenerated.
  std::unique_ptr<ir::SnapshotManager> manager_;
  ir::BuildStats build_stats_;
};

}  // namespace x100ir::core

#endif  // X100IR_CORE_DATABASE_H_
