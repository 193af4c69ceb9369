#include "ir/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/string_util.h"
#include "common/timer.h"
#include "compress/skip_cursor.h"
#include "ir/index_meta.h"
#include "storage/crash_point.h"
#include "storage/wal.h"

namespace x100ir::ir {
namespace {

// Copy-on-write tombstone set: never mutates the shared current bitmap
// (snapshots born earlier keep reading their version), publishes a copy
// with one more bit. `capacity_docs` is the owning structure's current doc
// count: the copy is sized to cover ALL of it, not just the highest set
// bit, because readers (TombstoneTest in the engine and the delta scans)
// index by arbitrary live docids with no bounds check of their own — a
// short bitmap would be an out-of-bounds read, not a "not deleted".
TombstoneBits SetBitCow(const TombstoneBits& cur, uint32_t bit,
                        uint32_t capacity_docs) {
  const size_t need =
      std::max<size_t>(bit / 64 + 1, capacity_docs / 64 + 1);
  auto next = std::make_shared<std::vector<uint64_t>>(
      cur != nullptr ? *cur : std::vector<uint64_t>());
  if (next->size() < need) next->resize(need, 0);
  (*next)[bit / 64] |= 1ull << (bit % 64);
  return next;
}

std::string SegDir(const std::string& root, uint32_t seg_id) {
  return root + "/seg_" + std::to_string(seg_id);
}

// Sweeps seg_* directories the adopted manifest does not reference, plus a
// stranded MANIFEST.tmp — the debris a crash between segment build and
// manifest commit (or between commit and retirement) leaves behind. Safe
// because every committed segment is listed in the manifest by definition,
// and seg-id reuse after a crashed merge overwrites rather than trips. The
// clean rebuild passes no live ids, so seg_0 goes too.
void SweepSegmentDirs(const std::string& root,
                      const std::vector<uint32_t>& live_ids) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::remove(root + "/" + kManifestTmpFile, ec);
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    const std::string name = entry.path().filename().string();
    if (!entry.is_directory(ec) || name.rfind("seg_", 0) != 0) continue;
    uint32_t id = 0;
    bool numeric = name.size() > 4;
    for (size_t i = 4; numeric && i < name.size(); ++i) {
      numeric = name[i] >= '0' && name[i] <= '9';
      if (numeric) id = id * 10 + static_cast<uint32_t>(name[i] - '0');
    }
    if (!numeric) continue;
    if (std::find(live_ids.begin(), live_ids.end(), id) == live_ids.end()) {
      fs::remove_all(entry.path(), ec);
    }
  }
}

// An input segment's TD columns read forward a window at a time through
// one window cache per column: a merge walks each term's postings in term
// order, so every window of both columns is decoded once, not once for
// each term it holds.
class TdWindows {
 public:
  explicit TdWindows(const InvertedIndex& index) : index_(&index) {
    docids_.Init(index.docid_decoder());
    tfs_.Init(index.tf_decoder());
  }
  const InvertedIndex& index() const { return *index_; }

  // Calls fn(docid, tf) for postings [pos, end), in order.
  template <typename Fn>
  void ForEach(uint64_t pos, uint64_t end, Fn&& fn) {
    constexpr uint32_t kWindow = compress::kEntryPointStride;
    while (pos < end) {
      const auto w = static_cast<uint32_t>(pos / kWindow);
      docids_.Load(w);  // resident windows: a load cannot fail
      tfs_.Load(w);
      const uint64_t first = static_cast<uint64_t>(w) * kWindow;
      const uint64_t stop = std::min(end, first + kWindow);
      for (; pos < stop; ++pos) {
        fn(docids_.i32()[pos - first], tfs_.i32()[pos - first]);
      }
    }
  }

 private:
  const InvertedIndex* index_;
  compress::WindowCache<compress::ResidentWindows> docids_, tfs_;
};

}  // namespace

SnapshotManager::~SnapshotManager() {
  // Joining here (not relying on merge_pool_'s own destructor) makes the
  // shutdown order explicit: the background merge finishes before any
  // member it touches starts dying.
  merge_pool_.Shutdown();
}

Status SnapshotManager::Open(const Corpus* corpus, const std::string& dir,
                             const storage::StorageOptions& storage,
                             BuildStats* stats) {
  if (corpus == nullptr) return InvalidArgument("snapshot manager needs a corpus");
  if (stats == nullptr) return InvalidArgument("null build stats");
  if (!dir.empty() && !storage.wal.enabled) {
    return InvalidArgument("an on-disk database always keeps a WAL");
  }
  corpus_ = corpus;
  dir_ = dir;
  if (!dir_.empty()) {
    corpus_fingerprint_ = corpus_->Fingerprint();
    disk_ = std::make_unique<storage::SimulatedDisk>(storage.disk);
    pool_ = std::make_unique<storage::BufferManager>(
        storage.pool_bytes, disk_.get(), storage.page_bytes, storage.shards);
    pool_->set_retry_policy(storage.retry);
  }

  std::lock_guard<std::mutex> lock(mu_);
  WallTimer timer;
  *stats = BuildStats();
  Status adopted = dir_.empty() ? NotFound("in-memory database")
                                : TryLoadManifest(stats);
  if (adopted.ok()) {
    // Clear the debris of crashed merges: built-but-uncommitted segment
    // dirs and a stranded MANIFEST.tmp.
    std::vector<uint32_t> live_ids;
    for (const Snapshot::SegmentRead& sr : segments_) {
      live_ids.push_back(sr.seg->seg_id());
    }
    SweepSegmentDirs(dir_, live_ids);
  } else {
    // No usable manifest (a fresh directory, a torn swap, a corpus
    // mismatch, a torn merged segment): clean rebuild from the corpus. The
    // corpus is generative, so this loses nothing that was ever merged
    // under a *valid* manifest — only state the torn write already lost.
    // The WAL goes too: its records were framed against state the rebuild
    // does not restore. seg_0's manifest is committed before the WAL
    // opens, so a log never exists without one.
    if (!dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove(dir_ + "/" + kManifestFile, ec);
      SweepSegmentDirs(dir_, {});
      storage::Wal::RemoveFiles(dir_);
    }
    *stats = BuildStats();
    std::unique_ptr<Segment> seg0;
    X100IR_RETURN_IF_ERROR(Segment::Build(
        corpus_, dir_.empty() ? "" : SegDir(dir_, 0), pool_.get(), &seg0));
    stats->num_postings = seg0->index().num_postings();
    segments_.assign(1, {std::shared_ptr<Segment>(std::move(seg0)), nullptr});
    epoch_ = 0;
    next_seg_id_ = 1;
    next_docid_ = static_cast<int32_t>(corpus_->num_docs());
    RecountLiveStatsLocked();
    if (!dir_.empty()) {
      X100IR_RETURN_IF_ERROR(WriteManifestLocked(segments_, epoch_));
    }
  }
  stats->build_seconds = timer.ElapsedSeconds();
  deltas_.assign(
      1, {std::make_shared<DeltaSegment>(corpus_->vocab_size(), next_docid_),
          0, nullptr});
  merge_deletes_.clear();
  if (!dir_.empty()) {
    wal_ = std::make_unique<storage::Wal>();
    X100IR_RETURN_IF_ERROR(
        wal_->Open(dir_, corpus_fingerprint_, storage.wal));
    X100IR_RETURN_IF_ERROR(ReplayWalLocked());
  }
  PublishLocked();
  return OkStatus();
}

Status SnapshotManager::ReplayWalLocked() {
  return wal_->Replay([this](const storage::WalRecordView& rec) -> Status {
    switch (rec.type) {
      case storage::WalRecordType::kAddDocument: {
        storage::Wal::AddPayload p;
        if (!storage::Wal::DecodeAdd(rec, &p)) {
          return OutOfRange("undecodable add record");
        }
        // Below the current high-water mark = already applied (committed
        // segment of a stale file a crash kept past its merge, or a record
        // seen once already in a double recovery): idempotent skip.
        if (p.docid < next_docid_) return OkStatus();
        if (p.docid > next_docid_) {
          return OutOfRange("docid gap in wal — truncating here");
        }
        std::vector<DocTerm> doc;
        int32_t len = 0;
        uint32_t prev_term = 0;
        for (const auto& [term, tf] : p.terms) {
          if (term >= corpus_->vocab_size() || tf <= 0 ||
              (!doc.empty() && term <= prev_term)) {
            return OutOfRange("malformed add payload");
          }
          doc.push_back({term, tf});
          len += tf;
          prev_term = term;
        }
        if (doc.empty()) return OutOfRange("empty add payload");
        int32_t id = -1;
        return ApplyAddLocked(std::move(doc), len, &id);
      }
      case storage::WalRecordType::kDeleteDocument: {
        int32_t docid = -1;
        if (!storage::Wal::DecodeDocid(rec, &docid)) {
          return OutOfRange("undecodable delete record");
        }
        DeleteTarget target;
        Status found = FindDeleteTargetLocked(docid, &target);
        // Idempotent: the delete may already be durable via the manifest
        // (it was journaled into a merge, or the doc merged away).
        if (found.code() == StatusCode::kNotFound) return OkStatus();
        X100IR_RETURN_IF_ERROR(found);
        ApplyDeleteLocked(target, docid);
        return OkStatus();
      }
      case storage::WalRecordType::kDeltaSealed: {
        int32_t cutoff = -1;
        if (!storage::Wal::DecodeDocid(rec, &cutoff)) {
          return OutOfRange("undecodable seal record");
        }
        if (cutoff < next_docid_) return OkStatus();  // stale era
        if (cutoff > next_docid_) {
          return OutOfRange("seal cutoff beyond replayed docids");
        }
        SealActiveLocked();
        return OkStatus();
      }
      case storage::WalRecordType::kMergeCommitted:
        // Purely informational: the manifest rename is the commit, and the
        // manifest was adopted before replay started.
        return OkStatus();
    }
    return OutOfRange("unknown wal record type");
  });
}

Status SnapshotManager::TryLoadManifest(BuildStats* stats) {
  const std::string path = dir_ + "/" + kManifestFile;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return NotFound("no manifest under " + dir_);
  ManifestHeader hdr;
  bool ok = std::fread(&hdr, sizeof(hdr), 1, f) == 1;
  ok = ok && hdr.magic == ManifestHeader::kMagic &&
       hdr.version == ManifestHeader::kVersion &&
       hdr.corpus_fingerprint == corpus_fingerprint_ &&
       hdr.num_segments <= 1u << 20;
  std::vector<ManifestSegment> entries;
  std::vector<std::vector<uint64_t>> tomb_words;
  if (ok) {
    entries.resize(hdr.num_segments);
    tomb_words.resize(hdr.num_segments);
    for (uint32_t i = 0; ok && i < hdr.num_segments; ++i) {
      ok = std::fread(&entries[i], sizeof(ManifestSegment), 1, f) == 1;
      const uint32_t max_words = entries[i].num_docs / 64 + 1;
      ok = ok && entries[i].num_tombstone_words <= max_words;
      if (ok && entries[i].num_tombstone_words > 0) {
        tomb_words[i].resize(entries[i].num_tombstone_words);
        ok = std::fread(tomb_words[i].data(),
                        entries[i].num_tombstone_words * sizeof(uint64_t), 1,
                        f) == 1;
      }
    }
  }
  std::fclose(f);
  if (!ok) return IOError("torn or mismatched manifest under " + dir_);

  std::vector<Snapshot::SegmentRead> segs;
  int32_t max_global = -1;
  uint32_t max_seg_id = 0;
  stats->reused_files = true;
  for (uint32_t i = 0; i < hdr.num_segments; ++i) {
    const ManifestSegment& e = entries[i];
    if (e.seg_id == 0 && e.num_docs != corpus_->num_docs()) {
      return IOError("manifest seg_0 disagrees with the corpus");
    }
    const std::string seg_dir = SegDir(dir_, e.seg_id);
    std::unique_ptr<Segment> seg;
    Status loaded = Segment::Load(seg_dir, pool_.get(), e.seg_id,
                                  e.num_docs, corpus_, &seg);
    if (!loaded.ok() && e.seg_id == 0) {
      // seg_0 is a function of the corpus: rebuild it in place. The
      // manifest's tombstones and the WAL stay valid against it.
      std::error_code ec;
      std::filesystem::remove_all(seg_dir, ec);
      loaded = Segment::Build(corpus_, seg_dir, pool_.get(), &seg);
      stats->reused_files = false;
    }
    X100IR_RETURN_IF_ERROR(loaded);
    stats->num_postings += seg->index().num_postings();
    max_seg_id = std::max(max_seg_id, e.seg_id);
    if (seg->num_docs() > 0) {
      max_global = std::max(max_global,
                            seg->GlobalOf(static_cast<int32_t>(
                                seg->num_docs() - 1)));
    }
    TombstoneBits tombs;
    if (!tomb_words[i].empty()) {
      // Manifests written by this code are full-coverage already; pad any
      // shorter (but magic-valid) bitmap rather than trust it.
      tomb_words[i].resize(seg->num_docs() / 64 + 1, 0);
      tombs = std::make_shared<std::vector<uint64_t>>(
          std::move(tomb_words[i]));
    }
    segs.push_back({std::shared_ptr<Segment>(std::move(seg)), tombs});
  }
  if (hdr.next_seg_id <= max_seg_id && hdr.num_segments > 0) {
    return IOError("manifest seg-id allocator behind its own segments");
  }
  if (hdr.next_docid <= max_global) {
    return IOError("manifest docid allocator behind its own segments");
  }
  std::sort(segs.begin(), segs.end(),
            [](const Snapshot::SegmentRead& a, const Snapshot::SegmentRead& b) {
              return a.seg->min_global() < b.seg->min_global();
            });
  segments_ = std::move(segs);
  epoch_ = hdr.epoch;
  next_seg_id_ = hdr.next_seg_id;
  next_docid_ = hdr.next_docid;
  RecountLiveStatsLocked();
  return OkStatus();
}

void SnapshotManager::RecountLiveStatsLocked() {
  live_num_docs_ = 0;
  live_total_len_ = 0;
  live_df_.assign(corpus_->vocab_size(), 0);
  for (const Snapshot::SegmentRead& sr : segments_) {
    if (sr.tombstones == nullptr) {
      // Every document is live: the index's own tables hold the counts.
      const InvertedIndex& idx = sr.seg->index();
      live_num_docs_ += idx.num_docs();
      for (int32_t len : idx.doc_lens()) {
        live_total_len_ += static_cast<uint64_t>(len);
      }
      for (uint32_t t = 0; t < idx.vocab_size(); ++t) {
        live_df_[t] += idx.term(t).doc_freq;
      }
      continue;
    }
    const uint64_t* bits = sr.tombstones->data();
    const Corpus& forward = sr.seg->forward();
    forward.ForEachDoc(
        0, forward.num_docs(),
        [&](uint32_t local, const DocTerm* doc, uint32_t n) {
          if (TombstoneTest(bits, static_cast<int32_t>(local))) return;
          ++live_num_docs_;
          live_total_len_ += static_cast<uint64_t>(forward.doc_len(local));
          for (uint32_t i = 0; i < n; ++i) ++live_df_[doc[i].term];
        });
  }
}

std::shared_ptr<const CollectionStats> SnapshotManager::FreezeStatsLocked()
    const {
  auto stats = std::make_shared<CollectionStats>();
  stats->num_docs = live_num_docs_;
  stats->avg_doc_len =
      live_num_docs_ == 0
          ? 0.0
          : static_cast<double>(live_total_len_) /
                static_cast<double>(live_num_docs_);
  stats->df = live_df_;
  return stats;
}

void SnapshotManager::PublishLocked() {
  auto snap = std::make_shared<Snapshot>();
  snap->epoch = epoch_;
  snap->has_storage = pool_ != nullptr;
  snap->segments = segments_;
  for (const Snapshot::DeltaRead& dr : deltas_) {
    const uint32_t visible = dr.delta->num_docs();
    if (visible > 0) snap->deltas.push_back({dr.delta, visible, dr.tombstones});
  }
  snap->stats = FreezeStatsLocked();
  current_ = std::move(snap);
}

std::shared_ptr<const Snapshot> SnapshotManager::Acquire() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

uint64_t SnapshotManager::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

Status SnapshotManager::AddDocument(const std::vector<uint32_t>& terms,
                                    int32_t* docid) {
  if (terms.empty()) return InvalidArgument("document has no terms");
  std::vector<uint32_t> sorted = terms;
  for (uint32_t t : sorted) {
    if (t >= corpus_->vocab_size()) {
      return InvalidArgument(StrFormat("term %u outside vocabulary", t));
    }
  }
  std::sort(sorted.begin(), sorted.end());
  std::vector<DocTerm> doc;
  int32_t len = 0;
  for (size_t i = 0; i < sorted.size();) {
    size_t j = i;
    while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
    doc.push_back({sorted[i], static_cast<int32_t>(j - i)});
    len += static_cast<int32_t>(j - i);
    i = j;
  }

  int32_t id = -1;
  uint64_t lsn = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<uint32_t, int32_t>> pairs;
    if (wal_ != nullptr) {
      pairs.reserve(doc.size());
      for (const DocTerm& dt : doc) pairs.emplace_back(dt.term, dt.tf);
    }
    X100IR_RETURN_IF_ERROR(ApplyAddLocked(std::move(doc), len, &id));
    if (wal_ != nullptr) {
      // Logged under the same critical section that applied it, so the
      // log's record order IS the apply order. A failed append leaves the
      // document in memory but unacknowledged — the caller must assume it
      // is lost on the next crash, which is exactly what the error says.
      const std::vector<uint8_t> payload = storage::Wal::EncodeAdd(id, pairs);
      Status appended =
          wal_->Append(storage::WalRecordType::kAddDocument, payload.data(),
                       static_cast<uint32_t>(payload.size()), &lsn);
      if (!appended.ok()) {
        PublishLocked();
        return appended;
      }
    }
    PublishLocked();
  }
  // The acknowledgment barrier: OK only after an fsync covers the record.
  // Deliberately outside mu_ — this wait is where group commit batches.
  if (wal_ != nullptr) X100IR_RETURN_IF_ERROR(wal_->Sync(lsn));
  if (docid != nullptr) *docid = id;
  return OkStatus();
}

Status SnapshotManager::ApplyAddLocked(std::vector<DocTerm> doc, int32_t len,
                                       int32_t* docid) {
  // The active delta is only ever sealed while holding mu_
  // (SealActiveLocked), and sealing installs a fresh active delta in the
  // same critical section, so this Add cannot race a seal.
  Snapshot::DeltaRead& active = deltas_.back();
  int32_t id = -1;
  X100IR_RETURN_IF_ERROR(active.delta->Add(std::move(doc), &id));
  // Keep the coverage invariant (SetBitCow): an existing delta bitmap must
  // span the delta's new doc count, or readers of the next snapshot would
  // index past it. COW — earlier snapshots keep their pairing.
  const size_t words = active.delta->num_docs() / 64 + 1;
  if (active.tombstones != nullptr && active.tombstones->size() < words) {
    auto grown = std::make_shared<std::vector<uint64_t>>(*active.tombstones);
    grown->resize(words, 0);
    active.tombstones = std::move(grown);
  }
  ++live_num_docs_;
  live_total_len_ += static_cast<uint64_t>(len);
  for (const DocTerm& dt : active.delta->doc(static_cast<uint32_t>(
           id - active.delta->base_docid()))) {
    ++live_df_[dt.term];
  }
  ++next_docid_;
  ++epoch_;
  *docid = id;
  return OkStatus();
}

void SnapshotManager::SealActiveLocked() {
  if (deltas_.back().delta->num_docs() == 0) return;
  deltas_.back().delta->Seal();
  deltas_.push_back(
      {std::make_shared<DeltaSegment>(corpus_->vocab_size(), next_docid_), 0,
       nullptr});
}

Status SnapshotManager::FindDeleteTargetLocked(int32_t docid,
                                               DeleteTarget* target) const {
  if (docid < 0 || docid >= next_docid_) {
    return NotFound(StrFormat("docid %d was never allocated", docid));
  }
  for (size_t i = 0; i < deltas_.size(); ++i) {
    const DeltaSegment& sd = *deltas_[i].delta;
    if (docid < sd.base_docid() ||
        docid >= sd.base_docid() + static_cast<int32_t>(sd.num_docs())) {
      continue;
    }
    const uint32_t local = static_cast<uint32_t>(docid - sd.base_docid());
    const TombstoneBits& tombs = deltas_[i].tombstones;
    const uint64_t* bits = tombs != nullptr ? tombs->data() : nullptr;
    if (TombstoneTest(bits, static_cast<int32_t>(local))) {
      return NotFound(StrFormat("docid %d is already deleted", docid));
    }
    target->in_delta = true;
    target->index = i;
    target->local = local;
    return OkStatus();
  }
  for (size_t i = 0; i < segments_.size(); ++i) {
    const Snapshot::SegmentRead& sr = segments_[i];
    const int32_t local = sr.seg->LocalOf(docid);
    if (local < 0) continue;
    const uint64_t* bits =
        sr.tombstones != nullptr ? sr.tombstones->data() : nullptr;
    if (TombstoneTest(bits, local)) {
      return NotFound(StrFormat("docid %d is already deleted", docid));
    }
    target->in_delta = false;
    target->index = i;
    target->local = static_cast<uint32_t>(local);
    return OkStatus();
  }
  // Allocated range but between structures: the doc was merged away and
  // its segment replaced — only possible for an already-deleted doc
  // (merges carry every live doc forward).
  return NotFound(StrFormat("docid %d is already deleted", docid));
}

void SnapshotManager::ApplyDeleteLocked(const DeleteTarget& target,
                                        int32_t docid) {
  std::vector<DocTerm> doc;
  int32_t len = 0;
  if (target.in_delta) {
    Snapshot::DeltaRead& dr = deltas_[target.index];
    dr.tombstones =
        SetBitCow(dr.tombstones, target.local, dr.delta->num_docs());
    doc = dr.delta->doc(target.local);
    len = dr.delta->doc_len(target.local);
  } else {
    Snapshot::SegmentRead& sr = segments_[target.index];
    sr.tombstones = SetBitCow(sr.tombstones, target.local, sr.seg->num_docs());
    sr.seg->forward().ReadDoc(target.local, &doc);
    len = sr.seg->doc_len(target.local);
  }
  --live_num_docs_;
  live_total_len_ -= static_cast<uint64_t>(len);
  for (const DocTerm& dt : doc) --live_df_[dt.term];
  if (merge_running_ && docid < merge_cutoff_) {
    merge_deletes_.push_back(docid);
  }
  ++epoch_;
}

Status SnapshotManager::DeleteDocument(int32_t docid) {
  uint64_t lsn = 0;
  Status persisted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    DeleteTarget target;
    X100IR_RETURN_IF_ERROR(FindDeleteTargetLocked(docid, &target));
    ApplyDeleteLocked(target, docid);
    if (wal_ != nullptr) {
      // The WAL is the durability story for every delete, segment docs
      // included: their tombstones replay onto the adopted manifest.
      const std::vector<uint8_t> payload = storage::Wal::EncodeDocid(docid);
      persisted =
          wal_->Append(storage::WalRecordType::kDeleteDocument,
                       payload.data(), static_cast<uint32_t>(payload.size()),
                       &lsn);
    }
    PublishLocked();
  }
  if (!persisted.ok()) return persisted;
  // Acknowledgment barrier, outside mu_ (same as AddDocument).
  if (wal_ != nullptr) X100IR_RETURN_IF_ERROR(wal_->Sync(lsn));
  return OkStatus();
}

Status SnapshotManager::WriteManifestLocked(
    const std::vector<Snapshot::SegmentRead>& segments, uint64_t epoch,
    bool* renamed) {
  if (renamed != nullptr) *renamed = false;
  if (storage::CrashedNow()) return IOError("simulated crash");
  const std::string tmp = dir_ + "/" + kManifestTmpFile;
  const std::string path = dir_ + "/" + kManifestFile;
  ManifestHeader hdr;
  hdr.corpus_fingerprint = corpus_fingerprint_;
  hdr.epoch = epoch;
  hdr.num_segments = static_cast<uint32_t>(segments.size());
  hdr.next_seg_id = next_seg_id_;
  hdr.next_docid = next_docid_;
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return IOError("cannot create " + tmp);
  bool ok = std::fwrite(&hdr, sizeof(hdr), 1, f) == 1;
  for (const Snapshot::SegmentRead& sr : segments) {
    ManifestSegment e;
    e.seg_id = sr.seg->seg_id();
    e.num_docs = sr.seg->num_docs();
    e.num_tombstone_words =
        sr.tombstones != nullptr
            ? static_cast<uint32_t>(sr.tombstones->size())
            : 0;
    ok = ok && std::fwrite(&e, sizeof(e), 1, f) == 1;
    if (e.num_tombstone_words > 0) {
      ok = ok && std::fwrite(sr.tombstones->data(),
                             e.num_tombstone_words * sizeof(uint64_t), 1,
                             f) == 1;
    }
  }
  ok = std::fclose(f) == 0 && ok;
  if (!ok) return IOError("short write to " + tmp);
  if (storage::CrashReached(storage::CrashSite::kManifestAfterTmpWrite)) {
    return IOError("simulated crash");
  }
  // The atomic commit point: the manifest appears complete or not at all.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return IOError("cannot swap manifest into place");
  }
  if (renamed != nullptr) *renamed = true;
  if (storage::CrashReached(storage::CrashSite::kManifestAfterRename)) {
    return IOError("simulated crash");
  }
  return OkStatus();
}

bool SnapshotManager::merge_running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return merge_running_;
}

storage::WalStats SnapshotManager::wal_stats() const {
  return wal_ != nullptr ? wal_->stats() : storage::WalStats{};
}

Status SnapshotManager::StartMerge() {
  MergeInput input;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (merge_running_) {
      return FailedPrecondition("a merge is already running");
    }
    if (wal_ != nullptr) {
      // Log the seal boundary and rotate BEFORE mutating anything: if
      // either fails, the delta stays active and no merge starts. The
      // rotation's fsync makes the DeltaSealed record (and everything
      // before it) durable; a replay that sees it reseals at the same
      // cutoff, through the same SealActiveLocked. A DeltaSealed record
      // without a merge behind it is harmless — content is unchanged.
      const std::vector<uint8_t> payload =
          storage::Wal::EncodeDocid(next_docid_);
      X100IR_RETURN_IF_ERROR(
          wal_->Append(storage::WalRecordType::kDeltaSealed, payload.data(),
                       static_cast<uint32_t>(payload.size()), nullptr));
      X100IR_RETURN_IF_ERROR(wal_->Rotate(&input.wal_sealed_seq));
    }
    SealActiveLocked();
    input.segments = segments_;
    input.deltas.assign(deltas_.begin(), deltas_.end() - 1);
    for (Snapshot::DeltaRead& dr : input.deltas) {
      dr.visible = dr.delta->num_docs();
    }
    input.seg_id = next_seg_id_++;
    merge_cutoff_ = next_docid_;
    merge_deletes_.clear();
    merge_running_ = true;
    merge_status_ = OkStatus();
    ++epoch_;
    PublishLocked();
  }
  merge_pool_.Submit(
      [this, in = std::move(input)]() mutable { RunMerge(std::move(in)); });
  return OkStatus();
}

Status SnapshotManager::WaitMerge() {
  std::unique_lock<std::mutex> lock(mu_);
  merge_cv_.wait(lock, [this] { return !merge_running_; });
  return merge_status_;
}

Status SnapshotManager::Merge() {
  X100IR_RETURN_IF_ERROR(StartMerge());
  return WaitMerge();
}

Status SnapshotManager::BuildMergedSegment(const MergeInput& input,
                                           std::shared_ptr<Segment>* out) {
  // Merged docids number every live input document in global docid order:
  // segments first (ascending bases, ascending within), then the sealed
  // deltas, whose bases are by construction above every committed
  // segment's globals. remap[i][local] is input i's document's merged
  // docid, -1 when it is tombstoned (segments, then deltas). The same pass
  // encodes the merged forward store from the live documents, a chunk at a
  // time, and sizes the TD table.
  const uint32_t vocab = corpus_->vocab_size();
  std::vector<std::vector<int32_t>> remap;
  std::vector<int32_t> globals;
  TdTable td;
  uint64_t postings = 0;
  CorpusWriter forward(vocab);
  Status added;
  for (const Snapshot::SegmentRead& sr : input.segments) {
    const uint64_t* bits =
        sr.tombstones != nullptr ? sr.tombstones->data() : nullptr;
    const Segment& seg = *sr.seg;
    std::vector<int32_t>& map = remap.emplace_back(seg.num_docs(), -1);
    seg.forward().ForEachDoc(
        0, seg.num_docs(), [&](uint32_t local, const DocTerm* doc, uint32_t n) {
          if (!added.ok() || TombstoneTest(bits, static_cast<int32_t>(local))) {
            return;
          }
          map[local] = static_cast<int32_t>(globals.size());
          globals.push_back(seg.GlobalOf(static_cast<int32_t>(local)));
          td.doc_lens.push_back(seg.doc_len(local));
          postings += n;
          added = forward.Add(doc, n);
        });
    X100IR_RETURN_IF_ERROR(added);
  }
  for (const Snapshot::DeltaRead& dr : input.deltas) {
    const uint64_t* bits =
        dr.tombstones != nullptr ? dr.tombstones->data() : nullptr;
    std::vector<int32_t>& map = remap.emplace_back(dr.visible, -1);
    for (uint32_t local = 0; local < dr.visible; ++local) {
      if (TombstoneTest(bits, static_cast<int32_t>(local))) continue;
      const std::vector<DocTerm>& doc = dr.delta->doc(local);
      map[local] = static_cast<int32_t>(globals.size());
      globals.push_back(dr.delta->base_docid() + static_cast<int32_t>(local));
      td.doc_lens.push_back(dr.delta->doc_len(local));
      postings += doc.size();
      X100IR_RETURN_IF_ERROR(
          forward.Add(doc.data(), static_cast<uint32_t>(doc.size())));
    }
  }
  if (globals.empty()) {
    // Everything is deleted: the merge commits an empty segment set.
    out->reset();
    return OkStatus();
  }
  Corpus merged_forward;
  X100IR_RETURN_IF_ERROR(forward.Finish(&merged_forward));

  // The posting-list merge: term by term, each segment's resident
  // compressed postings, then each sealed delta's, with tombstoned
  // documents dropped and docids remapped. Inputs follow in global order,
  // so every term's merged docids ascend, as an inversion of the live
  // documents would place them.
  td.terms.assign(vocab, TermInfo());
  td.docids.reserve(postings);
  td.tfs.reserve(postings);
  std::vector<TdWindows> columns;
  for (const Snapshot::SegmentRead& sr : input.segments) {
    columns.emplace_back(sr.seg->index());
  }
  // One term's copy of a sealed delta's postings (td.doc_lens took each
  // live document's length once, above).
  std::vector<uint32_t> term(1);
  DeltaPostings copy;
  for (uint32_t t = 0; t < vocab; ++t) {
    TermInfo& info = td.terms[t];
    const auto append = [&td, &info](const std::vector<int32_t>& map,
                                     int32_t local, int32_t tf) {
      const int32_t merged = map[local];
      if (merged < 0) return;
      td.docids.push_back(merged);
      td.tfs.push_back(tf);
      ++info.doc_freq;
      info.max_tf = std::max(info.max_tf, tf);
    };
    size_t part = 0;
    for (TdWindows& column : columns) {
      const std::vector<int32_t>& map = remap[part++];
      const TermInfo& range = column.index().term(t);
      column.ForEach(range.posting_start,
                     range.posting_start + range.doc_freq,
                     [&](int32_t local, int32_t tf) { append(map, local, tf); });
    }
    for (const Snapshot::DeltaRead& dr : input.deltas) {
      const std::vector<int32_t>& map = remap[part++];
      term[0] = t;
      dr.delta->CollectPostings(term, dr.visible, /*with_doc_lens=*/false,
                                &copy);
      for (size_t i = 0; i < copy.docids.size(); ++i) {
        append(map, copy.docids[i], copy.tfs[i]);
      }
    }
  }
  remap.clear();

  const std::string dir = dir_.empty() ? "" : SegDir(dir_, input.seg_id);
  std::unique_ptr<Segment> seg;
  X100IR_RETURN_IF_ERROR(Segment::Build(std::move(td),
                                        std::move(merged_forward),
                                        std::move(globals), dir, pool_.get(),
                                        input.seg_id, &seg));
  *out = std::shared_ptr<Segment>(std::move(seg));
  return OkStatus();
}

void SnapshotManager::RunMerge(MergeInput input) {
  std::shared_ptr<Segment> merged;
  Status s = BuildMergedSegment(input, &merged);
  if (s.ok() &&
      storage::CrashReached(storage::CrashSite::kMergeAfterSegmentBuild)) {
    // The segment's files are complete on disk but nothing references
    // them; the next Open sweeps the orphan directory.
    s = IOError("simulated crash");
  }
  bool committed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (s.ok()) s = CommitMergeLocked(input, merged, &committed);
    if (!s.ok() && !committed && merged != nullptr) {
      // The built-but-uncommitted segment is garbage: arm deletion and let
      // the release below (outside no snapshot ever saw it) clean up. A
      // *committed* merge that failed post-commit (MergeCommitted append,
      // WAL truncation) keeps its segment — it is live in the manifest.
      merged->set_retire_on_release();
    }
    merge_status_ = s;
  }
  // Drop every reference this merge holds BEFORE announcing completion: a
  // WaitMerge caller may be the only other holder of a replaced segment and
  // expects its release to be the last one. Retirement deletes files, so it
  // must also happen outside mu_.
  merged.reset();
  input = MergeInput();
  {
    std::lock_guard<std::mutex> lock(mu_);
    merge_running_ = false;
  }
  merge_cv_.notify_all();
}

Status SnapshotManager::CommitMergeLocked(const MergeInput& input,
                                          std::shared_ptr<Segment> merged,
                                          bool* committed) {
  *committed = false;
  // Deletes that landed during the merge targeted documents the merge
  // carried forward — re-apply them as tombstones on the new segment.
  TombstoneBits merged_tombs;
  if (merged != nullptr) {
    std::vector<uint64_t> words;
    for (int32_t g : merge_deletes_) {
      const int32_t local = merged->LocalOf(g);
      if (local < 0) return Internal("merge journal names an unmerged doc");
      // Full-coverage sizing, same invariant as SetBitCow.
      words.resize(merged->num_docs() / 64 + 1, 0);
      words[static_cast<uint32_t>(local) / 64] |=
          1ull << (static_cast<uint32_t>(local) % 64);
    }
    if (!words.empty()) {
      merged_tombs = std::make_shared<std::vector<uint64_t>>(std::move(words));
    }
  }

  std::vector<Snapshot::SegmentRead> next;
  if (merged != nullptr) next.push_back({merged, merged_tombs});
  Status status;
  if (!dir_.empty()) {
    // Before the rename nothing live has changed, so a failure here returns
    // with nothing to undo: every delete that landed during the merge stays
    // applied, and the sealed deltas feed the next attempt.
    status = WriteManifestLocked(next, epoch_ + 1, committed);
    if (!*committed) return status;
  }
  // The rename happened (or there is no manifest): the merge is committed
  // even if the crash simulation fired right after it. Install exactly what
  // the manifest says, then report any failure without undoing anything.
  *committed = true;
  std::vector<Snapshot::SegmentRead> old =
      std::exchange(segments_, std::move(next));
  deltas_.erase(deltas_.begin(),
                deltas_.begin() +
                    static_cast<std::ptrdiff_t>(input.deltas.size()));
  ++epoch_;
  for (const Snapshot::SegmentRead& sr : old) sr.seg->set_retire_on_release();
  PublishLocked();
  if (status.ok() && wal_ != nullptr) {
    // Marker + truncation. The marker is informational (replay skips it);
    // the truncation is what reclaims the pre-rotation files whose every
    // record the manifest now carries. Failures here leave stale files
    // whose replay is idempotent, so the commit stands.
    const std::vector<uint8_t> payload =
        storage::Wal::EncodeMergeCommitted(merge_cutoff_, epoch_);
    uint64_t lsn = 0;
    status = wal_->Append(storage::WalRecordType::kMergeCommitted,
                          payload.data(),
                          static_cast<uint32_t>(payload.size()), &lsn);
    if (status.ok()) status = wal_->Sync(lsn);
    if (status.ok()) status = wal_->DropFilesUpTo(input.wal_sealed_seq);
  }
  return status;
}

}  // namespace x100ir::ir
