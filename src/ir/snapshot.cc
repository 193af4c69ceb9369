#include "ir/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/string_util.h"
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

// Deletes every on-disk trace of segmented state under `root` (manifest
// and seg_* directories) — the clean-rebuild fallback for a torn or
// mismatched manifest. The base segment's column files stay: the fresh
// open will reuse or rebuild them through the normal fingerprint check.
void RemoveSegmentedState(const std::string& root) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::remove(root + "/" + kManifestFile, ec);
  fs::remove(root + "/" + kManifestTmpFile, ec);
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    if (entry.is_directory(ec) &&
        entry.path().filename().string().rfind("seg_", 0) == 0) {
      fs::remove_all(entry.path(), ec);
    }
  }
}

// Sweeps seg_* directories the adopted manifest does not reference, plus a
// stranded MANIFEST.tmp — the debris a crash between segment build and
// manifest commit (or between commit and retirement) leaves behind. Safe
// because every committed segment is listed in the manifest by definition,
// and seg-id reuse after a crashed merge overwrites rather than trips.
void SweepUnreferencedSegments(const std::string& root,
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

}  // namespace

SnapshotManager::~SnapshotManager() {
  // Joining here (not relying on merge_pool_'s own destructor) makes the
  // shutdown order explicit: the background merge finishes before any
  // member it touches starts dying.
  merge_pool_.Shutdown();
}

StorageBinding SnapshotManager::BindingFor(uint32_t seg_id) const {
  StorageBinding b;
  b.pool = pool_.get();
  b.file_id_base = seg_id * IndexStorage::kFilesPerIndex;
  return b;
}

Status SnapshotManager::Open(const Corpus* corpus, const std::string& dir,
                             const storage::StorageOptions& storage,
                             BuildStats* stats) {
  if (corpus == nullptr) return InvalidArgument("snapshot manager needs a corpus");
  if (stats == nullptr) return InvalidArgument("null build stats");
  corpus_ = corpus;
  dir_ = dir;
  storage_opts_ = storage;
  if (!dir_.empty()) {
    disk_ = std::make_unique<storage::SimulatedDisk>(storage.disk);
    pool_ = std::make_unique<storage::BufferManager>(
        storage.pool_bytes, disk_.get(), storage.page_bytes, storage.shards);
    pool_->set_retry_policy(storage.retry);
  }

  std::lock_guard<std::mutex> lock(mu_);
  Status adopted = dir_.empty() ? NotFound("in-memory database")
                                : TryLoadManifest(stats);
  if (adopted.ok()) {
    // Clear the debris of crashed merges: built-but-uncommitted segment
    // dirs and a stranded MANIFEST.tmp.
    std::vector<uint32_t> live_ids;
    for (const Snapshot::SegmentRead& sr : segments_) {
      live_ids.push_back(sr.seg->seg_id());
    }
    SweepUnreferencedSegments(dir_, live_ids);
  } else {
    // No manifest (fresh/legacy directory) or an unusable one (torn swap,
    // corpus mismatch, torn segment): clean rebuild from the corpus. The
    // corpus is generative, so this loses nothing that was ever merged
    // under a *valid* manifest — only state the torn write already lost.
    // An *unusable* (vs merely absent) manifest also invalidates the WAL:
    // its records were framed against state the rebuild does not restore.
    if (!dir_.empty()) {
      RemoveSegmentedState(dir_);
      if (adopted.code() != StatusCode::kNotFound) {
        storage::Wal::RemoveFiles(dir_);
      }
    }
    segments_.clear();
    std::unique_ptr<Segment> base;
    X100IR_RETURN_IF_ERROR(
        Segment::OpenBase(corpus_, dir_, stats, BindingFor(0), &base));
    segments_.push_back({std::shared_ptr<Segment>(std::move(base)), nullptr});
    epoch_ = 0;
    next_seg_id_ = 1;
    next_docid_ = static_cast<int32_t>(corpus_->num_docs());
    live_num_docs_ = corpus_->num_docs();
    live_total_len_ = 0;
    for (int32_t len : corpus_->doc_lens()) {
      live_total_len_ += static_cast<uint64_t>(len);
    }
    live_df_.assign(corpus_->vocab_size(), 0);
    const InvertedIndex& idx = segments_[0].seg->index();
    for (uint32_t t = 0; t < idx.vocab_size(); ++t) {
      live_df_[t] = idx.term(t).doc_freq;
    }
  }
  sealed_.clear();
  sealed_tombs_.clear();
  delta_ = std::make_shared<DeltaSegment>(corpus_->vocab_size(), next_docid_);
  delta_tombs_.reset();
  merge_deletes_.clear();
  if (!dir_.empty() && storage.wal.enabled) {
    wal_ = std::make_unique<storage::Wal>();
    X100IR_RETURN_IF_ERROR(
        wal_->Open(dir_, corpus_->Fingerprint(), storage.wal));
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
        if (delta_->num_docs() > 0) {
          delta_->Seal();
          sealed_.push_back(delta_);
          sealed_tombs_.push_back(delta_tombs_);
          delta_ = std::make_shared<DeltaSegment>(corpus_->vocab_size(),
                                                  next_docid_);
          delta_tombs_.reset();
        }
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
       hdr.corpus_fingerprint == corpus_->Fingerprint() &&
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
  for (uint32_t i = 0; i < hdr.num_segments; ++i) {
    const ManifestSegment& e = entries[i];
    std::unique_ptr<Segment> seg;
    if (e.seg_id == 0) {
      if (e.num_docs != corpus_->num_docs()) {
        return IOError("manifest base segment disagrees with the corpus");
      }
      X100IR_RETURN_IF_ERROR(
          Segment::OpenBase(corpus_, dir_, stats, BindingFor(0), &seg));
    } else {
      X100IR_RETURN_IF_ERROR(Segment::Load(SegDir(dir_, e.seg_id),
                                           BindingFor(e.seg_id), e.seg_id,
                                           e.num_docs, &seg));
      // A manifest-loaded reuse is a reuse for reporting purposes.
      stats->reused_files = true;
      stats->num_postings += seg->index().num_postings();
    }
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
    const uint64_t* bits =
        sr.tombstones != nullptr ? sr.tombstones->data() : nullptr;
    for (uint32_t local = 0; local < sr.seg->num_docs(); ++local) {
      if (TombstoneTest(bits, static_cast<int32_t>(local))) continue;
      ++live_num_docs_;
      live_total_len_ += static_cast<uint64_t>(sr.seg->doc_len(local));
      for (const DocTerm& dt : sr.seg->doc(local)) ++live_df_[dt.term];
    }
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
  snap->segments = segments_;
  for (size_t i = 0; i < sealed_.size(); ++i) {
    snap->deltas.push_back(
        {sealed_[i], sealed_[i]->num_docs(), sealed_tombs_[i]});
  }
  const uint32_t active_visible = delta_->num_docs();
  if (active_visible > 0) {
    snap->deltas.push_back({delta_, active_visible, delta_tombs_});
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
  // The active delta is only ever sealed while holding mu_ (StartMerge),
  // and sealing installs a fresh active delta in the same critical
  // section, so this Add cannot race a seal.
  int32_t id = -1;
  X100IR_RETURN_IF_ERROR(delta_->Add(std::move(doc), &id));
  // Keep the coverage invariant (SetBitCow): an existing delta bitmap must
  // span the delta's new doc count, or readers of the next snapshot would
  // index past it. COW — earlier snapshots keep their pairing.
  if (delta_tombs_ != nullptr &&
      delta_tombs_->size() < delta_->num_docs() / 64 + 1) {
    auto grown = std::make_shared<std::vector<uint64_t>>(*delta_tombs_);
    grown->resize(delta_->num_docs() / 64 + 1, 0);
    delta_tombs_ = std::move(grown);
  }
  ++live_num_docs_;
  live_total_len_ += static_cast<uint64_t>(len);
  for (const DocTerm& dt : delta_->doc(static_cast<uint32_t>(
           id - delta_->base_docid()))) {
    ++live_df_[dt.term];
  }
  ++next_docid_;
  ++epoch_;
  *docid = id;
  return OkStatus();
}

Status SnapshotManager::FindDeleteTargetLocked(int32_t docid,
                                               DeleteTarget* target) const {
  if (docid < 0 || docid >= next_docid_) {
    return NotFound(StrFormat("docid %d was never allocated", docid));
  }
  if (docid >= delta_->base_docid()) {
    const uint32_t local = static_cast<uint32_t>(docid - delta_->base_docid());
    if (local >= delta_->num_docs()) {
      return NotFound(StrFormat("docid %d was never allocated", docid));
    }
    const uint64_t* bits =
        delta_tombs_ != nullptr ? delta_tombs_->data() : nullptr;
    if (TombstoneTest(bits, static_cast<int32_t>(local))) {
      return NotFound(StrFormat("docid %d is already deleted", docid));
    }
    target->kind = DeleteTarget::Kind::kActiveDelta;
    target->local = local;
    target->doc = &delta_->doc(local);
    target->len = delta_->doc_len(local);
    return OkStatus();
  }
  for (size_t i = 0; i < sealed_.size(); ++i) {
    const DeltaSegment& sd = *sealed_[i];
    if (docid < sd.base_docid() ||
        docid >= sd.base_docid() + static_cast<int32_t>(sd.num_docs())) {
      continue;
    }
    const uint32_t local = static_cast<uint32_t>(docid - sd.base_docid());
    const uint64_t* bits =
        sealed_tombs_[i] != nullptr ? sealed_tombs_[i]->data() : nullptr;
    if (TombstoneTest(bits, static_cast<int32_t>(local))) {
      return NotFound(StrFormat("docid %d is already deleted", docid));
    }
    target->kind = DeleteTarget::Kind::kSealedDelta;
    target->index = i;
    target->local = local;
    target->doc = &sd.doc(local);
    target->len = sd.doc_len(local);
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
    target->kind = DeleteTarget::Kind::kSegment;
    target->index = i;
    target->local = static_cast<uint32_t>(local);
    target->doc = &sr.seg->doc(static_cast<uint32_t>(local));
    target->len = sr.seg->doc_len(static_cast<uint32_t>(local));
    return OkStatus();
  }
  // Allocated range but between structures: the doc was merged away and
  // its segment replaced — only possible for an already-deleted doc
  // (merges carry every live doc forward).
  return NotFound(StrFormat("docid %d is already deleted", docid));
}

void SnapshotManager::ApplyDeleteLocked(const DeleteTarget& target,
                                        int32_t docid) {
  switch (target.kind) {
    case DeleteTarget::Kind::kActiveDelta:
      delta_tombs_ = SetBitCow(delta_tombs_, target.local,
                               delta_->num_docs());
      break;
    case DeleteTarget::Kind::kSealedDelta:
      sealed_tombs_[target.index] =
          SetBitCow(sealed_tombs_[target.index], target.local,
                    sealed_[target.index]->num_docs());
      break;
    case DeleteTarget::Kind::kSegment:
      segments_[target.index].tombstones =
          SetBitCow(segments_[target.index].tombstones, target.local,
                    segments_[target.index].seg->num_docs());
      break;
  }
  --live_num_docs_;
  live_total_len_ -= static_cast<uint64_t>(target.len);
  for (const DocTerm& dt : *target.doc) --live_df_[dt.term];
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
    const bool persistent_owner =
        target.kind == DeleteTarget::Kind::kSegment;
    ApplyDeleteLocked(target, docid);
    if (wal_ != nullptr) {
      // The WAL is the durability story for every delete — including
      // segment docs, whose tombstones replay onto the adopted manifest —
      // so the per-delete manifest rewrite the volatile era needed is gone.
      const std::vector<uint8_t> payload = storage::Wal::EncodeDocid(docid);
      persisted =
          wal_->Append(storage::WalRecordType::kDeleteDocument,
                       payload.data(), static_cast<uint32_t>(payload.size()),
                       &lsn);
    } else if (persistent_owner && !dir_.empty()) {
      // No WAL: deletes of persisted documents are made durable the old
      // way, re-writing the manifest. A failure leaves the in-memory
      // delete applied and reports the error — the reopen then
      // resurrects, it never loses.
      persisted = WriteManifestLocked();
    }
    PublishLocked();
  }
  if (!persisted.ok()) return persisted;
  // Acknowledgment barrier, outside mu_ (same as AddDocument).
  if (wal_ != nullptr) X100IR_RETURN_IF_ERROR(wal_->Sync(lsn));
  return OkStatus();
}

Status SnapshotManager::WriteManifestLocked(bool* renamed) {
  if (renamed != nullptr) *renamed = false;
  if (storage::CrashedNow()) return IOError("simulated crash");
  const std::string tmp = dir_ + "/" + kManifestTmpFile;
  const std::string path = dir_ + "/" + kManifestFile;
  ManifestHeader hdr;
  hdr.corpus_fingerprint = corpus_->Fingerprint();
  hdr.epoch = epoch_;
  hdr.num_segments = static_cast<uint32_t>(segments_.size());
  hdr.next_seg_id = next_seg_id_;
  hdr.next_docid = next_docid_;
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return IOError("cannot create " + tmp);
  bool ok = std::fwrite(&hdr, sizeof(hdr), 1, f) == 1;
  for (const Snapshot::SegmentRead& sr : segments_) {
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
      // cutoff. A DeltaSealed record without a merge behind it is
      // harmless — replay reseals, content is unchanged.
      const std::vector<uint8_t> payload =
          storage::Wal::EncodeDocid(next_docid_);
      X100IR_RETURN_IF_ERROR(
          wal_->Append(storage::WalRecordType::kDeltaSealed, payload.data(),
                       static_cast<uint32_t>(payload.size()), nullptr));
      X100IR_RETURN_IF_ERROR(wal_->Rotate(&input.wal_sealed_seq));
    }
    delta_->Seal();
    sealed_.push_back(delta_);
    sealed_tombs_.push_back(delta_tombs_);
    delta_ = std::make_shared<DeltaSegment>(corpus_->vocab_size(),
                                            next_docid_);
    delta_tombs_.reset();
    input.segments = segments_;
    for (size_t i = 0; i < sealed_.size(); ++i) {
      input.deltas.push_back(
          {sealed_[i], sealed_[i]->num_docs(), sealed_tombs_[i]});
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
  // Gather every live input document in global docid order: segments come
  // first (ascending bases, ascending within), then the sealed deltas —
  // whose bases are by construction above every committed segment's
  // globals.
  std::vector<std::vector<DocTerm>> docs;
  std::vector<int32_t> globals;
  for (const Snapshot::SegmentRead& sr : input.segments) {
    const uint64_t* bits =
        sr.tombstones != nullptr ? sr.tombstones->data() : nullptr;
    for (uint32_t local = 0; local < sr.seg->num_docs(); ++local) {
      if (TombstoneTest(bits, static_cast<int32_t>(local))) continue;
      globals.push_back(sr.seg->GlobalOf(static_cast<int32_t>(local)));
      docs.push_back(sr.seg->doc(local));
    }
  }
  for (const Snapshot::DeltaRead& dr : input.deltas) {
    const uint64_t* bits =
        dr.tombstones != nullptr ? dr.tombstones->data() : nullptr;
    for (uint32_t local = 0; local < dr.visible; ++local) {
      if (TombstoneTest(bits, static_cast<int32_t>(local))) continue;
      globals.push_back(dr.delta->base_docid() + static_cast<int32_t>(local));
      docs.push_back(dr.delta->doc(local));
    }
  }
  if (docs.empty()) {
    // Everything is deleted: the merge commits an empty segment set.
    out->reset();
    return OkStatus();
  }
  const std::string dir = dir_.empty() ? "" : SegDir(dir_, input.seg_id);
  std::unique_ptr<Segment> seg;
  X100IR_RETURN_IF_ERROR(Segment::Build(std::move(docs), std::move(globals),
                                        corpus_->vocab_size(), dir,
                                        BindingFor(input.seg_id),
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

  std::vector<Snapshot::SegmentRead> old = std::move(segments_);
  segments_.clear();
  if (merged != nullptr) segments_.push_back({merged, merged_tombs});
  sealed_.clear();
  sealed_tombs_.clear();
  ++epoch_;
  if (!dir_.empty()) {
    bool renamed = false;
    Status written = WriteManifestLocked(&renamed);
    if (!written.ok() && !renamed) {
      // The swap never happened: restore the old segment set so the
      // in-memory state keeps matching the on-disk manifest. The sealed
      // delta was already compacted INTO `merged`, which we are dropping —
      // re-adopt it so no document is lost.
      segments_ = std::move(old);
      for (const Snapshot::DeltaRead& dr : input.deltas) {
        sealed_.push_back(dr.delta);
        sealed_tombs_.push_back(dr.tombstones);
      }
      // Deletes that were journaled for the merged segment are already in
      // the old structures' tombstones (DeleteDocument sets both), so
      // nothing to replay.
      PublishLocked();
      return written;
    }
    // The rename happened: the merge is committed on disk even if the
    // crash simulation fired right after it. Finish the in-memory commit
    // and report the failure without undoing anything.
    *committed = true;
    Status post = written;
    if (post.ok() && wal_ != nullptr) {
      // Marker + truncation. The marker is informational (replay skips
      // it); the truncation is what reclaims the pre-rotation files whose
      // every record the manifest now carries. Failures here leave stale
      // files whose replay is idempotent, so the commit stands.
      const std::vector<uint8_t> payload = storage::Wal::EncodeMergeCommitted(
          merge_cutoff_, epoch_);
      uint64_t lsn = 0;
      post = wal_->Append(storage::WalRecordType::kMergeCommitted,
                          payload.data(),
                          static_cast<uint32_t>(payload.size()), &lsn);
      if (post.ok()) post = wal_->Sync(lsn);
      if (post.ok()) post = wal_->DropFilesUpTo(input.wal_sealed_seq);
    }
    if (!post.ok()) {
      for (const Snapshot::SegmentRead& sr : old) {
        sr.seg->set_retire_on_release();
      }
      PublishLocked();
      return post;
    }
  }
  for (const Snapshot::SegmentRead& sr : old) {
    sr.seg->set_retire_on_release();
  }
  PublishLocked();
  return OkStatus();
}

}  // namespace x100ir::ir
