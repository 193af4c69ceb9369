#include "ir/segment.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/string_util.h"
#include "ir/index_meta.h"
#include "storage/crash_point.h"
#include "storage/file.h"

namespace x100ir::ir {
namespace {

Status ReadSegmentMeta(const std::string& path, uint32_t expect_seg_id,
                       uint32_t expect_num_docs,
                       std::vector<int32_t>* global_docids) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return NotFound("cannot open " + path);
  SegmentMetaHeader hdr;
  bool ok = std::fread(&hdr, sizeof(hdr), 1, f) == 1;
  ok = ok && hdr.magic == SegmentMetaHeader::kMagic &&
       hdr.version == SegmentMetaHeader::kVersion &&
       hdr.seg_id == expect_seg_id && hdr.num_docs == expect_num_docs;
  if (ok) {
    global_docids->resize(hdr.num_docs);
    ok = hdr.num_docs == 0 ||
         std::fread(global_docids->data(), hdr.num_docs * sizeof(int32_t), 1,
                    f) == 1;
  }
  std::fclose(f);
  if (!ok) return IOError("bad or torn segment meta " + path);
  for (uint32_t i = 1; i < hdr.num_docs; ++i) {
    if ((*global_docids)[i] <= (*global_docids)[i - 1]) {
      return IOError("segment docid map not strictly increasing in " + path);
    }
  }
  return OkStatus();
}

}  // namespace

Status Segment::Build(const Corpus* corpus, const std::string& dir,
                      storage::BufferManager* pool,
                      std::unique_ptr<Segment>* out) {
  if (corpus == nullptr) return InvalidArgument("seg_0 needs a corpus");
  auto seg = std::unique_ptr<Segment>(new Segment());
  seg->dir_ = dir;
  seg->forward_ = corpus;
  X100IR_RETURN_IF_ERROR(seg->index_.BuildFromCorpus(
      *corpus, dir, pool, BuildMode::kConcurrent));
  *out = std::move(seg);
  return OkStatus();
}

Status Segment::Build(std::vector<std::vector<DocTerm>> docs,
                      std::vector<int32_t> global_docids, uint32_t vocab_size,
                      const std::string& dir, storage::BufferManager* pool,
                      uint32_t seg_id, std::unique_ptr<Segment>* out) {
  if (docs.size() != global_docids.size()) {
    return InvalidArgument("segment build: docs / docid map size mismatch");
  }
  for (size_t i = 1; i < global_docids.size(); ++i) {
    if (global_docids[i] <= global_docids[i - 1]) {
      return InvalidArgument(
          "segment build: global docids must be strictly increasing");
    }
  }
  auto seg = std::unique_ptr<Segment>(new Segment());
  seg->seg_id_ = seg_id;
  seg->dir_ = dir;
  seg->owned_ = std::make_unique<Corpus>();
  X100IR_RETURN_IF_ERROR(
      Corpus::FromDocTerms(std::move(docs), vocab_size, seg->owned_.get()));
  seg->forward_ = seg->owned_.get();
  X100IR_RETURN_IF_ERROR(
      seg->index_.BuildFromCorpus(*seg->owned_, dir, pool));
  seg->docid_map_ = std::move(global_docids);
  if (!dir.empty()) {
    SegmentMetaHeader hdr;
    hdr.seg_id = seg_id;
    hdr.num_docs = static_cast<uint32_t>(seg->docid_map_.size());
    X100IR_RETURN_IF_ERROR(storage::WriteFile(
        dir + "/" + kSegmentMetaFile, &hdr, sizeof(hdr),
        seg->docid_map_.data(), seg->docid_map_.size() * sizeof(int32_t)));
  }
  *out = std::move(seg);
  return OkStatus();
}

Status Segment::Load(const std::string& dir, storage::BufferManager* pool,
                     uint32_t seg_id, uint32_t expect_num_docs,
                     const Corpus* corpus, std::unique_ptr<Segment>* out) {
  auto seg = std::unique_ptr<Segment>(new Segment());
  seg->seg_id_ = seg_id;
  seg->dir_ = dir;
  X100IR_RETURN_IF_ERROR(seg->index_.LoadFromDir(dir, pool));
  if (seg->index_.num_docs() != expect_num_docs) {
    return IOError(StrFormat("segment %u holds %u docs, manifest says %u",
                             seg_id, seg->index_.num_docs(),
                             expect_num_docs));
  }
  if (seg_id == 0) {
    if (corpus == nullptr || !seg->index_.SideTablesMatch(*corpus)) {
      return IOError("seg_0 does not index the database's corpus");
    }
    seg->forward_ = corpus;
    *out = std::move(seg);
    return OkStatus();
  }
  X100IR_RETURN_IF_ERROR(ReadSegmentMeta(dir + "/" + kSegmentMetaFile, seg_id,
                                         expect_num_docs, &seg->docid_map_));
  // Reconstruct the forward store by inverting the postings: one pass over
  // the docid column counts each document's terms, so every document is
  // allocated at its exact size before a second pass fills it. Terms
  // ascend in the outer loop, so each rebuilt document is normalized by
  // construction; the doclens FromDocTerms recomputes are cross-checked
  // against the persisted doclen column below.
  const uint32_t n = seg->index_.num_docs();
  const uint32_t vocab = seg->index_.vocab_size();
  std::vector<uint32_t> doc_terms(n, 0);
  std::vector<int32_t> docids, tfs;
  for (uint32_t t = 0; t < vocab; ++t) {
    if (seg->index_.term(t).doc_freq == 0) continue;
    X100IR_RETURN_IF_ERROR(seg->index_.DecodePostings(t, &docids, nullptr));
    for (const int32_t d : docids) {
      if (d < 0 || static_cast<uint32_t>(d) >= n) {
        return IOError("segment postings reference an out-of-range docid");
      }
      ++doc_terms[d];
    }
  }
  std::vector<std::vector<DocTerm>> docs(n);
  for (uint32_t d = 0; d < n; ++d) docs[d].reserve(doc_terms[d]);
  for (uint32_t t = 0; t < vocab; ++t) {
    if (seg->index_.term(t).doc_freq == 0) continue;
    X100IR_RETURN_IF_ERROR(seg->index_.DecodePostings(t, &docids, &tfs));
    for (size_t i = 0; i < docids.size(); ++i) {
      docs[docids[i]].push_back({t, tfs[i]});
    }
  }
  seg->owned_ = std::make_unique<Corpus>();
  X100IR_RETURN_IF_ERROR(Corpus::FromDocTerms(
      std::move(docs), seg->index_.vocab_size(), seg->owned_.get()));
  if (seg->owned_->doc_lens() != seg->index_.doc_lens()) {
    return IOError("segment postings disagree with the doclen column");
  }
  seg->forward_ = seg->owned_.get();
  *out = std::move(seg);
  return OkStatus();
}

int32_t Segment::LocalOf(int32_t global) const {
  if (docid_map_.empty()) {
    return global >= 0 && static_cast<uint32_t>(global) < num_docs() ? global
                                                                     : -1;
  }
  const auto it =
      std::lower_bound(docid_map_.begin(), docid_map_.end(), global);
  if (it == docid_map_.end() || *it != global) return -1;
  return static_cast<int32_t>(it - docid_map_.begin());
}

Segment::~Segment() {
  if (!retire_.load(std::memory_order_acquire) || dir_.empty()) return;
  // After a simulated crash nothing touches disk — not even retirement.
  // Leftover files of never-committed segments are swept on the next Open.
  if (storage::CrashedNow()) return;
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

}  // namespace x100ir::ir
