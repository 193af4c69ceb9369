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

// Rebuilds a merged segment's forward store from its TD columns, one chunk
// of documents at a time, with raw staging for one chunk. One pass over the
// docid column counts each document's terms, which places every document's
// slots in its chunk. Each term keeps a cursor: a chunk takes over every
// term's postings below the chunk's end, terms ascending, so each document
// comes out normalized. Corrupt columns (a docid out of range or out of
// order, a document without terms) fail the load.
Status TransposeForwardStore(const InvertedIndex& index, Corpus* out) {
  constexpr uint32_t kWindow = compress::kEntryPointStride;
  const uint32_t n = index.num_docs();
  const uint32_t vocab = index.vocab_size();
  const uint64_t postings = index.num_postings();
  int32_t docids[kWindow];
  int32_t tfs[kWindow];
  std::vector<uint32_t> counts(n, 0);
  for (uint64_t pos = 0; pos < postings; pos += kWindow) {
    const auto len = static_cast<uint32_t>(
        std::min<uint64_t>(kWindow, postings - pos));
    index.docid_decoder()->Decode(static_cast<uint32_t>(pos), len, docids);
    for (uint32_t i = 0; i < len; ++i) {
      if (docids[i] < 0 || static_cast<uint32_t>(docids[i]) >= n) {
        return IOError("segment postings reference an out-of-range docid");
      }
      ++counts[docids[i]];
    }
  }
  // Per term, the next posting to take over and a lower bound on its
  // docid: 0 until a chunk stops in front of it, then that docid.
  std::vector<uint64_t> next(vocab);
  for (uint32_t t = 0; t < vocab; ++t) next[t] = index.term(t).posting_start;
  std::vector<int32_t> next_doc(vocab, 0);
  CorpusWriter writer(vocab);
  std::vector<uint32_t> slot;
  std::vector<DocTerm> staged;
  for (uint32_t lo = 0; lo < n; lo += kCorpusChunkDocs) {
    const uint32_t hi = std::min(n, lo + kCorpusChunkDocs);
    slot.assign(hi - lo + 1, 0);
    for (uint32_t d = lo; d < hi; ++d) {
      slot[d - lo + 1] = slot[d - lo] + counts[d];
    }
    staged.resize(slot[hi - lo]);
    for (uint32_t t = 0; t < vocab; ++t) {
      const TermInfo& info = index.term(t);
      const uint64_t end = info.posting_start + info.doc_freq;
      while (next_doc[t] < static_cast<int32_t>(hi) && next[t] < end) {
        const uint64_t pos = next[t];
        const auto len = static_cast<uint32_t>(
            std::min<uint64_t>(end - pos, kWindow - pos % kWindow));
        index.docid_decoder()->Decode(static_cast<uint32_t>(pos), len,
                                      docids);
        index.tf_decoder()->Decode(static_cast<uint32_t>(pos), len, tfs);
        uint32_t i = 0;
        for (; i < len && docids[i] < static_cast<int32_t>(hi); ++i) {
          if (docids[i] < static_cast<int32_t>(lo)) {
            return IOError("segment postings are not in docid order");
          }
          staged[slot[docids[i] - lo]++] = {t, tfs[i]};
        }
        next[t] = pos + i;
        if (i < len) next_doc[t] = docids[i];
      }
    }
    // Every slot cursor now sits at its document's end.
    const DocTerm* doc = staged.data();
    for (uint32_t d = lo; d < hi; ++d) {
      X100IR_RETURN_IF_ERROR(writer.Add(doc, counts[d]));
      doc += counts[d];
    }
  }
  return writer.Finish(out);
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

Status Segment::Build(TdTable td, Corpus forward,
                      std::vector<int32_t> global_docids,
                      const std::string& dir, storage::BufferManager* pool,
                      uint32_t seg_id, std::unique_ptr<Segment>* out) {
  if (forward.num_docs() != global_docids.size() ||
      td.doc_lens.size() != global_docids.size()) {
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
  seg->owned_ = std::make_unique<Corpus>(std::move(forward));
  seg->forward_ = seg->owned_.get();
  X100IR_RETURN_IF_ERROR(
      seg->index_.BuildFromTd(std::move(td), dir, pool, BuildMode::kInline));
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
  seg->owned_ = std::make_unique<Corpus>();
  X100IR_RETURN_IF_ERROR(TransposeForwardStore(seg->index_, seg->owned_.get()));
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
