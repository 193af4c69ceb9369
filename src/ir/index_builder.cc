#include "ir/index_builder.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iterator>
#include <limits>
#include <utility>

#include "common/fork_join.h"
#include "common/string_util.h"
#include "compress/pfor.h"
#include "compress/pfor_delta.h"
#include "ir/bm25.h"
#include "storage/crash_point.h"
#include "storage/file.h"

namespace x100ir::ir {
namespace {

// Opens a column file for streaming: creates it and appends its header.
Status OpenColumnFile(const std::string& path, uint32_t encoding,
                      uint64_t value_count, storage::FileWriter* writer) {
  ColumnFileHeader hdr;
  hdr.encoding = encoding;
  hdr.value_count = value_count;
  X100IR_RETURN_IF_ERROR(writer->Open(path));
  return writer->Append(&hdr, sizeof(hdr));
}

Status WriteColumnFile(const std::string& path, uint32_t encoding,
                       uint64_t value_count, const void* payload,
                       size_t payload_bytes) {
  storage::FileWriter writer;
  X100IR_RETURN_IF_ERROR(OpenColumnFile(path, encoding, value_count, &writer));
  X100IR_RETURN_IF_ERROR(writer.Append(payload, payload_bytes));
  return writer.Close();
}

Status ReadColumnFile(const std::string& path, uint32_t expected_encoding,
                      uint64_t* value_count, std::vector<uint8_t>* payload) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return NotFound("cannot open " + path);
  ColumnFileHeader hdr;
  if (std::fread(&hdr, sizeof(hdr), 1, f) != 1 ||
      hdr.magic != ColumnFileHeader::kMagic ||
      hdr.encoding != expected_encoding) {
    std::fclose(f);
    return IOError("bad column header in " + path);
  }
  std::fseek(f, 0, SEEK_END);
  const long end = std::ftell(f);
  if (end < static_cast<long>(sizeof(hdr))) {
    std::fclose(f);
    return IOError("truncated column file " + path);
  }
  payload->resize(static_cast<size_t>(end) - sizeof(hdr));
  std::fseek(f, sizeof(hdr), SEEK_SET);
  const bool ok = payload->empty() ||
                  std::fread(payload->data(), payload->size(), 1, f) == 1;
  std::fclose(f);
  if (!ok) return IOError("short read from " + path);
  *value_count = hdr.value_count;
  return OkStatus();
}

// Places each term's posting range in (term, docid) order and its idf,
// from the df counts.
void CompleteTermTable(uint32_t num_docs, std::vector<TermInfo>* terms) {
  uint64_t start = 0;
  for (TermInfo& t : *terms) {
    t.posting_start = start;
    start += t.doc_freq;
    t.idf = Bm25Idf(num_docs, t.doc_freq);
  }
}

// The T table of `corpus` — per-term df, max tf (the MaxScore bound
// ingredient), idf and posting range in (term, docid) order: the counting
// pass of a build.
std::vector<TermInfo> TermTable(const Corpus& corpus) {
  std::vector<TermInfo> terms(corpus.vocab_size());
  corpus.ForEachDoc(0, corpus.num_docs(),
                    [&terms](uint32_t, const DocTerm* doc, uint32_t n) {
                      for (uint32_t i = 0; i < n; ++i) {
                        TermInfo& info = terms[doc[i].term];
                        ++info.doc_freq;
                        info.max_tf = std::max(info.max_tf, doc[i].tf);
                      }
                    });
  CompleteTermTable(corpus.num_docs(), &terms);
  return terms;
}

// The T table packed as kTermRecordBytes-byte records (index_meta.h): the
// in-memory TermInfo has tail padding, so fields are copied one by one.
std::vector<uint8_t> PackTerms(const std::vector<TermInfo>& terms) {
  std::vector<uint8_t> bytes(terms.size() * kTermRecordBytes);
  uint8_t* p = bytes.data();
  for (const TermInfo& t : terms) {
    std::memcpy(p, &t.posting_start, 8);
    std::memcpy(p + 8, &t.doc_freq, 4);
    std::memcpy(p + 12, &t.idf, 4);
    std::memcpy(p + 16, &t.max_tf, 4);
    p += kTermRecordBytes;
  }
  return bytes;
}

Status UnpackTerms(const std::vector<uint8_t>& bytes, uint64_t count,
                   std::vector<TermInfo>* terms) {
  if (bytes.size() != count * kTermRecordBytes) {
    return Internal("terms file payload size mismatch");
  }
  terms->assign(count, TermInfo());
  const uint8_t* p = bytes.data();
  for (TermInfo& t : *terms) {
    std::memcpy(&t.posting_start, p, 8);
    std::memcpy(&t.doc_freq, p + 8, 4);
    std::memcpy(&t.idf, p + 12, 4);
    std::memcpy(&t.max_tf, p + 16, 4);
    p += kTermRecordBytes;
  }
  return OkStatus();
}

// kBlockMaxFile packed as kBlockMaxRecordBytes-byte records, field by field
// like PackTerms so struct padding never leaks into the format.
std::vector<uint8_t> PackBlockMax(const std::vector<BlockMaxEntry>& entries) {
  std::vector<uint8_t> bytes(entries.size() * kBlockMaxRecordBytes);
  uint8_t* p = bytes.data();
  for (const BlockMaxEntry& e : entries) {
    std::memcpy(p, &e.max_tf, 4);
    std::memcpy(p + 4, &e.min_doclen, 4);
    std::memcpy(p + 8, &e.ub, 4);
    p += kBlockMaxRecordBytes;
  }
  return bytes;
}

// ForkJoin's thread cap for a build mode: every core for an Open's build,
// the calling thread alone for a merge's.
uint32_t MaxThreads(BuildMode mode) {
  return mode == BuildMode::kConcurrent ? UINT32_MAX : 1;
}

// Opens `dec` over `block`: Init checks the header and the deep Validate
// the payload (queries decode these blocks, the path deep validation exists
// for), and the block must hold expected_n values.
Status OpenBlock(const std::vector<uint8_t>& block, uint64_t expected_n,
                 const char* what, compress::BlockDecoder* dec) {
  X100IR_RETURN_IF_ERROR(dec->Init(block.data(), block.size()));
  X100IR_RETURN_IF_ERROR(dec->Validate());
  if (dec->n() != expected_n) {
    return Internal(StrFormat("%s block holds %llu values, expected %llu",
                              what, static_cast<unsigned long long>(dec->n()),
                              static_cast<unsigned long long>(expected_n)));
  }
  return OkStatus();
}

}  // namespace

Status InvertedIndex::LoadColumns(const std::string& dir) {
  // OpenBlock deep-validates the payloads, so a corrupt file fails loudly
  // here and the caller falls back to a rebuild. A valid block of the
  // wrong scheme is refused the same way: the skip cursors read PFOR-DELTA
  // window value bases off the docid column, and the fused scorer unpacks
  // tf windows as patched PFOR.
  const uint64_t n = num_postings_;
  std::vector<uint8_t> docid_block, tf_block;
  uint64_t docid_n = 0, tf_n = 0;
  X100IR_RETURN_IF_ERROR(ReadColumnFile(dir + "/" + kDocidCompressedFile,
                                        ColumnFileHeader::kCompressedBlock,
                                        &docid_n, &docid_block));
  X100IR_RETURN_IF_ERROR(ReadColumnFile(dir + "/" + kTfCompressedFile,
                                        ColumnFileHeader::kCompressedBlock,
                                        &tf_n, &tf_block));
  if (docid_n != n || tf_n != n) {
    return Internal("column files disagree with index.meta");
  }
  compress::BlockDecoder docid, tf;
  X100IR_RETURN_IF_ERROR(OpenBlock(docid_block, n, "docid", &docid));
  X100IR_RETURN_IF_ERROR(OpenBlock(tf_block, n, "tf", &tf));
  if (docid.scheme() != compress::Scheme::kPforDelta) {
    return Internal("docid column is not PFOR-DELTA in " + dir);
  }
  if (tf.scheme() != compress::Scheme::kPfor || tf.naive_layout()) {
    return Internal("tf column is not patched PFOR in " + dir);
  }
  // A vector's move keeps its heap buffer, so the decoders stay valid.
  docid_block_ = std::move(docid_block);
  tf_block_ = std::move(tf_block);
  docid_dec_ = docid;
  tf_dec_ = tf;
  return OkStatus();
}

bool InvertedIndex::SideTablesMatch(const Corpus& corpus) const {
  return doc_lens_ == corpus.doc_lens() &&
         PackTerms(terms_) == PackTerms(TermTable(corpus));
}

Status InvertedIndex::LoadSideTables(const std::string& dir) {
  std::vector<uint8_t> payload;
  uint64_t count = 0;
  X100IR_RETURN_IF_ERROR(ReadColumnFile(
      dir + "/" + kTermsFile, ColumnFileHeader::kOpaque, &count, &payload));
  X100IR_RETURN_IF_ERROR(UnpackTerms(payload, count, &terms_));
  X100IR_RETURN_IF_ERROR(ReadColumnFile(dir + "/" + kDoclenFile,
                                        ColumnFileHeader::kRawI32, &count,
                                        &payload));
  if (payload.size() != count * sizeof(int32_t)) {
    return Internal("doclen file payload size mismatch");
  }
  doc_lens_.assign(count, 0);
  std::memcpy(doc_lens_.data(), payload.data(), payload.size());
  return OkStatus();
}

// Fills blockmax_ from the TD columns (DESIGN.md §12.1). Windows are
// positional (kEntryPointStride postings), so a record can span term
// boundaries — mixing terms only raises each maximum, i.e. over-estimates
// any single term's bound, which stays sound. `ub` is the exact largest
// idf = 1 contribution among the window's postings at the build
// parameters, taken in the same pass that reads each (tf, doclen) for the
// pair bound; the MaxScore executor scales it to live statistics.
void InvertedIndex::ComputeBlockMax(const std::vector<int32_t>& docid_col,
                                    const std::vector<int32_t>& tf_col) {
  constexpr uint64_t kStride = compress::kEntryPointStride;
  const uint64_t n = docid_col.size();
  const uint64_t windows = (n + kStride - 1) / kStride;
  blockmax_.assign(windows, BlockMaxEntry());
  const float inv_avgdl =
      avg_doc_len_ > 0.0 ? static_cast<float>(1.0 / avg_doc_len_) : 0.0f;
  alignas(32) int32_t dl[kStride];
  alignas(32) float score[kStride];
  for (uint64_t w = 0; w < windows; ++w) {
    const uint64_t lo = w * kStride;
    const uint32_t len = static_cast<uint32_t>(std::min(n - lo, kStride));
    const int32_t* tf = tf_col.data() + lo;
    for (uint32_t i = 0; i < len; ++i) dl[i] = doc_lens_[docid_col[lo + i]];
    // MapBm25 computes Bm25One's bits (bm25.h), a vector at a time.
    MapBm25(len, score, tf, dl, 1.0f, kMaterializedK1, kMaterializedB,
            inv_avgdl);
    int32_t max_tf = 0;
    int32_t min_dl = std::numeric_limits<int32_t>::max();
    // Contributions are non-negative, and non-negative floats order as
    // their bit patterns: an integer max reduction, which vectorizes.
    int32_t ub_bits = 0;
    for (uint32_t i = 0; i < len; ++i) {
      int32_t bits;
      std::memcpy(&bits, &score[i], sizeof(bits));
      max_tf = std::max(max_tf, tf[i]);
      min_dl = std::min(min_dl, dl[i]);
      ub_bits = std::max(ub_bits, bits);
    }
    BlockMaxEntry& e = blockmax_[w];
    e.max_tf = max_tf;
    e.min_doclen = min_dl;
    std::memcpy(&e.ub, &ub_bits, sizeof(e.ub));
  }
}

Status InvertedIndex::LoadBlockMax(const std::string& dir) {
  std::vector<uint8_t> payload;
  uint64_t count = 0;
  X100IR_RETURN_IF_ERROR(ReadColumnFile(dir + "/" + kBlockMaxFile,
                                        ColumnFileHeader::kOpaque, &count,
                                        &payload));
  constexpr uint64_t kStride = compress::kEntryPointStride;
  const uint64_t windows = (num_postings_ + kStride - 1) / kStride;
  if (count != windows ||
      payload.size() != windows * kBlockMaxRecordBytes) {
    return Internal("block-max file disagrees with index.meta");
  }
  blockmax_.assign(windows, BlockMaxEntry());
  const uint8_t* p = payload.data();
  for (BlockMaxEntry& e : blockmax_) {
    std::memcpy(&e.max_tf, p, 4);
    std::memcpy(&e.min_doclen, p + 4, 4);
    std::memcpy(&e.ub, p + 8, 4);
    // Structural sanity: negative maxima or a non-finite bound cannot come
    // from any build and would poison the skip condition.
    if (e.max_tf < 0 || e.min_doclen < 0 || !std::isfinite(e.ub) ||
        e.ub < 0.0f) {
      return Internal("corrupt block-max record in " + dir);
    }
    p += kBlockMaxRecordBytes;
  }
  return OkStatus();
}

Status InvertedIndex::EncodeAndPersist(const std::string& dir,
                                       const std::vector<int32_t>& docid_col,
                                       const std::vector<int32_t>& tf_col,
                                       BuildMode mode) {
  const uint64_t n = docid_col.size();
  const bool persist = !dir.empty();
  if (persist) {
    // After a simulated crash nothing reaches disk, not even the directory.
    if (storage::CrashedNow()) return IOError("simulated crash");
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) return IOError("cannot create index dir " + dir);
  }
  // Four independent jobs, each owning its own outputs: every column file
  // but index.meta, the block sources and blockmax_. Each reads only the TD
  // columns and tables that are complete before the first job starts.
  const std::function<Status()> jobs[] = {
      // Docid deltas keep FOR base 0 (force_base): within a posting list
      // deltas are small positives, and the one large negative delta at
      // each term boundary becomes an exception instead of dragging the
      // frame base down for the whole block.
      [&] {
        compress::EncodeOptions opts;
        opts.force_base = true;
        std::vector<uint8_t> block;
        compress::BlockStats stats;
        X100IR_RETURN_IF_ERROR(compress::PforDeltaEncode(
            docid_col.data(), static_cast<uint32_t>(n), opts, &block,
            &stats));
        if (persist) {
          X100IR_RETURN_IF_ERROR(WriteColumnFile(
              dir + "/" + kDocidCompressedFile,
              ColumnFileHeader::kCompressedBlock, n, block.data(),
              block.size()));
        }
        docid_block_ = std::move(block);
        return OpenBlock(docid_block_, n, "docid", &docid_dec_);
      },
      [&] {
        std::vector<uint8_t> block;
        compress::BlockStats stats;
        X100IR_RETURN_IF_ERROR(compress::PforEncode(
            tf_col.data(), static_cast<uint32_t>(n), {}, &block, &stats));
        if (persist) {
          X100IR_RETURN_IF_ERROR(WriteColumnFile(
              dir + "/" + kTfCompressedFile,
              ColumnFileHeader::kCompressedBlock, n, block.data(),
              block.size()));
        }
        tf_block_ = std::move(block);
        return OpenBlock(tf_block_, n, "tf", &tf_dec_);
      },
      // Block-max metadata rides along every build (in-memory, persisted,
      // seg_0 and merged). With a directory the raw columns and the side
      // tables follow, so the directory is loadable without the corpus.
      [&] {
        ComputeBlockMax(docid_col, tf_col);
        if (!persist) return OkStatus();
        X100IR_RETURN_IF_ERROR(WriteColumnFile(
            dir + "/" + kDocidRawFile, ColumnFileHeader::kRawI32, n,
            docid_col.data(), docid_col.size() * sizeof(int32_t)));
        X100IR_RETURN_IF_ERROR(WriteColumnFile(
            dir + "/" + kTfRawFile, ColumnFileHeader::kRawI32, n,
            tf_col.data(), tf_col.size() * sizeof(int32_t)));
        const std::vector<uint8_t> term_bytes = PackTerms(terms_);
        X100IR_RETURN_IF_ERROR(WriteColumnFile(
            dir + "/" + kTermsFile, ColumnFileHeader::kOpaque, terms_.size(),
            term_bytes.data(), term_bytes.size()));
        X100IR_RETURN_IF_ERROR(WriteColumnFile(
            dir + "/" + kDoclenFile, ColumnFileHeader::kRawI32,
            doc_lens_.size(), doc_lens_.data(),
            doc_lens_.size() * sizeof(int32_t)));
        const std::vector<uint8_t> blockmax_bytes = PackBlockMax(blockmax_);
        return WriteColumnFile(dir + "/" + kBlockMaxFile,
                               ColumnFileHeader::kOpaque, blockmax_.size(),
                               blockmax_bytes.data(), blockmax_bytes.size());
      },
      [&] {
        return persist ? MaterializeScores(dir, docid_col, tf_col)
                       : OkStatus();
      },
  };
  X100IR_RETURN_IF_ERROR(ForkJoin(
      std::size(jobs), [&](size_t i) { return jobs[i](); },
      MaxThreads(mode)));
  if (!persist) return OkStatus();
  // Meta last, after every job has joined: a torn or failed run leaves
  // columns without meta, which fails LoadFromDir instead of serving stale
  // files.
  IndexMetaHeader meta;
  meta.num_postings = n;
  meta.num_docs = num_docs_;
  meta.vocab_size = vocab_size();
  return storage::WriteFile(dir + "/" + kIndexMetaFile, &meta, sizeof(meta),
                            nullptr, 0);
}

// The materialized score columns (DESIGN.md §8.4): score[p] is posting p's
// full BM25 contribution under the build-time parameters, so the TCM run
// replaces (tf decode + doclen gather + float kernel) with one column
// scan. The quantized twin stores q = round((score - bias) / scale) with
// scale spanning [min, max] of the column across the full u8 range —
// per-score error is at most scale/2.
//
// Both columns stream out in chunks of kScoreChunk postings, so no n-sized
// score array exists: one pass finds the [min, max] that Q8 needs, a
// second recomputes each chunk's scores — the same Bm25One call in the
// same order, hence the same bits — and appends the chunk to both files.
Status InvertedIndex::MaterializeScores(
    const std::string& dir, const std::vector<int32_t>& docid_col,
    const std::vector<int32_t>& tf_col) const {
  constexpr uint64_t kScoreChunk = 16384;
  const uint64_t n = docid_col.size();
  const float inv_avgdl =
      avg_doc_len_ > 0.0 ? static_cast<float>(1.0 / avg_doc_len_) : 0.0f;
  std::vector<float> scores(std::min(n, kScoreChunk));
  // Scores the postings chunk by chunk into scores[0..len) and calls
  // emit(first, len) after each chunk. The term ranges tile the postings in
  // order, so the term cursor only walks forward.
  const auto for_each_chunk = [&](const auto& emit) -> Status {
    uint32_t t = 0;
    for (uint64_t first = 0; first < n; first += kScoreChunk) {
      const uint64_t end = std::min(n, first + kScoreChunk);
      for (uint64_t p = first; p < end;) {
        while (terms_[t].posting_start + terms_[t].doc_freq <= p) ++t;
        const TermInfo& info = terms_[t];
        const uint64_t stop =
            std::min(end, info.posting_start + info.doc_freq);
        for (; p < stop; ++p) {
          scores[p - first] =
              Bm25One(info.idf, static_cast<float>(tf_col[p]),
                      static_cast<float>(doc_lens_[docid_col[p]]),
                      kMaterializedK1, kMaterializedB, inv_avgdl);
        }
      }
      X100IR_RETURN_IF_ERROR(emit(first, end - first));
    }
    return OkStatus();
  };

  // Pass 1: the first smallest and last largest score, as minmax_element
  // over the whole column would pick them.
  float lo = 0.0f, hi = 0.0f;
  const auto widen_range = [&](uint64_t first, uint64_t len) {
    if (first == 0) lo = hi = scores[0];
    for (uint64_t i = 0; i < len; ++i) {
      if (scores[i] < lo) lo = scores[i];
      if (!(scores[i] < hi)) hi = scores[i];
    }
    return OkStatus();
  };
  X100IR_RETURN_IF_ERROR(for_each_chunk(widen_range));
  Q8Params params;
  params.bias = lo;
  params.scale = hi > lo ? (hi - lo) / 255.0f : 1.0f;
  const float inv_scale = 1.0f / params.scale;

  // Pass 2: both files, chunk by chunk.
  storage::FileWriter f32, q8;
  X100IR_RETURN_IF_ERROR(OpenColumnFile(dir + "/" + kScoreF32File,
                                        ColumnFileHeader::kRawF32, n, &f32));
  X100IR_RETURN_IF_ERROR(OpenColumnFile(dir + "/" + kScoreQ8File,
                                        ColumnFileHeader::kQuantU8, n, &q8));
  X100IR_RETURN_IF_ERROR(q8.Append(&params, sizeof(params)));
  std::vector<uint8_t> codes(scores.size());
  const auto append_chunk = [&](uint64_t, uint64_t len) -> Status {
    for (uint64_t i = 0; i < len; ++i) {
      const float q = std::nearbyint((scores[i] - params.bias) * inv_scale);
      codes[i] = static_cast<uint8_t>(q < 0.0f ? 0.0f
                                               : (q > 255.0f ? 255.0f : q));
    }
    X100IR_RETURN_IF_ERROR(f32.Append(scores.data(), len * sizeof(float)));
    X100IR_RETURN_IF_ERROR(q8.Append(codes.data(), len));
    if (storage::CrashReached(storage::CrashSite::kScoresAfterChunk)) {
      return IOError("simulated crash");
    }
    return OkStatus();
  };
  X100IR_RETURN_IF_ERROR(for_each_chunk(append_chunk));
  X100IR_RETURN_IF_ERROR(f32.Close());
  return q8.Close();
}

Status InvertedIndex::AttachStorage(const std::string& dir,
                                    storage::BufferManager* pool) {
  storage_ = std::make_unique<IndexStorage>();
  storage_->pool = pool;
  IndexStorage* st = storage_.get();
  struct ColumnSpec {
    storage::ColumnReader* reader;
    const char* file;
  };
  const ColumnSpec specs[] = {
      {&st->docid_raw, kDocidRawFile},
      {&st->tf_raw, kTfRawFile},
      {&st->docid_compressed, kDocidCompressedFile},
      {&st->tf_compressed, kTfCompressedFile},
      {&st->score_f32, kScoreF32File},
      {&st->score_q8, kScoreQ8File},
  };
  Status opened;
  for (const ColumnSpec& spec : specs) {
    opened = spec.reader->Open(dir + "/" + spec.file, pool);
    if (opened.ok() && spec.reader->value_count() != num_postings_) {
      opened = Internal(StrFormat(
          "%s holds %llu values, expected %llu", spec.file,
          static_cast<unsigned long long>(spec.reader->value_count()),
          static_cast<unsigned long long>(num_postings_)));
    }
    if (!opened.ok()) {
      storage_.reset();
      return opened;
    }
  }
  return OkStatus();
}

Status InvertedIndex::EvictAll() const {
  if (storage_ == nullptr) {
    return FailedPrecondition("index has no storage layer (in-memory only)");
  }
  return storage_->pool->EvictAll();
}

Status InvertedIndex::BuildFromCorpus(const Corpus& corpus,
                                      const std::string& dir,
                                      storage::BufferManager* pool,
                                      BuildMode mode) {
  if (corpus.num_postings() == 0) {
    return InvalidArgument("corpus has no postings");
  }
  if (corpus.num_postings() > UINT32_MAX) {
    return InvalidArgument("TD table exceeds one block (2^32 postings)");
  }
  TdTable td;
  td.terms = TermTable(corpus);
  td.doc_lens = corpus.doc_lens();

  // Counting sort into (term, docid) order over kInvertJobs contiguous
  // document ranges. The T table's prefix sums place each term's range;
  // within it, each document range's postings follow those of every
  // earlier range, and each range visits its documents in docid order, so
  // docids ascend within each term's range exactly as one sequential pass
  // would place them. First count each range's postings per term, then
  // turn the counts into the range's first slots, then fill.
  constexpr uint32_t kInvertJobs = 4;
  const uint32_t max_threads = MaxThreads(mode);
  const uint32_t num_docs = corpus.num_docs();
  const auto range_begin = [num_docs](size_t r) {
    return static_cast<uint32_t>(uint64_t{num_docs} * r / kInvertJobs);
  };
  std::vector<std::vector<uint64_t>> fill(
      kInvertJobs, std::vector<uint64_t>(td.terms.size(), 0));
  X100IR_RETURN_IF_ERROR(ForkJoin(
      kInvertJobs,
      [&](size_t r) {
        std::vector<uint64_t>& count = fill[r];
        corpus.ForEachDoc(range_begin(r), range_begin(r + 1),
                          [&count](uint32_t, const DocTerm* doc, uint32_t n) {
                            for (uint32_t i = 0; i < n; ++i) {
                              ++count[doc[i].term];
                            }
                          });
        return OkStatus();
      },
      max_threads));
  for (size_t t = 0; t < td.terms.size(); ++t) {
    uint64_t next = td.terms[t].posting_start;
    for (std::vector<uint64_t>& range : fill) {
      next += std::exchange(range[t], next);
    }
  }
  td.docids.resize(corpus.num_postings());
  td.tfs.resize(corpus.num_postings());
  X100IR_RETURN_IF_ERROR(ForkJoin(
      kInvertJobs,
      [&](size_t r) {
        std::vector<uint64_t>& next = fill[r];
        corpus.ForEachDoc(
            range_begin(r), range_begin(r + 1),
            [&](uint32_t d, const DocTerm* doc, uint32_t n) {
              for (uint32_t i = 0; i < n; ++i) {
                const uint64_t pos = next[doc[i].term]++;
                td.docids[pos] = static_cast<int32_t>(d);
                td.tfs[pos] = doc[i].tf;
              }
            });
        return OkStatus();
      },
      max_threads));
  fill.clear();
  return BuildFromTd(std::move(td), dir, pool, mode);
}

// The derived stats exactly as Corpus::Finalize computes them (integer
// total, one double division), so a built, merged or loaded segment scores
// bit-identically to one built from the corpus.
void InvertedIndex::ComputeDocLenStats() {
  uint64_t total_len = 0;
  for (const int32_t len : doc_lens_) total_len += static_cast<uint64_t>(len);
  avg_doc_len_ = num_docs_ == 0 ? 0.0
                                : static_cast<double>(total_len) /
                                      static_cast<double>(num_docs_);
  min_doc_len_ = doc_lens_.empty()
                     ? 0
                     : *std::min_element(doc_lens_.begin(), doc_lens_.end());
}

Status InvertedIndex::BuildFromTd(TdTable td, const std::string& dir,
                                  storage::BufferManager* pool,
                                  BuildMode mode) {
  const uint64_t n = td.docids.size();
  if (n == 0) return InvalidArgument("TD table has no postings");
  if (n > UINT32_MAX) {
    return InvalidArgument("TD table exceeds one block (2^32 postings)");
  }
  if (td.tfs.size() != n) {
    return InvalidArgument("TD table docid and tf columns differ in length");
  }
  if (!dir.empty() && pool == nullptr) {
    return InvalidArgument("an on-disk index needs a buffer pool");
  }
  num_docs_ = static_cast<uint32_t>(td.doc_lens.size());
  num_postings_ = n;
  doc_lens_ = std::move(td.doc_lens);
  ComputeDocLenStats();
  terms_ = std::move(td.terms);
  CompleteTermTable(num_docs_, &terms_);
  if (terms_.empty() ||
      terms_.back().posting_start + terms_.back().doc_freq != n) {
    return InvalidArgument("T table df sum disagrees with the TD table");
  }
  X100IR_RETURN_IF_ERROR(EncodeAndPersist(dir, td.docids, td.tfs, mode));
  return dir.empty() ? OkStatus() : AttachStorage(dir, pool);
}

Status InvertedIndex::LoadFromDir(const std::string& dir,
                                  storage::BufferManager* pool) {
  if (dir.empty() || pool == nullptr) {
    return InvalidArgument("LoadFromDir needs a directory and a pool");
  }
  std::FILE* f = std::fopen((dir + "/" + kIndexMetaFile).c_str(), "rb");
  if (f == nullptr) return NotFound("no index.meta under " + dir);
  IndexMetaHeader meta;
  const bool read_ok = std::fread(&meta, sizeof(meta), 1, f) == 1;
  std::fclose(f);
  if (!read_ok || meta.magic != IndexMetaHeader::kMagic ||
      meta.version != IndexMetaHeader::kVersion) {
    return IOError("bad index.meta under " + dir);
  }
  num_postings_ = meta.num_postings;
  num_docs_ = meta.num_docs;

  X100IR_RETURN_IF_ERROR(LoadSideTables(dir));
  if (terms_.size() != meta.vocab_size ||
      doc_lens_.size() != meta.num_docs) {
    return Internal("side tables disagree with index.meta");
  }
  ComputeDocLenStats();
  uint64_t expect_start = 0;
  for (const TermInfo& t : terms_) {
    if (t.posting_start != expect_start) {
      return Internal("terms file posting ranges are not contiguous");
    }
    expect_start += t.doc_freq;
  }
  if (expect_start != num_postings_) {
    return Internal("terms file df sum disagrees with index.meta");
  }
  X100IR_RETURN_IF_ERROR(LoadColumns(dir));
  X100IR_RETURN_IF_ERROR(LoadBlockMax(dir));
  return AttachStorage(dir, pool);
}

Status InvertedIndex::DecodePostings(uint32_t term,
                                     std::vector<int32_t>* docids,
                                     std::vector<int32_t>* tfs) const {
  if (term >= terms_.size()) return InvalidArgument("term out of range");
  const TermInfo& info = terms_[term];
  if (docids != nullptr) {
    docids->resize(info.doc_freq);
    if (info.doc_freq > 0) {
      docid_dec_.Decode(static_cast<uint32_t>(info.posting_start),
                        info.doc_freq, docids->data());
    }
  }
  if (tfs != nullptr) {
    tfs->resize(info.doc_freq);
    if (info.doc_freq > 0) {
      tf_dec_.Decode(static_cast<uint32_t>(info.posting_start), info.doc_freq,
                     tfs->data());
    }
  }
  return OkStatus();
}

}  // namespace x100ir::ir
