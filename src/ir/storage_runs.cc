// The Table 2 storage-era runs (DESIGN.md §8.5): BM25T / BM25TC / BM25TCM /
// BM25TCMQ8. Each runs the Block-Max MaxScore executor of the in-memory
// BM25 run (ir/maxscore.h) over columns served through the buffer pool;
// the four differ only in which columns they read and how a value column
// window becomes scores:
//
//             docid column   value column        score =
//   BM25T     raw i32        raw tf              MapBm25(tf, doclen)
//   BM25TC    PFOR-DELTA     PFOR tf             MapBm25(tf, doclen)
//   BM25TCM   PFOR-DELTA     f32 score           the value itself
//   BM25TCMQ8 PFOR-DELTA     u8 quantized score  bias + scale * q
//
// BM25T/TC score under the call's statistics (the snapshot's live ones on a
// segmented read) with the kernels whose bits are pinned equal to the
// in-memory fused kernel, so they return kBm25's docids, score bits and
// match counts. The materialized runs score with the build-time BM25
// parameters and statistics baked into the score column
// (InvertedIndex::kMaterialized*), not opts.bm25, and bound with the same
// (a bound computed under other stats than the scores would not be one);
// the q8 bounds add half a quantization step.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/status.h"
#include "ir/bm25.h"
#include "ir/index_builder.h"
#include "ir/maxscore.h"
#include "ir/search_engine.h"
#include "ir/tf_window_score.h"
#include "storage/column_reader.h"

namespace x100ir::ir {
namespace {

// One term's value column (tf, or f32/q8 scores), read a 128-value window
// at a time through the pool and cached: the window the stream scores,
// then the windows probe completion reads. A failed read is written to the
// query's latch and reported as false.
class ValueWindows {
 public:
  void Init(storage::ColumnReader* col, Status* latch) {
    col_ = col;
    latch_ = latch;
    win_ = kNoWindow;
    windows_decoded_ = 0;
  }

  // Loads window w; false (status latched) on a pool error.
  bool Load(uint32_t w) {
    if (w == win_) return true;
    const uint64_t base = static_cast<uint64_t>(w) * kStride;
    uint32_t len = static_cast<uint32_t>(
        std::min<uint64_t>(kStride, col_->value_count() - base));
    Status s;
    switch (col_->encoding()) {
      case ColumnFileHeader::kCompressedBlock:
        s = col_->DecodeWindow(w, vals_.tf, &len);
        break;
      case ColumnFileHeader::kRawI32:
        s = col_->Read(base, len, vals_.tf);
        break;
      default:  // f32 or q8 scores
        s = col_->ReadF32(base, len, vals_.score);
        break;
    }
    if (!s.ok()) {
      if (latch_->ok()) *latch_ = std::move(s);
      return false;
    }
    win_ = w;
    ++windows_decoded_;
    return true;
  }

  // Values of the loaded window.
  const int32_t* tf() const { return vals_.tf; }
  const float* score() const { return vals_.score; }

  uint64_t windows_decoded() const { return windows_decoded_; }

 private:
  static constexpr uint32_t kStride = compress::kEntryPointStride;
  static constexpr uint32_t kNoWindow = 0xFFFFFFFFu;

  storage::ColumnReader* col_ = nullptr;
  Status* latch_ = nullptr;
  uint32_t win_ = kNoWindow;
  union {
    int32_t tf[kStride];
    float score[kStride];
  } vals_;
  uint64_t windows_decoded_ = 0;
};

// The pool-served posting backend of the MaxScore executor. Every cursor
// and value reader of one query shares the backend's failure latch: a pool
// error ends the failing term's stream, and the executor returns the
// latched status at the next vector boundary (or at once, when a window
// it is scoring cannot be read).
class PoolPostings {
 public:
  using Cursor = storage::SortedColumnCursor;
  using Values = ValueWindows;

  PoolPostings(RunType type, const InvertedIndex& index,
               const SearchOptions& opts)
      : index_(index), opts_(opts), doclens_(index.doc_lens().data()) {
    IndexStorage* st = index.storage();
    model_.k1 = opts.bm25.k1;
    model_.b = opts.bm25.b;
    switch (type) {
      case RunType::kBm25T:
        docid_ = &st->docid_raw;
        value_ = &st->tf_raw;
        break;
      case RunType::kBm25TC:
        docid_ = &st->docid_compressed;
        value_ = &st->tf_compressed;
        break;
      default:  // kBm25TCM / kBm25TCMQ8
        docid_ = &st->docid_compressed;
        value_ = type == RunType::kBm25TCM ? &st->score_f32 : &st->score_q8;
        materialized_ = true;
        model_.k1 = InvertedIndex::kMaterializedK1;
        model_.b = InvertedIndex::kMaterializedB;
        if (type == RunType::kBm25TCMQ8) {
          model_.slack = st->score_q8.q8_scale() * 0.5f;
        }
        break;
    }
    const double avgdl = materialized_ ? index.avg_doc_len()
                                       : EffectiveAvgDocLen(opts, index);
    model_.inv_avgdl = avgdl > 0.0 ? static_cast<float>(1.0 / avgdl) : 0.0f;
  }

  const InvertedIndex& index() const { return index_; }
  const ScoreModel& model() const { return model_; }
  // The materialized columns were baked with the build-time idf, so live
  // stats cannot apply to them.
  float Idf(uint32_t term) const {
    return materialized_ ? index_.term(term).idf
                         : EffectiveIdf(opts_, index_, term);
  }

  Status InitCursor(Cursor* cursor, const TermInfo& info, uint64_t offset) {
    return cursor->Init(docid_, info.posting_start + offset,
                        info.posting_start + info.doc_freq, &latch_);
  }
  void InitValues(Values* values) { values->Init(value_, &latch_); }

  // Scores the run's in-range slots out[lo..hi) from the value column's
  // window. An empty run is a cursor that just failed: nothing to score.
  bool ScoreWindow(float idf, Values& values, const Cursor::RunView& rv,
                   int32_t* dl, float* out, vec::ExecStats* stats) {
    const uint32_t n = rv.hi - rv.lo;
    if (n == 0) return true;
    if (!values.Load(rv.win_index)) return false;
    if (materialized_) {
      std::memcpy(out + rv.lo, values.score() + rv.lo, sizeof(float) * n);
      return true;
    }
    GatherI32(doclens_, rv.vals + rv.lo, n, dl + rv.lo);
    MapBm25(n, out + rv.lo, values.tf() + rv.lo, dl + rv.lo, idf, model_.k1,
            model_.b, model_.inv_avgdl);
    ++stats->primitive_calls;
    return true;
  }

  // A failed read contributes nothing; the latch fails the query.
  float ProbeScore(float idf, Values& values, uint64_t pos, int32_t d) {
    const uint32_t w = static_cast<uint32_t>(pos / compress::kEntryPointStride);
    if (!values.Load(w)) return 0.0f;
    const uint64_t slot = pos - static_cast<uint64_t>(w) *
                                    compress::kEntryPointStride;
    if (materialized_) return values.score()[slot];
    return Bm25One(idf, static_cast<float>(values.tf()[slot]),
                   static_cast<float>(doclens_[d]), model_.k1, model_.b,
                   model_.inv_avgdl);
  }

  bool failed() const { return !latch_.ok(); }
  Status error() const { return latch_; }

 private:
  const InvertedIndex& index_;
  const SearchOptions& opts_;
  const int32_t* doclens_;
  storage::ColumnReader* docid_ = nullptr;
  storage::ColumnReader* value_ = nullptr;
  bool materialized_ = false;  // the value column IS the score
  ScoreModel model_;
  Status latch_;
};

}  // namespace

Status SearchEngine::SearchStorageRun(RunType type,
                                      const std::vector<uint32_t>& terms,
                                      const SearchOptions& opts,
                                      SearchResult* result) const {
  PoolPostings postings(type, *index_, opts);
  return SearchBm25MaxScore(postings, terms, opts, result);
}

}  // namespace x100ir::ir
