// The in-memory runs: the scan and join plans of ir/plan_ops.h and the
// Block-Max MaxScore executor (ir/maxscore.h) over one in-memory posting
// backend, MemPostings; the storage runs (storage_runs.cc) instantiate the
// executor over pool-served columns.
#include "ir/search_engine.h"

#include <cstdint>
#include <vector>

#include "common/timer.h"
#include "compress/skip_cursor.h"
#include "ir/bm25.h"
#include "ir/maxscore.h"
#include "ir/plan_ops.h"
#include "ir/posting_cursor.h"
#include "ir/request.h"
#include "ir/tf_window_score.h"

namespace x100ir::ir {
namespace {

// The in-memory posting backend: the leaves of the scan and join plans
// (ir/posting_cursor.h) — the index's resident compressed TD columns, range
// decoded by the scans and searched by the skip cursors — and the MaxScore
// executor's backend (maxscore.h): skip cursors over the resident
// PFOR-DELTA docid column, windows scored straight from the packed tf
// payload by the fused decode→score kernel (tf_window_score.h) — the tf
// codewords go to BM25 contributions without materializing a tf vector —
// and probes completed from the term's cached tf window.
class MemPostings {
 public:
  using Source = compress::ResidentWindows;
  using Values = compress::WindowCache<Source>;

  MemPostings(const InvertedIndex& index, const SearchOptions& opts)
      : index_(index),
        opts_(opts),
        doclens_(index.doc_lens().data()),
        tf_dec_(index.tf_decoder()) {
    const double avgdl = EffectiveAvgDocLen(opts, index);
    model_.k1 = opts.bm25.k1;
    model_.b = opts.bm25.b;
    model_.inv_avgdl = avgdl > 0.0 ? static_cast<float>(1.0 / avgdl) : 0.0f;
    c0_ = model_.k1 * (1.0f - model_.b);
    c1_ = model_.k1 * model_.b * model_.inv_avgdl;
  }

  const InvertedIndex& index() const { return index_; }
  const ScoreModel& model() const { return model_; }
  float Idf(uint32_t term) const { return EffectiveIdf(opts_, index_, term); }

  Source docid_windows() const { return index_.docid_decoder(); }
  Source value_windows() const { return tf_dec_; }

  TermRange Range(uint32_t t) const {
    const TermInfo& info = index_.term(t);
    return {info.posting_start, info.doc_freq};
  }
  const int32_t* doc_lens() const { return doclens_; }
  double avg_doc_len() const { return EffectiveAvgDocLen(opts_, index_); }

  // Scores the decoded docid window behind `rv` into out[0..rv.win_len)
  // straight from the packed tf payload; dl is doclen staging.
  // TryLoadColumns admits only a patched PFOR tf column (and every build
  // writes one), so every window is fusable: a kernel refusal is a broken
  // index invariant and fails the query rather than falling back to
  // another scorer.
  bool ScoreWindow(float idf, Values& /*tfs*/, const compress::RunView& rv,
                   int32_t* dl, float* out, vec::ExecStats* stats) const {
    GatherI32(doclens_, rv.vals, rv.win_len, dl);
    if (!FusedScoreTfWindow(tf_dec_->WindowViewOf(rv.win_index), dl,
                            idf * (model_.k1 + 1.0f), c0_, c1_, out)) {
      return false;
    }
    ++stats->fused_windows;
    ++stats->primitive_calls;
    return true;
  }

  float ProbeScore(float idf, Values& tfs, uint64_t pos, int32_t d) const {
    tfs.Load(static_cast<uint32_t>(pos / compress::kEntryPointStride));
    const int32_t tf = tfs.i32()[pos % compress::kEntryPointStride];
    return Bm25One(idf, static_cast<float>(tf),
                   static_cast<float>(doclens_[d]), model_.k1, model_.b,
                   model_.inv_avgdl);
  }

  static constexpr bool failed() { return false; }
  static Status error() {
    return Internal("fused decode→score kernel refused a tf window");
  }

 private:
  const InvertedIndex& index_;
  const SearchOptions& opts_;
  const int32_t* doclens_;
  const compress::BlockDecoder* tf_dec_;
  ScoreModel model_;
  float c0_ = 0.0f, c1_ = 0.0f;
};

}  // namespace

Status SearchEngine::Search(const Query& query, RunType type,
                            const SearchOptions& opts,
                            SearchResult* result) const {
  if (result == nullptr) return InvalidArgument("null search result");
  if (index_ == nullptr) return InvalidArgument("search engine has no index");
  WallTimer timer;
  *result = SearchResult();
  std::vector<uint32_t> terms;
  X100IR_RETURN_IF_ERROR(PrepareQuery(
      query, type, opts, index_->vocab_size(), index_->has_storage(),
      [this](uint32_t t) { return index_->term(t).doc_freq; }, &terms));
  if (terms.empty()) {
    result->seconds = timer.ElapsedSeconds();
    return OkStatus();
  }

  MemPostings postings(*index_, opts);
  Status s;
  switch (type) {
    case RunType::kBoolAnd:
      s = SearchBool(postings, terms, /*conjunctive=*/true, opts, result);
      break;
    case RunType::kBoolOr:
      s = SearchBool(postings, terms, /*conjunctive=*/false, opts, result);
      break;
    case RunType::kBm25:
      s = opts.maxscore_bm25
              ? SearchBm25MaxScore(postings, terms, opts, result)
              : SearchBm25(postings, terms, opts, result);
      break;
    case RunType::kBm25T:
    case RunType::kBm25TC:
    case RunType::kBm25TCM:
    case RunType::kBm25TCMQ8: {
      // Simulated I/O is charged to the disk the whole index shares; the
      // per-query share is its delta across this run. That is exact only
      // for serial callers: a concurrent query's charges land in the same
      // delta.
      const double io_before = index_->disk()->io_seconds();
      s = SearchStorageRun(type, terms, opts, result);
      result->io_seconds = index_->disk()->io_seconds() - io_before;
      break;
    }
    default:
      return Internal("unreachable run type");
  }
  result->seconds = timer.ElapsedSeconds();
  return s;
}

}  // namespace x100ir::ir
