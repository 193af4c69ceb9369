// Plan construction for the in-memory runs: composition of vec/ operators
// (Scan over SliceVectorSource windows of the compressed TD columns, the
// streaming skip join for conjunctions, the score-all union of
// ir/plan_ops.h) plus the in-memory posting backend of the Block-Max
// MaxScore executor (ir/maxscore.h), which the storage runs
// (storage_runs.cc) instantiate over pool-served columns.
#include "ir/search_engine.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/timer.h"
#include "ir/bm25.h"
#include "ir/maxscore.h"
#include "ir/plan_ops.h"
#include "ir/posting_cursor.h"
#include "ir/request.h"
#include "ir/tf_window_score.h"
#include "ir/topk.h"
#include "vec/mem_source.h"
#include "vec/scan.h"
#include "vec/streaming_merge.h"

namespace x100ir::ir {
namespace {

// Leaf of every plan: a scan over one term's window of the compressed TD
// columns (docid always, tf when the run scores).
vec::OperatorPtr MakeTermScan(const InvertedIndex& index,
                              vec::ExecContext* ctx, uint32_t term,
                              bool with_tf) {
  const TermInfo& info = index.term(term);
  vec::Schema schema;
  schema.Add("docid", vec::TypeId::kI32);
  if (with_tf) schema.Add("tf", vec::TypeId::kI32);
  std::vector<vec::VectorSourcePtr> sources;
  sources.push_back(std::make_unique<vec::SliceVectorSource>(
      index.docid_source(), info.posting_start, info.doc_freq));
  if (with_tf) {
    sources.push_back(std::make_unique<vec::SliceVectorSource>(
        index.tf_source(), info.posting_start, info.doc_freq));
  }
  return std::make_unique<vec::ScanOperator>(ctx, std::move(schema),
                                             std::move(sources));
}

// The in-memory posting backend of the Block-Max MaxScore executor
// (maxscore.h): skip cursors over the resident PFOR-DELTA docid column,
// windows scored straight from the packed tf payload by the fused
// decode→score kernel (tf_window_score.h) — the tf codewords go to BM25
// contributions without materializing a tf vector — and probes completed
// from TfWindowReader's raw tfs.
class MemPostings {
 public:
  using Cursor = compress::SortedRangeCursor;
  using Values = TfWindowReader;

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

  Status InitCursor(Cursor* cursor, const TermInfo& info,
                    uint64_t offset) const {
    return cursor->Init(index_.docid_decoder(), info.posting_start + offset,
                        info.posting_start + info.doc_freq);
  }
  void InitValues(Values* tfs) const { tfs->Init(index_.tf_source()); }

  // Scores the decoded docid window behind `rv` into out[0..rv.win_len)
  // straight from the packed tf payload; dl is doclen staging.
  // TryLoadColumns admits only a patched PFOR tf column (and every build
  // writes one), so every window is fusable: a kernel refusal is a broken
  // index invariant and fails the query rather than falling back to
  // another scorer.
  bool ScoreWindow(float idf, Values& /*tfs*/, const Cursor::RunView& rv,
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
    return Bm25One(idf, static_cast<float>(tfs.TfAt(pos)),
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

  Status s;
  switch (type) {
    case RunType::kBoolAnd:
      s = SearchBool(terms, /*conjunctive=*/true, opts, result);
      break;
    case RunType::kBoolOr:
      s = SearchBool(terms, /*conjunctive=*/false, opts, result);
      break;
    case RunType::kBm25:
      if (opts.maxscore_bm25) {
        MemPostings postings(*index_, opts);
        s = SearchBm25MaxScore(postings, terms, opts, result);
      } else {
        s = SearchBm25(terms, opts, result);
      }
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

Status SearchEngine::SearchBool(const std::vector<uint32_t>& terms,
                                bool conjunctive, const SearchOptions& opts,
                                SearchResult* result) const {
  vec::ExecContext ctx;
  ctx.vector_size = opts.vector_size;
  vec::OperatorPtr root;
  if (conjunctive) {
    // Streaming skip join: cursors rarest-first so the shortest list
    // drives and the long lists are only probed (DESIGN.md §7.2).
    std::vector<uint32_t> by_df = terms;
    std::sort(by_df.begin(), by_df.end(), [this](uint32_t a, uint32_t b) {
      if (index_->term(a).doc_freq != index_->term(b).doc_freq) {
        return index_->term(a).doc_freq < index_->term(b).doc_freq;
      }
      return a < b;
    });
    std::vector<vec::SkipCursorPtr> cursors;
    cursors.reserve(by_df.size());
    for (uint32_t t : by_df) {
      auto cursor = std::make_unique<DocidSkipCursor>();
      X100IR_RETURN_IF_ERROR(cursor->Init(index_, t));
      cursors.push_back(std::move(cursor));
    }
    root = std::make_unique<vec::StreamingJoinOperator>(
        &ctx, std::move(cursors));
  } else {
    std::vector<vec::OperatorPtr> children;
    children.reserve(terms.size());
    for (uint32_t t : terms) {
      children.push_back(MakeTermScan(*index_, &ctx, t, /*with_tf=*/false));
    }
    root = std::make_unique<MergeUnionOperator>(&ctx, std::move(children),
                                                /*sum_scores=*/false);
  }
  X100IR_RETURN_IF_ERROR(root->Open());
  vec::Batch* b = nullptr;
  for (;;) {
    // Deadline checkpoint: once per batch (§9.3), so an expiring query
    // surfaces within one vector's worth of work, with its partial stats.
    if (opts.deadline != nullptr) {
      Status live = opts.deadline->Check();
      if (!live.ok()) {
        root->Close();
        result->stats = ctx.stats;
        return live;
      }
    }
    X100IR_RETURN_IF_ERROR(root->Next(&b));
    if (b == nullptr) break;
    const int32_t* docids = b->columns[0]->Data<int32_t>();
    if (opts.tombstones == nullptr) {
      result->num_matches += b->count;
      const uint32_t room =
          opts.k > result->docids.size()
              ? opts.k - static_cast<uint32_t>(result->docids.size())
              : 0;
      const uint32_t take = std::min(room, b->count);
      result->docids.insert(result->docids.end(), docids, docids + take);
    } else {
      // Segmented read with deletes: only live docids count toward
      // num_matches and the k cap, so the result matches an index rebuilt
      // without the deleted documents.
      for (uint32_t i = 0; i < b->count; ++i) {
        if (TombstoneTest(opts.tombstones, docids[i])) continue;
        ++result->num_matches;
        if (result->docids.size() < opts.k) {
          result->docids.push_back(docids[i]);
        }
      }
    }
  }
  root->Close();
  result->stats = ctx.stats;
  return OkStatus();
}

Status SearchEngine::SearchBm25(const std::vector<uint32_t>& terms,
                                const SearchOptions& opts,
                                SearchResult* result) const {
  vec::ExecContext ctx;
  ctx.vector_size = opts.vector_size;
  const double avgdl = EffectiveAvgDocLen(opts, *index_);
  const float inv_avgdl =
      avgdl > 0.0 ? static_cast<float>(1.0 / avgdl) : 0.0f;
  const int32_t* doclens = index_->doc_lens().data();

  std::vector<vec::OperatorPtr> scored;
  scored.reserve(terms.size());
  for (uint32_t t : terms) {
    scored.push_back(std::make_unique<Bm25ScoreOperator>(
        &ctx, MakeTermScan(*index_, &ctx, t, /*with_tf=*/true),
        EffectiveIdf(opts, *index_, t), opts.bm25, doclens, inv_avgdl));
  }
  const Status s = RunRankedUnion(&ctx, std::move(scored), opts, result);
  result->stats = ctx.stats;
  return s;
}

}  // namespace x100ir::ir
