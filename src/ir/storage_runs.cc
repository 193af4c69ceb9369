// The Table 2 storage-era runs (DESIGN.md §8.5): BM25T / BM25TC / BM25TCM /
// BM25TCMQ8, all reading cold columns through the buffer pool. The four
// runs share one two-pass evaluation and differ only in which columns they
// scan:
//
//             docid column   value column        score =
//   BM25T     raw i32        raw tf              Bm25One(tf, doclen)
//   BM25TC    PFOR-DELTA     PFOR tf             Bm25One(tf, doclen)
//   BM25TCM   PFOR-DELTA     f32 score           the value itself
//   BM25TCMQ8 PFOR-DELTA     u8 quantized score  bias + scale * q
//
// Two-pass protocol (the paper's BM25T trick): pass 1 fully evaluates only
// the *selective* terms (df below a cutoff), completing each candidate's
// score with forward skip-probes into the long lists — so a cold query
// reads the short lists plus a sliver of the long ones. Any document
// outside the candidate set lives only in long lists and is bounded by
// U = Σ ub(long terms); when the pass-1 top-k threshold θ exceeds U the
// answer is provably exact. Otherwise the *second pass* runs — the same
// relational plan as the in-memory BM25 run (Scan → [Bm25Score] →
// MergeUnion → TopK), just over pool-served cold columns; for the
// materialized runs the Bm25Score operator drops out of the plan entirely,
// which is the point of materialization.
//
// The materialized runs score with the build-time BM25 parameters baked
// into the score column (InvertedIndex::kMaterialized*), not opts.bm25.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "common/status.h"
#include "ir/bm25.h"
#include "ir/index_builder.h"
#include "ir/plan_ops.h"
#include "ir/search_engine.h"
#include "ir/topk.h"
#include "storage/column_reader.h"
#include "storage/column_source.h"
#include "vec/mem_source.h"
#include "vec/scan.h"

namespace x100ir::ir {
namespace {

// Which columns a run scans and how their values become scores.
struct RunColumns {
  storage::ColumnReader* docid = nullptr;
  storage::ColumnReader* value = nullptr;
  bool value_is_score = false;  // f32/q8: the value column IS the score
  float k1 = 0.0f, b = 0.0f;    // effective scoring parameters
  float ub_slack = 0.0f;        // per-term upper-bound slack (q8 rounding)
};

RunColumns ColumnsFor(RunType type, IndexStorage* st,
                      const SearchOptions& opts) {
  RunColumns c;
  switch (type) {
    case RunType::kBm25T:
      c.docid = &st->docid_raw;
      c.value = &st->tf_raw;
      c.k1 = opts.bm25.k1;
      c.b = opts.bm25.b;
      break;
    case RunType::kBm25TC:
      c.docid = &st->docid_compressed;
      c.value = &st->tf_compressed;
      c.k1 = opts.bm25.k1;
      c.b = opts.bm25.b;
      break;
    case RunType::kBm25TCM:
      c.docid = &st->docid_compressed;
      c.value = &st->score_f32;
      c.value_is_score = true;
      c.k1 = InvertedIndex::kMaterializedK1;
      c.b = InvertedIndex::kMaterializedB;
      break;
    case RunType::kBm25TCMQ8:
    default:
      c.docid = &st->docid_compressed;
      c.value = &st->score_q8;
      c.value_is_score = true;
      c.k1 = InvertedIndex::kMaterializedK1;
      c.b = InvertedIndex::kMaterializedB;
      // Dequantized values can exceed the analytic bound by half a step.
      c.ub_slack = st->score_q8.q8_scale() * 0.5f;
      break;
  }
  return c;
}

// Forward value access with a decoded-window cache: pass-1 probes ascend,
// so consecutive hits to the same 128-value window cost one pool read.
class ValueWindowCache {
 public:
  void Init(storage::ColumnReader* col) {
    col_ = col;
    base_ = ~0ull;
  }

  Status ScoreAt(uint64_t p, float* out) {
    X100IR_RETURN_IF_ERROR(Ensure(p));
    *out = f32_[p - base_];
    return OkStatus();
  }
  Status TfAt(uint64_t p, int32_t* out) {
    X100IR_RETURN_IF_ERROR(Ensure(p));
    *out = i32_[p - base_];
    return OkStatus();
  }

 private:
  Status Ensure(uint64_t p) {
    constexpr uint64_t kStride = 128;
    const uint64_t base = p & ~(kStride - 1);
    if (base == base_) return OkStatus();
    const uint32_t len = static_cast<uint32_t>(
        std::min<uint64_t>(kStride, col_->value_count() - base));
    const bool f32 =
        col_->encoding() == ColumnFileHeader::kRawF32 ||
        col_->encoding() == ColumnFileHeader::kQuantU8;
    X100IR_RETURN_IF_ERROR(f32 ? col_->ReadF32(base, len, f32_)
                               : col_->Read(base, len, i32_));
    base_ = base;
    return OkStatus();
  }

  storage::ColumnReader* col_ = nullptr;
  uint64_t base_ = ~0ull;
  union {
    int32_t i32_[128];
    float f32_[128];
  };
};

// One query term's state across the two passes.
struct ColdTerm {
  uint32_t term = 0;
  const TermInfo* info = nullptr;
  // Scoring idf: the snapshot's live idf for the tf-scoring runs (T/TC),
  // always the build-time idf for the materialized runs — their score
  // columns were baked with it, so live stats cannot apply.
  float idf = 0.0f;
  float ub = 0.0f;
  bool selective = false;

  // Pass 1, selective: fully materialized (docid, score) pairs.
  std::vector<int32_t> docids;
  std::vector<float> scores;
  size_t off = 0;

  // Pass 1, long: forward skip cursor + value completion cache.
  storage::SortedColumnCursor cursor;
  ValueWindowCache values;
};

}  // namespace

Status SearchEngine::SearchColdRun(RunType type,
                                   const std::vector<uint32_t>& terms,
                                   const SearchOptions& opts,
                                   SearchResult* result) const {
  IndexStorage* st = index_->storage();
  RunColumns cols = ColumnsFor(type, st, opts);
  vec::ExecContext ctx;
  ctx.vector_size = opts.vector_size;
  X100IR_RETURN_IF_ERROR(ctx.Validate());

  // The tf-scoring runs (T/TC) score under the snapshot's live stats when
  // present; the materialized runs keep the build-time stats their score
  // columns were baked with (both for the values and for the upper bounds
  // — a bound computed under different stats than the scores would not be
  // a bound).
  const double eff_avgdl = cols.value_is_score
                               ? index_->avg_doc_len()
                               : EffectiveAvgDocLen(opts, *index_);
  const float inv_avgdl =
      eff_avgdl > 0.0 ? static_cast<float>(1.0 / eff_avgdl) : 0.0f;
  const float min_dl = static_cast<float>(index_->min_doc_len());
  const int32_t* doclens = index_->doc_lens().data();
  const uint32_t df_cutoff =
      opts.twopass_df_cutoff != 0
          ? opts.twopass_df_cutoff
          : std::max<uint32_t>(64, index_->num_docs() / 16);
  const uint64_t windows_before = cols.docid->windows_decoded() +
                                  cols.value->windows_decoded();

  const size_t m = terms.size();
  std::vector<ColdTerm> states(m);
  for (size_t i = 0; i < m; ++i) {
    ColdTerm& ts = states[i];
    ts.term = terms[i];
    ts.info = &index_->term(terms[i]);
    ts.idf = cols.value_is_score ? ts.info->idf
                                 : EffectiveIdf(opts, *index_, terms[i]);
    ts.ub = Bm25One(ts.idf, static_cast<float>(ts.info->max_tf),
                    min_dl, cols.k1, cols.b, inv_avgdl) +
            cols.ub_slack;
    ts.selective = ts.info->doc_freq <= df_cutoff;
  }
  // Long lists strongest-first: probe completion retires the largest
  // upper bounds first, so the early-abandon test bites soonest.
  std::vector<uint32_t> longs, shorts;
  for (uint32_t i = 0; i < m; ++i) {
    (states[i].selective ? shorts : longs).push_back(i);
  }
  std::sort(longs.begin(), longs.end(), [&states](uint32_t a, uint32_t b) {
    if (states[a].ub != states[b].ub) return states[a].ub > states[b].ub;
    return states[a].term < states[b].term;
  });
  float u_long = 0.0f;
  for (uint32_t i : longs) u_long += states[i].ub;

  TopK topk(opts.k);
  uint64_t candidates = 0;
  uint64_t windows_skipped = 0;
  bool exact = false;

  // Window-count accounting, shared by the normal exit and the deadline
  // bail-outs so a DeadlineExceeded result still carries its real stats.
  // (The reader counters are process-wide totals; under concurrency the
  // delta is approximate — see column_reader.h.)
  const auto account_windows = [&] {
    ctx.stats.windows_decoded += cols.docid->windows_decoded() +
                                 cols.value->windows_decoded() -
                                 windows_before;
    ctx.stats.windows_skipped += windows_skipped;
    result->stats = ctx.stats;
  };

  if (!shorts.empty()) {
    // ---- Pass 1: evaluate the short lists fully. ----
    for (uint32_t i : shorts) {
      ColdTerm& ts = states[i];
      const uint64_t start = ts.info->posting_start;
      const uint32_t df = ts.info->doc_freq;
      ts.docids.resize(df);
      ts.scores.resize(df);
      X100IR_RETURN_IF_ERROR(
          cols.docid->Read(start, df, ts.docids.data()));
      if (cols.value_is_score) {
        X100IR_RETURN_IF_ERROR(
            cols.value->ReadF32(start, df, ts.scores.data()));
      } else {
        std::vector<int32_t> tfs(df), dls(df);
        X100IR_RETURN_IF_ERROR(cols.value->Read(start, df, tfs.data()));
        for (uint32_t j = 0; j < df; ++j) dls[j] = doclens[ts.docids[j]];
        MapBm25(df, ts.scores.data(), tfs.data(), dls.data(), ts.idf,
                cols.k1, cols.b, inv_avgdl);
        ++ctx.stats.primitive_calls;
      }
    }
    for (uint32_t i : longs) {
      ColdTerm& ts = states[i];
      X100IR_RETURN_IF_ERROR(ts.cursor.Init(
          cols.docid, ts.info->posting_start,
          ts.info->posting_start + ts.info->doc_freq));
      ts.values.Init(cols.value);
    }

    // Merge the short lists in docid order; complete each candidate from
    // the long lists with forward probes, abandoning as soon as the
    // remaining upper bounds cannot reach the live threshold.
    uint64_t merge_steps = 0;
    for (;;) {
      // Deadline checkpoint every 128 candidates (§9.3) — the pass-1 merge
      // is scalar, so per-iteration checks would cost more than the merge.
      if (opts.deadline != nullptr && (merge_steps++ & 127u) == 0) {
        Status live = opts.deadline->Check();
        if (!live.ok()) {
          result->num_matches = candidates;
          account_windows();
          return live;
        }
      }
      int32_t d = 0;
      bool any = false;
      for (uint32_t i : shorts) {
        const ColdTerm& ts = states[i];
        if (ts.off >= ts.docids.size()) continue;
        if (!any || ts.docids[ts.off] < d) {
          d = ts.docids[ts.off];
          any = true;
        }
      }
      if (!any) break;
      float s = 0.0f;
      for (uint32_t i : shorts) {
        ColdTerm& ts = states[i];
        if (ts.off < ts.docids.size() && ts.docids[ts.off] == d) {
          s += ts.scores[ts.off];
          ++ts.off;
        }
      }
      // Segmented read with deletes: a dead doc is consumed off the short
      // lists (positional) but never becomes a candidate.
      if (TombstoneTest(opts.tombstones, d)) continue;
      ++candidates;
      float remaining = u_long;
      bool viable = true;
      for (uint32_t i : longs) {
        const float live = topk.threshold();
        if (s + remaining < live) {
          viable = false;
          break;
        }
        ColdTerm& ts = states[i];
        remaining -= ts.ub;
        bool found = false;
        X100IR_RETURN_IF_ERROR(ts.cursor.SkipTo(d, &found));
        if (found) {
          int32_t v = 0;
          X100IR_RETURN_IF_ERROR(ts.cursor.Value(&v));
          if (v == d) {
            const uint64_t p = ts.cursor.position();
            if (cols.value_is_score) {
              float contrib = 0.0f;
              X100IR_RETURN_IF_ERROR(ts.values.ScoreAt(p, &contrib));
              s += contrib;
            } else {
              int32_t tf = 0;
              X100IR_RETURN_IF_ERROR(ts.values.TfAt(p, &tf));
              s += Bm25One(ts.idf, static_cast<float>(tf),
                           static_cast<float>(doclens[d]), cols.k1, cols.b,
                           inv_avgdl);
            }
            ++ctx.stats.docs_probed;
          }
        }
      }
      if (viable) topk.Push(d, s);
    }
    // Exact iff no document outside the candidate set can beat the
    // threshold. Strict >: at exact equality a long-lists-only document
    // could still win its tie on docid order.
    exact = longs.empty() || (topk.full() && topk.threshold() > u_long);
    for (uint32_t i : longs) {
      windows_skipped += states[i].cursor.windows_skipped();
    }
  }

  if (exact) {
    topk.FinishSorted(&result->docids, &result->scores);
    result->num_matches = candidates;
  } else {
    // ---- Pass 2: the full relational plan over the cold columns. ----
    result->used_second_pass = !shorts.empty();
    // The run owns the pool-backed sources and the scans read them through
    // views, so each source's latched status (checked below) outlives the
    // plan. Reserved up front: the views point into the vector.
    std::vector<storage::ColumnSliceSource> pool_sources;
    pool_sources.reserve(2 * m);
    std::vector<vec::OperatorPtr> scored;
    scored.reserve(m);
    for (size_t i = 0; i < m; ++i) {
      const TermInfo& info = *states[i].info;
      vec::Schema schema;
      schema.Add("docid", vec::TypeId::kI32);
      schema.Add(cols.value_is_score ? "score" : "tf",
                 cols.value_is_score ? vec::TypeId::kF32
                                     : vec::TypeId::kI32);
      const storage::ColumnSliceSource& dsrc = pool_sources.emplace_back(
          cols.docid, info.posting_start, info.doc_freq, vec::TypeId::kI32);
      const storage::ColumnSliceSource& vsrc = pool_sources.emplace_back(
          cols.value, info.posting_start, info.doc_freq,
          cols.value_is_score ? vec::TypeId::kF32 : vec::TypeId::kI32);
      std::vector<vec::VectorSourcePtr> sources;
      sources.push_back(
          std::make_unique<vec::SliceVectorSource>(&dsrc, 0, dsrc.size()));
      sources.push_back(
          std::make_unique<vec::SliceVectorSource>(&vsrc, 0, vsrc.size()));
      vec::OperatorPtr scan = std::make_unique<vec::ScanOperator>(
          &ctx, std::move(schema), std::move(sources));
      if (cols.value_is_score) {
        // Materialized runs: the scan already yields (docid, score) — no
        // scoring operator at all.
        scored.push_back(std::move(scan));
      } else {
        scored.push_back(std::make_unique<Bm25ScoreOperator>(
            &ctx, std::move(scan), states[i].idf, opts.bm25, doclens,
            inv_avgdl));
      }
    }
    const Status exec =
        RunRankedUnion(&ctx, std::move(scored), opts, result);
    if (!exec.ok()) {
      account_windows();
      return exec;
    }
    // A pool failure inside a VectorSource cannot surface through the
    // void Read interface; it latches in the source and is checked here —
    // a failed query errors out instead of returning zero-filled garbage.
    for (const storage::ColumnSliceSource& src : pool_sources) {
      X100IR_RETURN_IF_ERROR(src.status());
    }
  }

  account_windows();
  return OkStatus();
}

}  // namespace x100ir::ir
