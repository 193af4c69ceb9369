// Plan construction for the in-memory runs. The shared ranked-run
// operators (Bm25ScoreOperator, MergeUnionOperator) and the score-all
// ranked root (RunRankedUnion) live in ir/plan_ops.h since storage/
// landed — the Table 2 runs (storage_runs.cc) execute the same plan
// shapes over cold columns. Everything else here is composition of
// existing vec/ operators (Scan over SliceVectorSource windows of the
// compressed TD columns, the streaming skip join for conjunctions) plus
// the Block-Max MaxScore executor.
#include "ir/search_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>

#include "common/timer.h"
#include "ir/bm25.h"
#include "ir/plan_ops.h"
#include "ir/posting_cursor.h"
#include "ir/request.h"
#include "ir/tf_window_score.h"
#include "ir/topk.h"
#include "vec/mem_source.h"
#include "vec/primitives.h"
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
      s = opts.maxscore_bm25 ? SearchBm25MaxScore(terms, opts, result)
                             : SearchBm25(terms, opts, result);
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
      s = SearchColdRun(type, terms, opts, result);
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

// ---------------------------------------------------------------------------
// Streaming BM25 with MaxScore pruning (DESIGN.md §7.4).
//
// Per term: a score upper bound ub = idf * (k1+1) * max_tf /
// (max_tf + c0 + c1 * min_doclen) — BM25 is monotone in tf and doclen, so
// no posting of the term can contribute more. Terms sorted by ub ascending
// give prefix sums P[i]; once the top-k threshold θ exceeds P[i], the i+1
// weakest terms are *non-essential*: a document appearing only in them
// tops out below θ and can never enter the heap. Their streams stop being
// merged (whole vectors pruned) and they are only probed — SkipTo on the
// compressed docid windows — to complete the scores of candidates that
// survive a branch-free threshold select.
//
// The evaluation stays vector-at-a-time, and refills are *window-granular*
// (Block-Max MaxScore, DESIGN.md §12): an essential stream advances one
// 128-posting window at a time. Before decoding a window, the term's
// stored (max_tf, min_doclen) block bound — recomputed under the live
// (k1, b, idf) — is tested against θ: when even Σ(other terms' ubs) plus
// this window's bound cannot reach θ, no document in the window can enter
// the top k through *any* merge, so the window is skipped without
// decoding (windows_blockmax_skipped). Decoded windows are scored with
// the fused decode→score kernel (tf_window_score.h): the tf codewords go from
// packed payload to BM25 contributions without materializing a tf vector.
// The merge emits candidate vectors of (docid, partial score), and one
// SelectColVal per vector rejects candidates whose partial +
// Σ(non-essential ubs) falls below θ. Only survivors touch the probe
// cursors and the branchy heap.
//
// Soundness of the per-term window skip: it fires only when
// other_bound + ub_w < θ, where other_bound sums the *static* ubs of
// every other query term. Any document d in the skipped window has
// score(d) <= other_bound + ub_w < θ, so even when d still surfaces as a
// candidate through another essential list, its completed score stays
// below θ and the heap push is a no-op — the top k (and p@20) are
// bit-identical to an evaluation without the skip; only num_matches and
// the window counters may differ. The same argument covers the demotion
// probe: a probe cursor starts at the demoted stream's current vector,
// never before, so it may miss contributions from earlier skipped
// windows — missing them only lowers a score that is already provably
// below θ.
// ---------------------------------------------------------------------------

namespace {

// Per-term state for the MaxScore evaluation.
struct MsTerm {
  uint32_t term = 0;
  float idf = 0.0f;
  float ub = 0.0f;
  // Σ of every *other* query term's ub — the companion bound of the
  // per-window skip test.
  float other_bound = 0.0f;
  uint32_t df = 0;
  uint64_t posting_start = 0;

  // Essential phase: sequential stream + vectorized scoring buffers. The
  // buffers hold up to a full extra window past vector_size (refills
  // append whole window slices); vec_start is the stream position of the
  // current buffer's first posting — what a demotion hands the probe
  // cursor as its resume offset (re-covering at most one buffered vector,
  // which forward-only SkipTo crosses for free).
  DocidSkipCursor stream;
  uint64_t vec_start = 0;
  std::vector<int32_t> docids;
  std::vector<float> scores;
  uint32_t voff = 0, vlen = 0;

  // Non-essential phase: forward probe cursor from the first unconsumed
  // posting (the stream read ahead by up to one vector; that tail is
  // re-covered by the probe cursor, never lost), and the raw tfs probe
  // completion scores with.
  bool demoted = false;
  DocidSkipCursor probe;
  TfWindowReader tf_reader;
};

Status FusedScoreRefused() {
  return Internal("fused decode→score kernel refused a tf window");
}

}  // namespace

Status SearchEngine::SearchBm25MaxScore(const std::vector<uint32_t>& terms,
                                        const SearchOptions& opts,
                                        SearchResult* result) const {
  vec::ExecContext ctx;
  ctx.vector_size = opts.vector_size;
  X100IR_RETURN_IF_ERROR(ctx.Validate());
  const uint32_t vsize = ctx.vector_size;
  const float k1 = opts.bm25.k1;
  const float bb = opts.bm25.b;
  const double avgdl = EffectiveAvgDocLen(opts, *index_);
  const float inv_avgdl =
      avgdl > 0.0 ? static_cast<float>(1.0 / avgdl) : 0.0f;
  const int32_t* doclens = index_->doc_lens().data();
  const float min_dl = static_cast<float>(index_->min_doc_len());

  const size_t m = terms.size();
  // A single-term query never leaves the solo-stream fast path, which
  // reads decoded windows in place — no per-term buffers, no candidate
  // staging, no initial refill. (Tombstoned reads use the generic merge.)
  const bool solo_only = m == 1 && opts.tombstones == nullptr;
  // Per-thread scratch, reused across queries: the posting buffers and
  // cursor window caches keep their capacity (and their cache heat), so a
  // steady query stream allocates nothing here after warm-up. The pool
  // never shrinks — states[0..m) is this query's slice; every per-query
  // field (voff/vlen/demoted/vec_start included) is re-initialized below,
  // and cursor Init fully resets position and skip stats.
  static thread_local std::vector<MsTerm> states_pool;
  static thread_local std::vector<uint32_t> order;
  static thread_local std::vector<float> prefix;
  static thread_local std::vector<vec::sel_t> cand_sel;
  if (states_pool.size() < m) states_pool.resize(m);
  MsTerm* const states = states_pool.data();
  for (size_t i = 0; i < m; ++i) {
    MsTerm& ts = states[i];
    const TermInfo& info = index_->term(terms[i]);
    ts.term = terms[i];
    ts.idf = EffectiveIdf(opts, *index_, terms[i]);
    ts.df = info.doc_freq;
    ts.ub = Bm25One(ts.idf, static_cast<float>(info.max_tf), min_dl, k1, bb,
                    inv_avgdl);
    ts.posting_start = info.posting_start;
    ts.voff = 0;
    ts.vlen = 0;
    ts.vec_start = 0;
    ts.demoted = false;
    X100IR_RETURN_IF_ERROR(ts.stream.Init(index_, ts.term));
    ts.tf_reader.Init(index_->tf_source());
    if (!solo_only) {
      const uint32_t cap = vsize + compress::kEntryPointStride;
      ts.docids.resize(cap);
      ts.scores.resize(cap);
    }
  }

  // Weakest-first order and upper-bound prefix sums: order[0..ness) is the
  // demoted (non-essential) prefix.
  order.resize(m);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&states](uint32_t a, uint32_t b) {
    if (states[a].ub != states[b].ub) return states[a].ub < states[b].ub;
    return states[a].term < states[b].term;
  });
  prefix.resize(m);
  float acc = 0.0f;
  for (size_t i = 0; i < m; ++i) {
    acc += states[order[i]].ub;
    prefix[i] = acc;
  }
  const float total_ub = m > 0 ? prefix[m - 1] : 0.0f;
  for (size_t i = 0; i < m; ++i) states[i].other_bound = total_ub - states[i].ub;

  TopK topk(opts.k);
  if (!solo_only) {
    // The solo fast path's buffer-drain pass selects over a whole buffered
    // run, which can be up to one window longer than a candidate vector.
    cand_sel.resize(vsize + compress::kEntryPointStride);
  }
  uint64_t candidates = 0;
  size_t ness = 0;  // order[0..ness) are demoted

  // Distributed θ floor (DESIGN.md §11.3): the local heap's threshold,
  // raised to the cluster-wide k-th-best lower bound when a shared
  // channel is plumbed in. Every pruning decision below (the per-window
  // block-max test, term demotion, the candidate select, probe-completion
  // viability) goes through this, so a shard seeded by a faster peer
  // starts pruning — and block-max-skipping windows — where that peer
  // left off. Scores exactly at the bound always survive the >= /
  // strict-< pruning tests, so the (score desc, docid asc) tiebreak at
  // the global boundary is never cut off.
  SharedTheta* shared = opts.shared_theta;
  const auto live_theta = [&]() -> float {
    const float local = topk.threshold();
    return shared != nullptr ? std::max(local, shared->Load()) : local;
  };

  // Block-max table and the fused scorer's inputs. TryLoadColumns admits
  // only a patched PFOR tf column (and every build writes one), so every
  // window is fusable: a kernel refusal is a broken index invariant and
  // fails the query rather than falling back to another scorer.
  const std::vector<BlockMaxEntry>& blockmax = index_->block_max();
  const compress::BlockDecoder* tf_dec = index_->tf_decoder();
  const float c0 = k1 * (1.0f - bb);
  const float c1 = k1 * bb * inv_avgdl;

  // Per-window block-max test: true when even Σ(other terms' ubs) plus the
  // window's bound under the live (k1, b, idf) cannot reach θ, so no
  // document in window w can enter the top k through this term.
  const auto window_below_theta = [&](const MsTerm& ts, uint32_t w) {
    const BlockMaxEntry& bm = blockmax[w];
    const float wb =
        Bm25One(ts.idf, static_cast<float>(bm.max_tf),
                static_cast<float>(bm.min_doclen), k1, bb, inv_avgdl);
    return ts.other_bound + wb < live_theta();
  };
  // Scores the decoded docid window behind `rv` into out[0..rv.win_len)
  // straight from the packed tf payload; dl is doclen staging.
  const auto score_window =
      [&](const MsTerm& ts, const compress::SortedRangeCursor::RunView& rv,
          int32_t* dl, float* out) {
        GatherI32(doclens, rv.vals, rv.win_len, dl);
        if (!FusedScoreTfWindow(tf_dec->WindowViewOf(rv.win_index), dl,
                                ts.idf * (k1 + 1.0f), c0, c1, out)) {
          return false;
        }
        ++ctx.stats.fused_windows;
        ++ctx.stats.primitive_calls;
        return true;
      };

  // Window-granular refill: append whole [lo, hi) window slices until the
  // buffer holds at least vector_size postings or the stream ends. Each
  // window is either rejected by its block bound without decoding, or
  // docid-decoded once and scored in one kernel call. False = the kernel
  // refused a window.
  const auto refill = [&](MsTerm& ts) {
    ts.voff = 0;
    ts.vlen = 0;
    ts.vec_start = ts.stream.position();
    compress::SortedRangeCursor& cur = ts.stream.range_cursor();
    alignas(32) int32_t wdl[compress::kEntryPointStride];
    alignas(32) float wscore[compress::kEntryPointStride];
    while (ts.vlen < vsize && !ts.stream.AtEnd()) {
      if (window_below_theta(ts, cur.CurrentWindowIndex())) {
        cur.SkipCurrentWindowBlockMax();
        // Leading skips move the buffer's start: vec_start must name the
        // first posting actually buffered (or the end, if none are).
        if (ts.vlen == 0) ts.vec_start = ts.stream.position();
        continue;
      }
      const compress::SortedRangeCursor::RunView rv = cur.CurrentRunView();
      if (!score_window(ts, rv, wdl, wscore)) return false;
      const uint32_t cnt = rv.hi - rv.lo;
      std::memcpy(ts.docids.data() + ts.vlen, rv.vals + rv.lo,
                  sizeof(int32_t) * cnt);
      std::memcpy(ts.scores.data() + ts.vlen, wscore + rv.lo,
                  sizeof(float) * cnt);
      ts.vlen += cnt;
      cur.AdvanceTo(rv.win_base + rv.hi);
    }
    return true;
  };
  if (!solo_only) {
    for (size_t i = 0; i < m; ++i) {
      if (!refill(states[i])) return FusedScoreRefused();
    }
  }

  // Folds the per-term cursor stats into ctx.stats — shared by the normal
  // exit and the deadline bail-out, so a DeadlineExceeded result still
  // reports everything the query actually did.
  const auto fold_stats = [&] {
    result->num_matches = candidates;
    for (size_t i = 0; i < m; ++i) {
      MsTerm& ts = states[i];
      ts.stream.FoldStats(&ctx.stats);
      if (ts.demoted) ts.probe.FoldStats(&ctx.stats);
      ctx.stats.tf_windows_decoded += ts.tf_reader.windows_decoded();
    }
    result->stats = ctx.stats;
  };

  // Window staging for the solo-stream fast path (one stride each; the
  // docids never need staging — the cursor's decoded run is used in place).
  alignas(32) int32_t sdl[compress::kEntryPointStride];
  alignas(32) float sscore[compress::kEntryPointStride];
  vec::sel_t wsel[compress::kEntryPointStride];

  // Completes a candidate's partial score from the demoted lists,
  // strongest first, with the live threshold: each probe either adds the
  // term's real contribution or retires its ub from the remaining
  // headroom; a candidate that provably cannot reach θ is dropped
  // mid-chain. θ cannot rise inside one chain (no push until it ends), so
  // one load covers it. Returns true after a heap push attempt — the
  // caller's cached cut may be stale then.
  const auto complete_and_push = [&](int32_t d, float s, size_t ness_now,
                                     float bound) -> bool {
    const float live = live_theta();
    float remaining = bound;
    for (size_t p = ness_now; p-- > 0;) {
      if (s + remaining < live) return false;
      MsTerm& nt = states[order[p]];
      remaining -= nt.ub;
      if (nt.probe.SkipTo(d) && nt.probe.value() == d) {
        const float tf =
            static_cast<float>(nt.tf_reader.TfAt(nt.probe.position()));
        s += Bm25One(nt.idf, tf, static_cast<float>(doclens[d]), k1, bb,
                     inv_avgdl);
        ++ctx.stats.docs_probed;
      }
    }
    topk.Push(d, s);
    return true;
  };

  for (;;) {
    // Deadline checkpoint: once per candidate vector (§9.3).
    if (opts.deadline != nullptr) {
      Status live = opts.deadline->Check();
      if (!live.ok()) {
        fold_stats();
        return live;
      }
    }
    const float theta = live_theta();
    // Re-partition between vectors: θ only grows, so demotion is one-way.
    while (ness < m && prefix[ness] < theta) {
      MsTerm& ts = states[order[ness]];
      ts.demoted = true;
      // Resume the probe at the current buffer's first posting: forward
      // SkipTo crosses the already-consumed prefix for free, and anything
      // block-max skipping dropped before this point is provably below θ
      // (see the soundness note above).
      const uint64_t consumed = ts.vec_start - ts.posting_start;
      X100IR_RETURN_IF_ERROR(ts.probe.Init(index_, ts.term, consumed));
      const uint64_t remaining = ts.df - consumed;
      ctx.stats.vectors_pruned += (remaining + vsize - 1) / vsize;
      ts.voff = ts.vlen = 0;  // drop the read-ahead tail; probes re-cover it
      ++ness;
    }
    if (ness == m) break;  // even all terms together cannot reach θ
    const float ness_bound = ness > 0 ? prefix[ness - 1] : 0.0f;

    // Solo-stream fast path: with a single essential list left — every
    // 1-term query, and every multi-term query once demotion has eaten the
    // rest — there is nothing to merge. The cursor's decoded docid run is
    // the candidate vector and the score kernel's output feeds the
    // threshold select directly, so postings flow window-at-a-time from
    // decode to select to heap with no staging copies at all.
    // (Tombstoned reads keep the generic merge, which filters per doc.)
    if (m - ness == 1 && opts.tombstones == nullptr) {
      MsTerm* solo = nullptr;
      for (size_t i = 0; i < m; ++i) {
        if (!states[i].demoted) solo = &states[i];
      }
      MsTerm& ts = *solo;
      // Drain whatever the buffered multi-stream phase left behind with
      // one select pass; streaming takes over on the next iteration.
      const uint32_t batch = ts.vlen - ts.voff;
      if (batch > 0) {
        const int32_t* bd = ts.docids.data() + ts.voff;
        const float* bs = ts.scores.data() + ts.voff;
        candidates += batch;
        const float cut = theta - ness_bound;
        const uint32_t n_cand =
            vec::SelectGeFloatVal(batch, cand_sel.data(), bs, cut);
        ++ctx.stats.primitive_calls;
        for (uint32_t j = 0; j < n_cand; ++j) {
          complete_and_push(bd[cand_sel[j]], bs[cand_sel[j]], ness,
                            ness_bound);
        }
        ts.voff = ts.vlen = 0;
        ts.vec_start = ts.stream.position();
        if (shared != nullptr) shared->RaiseTo(topk.threshold());
        continue;
      }
      if (ts.stream.AtEnd()) break;
      // Window-at-a-time streaming, one candidate vector's worth per outer
      // iteration (keeps the deadline / re-partition granularity).
      compress::SortedRangeCursor& cur = ts.stream.range_cursor();
      uint32_t consumed = 0;
      while (consumed < vsize && !ts.stream.AtEnd()) {
        if (window_below_theta(ts, cur.CurrentWindowIndex())) {
          cur.SkipCurrentWindowBlockMax();
          continue;
        }
        const compress::SortedRangeCursor::RunView rv = cur.CurrentRunView();
        if (!score_window(ts, rv, sdl, sscore)) return FusedScoreRefused();
        const uint32_t cnt = rv.hi - rv.lo;
        const int32_t* vd = rv.vals + rv.lo;
        const float* ws = sscore + rv.lo;
        candidates += cnt;
        const float cut = live_theta() - ness_bound;
        const uint32_t n_cand = vec::SelectGeFloatVal(cnt, wsel, ws, cut);
        ++ctx.stats.primitive_calls;
        for (uint32_t j = 0; j < n_cand; ++j) {
          complete_and_push(vd[wsel[j]], ws[wsel[j]], ness, ness_bound);
        }
        cur.AdvanceTo(rv.win_base + rv.hi);
        consumed += cnt;
      }
      ts.vec_start = ts.stream.position();
      if (shared != nullptr) shared->RaiseTo(topk.threshold());
      continue;
    }

    // Merge one vector of candidates from the essential streams. The
    // active set (essential, non-empty) is gathered once per vector —
    // streams leave it only by running dry, so the per-doc loops never
    // re-test demotion or emptiness across the whole states array. The
    // threshold filter (partial + ness_bound >= θ, i.e. partial >= θ −
    // ness_bound; −inf until the heap fills) is fused into the merge, and
    // survivors complete and push immediately — θ therefore rises *within*
    // the vector and the cached cut is refreshed after every push attempt,
    // so later docs in the same vector face the freshest threshold.
    float cut = theta - ness_bound;
    uint32_t seen = 0;
    MsTerm* act[16];
    MsTerm** act_heap = nullptr;
    std::vector<MsTerm*> act_big;
    MsTerm** ap = act;
    size_t na = 0;
    if (m > 16) {
      act_big.resize(m);
      act_heap = act_big.data();
      ap = act_heap;
    }
    for (size_t i = 0; i < m; ++i) {
      MsTerm& ts = states[i];
      if (!ts.demoted && ts.voff < ts.vlen) ap[na++] = &ts;
    }
    while (seen < vsize && na == 2) {
      // Two-pointer union — the workhorse shape (2-term queries, and
      // 3-term queries after one demotion). On a union merge the docid
      // comparison is a coin flip, so the advance is computed branch-free
      // (conditional moves). Both cursors are hoisted into locals for the
      // inner loop: nothing in the loop body touches the MsTerm objects
      // (probes and the heap live elsewhere), so the compiler keeps the
      // six hot values in registers instead of re-deriving them through
      // the state array every posting.
      MsTerm& a = *ap[0];
      MsTerm& b = *ap[1];
      const int32_t* ad = a.docids.data();
      const float* as = a.scores.data();
      const int32_t* bd = b.docids.data();
      const float* bs = b.scores.data();
      uint32_t ai = a.voff;
      const uint32_t an = a.vlen;
      uint32_t bi = b.voff;
      const uint32_t bn = b.vlen;
      while (seen < vsize && ai < an && bi < bn) {
        const int32_t da = ad[ai];
        const int32_t db = bd[bi];
        const float sa = as[ai];
        const float sb = bs[bi];
        const int32_t d = da < db ? da : db;
        const float partial = (da == d ? sa : 0.0f) + (db == d ? sb : 0.0f);
        ai += (da == d);
        bi += (db == d);
        if (TombstoneTest(opts.tombstones, d)) continue;
        ++seen;
        if (partial >= cut) {
          if (complete_and_push(d, partial, ness, ness_bound)) {
            cut = live_theta() - ness_bound;
          }
        }
      }
      a.voff = ai;
      b.voff = bi;
      if ((ai >= an && !refill(a)) || (bi >= bn && !refill(b))) {
        return FusedScoreRefused();
      }
      if (ap[1]->voff >= ap[1]->vlen) --na;
      if (ap[0]->voff >= ap[0]->vlen) {
        ap[0] = ap[na - 1];
        --na;
      }
    }
    // The find-min scan reads a local head array (maintained on every
    // advance) instead of chasing three dependent loads per stream through
    // the active-set pointers.
    int32_t heads[16];
    std::vector<int32_t> heads_big;
    int32_t* hp = heads;
    if (m > 16) {
      heads_big.resize(m);
      hp = heads_big.data();
    }
    for (size_t i = 0; i < na; ++i) hp[i] = ap[i]->docids[ap[i]->voff];
    while (seen < vsize && na > 0) {
      int32_t d = hp[0];
      for (size_t i = 1; i < na; ++i) {
        if (hp[i] < d) d = hp[i];
      }
      float partial = 0.0f;
      for (size_t i = 0; i < na; ++i) {
        if (hp[i] != d) continue;
        MsTerm& ts = *ap[i];
        partial += ts.scores[ts.voff];
        if (++ts.voff == ts.vlen) {
          if (!refill(ts)) return FusedScoreRefused();
          if (ts.voff >= ts.vlen) {  // stream dry: drop from the active set
            ap[i] = ap[na - 1];
            hp[i] = hp[na - 1];
            --na;
            --i;
            continue;
          }
        }
        hp[i] = ts.docids[ts.voff];
      }
      // Segmented read with deletes: the streams still advance past a dead
      // doc (posting consumption is positional) but it is never a
      // candidate — not scored, not probed, not counted.
      if (TombstoneTest(opts.tombstones, d)) continue;
      ++seen;
      if (partial >= cut) {
        if (complete_and_push(d, partial, ness, ness_bound)) {
          cut = live_theta() - ness_bound;
        }
      }
    }
    if (seen == 0) break;  // essential streams exhausted
    candidates += seen;
    // Publish once per candidate vector, not per push: the channel is a
    // bound, not a log, and the heap's threshold after the batch is the
    // tightest value this shard can prove.
    if (shared != nullptr) shared->RaiseTo(topk.threshold());
  }

  if (shared != nullptr) shared->RaiseTo(topk.threshold());
  topk.FinishSorted(&result->docids, &result->scores);
  fold_stats();
  return OkStatus();
}

}  // namespace x100ir::ir
