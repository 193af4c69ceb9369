// The one ranked pruning executor: Block-Max MaxScore (DESIGN.md §7.4,
// §12), a template over its posting backend. kBm25 instantiates it over the
// in-memory compressed columns (search_engine.cc); the four storage runs
// instantiate it over pool-served columns (storage_runs.cc, DESIGN.md
// §8.5). Engine-internal, not part of the public API.
//
// Per term: a score upper bound ub = idf * (k1+1) * max_tf /
// (max_tf + c0 + c1 * min_doclen) — BM25 is monotone in tf and doclen, so
// no posting of the term can contribute more. Terms sorted by ub ascending
// give prefix sums P[i]; once the top-k threshold θ exceeds P[i], the i+1
// weakest terms are *non-essential*: a document appearing only in them
// tops out below θ and can never enter the heap. Their streams stop being
// merged (whole vectors pruned) and they are only probed — SkipTo on the
// docid windows — to complete the scores of candidates that survive a
// branch-free threshold select.
//
// The evaluation stays vector-at-a-time, and refills are *window-granular*
// (Block-Max MaxScore, DESIGN.md §12): an essential stream advances one
// 128-posting window at a time. Before decoding a window, the term's
// stored (max_tf, min_doclen) block bound — recomputed under the backend's
// (k1, b, idf) — is tested against θ: when even Σ(other terms' ubs) plus
// this window's bound cannot reach θ, no document in the window can enter
// the top k through *any* merge, so the window is skipped without
// decoding (windows_blockmax_skipped). Decoded windows are scored by the
// backend in one call. The merge emits candidate vectors of (docid,
// partial score), and one SelectColVal per vector rejects candidates whose
// partial + Σ(non-essential ubs) falls below θ. Only survivors touch the
// probe cursors and the branchy heap.
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
//
// The posting backend (MemPostings, PoolPostings) supplies:
//
//   Cursor    compress::SortedRangeCursor's interface — AtEnd, position,
//             value, SkipTo, CurrentWindowIndex, SkipCurrentWindowBlockMax,
//             CurrentRunView, AdvanceTo, stats — over one term's docids.
//   Values    a per-term value reader; windows_decoded() feeds
//             tf_windows_decoded.
//   index(), model(), Idf(term)     the scoring statistics the bounds and
//             the scores follow (ScoreModel).
//   InitCursor(cursor, info, offset), InitValues(values)
//   ScoreWindow(idf, values, run_view, doclen_scratch, out, stats)
//             scores the run's in-range slots out[lo..hi); false fails the
//             query with error().
//   ProbeScore(idf, values, position, docid)   one posting's contribution.
//   failed(), error()   the backend's failure latch. A backend whose
//             cursors can fail (a pool read) ends the failing term's stream
//             and latches the status; the executor returns it at the next
//             vector boundary and at exit. The in-memory backend's failed()
//             is a constant false, so its loops carry no status checks.
#ifndef X100IR_IR_MAXSCORE_H_
#define X100IR_IR_MAXSCORE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/shared_theta.h"
#include "common/status.h"
#include "compress/skip_cursor.h"
#include "ir/bm25.h"
#include "ir/collection_stats.h"
#include "ir/index_builder.h"
#include "ir/posting_cursor.h"
#include "ir/search_engine.h"
#include "ir/topk.h"
#include "vec/primitives.h"
#include "vec/scan.h"

namespace x100ir::ir {

// The BM25 model a backend's scores follow, and so the one its term and
// window upper bounds are computed under. `slack` is added to every bound:
// the q8 run's dequantized scores may exceed the analytic bound by half a
// quantization step.
struct ScoreModel {
  float k1 = 0.0f;
  float b = 0.0f;
  float inv_avgdl = 0.0f;
  float slack = 0.0f;
};

// Per-term state for the MaxScore evaluation.
template <class Postings>
struct MsTerm {
  uint32_t term = 0;
  float idf = 0.0f;
  float ub = 0.0f;
  // Σ of every *other* query term's ub, plus the model's slack — the
  // companion bound of the per-window skip test.
  float other_bound = 0.0f;
  uint32_t df = 0;
  uint64_t posting_start = 0;

  // Essential phase: sequential stream + vectorized scoring buffers. The
  // buffers hold up to a full extra window past vector_size (refills
  // append whole window slices); vec_start is the stream position of the
  // current buffer's first posting — what a demotion hands the probe
  // cursor as its resume offset (re-covering at most one buffered vector,
  // which forward-only SkipTo crosses for free).
  typename Postings::Cursor stream;
  uint64_t vec_start = 0;
  std::vector<int32_t> docids;
  std::vector<float> scores;
  uint32_t voff = 0, vlen = 0;

  // Non-essential phase: forward probe cursor from the first unconsumed
  // posting (the stream read ahead by up to one vector; that tail is
  // re-covered by the probe cursor, never lost), and the value reader
  // probe completion scores with.
  bool demoted = false;
  typename Postings::Cursor probe;
  typename Postings::Values values;
};

template <class Postings>
Status SearchBm25MaxScore(Postings& postings,
                          const std::vector<uint32_t>& terms,
                          const SearchOptions& opts, SearchResult* result) {
  using Term = MsTerm<Postings>;
  using RunView = compress::SortedRangeCursor::RunView;
  const InvertedIndex& index = postings.index();
  vec::ExecContext ctx;
  ctx.vector_size = opts.vector_size;
  X100IR_RETURN_IF_ERROR(ctx.Validate());
  const uint32_t vsize = ctx.vector_size;
  const ScoreModel& model = postings.model();
  const float k1 = model.k1;
  const float bb = model.b;
  const float inv_avgdl = model.inv_avgdl;
  const float min_dl = static_cast<float>(index.min_doc_len());

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
  static thread_local std::vector<Term> states_pool;
  static thread_local std::vector<uint32_t> order;
  static thread_local std::vector<float> prefix;
  static thread_local std::vector<vec::sel_t> cand_sel;
  if (states_pool.size() < m) states_pool.resize(m);
  Term* const states = states_pool.data();
  for (size_t i = 0; i < m; ++i) {
    Term& ts = states[i];
    const TermInfo& info = index.term(terms[i]);
    ts.term = terms[i];
    ts.idf = postings.Idf(terms[i]);
    ts.df = info.doc_freq;
    ts.ub = Bm25One(ts.idf, static_cast<float>(info.max_tf), min_dl, k1, bb,
                    inv_avgdl) +
            model.slack;
    ts.posting_start = info.posting_start;
    ts.voff = 0;
    ts.vlen = 0;
    ts.vec_start = 0;
    ts.demoted = false;
    X100IR_RETURN_IF_ERROR(postings.InitCursor(&ts.stream, info, 0));
    postings.InitValues(&ts.values);
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
  std::sort(order.begin(), order.end(), [states](uint32_t a, uint32_t b) {
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
  for (size_t i = 0; i < m; ++i) {
    states[i].other_bound = total_ub - states[i].ub + model.slack;
  }

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

  const std::vector<BlockMaxEntry>& blockmax = index.block_max();

  // Per-window block-max test: true when even Σ(other terms' ubs) plus the
  // window's bound under the backend's (k1, b, idf) cannot reach θ, so no
  // document in window w can enter the top k through this term.
  const auto window_below_theta = [&](const Term& ts, uint32_t w) {
    const BlockMaxEntry& bm = blockmax[w];
    const float wb =
        Bm25One(ts.idf, static_cast<float>(bm.max_tf),
                static_cast<float>(bm.min_doclen), k1, bb, inv_avgdl);
    return ts.other_bound + wb < live_theta();
  };

  // Window-granular refill: append whole [lo, hi) window slices until the
  // buffer holds at least vector_size postings or the stream ends. Each
  // window is either rejected by its block bound without decoding, or
  // docid-decoded once and scored in one backend call. False = the
  // backend failed a window.
  const auto refill = [&](Term& ts) {
    ts.voff = 0;
    ts.vlen = 0;
    ts.vec_start = ts.stream.position();
    alignas(32) int32_t wdl[compress::kEntryPointStride];
    alignas(32) float wscore[compress::kEntryPointStride];
    while (ts.vlen < vsize && !ts.stream.AtEnd()) {
      if (window_below_theta(ts, ts.stream.CurrentWindowIndex())) {
        ts.stream.SkipCurrentWindowBlockMax();
        // Leading skips move the buffer's start: vec_start must name the
        // first posting actually buffered (or the end, if none are).
        if (ts.vlen == 0) ts.vec_start = ts.stream.position();
        continue;
      }
      const RunView rv = ts.stream.CurrentRunView();
      if (!postings.ScoreWindow(ts.idf, ts.values, rv, wdl, wscore,
                                &ctx.stats)) {
        return false;
      }
      const uint32_t cnt = rv.hi - rv.lo;
      std::memcpy(ts.docids.data() + ts.vlen, rv.vals + rv.lo,
                  sizeof(int32_t) * cnt);
      std::memcpy(ts.scores.data() + ts.vlen, wscore + rv.lo,
                  sizeof(float) * cnt);
      ts.vlen += cnt;
      ts.stream.AdvanceTo(rv.win_base + rv.hi);
    }
    return true;
  };

  // Folds the per-term cursor stats into ctx.stats — shared by the normal
  // exit and the failure bail-outs, so a failed result still reports
  // everything the query actually did.
  const auto fold_stats = [&] {
    result->num_matches = candidates;
    for (size_t i = 0; i < m; ++i) {
      Term& ts = states[i];
      AddSkipStats(ts.stream.stats(), &ctx.stats);
      if (ts.demoted) AddSkipStats(ts.probe.stats(), &ctx.stats);
      ctx.stats.tf_windows_decoded += ts.values.windows_decoded();
    }
    result->stats = ctx.stats;
  };
  const auto fail = [&] {
    fold_stats();
    return postings.error();
  };

  if (!solo_only) {
    for (size_t i = 0; i < m; ++i) {
      if (!refill(states[i])) return fail();
    }
  }

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
      Term& nt = states[order[p]];
      remaining -= nt.ub;
      if (nt.probe.SkipTo(d) && nt.probe.value() == d) {
        s += postings.ProbeScore(nt.idf, nt.values, nt.probe.position(), d);
        ++ctx.stats.docs_probed;
      }
    }
    topk.Push(d, s);
    return true;
  };

  for (;;) {
    // Deadline and backend-failure checkpoint: once per candidate vector
    // (§9.3).
    if (opts.deadline != nullptr) {
      Status live = opts.deadline->Check();
      if (!live.ok()) {
        fold_stats();
        return live;
      }
    }
    if (postings.failed()) return fail();
    const float theta = live_theta();
    // Re-partition between vectors: θ only grows, so demotion is one-way.
    while (ness < m && prefix[ness] < theta) {
      Term& ts = states[order[ness]];
      ts.demoted = true;
      // Resume the probe at the current buffer's first posting: forward
      // SkipTo crosses the already-consumed prefix for free, and anything
      // block-max skipping dropped before this point is provably below θ
      // (see the soundness note above).
      const uint64_t consumed = ts.vec_start - ts.posting_start;
      X100IR_RETURN_IF_ERROR(
          postings.InitCursor(&ts.probe, index.term(ts.term), consumed));
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
      Term* solo = nullptr;
      for (size_t i = 0; i < m; ++i) {
        if (!states[i].demoted) solo = &states[i];
      }
      Term& ts = *solo;
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
      uint32_t consumed = 0;
      while (consumed < vsize && !ts.stream.AtEnd()) {
        if (window_below_theta(ts, ts.stream.CurrentWindowIndex())) {
          ts.stream.SkipCurrentWindowBlockMax();
          continue;
        }
        const RunView rv = ts.stream.CurrentRunView();
        if (!postings.ScoreWindow(ts.idf, ts.values, rv, sdl, sscore,
                                  &ctx.stats)) {
          return fail();
        }
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
        ts.stream.AdvanceTo(rv.win_base + rv.hi);
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
    Term* act[16];
    Term** act_heap = nullptr;
    std::vector<Term*> act_big;
    Term** ap = act;
    size_t na = 0;
    if (m > 16) {
      act_big.resize(m);
      act_heap = act_big.data();
      ap = act_heap;
    }
    for (size_t i = 0; i < m; ++i) {
      Term& ts = states[i];
      if (!ts.demoted && ts.voff < ts.vlen) ap[na++] = &ts;
    }
    while (seen < vsize && na == 2) {
      // Two-pointer union — the workhorse shape (2-term queries, and
      // 3-term queries after one demotion). On a union merge the docid
      // comparison is a coin flip, so the advance is computed branch-free
      // (conditional moves). Both cursors are hoisted into locals for the
      // inner loop: nothing in the loop body touches the term objects
      // (probes and the heap live elsewhere), so the compiler keeps the
      // six hot values in registers instead of re-deriving them through
      // the state array every posting.
      Term& a = *ap[0];
      Term& b = *ap[1];
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
        return fail();
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
        Term& ts = *ap[i];
        partial += ts.scores[ts.voff];
        if (++ts.voff == ts.vlen) {
          if (!refill(ts)) return fail();
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

  if (postings.failed()) return fail();
  if (shared != nullptr) shared->RaiseTo(topk.threshold());
  topk.FinishSorted(&result->docids, &result->scores);
  fold_stats();
  return OkStatus();
}

}  // namespace x100ir::ir

#endif  // X100IR_IR_MAXSCORE_H_
