// Block-skipping scan support: one forward cursor over a *sorted* sub-range
// of a column (one term's posting window of TD.docid) whose SkipTo(target)
// loads only windows that can contain the probe, and one window cache for
// a term's value column. Both read the column a 128-value window at a time
// through a *window source*, which is all that differs between a resident
// block, a pool-served file and a plain array (DESIGN.md §7.1, §8.5).
//
// The trick is that the last value of a window inside a sorted range is its
// max, and a source can tell it without loading the window: a PFOR-DELTA
// entry point already stores the running value before its window
// (value_base, needed by LOOP3's seeded prefix sum), so the max of window w
// is WindowValueBase(w + 1); a raw column or an array reads it with one
// point read.
// Over a sorted range those maxima are nondecreasing, which turns "first
// window that can contain target" into a search over window maxima; only
// the one candidate window is then loaded (128 values) and searched —
// forward from the cursor's slot, 8 values per compare under AVX2, by
// binary search in the scalar ground truth (unpack.h's GetLowerBound).
// Windows the search jumps over are never touched — the paper's
// fine-granularity skipping, upgraded from positional (Decode(pos, len)) to
// value-based.
//
// Boundary care, pinned by the SkipCursor.* and SortedColumnCursor.* tests:
//   - the range is a *sub-range*: positions outside [begin, end) may belong
//     to other terms and are not sorted relative to it (force_base makes
//     each term-boundary reset a plain exception, invisible here);
//   - the window containing end - 1 may extend past the range, and the
//     column's final window has no successor entry point; neither max is
//     trusted, so such a window is always a load candidate;
//   - SkipTo never moves backwards: probes must be nondecreasing, which the
//     merge-join guarantees (docids ascend).
//
// A window source supplies:
//   size()                 the column's value count;
//   window_count()         its 128-value windows;
//   WindowMax(w, &max)     the last value of window w, asked only for full
//                          windows inside the range;
//   Load(w, &values)       window w's values;
//   CheckSorted()          non-OK when it cannot serve a sorted cursor.
// WindowMax and Load return false when the source failed; it latches the
// status where its owner reads it, and the cursor then ends. The resident
// and array sources never fail — both return a constant true, so after
// inlining the in-memory loops carry no status checks. Those two also
// serve the scan plans' flat reads (vec::ScanOperator):
//   Read(pos, len, dst)    values [pos, pos + len) into dst, any alignment;
//                          the caller keeps pos + len <= size().
//
// Cursors and caches are cheap to construct (a 128-value window buffer, no
// allocation) and single-threaded like everything else in a plan.
#ifndef X100IR_COMPRESS_SKIP_CURSOR_H_
#define X100IR_COMPRESS_SKIP_CURSOR_H_

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/status.h"
#include "compress/codec.h"
#include "compress/unpack.h"

namespace x100ir::compress {

// Per-cursor skipping telemetry, folded into the query's ExecStats by the
// operators that own cursors.
//
// Partition invariant (pinned by Codec.SkipStatsPartitionExact): for any
// driver that loads or skips every window it traverses (value() /
// CurrentRunView() / SkipTo / SkipCurrentWindowBlockMax — the engine's
// refill loop is such a driver), every 128-value window overlapping the
// cursor's [begin, end) range lands in exactly one of windows_decoded,
// windows_skipped, or windows_blockmax_skipped by the time the cursor
// exhausts. windows_decoded is *not* monotone in θ: a higher threshold can
// skip a window early that a lower one would have decoded, then decode a
// later window the lower one never reached — only the three-way sum is
// invariant, which is why the drift audit checks the partition, not any
// single counter.
struct SkipStats {
  uint64_t windows_decoded = 0;  // 128-value windows actually loaded
  uint64_t windows_skipped = 0;  // windows SkipTo jumped without loading
  // Windows rejected by a Block-Max bound (score upper bound < θ) without
  // loading. Disjoint from windows_skipped: value-based skips come from
  // SkipTo's window search, block-max skips from the caller's bound.
  uint64_t windows_blockmax_skipped = 0;
};

// One 128-value window of a column: i32 values (docids, tf) or f32 scores,
// by the column's type.
union WindowValues {
  int32_t i32[kEntryPointStride];
  float f32[kEntryPointStride];
};

// The window source over a resident compressed block. The decoder (and its
// block) must outlive every cursor or cache over it. Implicit from the
// decoder pointer, so SortedRangeCursor::Init takes the decoder directly.
class ResidentWindows {
 public:
  ResidentWindows() = default;
  ResidentWindows(const BlockDecoder* dec) : dec_(dec) {}

  Status CheckSorted() const {
    if (dec_ == nullptr) return InvalidArgument("null decoder");
    if (dec_->scheme() != Scheme::kPforDelta) {
      return InvalidArgument(
          "skip cursor needs window value bases (PFOR-DELTA)");
    }
    return OkStatus();
  }
  uint64_t size() const { return dec_->n(); }
  uint32_t window_count() const { return dec_->entry_count(); }
  bool WindowMax(uint32_t w, int32_t* max) const {
    *max = dec_->WindowValueBase(w + 1);
    return true;
  }
  bool Load(uint32_t w, WindowValues* dst) const {
    const uint64_t base = static_cast<uint64_t>(w) * kEntryPointStride;
    dec_->Decode(static_cast<uint32_t>(base),
                 static_cast<uint32_t>(std::min<uint64_t>(
                     kEntryPointStride, dec_->n() - base)),
                 dst->i32);
    return true;
  }
  // Range decode through the entry points: touches only the windows that
  // overlap [pos, pos + len).
  void Read(uint64_t pos, uint32_t len, int32_t* dst) const {
    dec_->Decode(static_cast<uint32_t>(pos), len, dst);
  }

 private:
  const BlockDecoder* dec_ = nullptr;
};

// The window source over a plain i32 array — a write buffer's postings,
// copied out for one read (ir/delta_segment.h): a window max is a point
// read and a load is a copy. The array must outlive every cursor or cache
// over it.
class ArrayWindows {
 public:
  ArrayWindows() = default;
  ArrayWindows(const int32_t* values, uint64_t n) : values_(values), n_(n) {}

  Status CheckSorted() const {
    if (values_ == nullptr && n_ > 0) return InvalidArgument("null array");
    return OkStatus();
  }
  uint64_t size() const { return n_; }
  uint32_t window_count() const {
    return static_cast<uint32_t>((n_ + kEntryPointStride - 1) /
                                 kEntryPointStride);
  }
  bool WindowMax(uint32_t w, int32_t* max) const {
    *max = values_[(static_cast<uint64_t>(w) + 1) * kEntryPointStride - 1];
    return true;
  }
  bool Load(uint32_t w, WindowValues* dst) const {
    const uint64_t base = static_cast<uint64_t>(w) * kEntryPointStride;
    std::memcpy(dst->i32, values_ + base,
                std::min<uint64_t>(kEntryPointStride, n_ - base) *
                    sizeof(int32_t));
    return true;
  }
  void Read(uint64_t pos, uint32_t len, int32_t* dst) const {
    std::memcpy(dst, values_ + pos, static_cast<size_t>(len) * sizeof(int32_t));
  }

 private:
  const int32_t* values_ = nullptr;
  uint64_t n_ = 0;
};

// The last window of a column loaded through `Source`, kept until another
// one is asked for: a term's value column (tf or scores), read at the
// windows the stream scores and then the ones probe completion reads; and
// the docid windows of a SortedCursor. windows_loaded() counts the loads.
template <class Source>
class WindowCache {
 public:
  void Init(const Source& src) {
    src_ = src;
    win_ = kNoWindow;
    loaded_ = 0;
  }

  // Makes window w the cached one; false (nothing cached) when the source
  // failed.
  bool Load(uint32_t w) {
    if (w == win_) return true;
    if (!src_.Load(w, &vals_)) {
      win_ = kNoWindow;
      return false;
    }
    win_ = w;
    ++loaded_;
    return true;
  }

  // Index of the cached window, or kNoWindow.
  uint32_t window() const { return win_; }
  const int32_t* i32() const { return vals_.i32; }
  const float* f32() const { return vals_.f32; }
  uint64_t windows_loaded() const { return loaded_; }
  Source& source() { return src_; }

  static constexpr uint32_t kNoWindow = 0xFFFFFFFFu;

 private:
  Source src_;
  uint32_t win_ = kNoWindow;
  WindowValues vals_;
  uint64_t loaded_ = 0;
};

// One loaded window's in-range slice: vals[lo..hi) are the values at
// column positions [win_base + lo, win_base + hi), all >= the cursor
// position and < end.
struct RunView {
  const int32_t* vals = nullptr;  // the full loaded window
  uint32_t win_index = 0;
  uint64_t win_base = 0;  // column position of vals[0]
  uint32_t win_len = 0;   // loaded values (may extend past the range)
  uint32_t lo = 0;        // first in-range slot (== pos - win_base)
  uint32_t hi = 0;        // one past the last in-range slot
};

template <class Source>
class SortedCursor {
 public:
  // The source's column must outlive the cursor. Values at positions
  // [begin, end) must be nondecreasing — the caller's contract, true for
  // any single term's slice of TD.docid.
  Status Init(const Source& src, uint64_t begin, uint64_t end) {
    X100IR_RETURN_IF_ERROR(src.CheckSorted());
    if (begin > end || end > src.size()) {
      return InvalidArgument("cursor range out of bounds");
    }
    win_.Init(src);
    end_ = end;
    pos_ = begin;
    skipped_ = 0;
    blockmax_skipped_ = 0;
    lower_bound_ = internal::GetLowerBound();
    return OkStatus();
  }

  bool AtEnd() const { return pos_ >= end_; }
  uint64_t position() const { return pos_; }
  SkipStats stats() const {
    SkipStats s;
    s.windows_decoded = win_.windows_loaded();
    s.windows_skipped = skipped_;
    s.windows_blockmax_skipped = blockmax_skipped_;
    return s;
  }

  // Current value; requires !AtEnd(). Loads the containing window on first
  // access (lazily, so a cursor that is only ever skipped past a window
  // never pays for it). 0 when the load fails.
  int32_t value() {
    if (!EnsureWindow()) return 0;
    return win_.i32()[pos_ % kStride];
  }

  // Advances one position; returns false at end.
  bool Next() { return ++pos_ < end_; }

  // --- Window-granular bulk access (Block-Max MaxScore, DESIGN.md §12) ---

  // Index of the window containing the cursor; requires !AtEnd().
  uint32_t CurrentWindowIndex() const {
    return static_cast<uint32_t>(pos_ / kStride);
  }

  // Jumps past the current window without loading it — the Block-Max
  // reject, taken when the caller's per-window score upper bound cannot
  // beat θ. Counted as blockmax-skipped unless the window is already
  // loaded (then windows_decoded already owns it; each window lands in
  // exactly one counter). Returns false when the cursor exhausts.
  bool SkipCurrentWindowBlockMax() {
    const uint32_t w = CurrentWindowIndex();
    if (win_.window() != w) ++blockmax_skipped_;
    pos_ = std::min<uint64_t>(end_, static_cast<uint64_t>(w + 1) * kStride);
    return pos_ < end_;
  }

  // The last value of the window containing the cursor, without loading
  // it, when SkipTo's search could read it: the window lies wholly inside
  // the range and is not the column's final one. False when the max is
  // unknown, and when the source failed (the cursor then ends). Requires
  // !AtEnd().
  bool CurrentWindowMax(int32_t* max) {
    const uint32_t w = CurrentWindowIndex();
    if ((static_cast<uint64_t>(w) + 1) * kStride > end_ ||
        w + 1 >= win_.source().window_count()) {
      return false;
    }
    return WindowMax(w, max);
  }

  // Loads (if needed) the window containing the cursor and returns its
  // in-range slice; requires !AtEnd(). The pointer stays valid until the
  // cursor loads another window. A failed load ends the cursor and returns
  // an empty run (lo == hi).
  RunView CurrentRunView() {
    RunView rv;
    rv.vals = win_.i32();
    if (!EnsureWindow()) {
      rv.win_base = end_;
      return rv;
    }
    rv.win_index = CurrentWindowIndex();
    rv.win_base = static_cast<uint64_t>(rv.win_index) * kStride;
    rv.win_len = static_cast<uint32_t>(
        std::min<uint64_t>(kStride, win_.source().size() - rv.win_base));
    rv.lo = static_cast<uint32_t>(pos_ - rv.win_base);
    rv.hi = static_cast<uint32_t>(
        std::min<uint64_t>(end_ - rv.win_base, kStride));
    return rv;
  }

  // Forward-only positional advance (to the end of a consumed run); moves
  // to min(pos, end) and never backwards.
  void AdvanceTo(uint64_t pos) {
    pos_ = std::max(pos_, std::min(pos, end_));
  }

  // Advances to the first position >= the current one whose value is
  // >= target; returns false (cursor at end) when no such position exists
  // or the source failed. Probes must be nondecreasing across calls.
  //
  // The first window whose max reaches the target is found by galloping
  // from the cursor's window and then binary search, so near targets test
  // near windows (on a raw column, near pages).
  bool SkipTo(int32_t target) {
    while (!AtEnd()) {
      const uint32_t w_from = CurrentWindowIndex();
      const uint32_t w_last = static_cast<uint32_t>((end_ - 1) / kStride);
      // Windows x < full_end lie wholly inside the range and have a known
      // max. The column's final window has no successor entry point, so it
      // is excluded even when the range covers it exactly.
      const uint32_t full_end =
          std::min(static_cast<uint32_t>(end_ / kStride),
                   win_.source().window_count() - 1);
      // The answer lies in [lo, hi]; hi == full_end means "no window with
      // a known max reaches the target".
      uint32_t lo = w_from;
      uint32_t hi = std::max(w_from, full_end);
      int32_t max = 0;
      for (uint32_t step = 1; lo < hi; step *= 2) {
        const uint32_t probe = std::min(hi - 1, lo + step - 1);
        if (!WindowMax(probe, &max)) return false;
        if (max >= target) {
          hi = probe;
          break;
        }
        lo = probe + 1;
      }
      while (lo < hi) {
        const uint32_t mid = lo + (hi - lo) / 2;
        if (!WindowMax(mid, &max)) return false;
        if (max >= target) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      uint32_t cand = lo;
      const uint32_t loaded = win_.window() == w_from ? 1 : 0;
      if (cand >= full_end) {
        // Every known max falls below target. If the range ends with a
        // window whose max is unknown (partial coverage or the column's
        // final window), that window is the last candidate; otherwise the
        // range holds no value >= target.
        if (full_end > w_last) {
          // The jump to end passes windows w_from..w_last without loading
          // them; they must still land in the skip count or the partition
          // invariant (SkipStats comment) would leak exactly this branch.
          skipped_ += w_last - w_from + 1 - loaded;
          pos_ = end_;
          return false;
        }
        cand = w_last;
      }
      if (cand > w_from) {
        skipped_ += cand - w_from - loaded;
        pos_ = static_cast<uint64_t>(cand) * kStride;
      }
      if (!EnsureWindow()) return false;
      // Lower bound within the window's in-range tail [pos_, cap); slots
      // outside it (earlier postings, another term's, a partial window's
      // stale tail) are never read as candidates.
      const uint64_t base = static_cast<uint64_t>(cand) * kStride;
      const uint64_t cap = std::min<uint64_t>(end_, base + kStride);
      const uint32_t s =
          lower_bound_(win_.i32(), static_cast<uint32_t>(pos_ - base),
                       static_cast<uint32_t>(cap - base), target);
      if (base + s < cap) {
        pos_ = base + s;
        return true;
      }
      // Only reachable when cand was the unknown-max trailing window and
      // its in-range values all fall below target: exhaust it and let the
      // loop observe AtEnd.
      pos_ = cap;
    }
    return false;
  }

 private:
  static constexpr uint32_t kStride = kEntryPointStride;

  // Loads the window containing pos_; a failure ends the cursor.
  bool EnsureWindow() {
    if (win_.Load(CurrentWindowIndex())) return true;
    pos_ = end_;
    return false;
  }

  // *max = the last value of full window w: the loaded window's own last
  // value when w is loaded, else the source's. A failure ends the cursor.
  bool WindowMax(uint32_t w, int32_t* max) {
    if (w == win_.window()) {
      *max = win_.i32()[kStride - 1];
      return true;
    }
    if (win_.source().WindowMax(w, max)) return true;
    pos_ = end_;
    return false;
  }

  WindowCache<Source> win_;
  uint64_t end_ = 0;
  uint64_t pos_ = 0;
  uint64_t skipped_ = 0;
  uint64_t blockmax_skipped_ = 0;
  // The in-window search, resolved once per Init (unpack.h's dispatch).
  internal::LowerBoundFn lower_bound_ = nullptr;
};

// The cursor over a resident block — a segment's docid cursor, in the
// streaming join and in the in-memory MaxScore backend.
using SortedRangeCursor = SortedCursor<ResidentWindows>;

}  // namespace x100ir::compress

#endif  // X100IR_COMPRESS_SKIP_CURSOR_H_
