// Storage-backed column access: a ColumnReader serves one on-disk .col file
// (ir/index_meta.h layout) through the buffer pool instead of a raw in-RAM
// array — the Table 2 cold runs' data path.
//
//   raw i32/f32   — value ranges map to byte ranges; reads pin the covering
//                   pages and copy out.
//   quantized u8  — same, plus dequantization (value = bias + scale * q)
//                   against the scale/bias stored in the file.
//   compressed    — the codec *metadata* (header + entry points + the
//                   exception-record section, a few % of the block) stays
//                   resident from Open, like a real system's cached block
//                   headers and patch data; window payloads are fetched
//                   through the pool per 128-value window
//                   (compress::WindowExtent) and decoded from a padded
//                   scratch, so a skipped window costs no I/O and an
//                   evicted one is re-fetched with its cost charged to
//                   the simulated disk.
//
// Open validates the header against the *exact* file size before trusting
// anything (torn-write safety: a truncated or grown file fails loudly here
// and the index builder falls back to a rebuild).
//
// Thread contract (DESIGN.md §9.1): after Open, one ColumnReader is shared
// by every concurrent query — Read/ReadF32/DecodeWindow keep all mutable
// state on the caller's stack and go through the thread-safe buffer pool,
// so they may race freely; the reader itself is immutable. Window counts
// belong to the query: SortedColumnCursor (per-query state — create one
// per query, never share it) and the storage runs' value readers count
// the windows they load.
//
// Transient page faults (storage/fault_injection.h) are retried here, in
// VisitBytes — the single funnel every byte passes through — with a
// classified retry loop: Unavailable retries up to RetryPolicy::budget
// with doubling backoff charged to the simulated disk; any other failure
// (torn read -> IOError, pool exhaustion) propagates unchanged.
#ifndef X100IR_STORAGE_COLUMN_READER_H_
#define X100IR_STORAGE_COLUMN_READER_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "compress/codec.h"
#include "compress/skip_cursor.h"
#include "storage/buffer_manager.h"
#include "storage/file.h"

namespace x100ir::storage {

class ColumnReader {
 public:
  ColumnReader() = default;
  ColumnReader(const ColumnReader&) = delete;
  ColumnReader& operator=(const ColumnReader&) = delete;

  // Opens and validates `path`, registers it with `bm` (borrowed, must
  // outlive the reader) under `file_id`. Header/metadata reads happen
  // directly (open-time cost, not charged to the query-time disk model).
  Status Open(const std::string& path, uint32_t file_id, BufferManager* bm);

  uint64_t value_count() const { return value_count_; }
  uint32_t encoding() const { return encoding_; }
  bool is_compressed() const;
  bool is_open() const { return file_.is_open(); }

  // Quantization parameters (kQuantU8 columns only).
  float q8_scale() const { return q8_scale_; }
  float q8_bias() const { return q8_bias_; }

  // dst[0..len) = values [pos, pos + len), fetched through the pool.
  // Read: i32 columns (raw i32 or compressed block);
  // ReadF32: f32 columns (raw f32, or u8 dequantized on the fly).
  Status Read(uint64_t pos, uint32_t len, int32_t* dst);
  Status ReadF32(uint64_t pos, uint32_t len, float* dst);

  // Window interface (skip cursors) over 128-value windows. num_windows()
  // holds for every encoding, the rest for compressed columns only. `dst`
  // must hold kEntryPointStride values; *wn receives the window's length.
  uint32_t num_windows() const;
  int32_t WindowValueBase(uint32_t w) const;
  bool WindowIsDelta() const;  // value bases meaningful (PFOR-DELTA)
  Status DecodeWindow(uint32_t w, int32_t* dst, uint32_t* wn);

  // The pool id this column was opened under — what EvictFile /
  // UnregisterFile take for per-column cold resets and retirement.
  uint32_t file_id() const { return file_id_; }

 private:
  // Hands file bytes [offset, offset + len) to fn(bytes, n) one pinned
  // page's share at a time, in order, retrying transient faults per the
  // pool's RetryPolicy.
  template <typename Fn>
  Status VisitBytes(uint64_t offset, uint64_t len, Fn&& fn);
  // VisitBytes copying the bytes out to dst.
  Status FetchBytes(uint64_t offset, uint64_t len, uint8_t* dst);

  // One pin attempt with the classified retry loop around it.
  Status PinWithRetry(PinnedPage* pin, uint64_t page_no);

  File file_;
  uint32_t file_id_ = 0;
  BufferManager* bm_ = nullptr;
  uint64_t file_size_ = 0;
  uint64_t value_count_ = 0;
  uint32_t encoding_ = 0;
  uint64_t payload_offset_ = 0;  // first value/block byte
  float q8_scale_ = 0.0f;
  float q8_bias_ = 0.0f;

  // Compressed columns: resident codec metadata + exception section. All
  // of it is immutable after Open; decode scratch lives on the stack of
  // each call so concurrent queries never share a buffer.
  std::vector<uint8_t> block_meta_;
  std::vector<uint8_t> exc_section_;
  uint64_t exc_section_offset_ = 0;  // block-relative
  compress::BlockDecoder decoder_;
};

// Forward cursor over a *sorted* sub-range [begin, end) of an i32 column —
// the storage twin of compress::SortedRangeCursor with the same interface
// (value / SkipTo / the window API), the same boundary rules and the same
// three window counters, pinned against it by tests — so the Block-Max
// MaxScore executor (ir/maxscore.h) drives either one. Values come through
// the pool, a 128-value window at a time:
//
//   compressed — a window's max is the next entry point's resident value
//     base, so SkipTo's window search reads no payload and only the one
//     candidate window is fetched + decoded;
//   raw        — no window metadata exists, so SkipTo reads each window
//     max it tests with a point read (page-granular through the pool),
//     galloping forward from the cursor so near targets touch near pages,
//     then reads the one candidate window. It lands on the same windows.
//
// Failure: any access may fault a page in, and a pool error (a torn read,
// a pool smaller than the pinned working set) must never become a wrong
// result. The accessors mirror the in-memory cursor and return no Status,
// so the first error is written to the borrowed `latch` and ends the
// cursor: it reports AtEnd, SkipTo returns false and CurrentRunView an
// empty run (lo == hi). The caller checks the latch.
class SortedColumnCursor {
 public:
  using RunView = compress::SortedRangeCursor::RunView;

  // The reader and the latch must outlive the cursor; [begin, end) values
  // nondecreasing. A latch may be shared by every cursor of one query.
  Status Init(ColumnReader* col, uint64_t begin, uint64_t end,
              Status* latch);

  bool AtEnd() const { return pos_ >= end_; }
  uint64_t position() const { return pos_; }
  const compress::SkipStats& stats() const { return stats_; }

  // Current value; requires !AtEnd(). 0 if the window fetch fails.
  int32_t value();

  // compress::SortedRangeCursor's window API, same contracts.
  uint32_t CurrentWindowIndex() const {
    return static_cast<uint32_t>(pos_ / kStride);
  }
  bool SkipCurrentWindowBlockMax();
  RunView CurrentRunView();
  void AdvanceTo(uint64_t pos) {
    pos_ = std::max(pos_, std::min(pos, end_));
  }

  // Advances to the first position >= the current one whose value is >=
  // target (nondecreasing targets); false when the cursor reaches the end
  // or fails.
  bool SkipTo(int32_t target);

 private:
  static constexpr uint32_t kStride = compress::kEntryPointStride;
  static constexpr uint32_t kNoWindow = 0xFFFFFFFFu;

  // Loads the window containing pos_; false after a latched failure.
  bool EnsureWindow();
  // *out = the last value of window w (w below SkipTo's full_end); false
  // after a latched failure.
  bool WindowMax(uint32_t w, int32_t* out);
  void Fail(Status s);

  ColumnReader* col_ = nullptr;
  Status* latch_ = nullptr;
  uint64_t end_ = 0, pos_ = 0;
  bool compressed_ = false;
  uint32_t win_ = kNoWindow;
  uint64_t win_base_ = 0;
  uint32_t win_len_ = 0;
  int32_t win_vals_[kStride];
  compress::SkipStats stats_;
};

}  // namespace x100ir::storage

#endif  // X100IR_STORAGE_COLUMN_READER_H_
