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
// belong to the query: the cursors and window caches over PoolWindows
// (per-query state — create them per query, never share them) count the
// windows they load.
//
// Transient page faults (storage/fault_injection.h) are retried here, in
// VisitBytes — the single funnel every byte passes through — with a
// classified retry loop: Unavailable retries up to RetryPolicy::budget
// with doubling backoff charged to the simulated disk; any other failure
// (torn read -> IOError, pool exhaustion) propagates unchanged.
#ifndef X100IR_STORAGE_COLUMN_READER_H_
#define X100IR_STORAGE_COLUMN_READER_H_

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
  // Drops the column's pages from the pool (BufferManager::EvictFile).
  ~ColumnReader();
  ColumnReader(const ColumnReader&) = delete;
  ColumnReader& operator=(const ColumnReader&) = delete;

  // Opens and validates `path` and takes a fresh file id from `bm`
  // (borrowed, must outlive the reader); every page read goes through the
  // pool under that id. Header/metadata reads happen directly (open-time
  // cost, not charged to the query-time disk model).
  Status Open(const std::string& path, BufferManager* bm);

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

  // Window interface of compressed columns over 128-value windows. `dst`
  // must hold kEntryPointStride values; *wn receives the window's length.
  int32_t WindowValueBase(uint32_t w) const;
  Status DecodeWindow(uint32_t w, int32_t* dst, uint32_t* wn);

  // The id the pool issued this column at Open — what EvictFile takes for
  // per-column cold resets.
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

  friend class PoolWindows;  // reads the block scheme

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

// The window source (compress/skip_cursor.h) over a pool-served column:
// compress::SortedCursor<PoolWindows> is the storage runs' docid cursor and
// compress::WindowCache<PoolWindows> their per-term value reader. Windows
// come through the pool a 128-value window at a time:
//
//   compressed — a window's max is the next entry point's resident value
//     base, so SkipTo's window search reads no payload and only the one
//     candidate window is fetched + decoded;
//   raw        — no window metadata exists, so a window max is a point
//     read (page-granular through the pool); the cursor's gallop keeps
//     those reads near its position;
//   f32 / q8   — score windows, read (and dequantized) for a value cache.
//
// Failure: any access may fault a page in, and a pool error (a torn read,
// a pool smaller than the pinned working set) must never become a wrong
// result. The first error is written to the borrowed `latch`, and the
// access reports false: a cursor ends (AtEnd, SkipTo false, an empty
// CurrentRunView) and a cache holds no window. The caller checks the
// latch; one latch may be shared by every source of one query.
class PoolWindows {
 public:
  PoolWindows() = default;
  // The reader and the latch must outlive the source.
  PoolWindows(ColumnReader* col, Status* latch) : col_(col), latch_(latch) {}

  // Rejects a null reader or latch, and a compressed block that is not
  // PFOR-DELTA (its value bases are no window maxima).
  Status CheckSorted() const;
  uint64_t size() const { return col_->value_count(); }
  uint32_t window_count() const;
  bool WindowMax(uint32_t w, int32_t* max);
  bool Load(uint32_t w, compress::WindowValues* dst);

 private:
  // True for OK; else latches the first error and returns false.
  bool Latch(Status s);

  ColumnReader* col_ = nullptr;
  Status* latch_ = nullptr;
};

}  // namespace x100ir::storage

#endif  // X100IR_STORAGE_COLUMN_READER_H_
