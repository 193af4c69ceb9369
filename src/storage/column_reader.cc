#include "storage/column_reader.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/string_util.h"
#include "compress/block_layout.h"
#include "ir/index_meta.h"

namespace x100ir::storage {

using ir::ColumnFileHeader;
using ir::Q8Params;

Status ColumnReader::Open(const std::string& path, uint32_t file_id,
                          BufferManager* bm) {
  if (bm == nullptr) return InvalidArgument("null buffer manager");
  X100IR_RETURN_IF_ERROR(File::OpenReadOnly(path, &file_));
  X100IR_RETURN_IF_ERROR(file_.Size(&file_size_));
  ColumnFileHeader hdr;
  if (file_size_ < sizeof(hdr)) {
    return IOError("column file shorter than its header: " + path);
  }
  X100IR_RETURN_IF_ERROR(file_.ReadAt(0, sizeof(hdr), &hdr));
  if (hdr.magic != ColumnFileHeader::kMagic) {
    return IOError("bad column magic in " + path);
  }
  encoding_ = hdr.encoding;
  value_count_ = hdr.value_count;
  payload_offset_ = sizeof(hdr);

  switch (encoding_) {
    case ColumnFileHeader::kRawI32:
    case ColumnFileHeader::kRawF32: {
      const uint64_t want = sizeof(hdr) + value_count_ * 4;
      if (file_size_ != want) {
        return IOError(StrFormat("column %s is %llu bytes, expected %llu",
                                 path.c_str(),
                                 static_cast<unsigned long long>(file_size_),
                                 static_cast<unsigned long long>(want)));
      }
      break;
    }
    case ColumnFileHeader::kQuantU8: {
      const uint64_t want = sizeof(hdr) + sizeof(Q8Params) + value_count_;
      if (file_size_ != want) {
        return IOError(StrFormat("column %s is %llu bytes, expected %llu",
                                 path.c_str(),
                                 static_cast<unsigned long long>(file_size_),
                                 static_cast<unsigned long long>(want)));
      }
      Q8Params params;
      X100IR_RETURN_IF_ERROR(
          file_.ReadAt(sizeof(hdr), sizeof(params), &params));
      if (!std::isfinite(params.scale) || !std::isfinite(params.bias) ||
          params.scale <= 0.0f) {
        return IOError("bad quantization parameters in " + path);
      }
      q8_scale_ = params.scale;
      q8_bias_ = params.bias;
      payload_offset_ += sizeof(params);
      break;
    }
    case ColumnFileHeader::kCompressedBlock: {
      // Keep the codec metadata prefix (header + entry points + dict)
      // resident; InitMeta revalidates every section offset against the
      // exact block size, so truncation anywhere past the metadata is
      // caught here too (the exceptions section's end is part of the
      // check).
      const uint64_t block_size = file_size_ - sizeof(hdr);
      constexpr size_t kBlockHeaderBytes =
          sizeof(compress::internal::BlockHeader);
      if (block_size < kBlockHeaderBytes) {
        return IOError("compressed block too small");
      }
      compress::internal::BlockHeader probe;
      X100IR_RETURN_IF_ERROR(
          file_.ReadAt(sizeof(hdr), sizeof(probe), &probe));
      const uint32_t code_offset = probe.code_offset;
      if (code_offset < kBlockHeaderBytes || code_offset > block_size) {
        return IOError("bad code offset in " + path);
      }
      block_meta_.resize(code_offset);
      X100IR_RETURN_IF_ERROR(
          file_.ReadAt(sizeof(hdr), code_offset, block_meta_.data()));
      X100IR_RETURN_IF_ERROR(
          decoder_.InitMeta(block_meta_.data(), block_meta_.size(),
                            block_size));
      if (decoder_.n() != value_count_) {
        return IOError("block value count disagrees with column header");
      }
      // The exception-record section stays resident alongside the entry
      // points (it is the block's patch data — small, shared by every
      // window, and needed by any decode that hits an exception).
      exc_section_offset_ = decoder_.ExcSectionOffset();
      exc_section_.resize(8ull * decoder_.n_exceptions());
      if (!exc_section_.empty()) {
        X100IR_RETURN_IF_ERROR(file_.ReadAt(sizeof(hdr) + exc_section_offset_,
                                            exc_section_.size(),
                                            exc_section_.data()));
      }
      break;
    }
    default:
      return IOError(StrFormat("unknown column encoding %u", encoding_));
  }

  file_id_ = file_id;
  bm_ = bm;
  return bm_->RegisterFile(file_id_, &file_);
}

bool ColumnReader::is_compressed() const {
  return encoding_ == ColumnFileHeader::kCompressedBlock;
}

// Classified retry (DESIGN.md §9.4): only Unavailable — the code the fault
// injector uses for transient read errors — is retried, with doubling
// backoff charged to the simulated disk (deterministic, never a real
// sleep). Torn reads (IOError), pool exhaustion, and everything else fail
// the query on the first attempt. Each retry is a fresh fetch: a faulted
// page never entered the pool, so no poisoned frame can be re-served.
Status ColumnReader::PinWithRetry(PinnedPage* pin, uint64_t page_no) {
  const RetryPolicy& retry = bm_->retry_policy();
  double backoff = retry.backoff_seconds;
  for (uint32_t attempt = 0;; ++attempt) {
    Status s = pin->Acquire(bm_, file_id_, page_no);
    if (s.ok() || !IsTransient(s) || attempt >= retry.budget) return s;
    if (bm_->disk() != nullptr) bm_->disk()->ChargeLatency(backoff);
    backoff *= 2.0;
  }
}

Status ColumnReader::FetchBytes(uint64_t offset, uint64_t len,
                                uint8_t* dst) {
  if (offset + len > file_size_) {
    return InvalidArgument("column byte range out of bounds");
  }
  const uint32_t page_bytes = bm_->page_bytes();
  while (len > 0) {
    const uint64_t page_no = offset / page_bytes;
    const uint64_t in_page = offset - page_no * page_bytes;
    PinnedPage pin;
    X100IR_RETURN_IF_ERROR(PinWithRetry(&pin, page_no));
    const uint64_t take = std::min<uint64_t>(len, pin.len() - in_page);
    std::memcpy(dst, pin.data() + in_page, take);
    dst += take;
    offset += take;
    len -= take;
  }
  return OkStatus();
}

uint32_t ColumnReader::num_windows() const {
  return static_cast<uint32_t>(
      (value_count_ + compress::kEntryPointStride - 1) /
      compress::kEntryPointStride);
}

int32_t ColumnReader::WindowValueBase(uint32_t w) const {
  return decoder_.WindowValueBase(w);
}

bool ColumnReader::WindowIsDelta() const {
  return is_compressed() &&
         decoder_.scheme() == compress::Scheme::kPforDelta;
}

Status ColumnReader::DecodeWindow(uint32_t w, int32_t* dst, uint32_t* wn) {
  if (!is_compressed()) return Internal("DecodeWindow on a raw column");
  if (w >= decoder_.entry_count()) {
    return InvalidArgument("window index out of range");
  }
  // Stack scratch, not a member: DecodeWindow races with itself across
  // queries sharing this reader (§9.1), so per-call state stays per-call.
  alignas(8) uint8_t payload_scratch[4 * compress::kEntryPointStride + 8];
  const compress::WindowExtent ext = decoder_.WindowExtentOf(w);
  if (ext.payload_bytes > sizeof(payload_scratch) - 8) {
    return Internal("window extent exceeds scratch (corrupt metadata)");
  }
  const uint64_t exc_rel = ext.exc_offset - exc_section_offset_;
  if (exc_rel + ext.exc_count * 8ull > exc_section_.size()) {
    return Internal("window exception range outside the resident section");
  }
  X100IR_RETURN_IF_ERROR(FetchBytes(payload_offset_ + ext.payload_offset,
                                    ext.payload_bytes, payload_scratch));
  // Zero the unaligned-load slack past the payload (the decode kernels may
  // read up to 8 bytes beyond the last codeword).
  std::memset(payload_scratch + ext.payload_bytes, 0, 8);
  decoder_.DecodeWindowDetached(w, payload_scratch,
                                exc_section_.data() + exc_rel, dst);
  const uint64_t base =
      static_cast<uint64_t>(w) * compress::kEntryPointStride;
  *wn = static_cast<uint32_t>(
      std::min<uint64_t>(compress::kEntryPointStride, value_count_ - base));
  return OkStatus();
}

Status ColumnReader::Read(uint64_t pos, uint32_t len, int32_t* dst) {
  if (pos + len > value_count_) {
    return InvalidArgument("column read out of range");
  }
  if (len == 0) return OkStatus();
  if (encoding_ == ColumnFileHeader::kRawI32) {
    return FetchBytes(payload_offset_ + pos * 4, 4ull * len,
                      reinterpret_cast<uint8_t*>(dst));
  }
  if (!is_compressed()) {
    return Internal("Read(i32) on a non-integer column");
  }
  constexpr uint32_t kStride = compress::kEntryPointStride;
  int32_t tmp[kStride];
  const uint64_t last = pos + len - 1;
  for (uint32_t w = static_cast<uint32_t>(pos / kStride);
       w <= static_cast<uint32_t>(last / kStride); ++w) {
    uint32_t wn = 0;
    X100IR_RETURN_IF_ERROR(DecodeWindow(w, tmp, &wn));
    const uint64_t base = static_cast<uint64_t>(w) * kStride;
    const uint32_t lo = static_cast<uint32_t>(pos > base ? pos - base : 0);
    const uint32_t hi = static_cast<uint32_t>(
        std::min<uint64_t>(wn, pos + len - base));
    std::memcpy(dst, tmp + lo, static_cast<size_t>(hi - lo) * 4);
    dst += hi - lo;
  }
  return OkStatus();
}

Status ColumnReader::ReadF32(uint64_t pos, uint32_t len, float* dst) {
  if (pos + len > value_count_) {
    return InvalidArgument("column read out of range");
  }
  if (len == 0) return OkStatus();
  if (encoding_ == ColumnFileHeader::kRawF32) {
    return FetchBytes(payload_offset_ + pos * 4, 4ull * len,
                      reinterpret_cast<uint8_t*>(dst));
  }
  if (encoding_ != ColumnFileHeader::kQuantU8) {
    return Internal("ReadF32 on a non-float column");
  }
  // Local staging (not a member buffer): concurrent ReadF32 calls on the
  // shared reader must not stomp each other's bytes.
  std::vector<uint8_t> bytes(len);
  X100IR_RETURN_IF_ERROR(
      FetchBytes(payload_offset_ + pos, len, bytes.data()));
  for (uint32_t i = 0; i < len; ++i) {
    dst[i] = q8_bias_ + q8_scale_ * static_cast<float>(bytes[i]);
  }
  return OkStatus();
}

// ---------------------------------------------------------------------------
// SortedColumnCursor
// ---------------------------------------------------------------------------

Status SortedColumnCursor::Init(ColumnReader* col, uint64_t begin,
                                uint64_t end, Status* latch) {
  if (col == nullptr) return InvalidArgument("null column reader");
  if (latch == nullptr) return InvalidArgument("null failure latch");
  if (begin > end || end > col->value_count()) {
    return InvalidArgument("cursor range out of bounds");
  }
  compressed_ = col->is_compressed();
  if (compressed_ && !col->WindowIsDelta()) {
    return InvalidArgument(
        "sorted cursor needs window value bases (PFOR-DELTA)");
  }
  col_ = col;
  latch_ = latch;
  end_ = end;
  pos_ = begin;
  win_ = kNoWindow;
  stats_ = compress::SkipStats();
  return OkStatus();
}

void SortedColumnCursor::Fail(Status s) {
  if (latch_->ok()) *latch_ = std::move(s);
  pos_ = end_;
}

bool SortedColumnCursor::EnsureWindow() {
  const uint32_t w = static_cast<uint32_t>(pos_ / kStride);
  if (w == win_) return true;
  const uint64_t base = static_cast<uint64_t>(w) * kStride;
  uint32_t len = static_cast<uint32_t>(
      std::min<uint64_t>(kStride, col_->value_count() - base));
  Status s = compressed_ ? col_->DecodeWindow(w, win_vals_, &len)
                         : col_->Read(base, len, win_vals_);
  if (!s.ok()) {
    Fail(std::move(s));
    return false;
  }
  win_ = w;
  win_base_ = base;
  win_len_ = len;
  ++stats_.windows_decoded;
  return true;
}

bool SortedColumnCursor::WindowMax(uint32_t w, int32_t* out) {
  if (compressed_) {
    *out = col_->WindowValueBase(w + 1);
    return true;
  }
  if (w == win_) {
    *out = win_vals_[kStride - 1];
    return true;
  }
  Status s = col_->Read(static_cast<uint64_t>(w + 1) * kStride - 1, 1, out);
  if (!s.ok()) {
    Fail(std::move(s));
    return false;
  }
  return true;
}

int32_t SortedColumnCursor::value() {
  if (!EnsureWindow()) return 0;
  return win_vals_[pos_ - win_base_];
}

bool SortedColumnCursor::SkipCurrentWindowBlockMax() {
  const uint32_t w = CurrentWindowIndex();
  if (win_ != w) ++stats_.windows_blockmax_skipped;
  pos_ = std::min<uint64_t>(end_, static_cast<uint64_t>(w + 1) * kStride);
  return pos_ < end_;
}

SortedColumnCursor::RunView SortedColumnCursor::CurrentRunView() {
  RunView rv;
  rv.vals = win_vals_;
  if (!EnsureWindow()) {
    rv.win_base = end_;  // empty run at the end: lo == hi == 0
    return rv;
  }
  rv.win_index = win_;
  rv.win_base = win_base_;
  rv.win_len = win_len_;
  rv.lo = static_cast<uint32_t>(pos_ - win_base_);
  rv.hi = static_cast<uint32_t>(
      std::min<uint64_t>(end_, win_base_ + win_len_) - win_base_);
  return rv;
}

// Same window decisions and counters as compress::SortedRangeCursor::SkipTo
// (which the tests pin this against): windows with a successor entry point
// expose their max without decoding; the window containing end - 1 — or
// the column's final window — has no trusted max and is always decoded as
// a candidate rather than skipped. The first window whose max reaches the
// target is found by galloping from the cursor's window and then binary
// search; the answer is the one SortedRangeCursor's binary search finds,
// and on a raw column the gallop keeps the point reads near the cursor.
bool SortedColumnCursor::SkipTo(int32_t target) {
  ++stats_.skip_calls;
  while (!AtEnd()) {
    const uint32_t w_from = static_cast<uint32_t>(pos_ / kStride);
    const uint32_t w_last = static_cast<uint32_t>((end_ - 1) / kStride);
    const uint32_t full_end = std::min(static_cast<uint32_t>(end_ / kStride),
                                       col_->num_windows() - 1);
    // The answer lies in [lo, hi]; hi == full_end means "no full-info
    // window reaches the target".
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
    if (cand >= full_end) {
      if (full_end > w_last) {
        // The jump to end passes windows w_from..w_last undecoded; they
        // count as skipped, exactly as in SortedRangeCursor::SkipTo.
        stats_.windows_skipped +=
            w_last - w_from + 1 - (win_ == w_from ? 1 : 0);
        pos_ = end_;
        return false;
      }
      cand = w_last;
    }
    if (cand > w_from) {
      stats_.windows_skipped += cand - w_from - (win_ == w_from ? 1 : 0);
      pos_ = static_cast<uint64_t>(cand) * kStride;
    }
    if (!EnsureWindow()) return false;
    const uint64_t cap = std::min<uint64_t>(end_, win_base_ + win_len_);
    uint32_t s = static_cast<uint32_t>(pos_ - win_base_);
    uint32_t e = static_cast<uint32_t>(cap - win_base_);
    while (s < e) {
      const uint32_t m = s + (e - s) / 2;
      if (win_vals_[m] >= target) {
        e = m;
      } else {
        s = m + 1;
      }
    }
    if (win_base_ + s < cap) {
      pos_ = win_base_ + s;
      return true;
    }
    pos_ = cap;
  }
  return false;
}

}  // namespace x100ir::storage
