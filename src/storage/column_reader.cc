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

ColumnReader::~ColumnReader() {
  // A page still pinned stays until its Unpin; its id is never issued again.
  if (bm_ != nullptr) (void)bm_->EvictFile(file_id_);
}

Status ColumnReader::Open(const std::string& path, BufferManager* bm) {
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

  X100IR_RETURN_IF_ERROR(bm->IssueFileId(&file_id_));
  bm_ = bm;
  return OkStatus();
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
    Status s = pin->Acquire(bm_, file_, file_id_, page_no);
    if (s.ok() || !IsTransient(s) || attempt >= retry.budget) return s;
    if (bm_->disk() != nullptr) bm_->disk()->ChargeLatency(backoff);
    backoff *= 2.0;
  }
}

template <typename Fn>
Status ColumnReader::VisitBytes(uint64_t offset, uint64_t len, Fn&& fn) {
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
    fn(pin.data() + in_page, take);
    offset += take;
    len -= take;
  }
  return OkStatus();
}

Status ColumnReader::FetchBytes(uint64_t offset, uint64_t len,
                                uint8_t* dst) {
  return VisitBytes(offset, len, [&dst](const uint8_t* bytes, uint64_t n) {
    std::memcpy(dst, bytes, n);
    dst += n;
  });
}

int32_t ColumnReader::WindowValueBase(uint32_t w) const {
  return decoder_.WindowValueBase(w);
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
  // Dequantized straight out of each pinned page: no staging buffer, so no
  // read of any length allocates, concurrent ReadF32 calls on the shared
  // reader share nothing, and the pages pinned are exactly FetchBytes's.
  const float bias = q8_bias_;
  const float scale = q8_scale_;
  return VisitBytes(payload_offset_ + pos, len,
                    [&dst, bias, scale](const uint8_t* q, uint64_t n) {
                      for (uint64_t i = 0; i < n; ++i) {
                        dst[i] = bias + scale * static_cast<float>(q[i]);
                      }
                      dst += n;
                    });
}

// ---------------------------------------------------------------------------
// PoolWindows
// ---------------------------------------------------------------------------

Status PoolWindows::CheckSorted() const {
  if (col_ == nullptr) return InvalidArgument("null column reader");
  if (latch_ == nullptr) return InvalidArgument("null failure latch");
  if (col_->is_compressed() &&
      col_->decoder_.scheme() != compress::Scheme::kPforDelta) {
    return InvalidArgument(
        "sorted cursor needs window value bases (PFOR-DELTA)");
  }
  return OkStatus();
}

uint32_t PoolWindows::window_count() const {
  return static_cast<uint32_t>(
      (col_->value_count() + compress::kEntryPointStride - 1) /
      compress::kEntryPointStride);
}

bool PoolWindows::Latch(Status s) {
  if (s.ok()) return true;
  if (latch_->ok()) *latch_ = std::move(s);
  return false;
}

bool PoolWindows::WindowMax(uint32_t w, int32_t* max) {
  if (col_->is_compressed()) {
    *max = col_->WindowValueBase(w + 1);
    return true;
  }
  return Latch(col_->Read(
      static_cast<uint64_t>(w + 1) * compress::kEntryPointStride - 1, 1,
      max));
}

bool PoolWindows::Load(uint32_t w, compress::WindowValues* dst) {
  const uint64_t base = static_cast<uint64_t>(w) * compress::kEntryPointStride;
  uint32_t len = static_cast<uint32_t>(std::min<uint64_t>(
      compress::kEntryPointStride, col_->value_count() - base));
  switch (col_->encoding()) {
    case ColumnFileHeader::kCompressedBlock:
      return Latch(col_->DecodeWindow(w, dst->i32, &len));
    case ColumnFileHeader::kRawI32:
      return Latch(col_->Read(base, len, dst->i32));
    default:  // f32 or q8 scores
      return Latch(col_->ReadF32(base, len, dst->f32));
  }
}

}  // namespace x100ir::storage
