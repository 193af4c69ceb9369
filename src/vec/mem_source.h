// VectorSource implementations: borrowed in-memory arrays and compressed
// blocks range-decoded through BlockDecoder::Decode(pos, len), so a scan
// over a compressed column touches only the 128-value windows overlapping
// each vector — the paper's decompress-into-the-cache pipeline.
#ifndef X100IR_VEC_MEM_SOURCE_H_
#define X100IR_VEC_MEM_SOURCE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "compress/codec.h"
#include "vec/scan.h"

namespace x100ir::vec {

namespace internal {
template <typename T>
struct TypeIdOf;
template <>
struct TypeIdOf<int32_t> {
  static constexpr TypeId value = TypeId::kI32;
};
template <>
struct TypeIdOf<float> {
  static constexpr TypeId value = TypeId::kF32;
};
}  // namespace internal

// Borrows a caller-owned array; the data must outlive the source. Zero
// copy on construction, one memcpy per vector on Read.
template <typename T>
class MemVectorSource : public VectorSource {
 public:
  explicit MemVectorSource(const std::vector<T>& values)
      : data_(values.data()), n_(values.size()) {}
  MemVectorSource(const T* data, uint64_t n) : data_(data), n_(n) {}

  uint64_t size() const override { return n_; }
  TypeId type() const override { return internal::TypeIdOf<T>::value; }
  void Read(uint64_t pos, uint32_t len, void* dst) const override {
    std::memcpy(dst, data_ + pos, static_cast<size_t>(len) * sizeof(T));
  }

 private:
  const T* data_;
  uint64_t n_;
};

// A contiguous [offset, offset + len) view over another source — how a
// per-term posting range becomes a scannable column without copying. The
// base source must outlive the slice (the inverted index owns the base
// block sources; slices are per-query). An out-of-range window asserts in
// debug builds and clamps to the base in release: a buggy caller (e.g. a
// corrupt term table) then reads a visibly short column instead of
// forwarding out-of-range positions into the decoder.
class SliceVectorSource : public VectorSource {
 public:
  SliceVectorSource(const VectorSource* base, uint64_t offset, uint64_t len)
      : base_(base),
        offset_(offset > base->size() ? base->size() : offset),
        len_(len < base->size() - offset_ ? len : base->size() - offset_) {
    assert(offset + len <= base->size());
  }

  uint64_t size() const override { return len_; }
  TypeId type() const override { return base_->type(); }
  void Read(uint64_t pos, uint32_t len, void* dst) const override {
    base_->Read(offset_ + pos, len, dst);
  }

 private:
  const VectorSource* base_;
  uint64_t offset_;
  uint64_t len_;
};

// Owns a compressed block (PFOR / PFOR-DELTA / PDICT) and serves reads via
// the decoder's entry-point range decode: cost scales with the span read,
// not the block size.
class BlockVectorSource : public VectorSource {
 public:
  // Takes ownership of the block bytes; validates the header (Init) and
  // the payload (Validate — scans are exactly the "decode blocks from
  // storage" path deep validation exists for).
  static StatusOr<std::unique_ptr<BlockVectorSource>> Create(
      std::vector<uint8_t> block) {
    std::unique_ptr<BlockVectorSource> src(new BlockVectorSource());
    src->block_ = std::move(block);
    Status s = src->decoder_.Init(src->block_.data(), src->block_.size());
    if (!s.ok()) return s;
    s = src->decoder_.Validate();
    if (!s.ok()) return s;
    return StatusOr<std::unique_ptr<BlockVectorSource>>(std::move(src));
  }

  uint64_t size() const override { return decoder_.n(); }
  TypeId type() const override { return TypeId::kI32; }
  void Read(uint64_t pos, uint32_t len, void* dst) const override {
    decoder_.Decode(static_cast<uint32_t>(pos), len,
                    static_cast<int32_t*>(dst));
  }

  // For skip-aware consumers (compress::ResidentWindows, the skip
  // cursor's and window cache's resident source) that need the
  // entry-point metadata, not just flat reads. Borrowed; valid as long as
  // the source.
  const compress::BlockDecoder* decoder() const { return &decoder_; }

 private:
  BlockVectorSource() = default;

  std::vector<uint8_t> block_;
  compress::BlockDecoder decoder_;
};

}  // namespace x100ir::vec

#endif  // X100IR_VEC_MEM_SOURCE_H_
