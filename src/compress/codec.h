// Block format and decoder for the superscalar compression schemes of
// MonetDB/X100 (§3.3): PFOR, PFOR-DELTA and PDICT.
//
// A block is a self-describing byte buffer:
//
//   [header | entry points | dictionary (PDICT) | window payloads |
//    exception records | pad]
//
// Codewords are bit-packed per 128-value window (kEntryPointStride), each
// window at its own width b, which its entry point records. Each window's
// payload starts 4-byte aligned at its entry point's offset, so
// Decode(pos, len) can jump to any window without scanning — the
// fine-granularity skipping used when merging inverted lists. Values that
// don't fit b bits are *exceptions*: their codeword slot stores the paper's
// linked exception list (distance to the next exception in the window), and
// an 8-byte record {value, position} lands in the exceptions section.
// Decompression is two tight loops:
//
//   LOOP1: branch-free bit-unpacking of all codewords (+FOR base / dict
//          gather) — no data-dependent branches at all;
//   LOOP2: patch the decoded array from the exception records — sequential
//          loads, scattered stores, no data-dependent branches; the
//          materialized positions keep the slot links off the critical
//          path, so patching pipelines instead of pointer-chasing.
//
// Two escape hatches complete the scheme:
//   - dense windows: when the patched form of a window would be larger
//     than raw (high exception density), the encoder stores the 128 values
//     raw and decode is a memcpy — bandwidth degrades toward memcpy speed
//     as the exception rate climbs, never toward zero;
//   - the naive layout (EncodeOptions::naive_layout) reserves the top
//     codeword as an exception sentinel and tests it per value — the
//     if-then-else decoder whose branch-miss collapse Figure 3 plots.
//
// The encoders (pfor.h, pfor_delta.h, pdict.h) stream: each builds its block
// in two passes over 128-value windows — a layout pass for the entry points
// and exception counts, then an emit pass into the block allocated once at
// its exact size — and never widens its column, so an encode holds its
// input, its output and a few fixed window buffers (block_layout.h). A
// block is at most 4 GiB; a larger one is refused with InvalidArgument.
//
// The format assumes a little-endian host (x86/ARM); headers and codewords
// are stored in host byte order.
#ifndef X100IR_COMPRESS_CODEC_H_
#define X100IR_COMPRESS_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"

namespace x100ir::compress {

// Window granularity for entry points / skipping. Every window starts
// byte-aligned in the codeword section and has its own exception-list head.
inline constexpr uint32_t kEntryPointStride = 128;

// Maximum codeword width. 30 keeps `base + code` safely inside int32 and
// every unaligned 64-bit load self-contained (7 + 30 < 64 bits).
inline constexpr int kMaxBitWidth = 30;

// PDICT dictionaries are padded to 1 << b entries; cap the width so a
// degenerate dictionary can't explode the block.
inline constexpr int kMaxDictBitWidth = 20;

enum class Scheme : uint8_t {
  kPfor = 0,
  kPforDelta = 1,
  kPdict = 2,
};

struct EncodeOptions {
  // Codeword width in bits (1..kMaxBitWidth), forced on every window. 0 =
  // each window takes the width at which it stores fewest bytes.
  int bit_width = 0;

  // Use the branchy sentinel layout instead of patching (Figure 3 baseline).
  // Not supported for PDICT.
  bool naive_layout = false;

  // Use 0 as the frame-of-reference base instead of the column minimum.
  // Keeps codewords equal to raw values, which benches rely on for
  // controlled exception rates.
  bool force_base = false;
};

struct BlockStats {
  uint32_t n = 0;
  // The header width: the widest window's (the forced width when one is
  // given; PDICT: the dictionary's width).
  int bit_width = 0;
  // Total exceptions stored, including compulsory ones (values that fit b
  // bits but were forced into the exception list to keep a link
  // representable).
  uint32_t n_exceptions = 0;
  uint32_t n_compulsory_exceptions = 0;
  // Windows stored raw because the patched form would have been larger
  // ("compression never loses to raw", applied per 128-value window).
  uint32_t n_dense_windows = 0;
  size_t compressed_bytes = 0;

  double BitsPerValue() const {
    return n == 0 ? 0.0
                  : 8.0 * static_cast<double>(compressed_bytes) /
                        static_cast<double>(n);
  }
};

// Byte extents of one window's decode inputs within a block — what a
// storage layer must fetch (and may cache/evict at window granularity) to
// decode window w without the rest of the block resident. Offsets are from
// the block start; `payload_bytes` excludes the 8-byte unaligned-load slack
// the decode kernels need past the payload (DecodeWindowDetached's caller
// provides it, e.g. by copying into a padded scratch buffer).
struct WindowExtent {
  uint64_t payload_offset = 0;
  uint32_t payload_bytes = 0;
  uint64_t exc_offset = 0;   // first exception record of the window
  uint32_t exc_count = 0;    // 8-byte records, contiguous per window
};

// Borrowed pointers into one window's resident decode inputs — what a fused
// consumer (ir/tf_window_score.h) needs to unpack-and-transform a window
// without materializing the intermediate int32 vector. Only meaningful for
// full-payload inits (Init, not InitMeta) of patched-layout blocks.
// `payload` has the block's trailing slack behind it, so the LOOP1 kernels'
// over-reads stay in bounds. For kPfor, value = base + codeword (exceptions
// override with their record value); dense windows store raw int32 values
// and carry no exception records.
struct WindowView {
  const uint8_t* payload = nullptr;  // packed codewords, or raw int32 (dense)
  const uint8_t* exc = nullptr;      // this window's exception records
  uint32_t exc_count = 0;
  uint32_t begin = 0;  // block-absolute index of the window's first value
  uint32_t len = 0;    // values in the window (<= kEntryPointStride)
  int bit_width = 0;   // the window's codeword width; 0 when dense
  int32_t base = 0;    // FOR base added to every unpacked codeword
  bool dense = false;
};

class BlockDecoder {
 public:
  BlockDecoder() = default;

  // Parses the header and structurally validates it (magic, offsets,
  // entry points — O(entry_count)). Only PDICT blocks may carry a
  // dictionary section; a nonzero dict_offset under any other scheme is
  // rejected. The decoder borrows `data` (must stay alive and must be
  // 4-byte aligned — vector<uint8_t>::data() is).
  Status Init(const uint8_t* data, size_t size);

  // Metadata-only init for storage-backed blocks: `meta` holds at least the
  // first MetaBytes() of the block (header + entry points + dictionary),
  // `full_size` is the complete on-disk block size the section offsets are
  // checked against. After this, only the metadata accessors (n, scheme,
  // WindowValueBase, WindowExtentOf, MetaBytes) and DecodeWindowDetached
  // are usable — the whole-block entry points would read absent payload
  // memory, so Validate reports Internal and the Decode* methods assert in
  // debug builds / write nothing in release. Naive-layout blocks are
  // rejected: stored columns never use the naive layout.
  Status InitMeta(const uint8_t* meta, size_t meta_size, size_t full_size);

  // Header + entry points + dictionary: the prefix a storage layer keeps
  // resident to serve window-granular decodes. Valid after either init.
  size_t MetaBytes() const { return meta_bytes_; }

  // Byte offset of the exception-record section (n_exceptions() 8-byte
  // records) — the other block region a storage layer keeps resident.
  uint64_t ExcSectionOffset() const { return exc_offset_; }

  // Byte extents of window w's decode inputs (w < entry_count()).
  WindowExtent WindowExtentOf(uint32_t w) const;

  // Window w's codeword width (w < entry_count()); 0 for a dense window.
  int WindowBitWidth(uint32_t w) const;

  // Resident-pointer view of window w for fused decode→transform kernels.
  // Requires a full Init (asserts / returns an empty view after InitMeta)
  // and the patched layout; exception positions must have been vetted by
  // Validate() if the block is untrusted.
  WindowView WindowViewOf(uint32_t w) const;

  // Decodes window w into dst[0..WindowLen(w)) from detached buffers:
  // `payload` points at the window's payload bytes with at least 8 readable
  // bytes beyond them (copy into a padded scratch when fetching from page
  // frames), `exc` at its exc_count exception records (4-byte aligned).
  // Works after Init or InitMeta; the patched layout only.
  void DecodeWindowDetached(uint32_t w, const uint8_t* payload,
                            const uint8_t* exc, int32_t* dst) const;

  // Deep validation of the block payload (O(n)): exception record
  // positions (corruption would become an out-of-bounds write in LOOP2)
  // and, for naive blocks, the sentinel/record count match (corruption
  // would read past the exceptions section). Init skips it to keep the
  // open-and-decode hot path lean; call this before decoding blocks from
  // untrusted sources.
  Status Validate() const;

  uint32_t n() const { return n_; }
  Scheme scheme() const { return scheme_; }
  // The header width, which bounds every window's (PDICT: the dictionary's
  // width).
  int bit_width() const { return bit_width_; }
  bool naive_layout() const { return naive_layout_; }
  int32_t base() const { return base_; }
  uint32_t n_exceptions() const { return n_exceptions_; }
  uint32_t entry_count() const { return entry_count_; }

  // Decompresses the whole block into out[0..n). Uses the two-loop patched
  // decoder (LOOP1 branch-free unpack, LOOP2 exception patching); on
  // naive-layout blocks falls back to the sentinel decoder.
  void DecodeAll(int32_t* out) const;

  // The Figure 3 baseline: per-value if-then-else on the exception sentinel.
  // Only meaningful on naive-layout blocks (delegates to DecodeAll
  // otherwise).
  void DecodeNaive(int32_t* out) const;

  // Range decode: out[0..len) = values[pos..pos+len). Touches only the
  // windows overlapping the range (cost scales with len, not block size).
  // Out-of-range [pos, pos+len) is clamped to the block: the end is
  // computed in 64-bit (pos + len may wrap uint32), len == 0 and
  // pos >= n() write nothing.
  void Decode(uint32_t pos, uint32_t len, int32_t* out) const;

  // Entry-point metadata for skip-aware consumers (skip_cursor.h): the
  // running value immediately before window w — i.e. the last value of
  // window w - 1. Meaningful for PFOR-DELTA blocks (always 0 elsewhere);
  // w must be < entry_count(). Over a sorted sub-range this is the
  // window-max oracle that lets SkipTo reject whole windows without
  // decoding them.
  int32_t WindowValueBase(uint32_t w) const;

  // mask[i] = true iff value i is stored as an exception. For branch-trace
  // simulation (DESIGN.md §3.5).
  void ExceptionMask(std::vector<bool>* mask) const;

 private:
  // An entry point (internal::EntryPoint) as the decode paths read it.
  struct Entry {
    uint32_t exc_start;
    uint8_t first_exc;
    uint8_t bit_width;
    uint16_t reserved;
    int32_t value_base;
    uint32_t payload_off;
  };

  // Shared by Init and InitMeta; `meta_only` relaxes the size check to the
  // metadata prefix and leaves codes_/exceptions_ null.
  Status InitInternal(const uint8_t* data, size_t size, size_t full_size,
                      bool meta_only);

  Entry EntryAt(uint32_t w) const;
  uint32_t WindowLen(uint32_t w) const;
  uint32_t ExceptionsInWindow(uint32_t w, Entry* entry) const;
  // Decodes window w fully into dst[0..WindowLen(w)).
  void DecodeWindow(uint32_t w, int32_t* dst) const;
  void DecodeWindowNaive(uint32_t w, int32_t* dst) const;

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  const uint8_t* entries_ = nullptr;
  const uint8_t* codes_ = nullptr;
  // 8-byte {value, block-absolute pos} records (internal::ExceptionRecord).
  const uint8_t* exceptions_ = nullptr;
  const int32_t* dict_ = nullptr;

  Scheme scheme_ = Scheme::kPfor;
  int bit_width_ = 0;
  bool naive_layout_ = false;
  bool meta_only_ = false;
  int32_t base_ = 0;
  uint32_t n_ = 0;
  uint32_t n_exceptions_ = 0;
  uint32_t entry_count_ = 0;
  size_t meta_bytes_ = 0;
  uint64_t code_offset_ = 0;
  uint64_t exc_offset_ = 0;
};

}  // namespace x100ir::compress

#endif  // X100IR_COMPRESS_CODEC_H_
