// Shared block builder + BlockDecoder (LOOP1/LOOP2 patched decode, naive
// sentinel decode, dense-window escape, entry-point range decode). See
// codec.h for the format and block_layout.h for the streaming builder.
#include "compress/codec.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <utility>

#include "compress/block_layout.h"
#include "compress/unpack.h"

namespace x100ir::compress {

using internal::BlockBuildInput;
using internal::BlockHeader;
using internal::DenseWins;
using internal::EntryPoint;
using internal::ExceptionRecord;
using internal::kBlockMagic;
using internal::kBlockPadBytes;
using internal::kDenseWindow;
using internal::kFlagNaiveLayout;
using internal::kNoException;
using internal::WindowBytes;

namespace {

// ---------------------------------------------------------------------------
// Bit packing / unpacking.
//
// Codewords are packed LSB-first into a little-endian bitstream. Every
// access goes through one unaligned 64-bit load: with b <= 30 the widest
// codeword spans at most ceil((7 + 30) / 8) = 5 bytes, so a single load
// always covers it. Callers guarantee 8 readable bytes past the last
// codeword (kBlockPadBytes).
// ---------------------------------------------------------------------------

inline uint32_t ReadCode(const uint8_t* src, uint64_t index, int b) {
  const uint64_t bit = index * static_cast<uint64_t>(b);
  uint64_t word;
  std::memcpy(&word, src + (bit >> 3), sizeof(word));
  const uint64_t mask = (1ull << b) - 1;
  return static_cast<uint32_t>((word >> (bit & 7)) & mask);
}

// Packs `groups` groups of 8 codes at width B, as PackWindow below does. A
// group is exactly B bytes, so each one starts byte-aligned, and with B a
// constant the unrolled accumulator's stores resolve at compile time.
template <int B>
void PackGroups(const uint32_t* codes, uint32_t groups, uint8_t* dst) {
  for (uint32_t g = 0; g < groups; ++g, codes += 8) {
    uint64_t acc = 0;
    int pending = 0;
#pragma GCC unroll 8
    for (int i = 0; i < 8; ++i) {
      acc |= static_cast<uint64_t>(codes[i]) << pending;
      pending += B;
      if (pending >= 32) {
        const uint32_t word = static_cast<uint32_t>(acc);
        std::memcpy(dst, &word, sizeof(word));
        dst += sizeof(word);
        acc >>= 32;
        pending -= 32;
      }
    }
    for (; pending > 0; pending -= 8) {
      *dst++ = static_cast<uint8_t>(acc);
      acc >>= 8;
    }
  }
}

using PackGroupsFn = void (*)(const uint32_t*, uint32_t, uint8_t*);

template <std::size_t... I>
constexpr std::array<PackGroupsFn, sizeof...(I)> MakePackGroups(
    std::index_sequence<I...>) {
  return {{&PackGroups<static_cast<int>(I) + 1>...}};
}

// kPackGroups[b - 1] packs whole groups at width b.
constexpr auto kPackGroups =
    MakePackGroups(std::make_index_sequence<kMaxBitWidth>{});

// Packs codes[0..wn) (each below 2^b) LSB-first at b bits each, writing
// exactly ceil(wn * b / 8) bytes from dst — never past the window's
// WindowBytes: whole groups of 8 through kPackGroups, the rest (a block's
// last window) here. The accumulator holds fewer than 32 pending bits
// before each add, so with b <= 30 it never overflows its 64 bits.
inline void PackWindow(const uint32_t* codes, uint32_t wn, int b,
                       uint8_t* dst) {
  const uint32_t groups = wn / 8;
  kPackGroups[b - 1](codes, groups, dst);
  codes += 8 * groups;
  dst += static_cast<size_t>(groups) * b;
  wn -= 8 * groups;
  uint64_t acc = 0;
  int pending = 0;
  for (uint32_t i = 0; i < wn; ++i) {
    acc |= static_cast<uint64_t>(codes[i]) << pending;
    pending += b;
    if (pending >= 32) {
      const uint32_t word = static_cast<uint32_t>(acc);
      std::memcpy(dst, &word, sizeof(word));
      dst += sizeof(word);
      acc >>= 32;
      pending -= 32;
    }
  }
  for (; pending > 0; pending -= 8) {
    *dst++ = static_cast<uint8_t>(acc);
    acc >>= 8;
  }
}

// LOOP1 kernels live in unpack.h / simd_unpack.cc: per-width scalar
// templates plus SIMD shuffle kernels for b in {4, 8, 16}, resolved at
// runtime through internal::GetUnpackAdd / GetUnpackDict.

inline uint64_t Align8(uint64_t x) { return (x + 7u) & ~uint64_t{7}; }

// LOOP3: in-place prefix sum seeded from `acc`; returns the running value
// so DecodeAll can carry it across batches. The sum is unsigned, so a
// corrupt block's deltas wrap like the LOOP1 add instead of overflowing.
// The kernel is dispatched like LOOP1 (unpack.h): AVX2 when enabled, the
// scalar loop otherwise.
inline int32_t PrefixSumInPlace(int32_t* dst, uint32_t n, int32_t acc) {
  return internal::GetPrefixSum()(dst, n, acc);
}

// Bits needed to store symbol s: 1..31 for a symbol in [0, 2^31), and 32 —
// wider than any codeword — for the rest. One count-leading-zeros.
inline int SymbolBits(int64_t s) {
  return std::min(64 - __builtin_clzll(static_cast<uint64_t>(s) | 1), 32);
}

// One window of the column as the builder sees it: the source's symbols and
// payloads plus the window's exception slots. Fixed size — the only
// per-window state an encode holds.
struct Window {
  int64_t syms[kEntryPointStride];
  int32_t payloads[kEntryPointStride];
  uint32_t exc[kEntryPointStride];  // window-relative slots, ascending
  uint32_t n_exc = 0;
  uint32_t n_natural = 0;
};

// Fills win->exc with the window's exception slots at width b. Naive
// layout: every symbol outside [0, 2^b - 2] (the all-ones codeword is the
// sentinel). Patched layout: every symbol outside [0, 2^b - 1], plus
// compulsory exceptions wherever the gap between two consecutive exceptions
// exceeds the largest link, 2^b. Each slot is taken at most once, so a
// window never holds more than wn exceptions.
void FindExceptions(Window* win, uint32_t wn, int b, bool naive_layout) {
  const int64_t max_normal = (1ll << b) - (naive_layout ? 2 : 1);
  const uint32_t max_gap = 1u << b;
  win->n_exc = 0;
  win->n_natural = 0;
  for (uint32_t i = 0; i < wn; ++i) {
    const int64_t s = win->syms[i];
    if (s >= 0 && s <= max_normal) continue;
    ++win->n_natural;
    if (!naive_layout && win->n_exc > 0) {
      uint32_t prev = win->exc[win->n_exc - 1];
      while (i - prev > max_gap) {
        prev += max_gap;
        win->exc[win->n_exc++] = prev;  // compulsory exception
      }
    }
    win->exc[win->n_exc++] = i;
  }
}

// A link reaches 2^b slots, and two exceptions in one window are at most
// kEntryPointStride - 1 apart, so from this width up no window needs a
// compulsory exception.
constexpr int kNoCompulsoryWidth = 7;
static_assert((1u << kNoCompulsoryWidth) >= kEntryPointStride - 1,
              "a link at kNoCompulsoryWidth spans any in-window gap");

// The width in [1, max_b] at which window `win` stores fewest bytes: its
// packed codewords plus one record per exception, natural or compulsory.
// A histogram of symbol bit lengths gives the natural exceptions at every
// width as suffix sums; compulsory ones are counted, by listing the
// window's exceptions, only below kNoCompulsoryWidth and only where the
// natural count alone still beats the best width so far. Ties go to the
// wider width, which patches fewer exceptions. *natural_at_best gets the
// chosen width's natural exception count. Overwrites win's exception
// slots; the caller lists them again at the chosen width when it needs them.
int ChooseWindowWidth(Window* win, uint32_t wn, int max_b, bool naive_layout,
                      uint32_t* natural_at_best) {
  // hist[k]: symbols needing exactly k bits; all_ones[k]: symbols equal to
  // 2^k - 1, the naive sentinel at width k and so an exception there.
  uint32_t hist[33] = {0};
  uint32_t all_ones[33] = {0};
  if (naive_layout) {
    for (uint32_t i = 0; i < wn; ++i) {
      const int k = SymbolBits(win->syms[i]);
      ++hist[k];
      if (win->syms[i] == (1ll << k) - 1) ++all_ones[k];
    }
  } else {
    // One histogram per residue of i mod 4: neighbouring symbols mostly
    // need the same bits, and a single counter would make each increment
    // wait on the one before.
    uint32_t part[4][33] = {};
    uint32_t i = 0;
    for (; i + 4 <= wn; i += 4) {
      ++part[0][SymbolBits(win->syms[i])];
      ++part[1][SymbolBits(win->syms[i + 1])];
      ++part[2][SymbolBits(win->syms[i + 2])];
      ++part[3][SymbolBits(win->syms[i + 3])];
    }
    for (; i < wn; ++i) ++part[0][SymbolBits(win->syms[i])];
    for (int k = 0; k <= 32; ++k) {
      hist[k] = part[0][k] + part[1][k] + part[2][k] + part[3][k];
    }
  }
  uint32_t above = 0;  // symbols needing more than b bits
  for (int k = max_b + 1; k <= 32; ++k) above += hist[k];
  uint64_t best_bytes = UINT64_MAX;
  int best_b = max_b;
  for (int b = max_b; b >= 1; --b) {
    const uint32_t natural = above + (naive_layout ? all_ones[b] : 0);
    uint64_t bytes =
        WindowBytes(wn, b) + uint64_t{sizeof(ExceptionRecord)} * natural;
    if (!naive_layout && b < kNoCompulsoryWidth && natural > 1 &&
        bytes < best_bytes) {
      FindExceptions(win, wn, b, /*naive_layout=*/false);
      bytes += sizeof(ExceptionRecord) * (win->n_exc - win->n_natural);
    }
    if (bytes < best_bytes) {
      best_bytes = bytes;
      best_b = b;
      *natural_at_best = natural;
    }
    above += hist[b];
  }
  return best_b;
}

// Block bytes for a layout: header, entry points and dictionary up to
// `code_offset`, then the payloads, the 8-aligned exception records and
// the pad.
uint64_t BlockBytes(uint64_t code_offset, uint64_t payload_bytes,
                    uint64_t n_exceptions) {
  return Align8(code_offset + payload_bytes) +
         sizeof(ExceptionRecord) * n_exceptions + kBlockPadBytes;
}

}  // namespace

namespace internal {

Status BuildBlock(const BlockBuildInput& in, std::vector<uint8_t>* out,
                  BlockStats* stats) {
  if (out == nullptr) return InvalidArgument("null output");
  if (in.max_bit_width < 1 || in.max_bit_width > kMaxBitWidth ||
      in.bit_width < 0 || in.bit_width > in.max_bit_width) {
    return InvalidArgument("bit_width must be in [0, 30]");
  }
  if (in.n > 0 && in.source == nullptr) {
    return InvalidArgument("null window source");
  }

  const uint32_t entry_count = WindowCount(in.n);
  const uint32_t tail = in.n % kEntryPointStride;
  const uint64_t dict_bytes =
      in.dict != nullptr ? (uint64_t{4} << in.max_bit_width) : 0;
  const uint64_t entries_offset = sizeof(BlockHeader);
  const uint64_t entries_bytes = sizeof(EntryPoint) * uint64_t{entry_count};
  const uint64_t code_offset = entries_offset + entries_bytes + dict_bytes;
  // Every offset in the header and the entry points lies inside the block,
  // so a block that fits 32 bits has offsets that do. A dense window is
  // never smaller than its packed form, so every window packed at the
  // narrowest width it may take, with no exceptions, is the smallest
  // layout: refuse before reading a window when even that does not fit.
  const int min_b = in.bit_width > 0 ? in.bit_width : 1;
  const uint64_t min_payload =
      uint64_t{in.n / kEntryPointStride} *
          WindowBytes(kEntryPointStride, min_b) +
      (tail > 0 ? WindowBytes(tail, min_b) : 0);
  if (BlockBytes(code_offset, min_payload, 0) > UINT32_MAX) {
    return InvalidArgument("block would exceed 4 GiB");
  }

  // ---- Layout pass: widths, entry points, exception and dense counts ----
  std::vector<EntryPoint> entries(entry_count);
  Window win;
  uint64_t n_exceptions = 0;
  uint64_t n_compulsory = 0;
  uint32_t n_dense = 0;
  uint64_t payload_off = 0;
  int header_b = in.dict != nullptr ? in.max_bit_width : min_b;
  for (uint32_t w = 0; w < entry_count; ++w) {
    const uint32_t wn =
        std::min(kEntryPointStride, in.n - w * kEntryPointStride);
    EntryPoint& ep = entries[w];
    ep.value_base = in.source->Fill(w, wn, win.syms, win.payloads);
    ep.exc_start = static_cast<uint32_t>(n_exceptions);
    ep.first_exc = kNoException;
    ep.bit_width = 0;
    ep.reserved = 0;
    ep.payload_off = static_cast<uint32_t>(payload_off);
    int b = in.bit_width;
    uint32_t natural = 0;
    if (b == 0) {
      b = ChooseWindowWidth(&win, wn, in.max_bit_width, in.naive_layout,
                            &natural);
    }
    if (in.bit_width == 0 && !in.naive_layout && b >= kNoCompulsoryWidth) {
      // No compulsory exception at this width, so the width choice counted
      // them all; this pass needs only their count and the first slot (as
      // unsigned, a negative symbol lies above max_normal too).
      win.n_exc = win.n_natural = natural;
      if (natural > 0) {
        const uint64_t max_normal = (uint64_t{1} << b) - 1;
        uint32_t i = 0;
        while (static_cast<uint64_t>(win.syms[i]) <= max_normal) ++i;
        win.exc[0] = i;
      }
    } else {
      FindExceptions(&win, wn, b, in.naive_layout);
    }
    // Dense escape (patched layout only): when the patched form would be
    // larger than raw values, store the window raw — smaller, and decode is
    // a memcpy.
    if (!in.naive_layout && DenseWins(wn, b, win.n_exc)) {
      ep.first_exc = kDenseWindow;
      payload_off += 4 * wn;
      ++n_dense;
      continue;
    }
    ep.bit_width = static_cast<uint8_t>(b);
    if (win.n_exc > 0) ep.first_exc = static_cast<uint8_t>(win.exc[0]);
    header_b = std::max(header_b, b);
    n_exceptions += win.n_exc;
    n_compulsory += win.n_exc - win.n_natural;
    payload_off += WindowBytes(wn, b);
  }
  const uint64_t total = BlockBytes(code_offset, payload_off, n_exceptions);
  if (total > UINT32_MAX) return InvalidArgument("block would exceed 4 GiB");

  BlockHeader hdr;
  std::memset(&hdr, 0, sizeof(hdr));
  hdr.magic = kBlockMagic;
  hdr.scheme = static_cast<uint8_t>(in.scheme);
  hdr.bit_width = static_cast<uint8_t>(header_b);
  hdr.flags = in.naive_layout ? kFlagNaiveLayout : 0;
  hdr.n = in.n;
  hdr.base = in.base;
  hdr.n_exceptions = static_cast<uint32_t>(n_exceptions);
  hdr.dict_count = in.dict_count;
  hdr.entry_count = entry_count;
  hdr.dict_offset =
      in.dict != nullptr ? static_cast<uint32_t>(entries_offset + entries_bytes)
                         : 0;
  hdr.code_offset = static_cast<uint32_t>(code_offset);
  hdr.exc_offset = static_cast<uint32_t>(Align8(code_offset + payload_off));

  // ---- One allocation at the exact size ----
  out->assign(total, 0);
  uint8_t* base_ptr = out->data();
  std::memcpy(base_ptr, &hdr, sizeof(hdr));
  if (entry_count > 0) {
    std::memcpy(base_ptr + entries_offset, entries.data(), entries_bytes);
  }
  if (in.dict != nullptr) {
    std::memcpy(base_ptr + hdr.dict_offset, in.dict, dict_bytes);
  }

  // ---- Emit pass: codewords and exception records in place ----
  uint8_t* payload_ptr = base_ptr + hdr.code_offset;
  uint8_t* exc_ptr = base_ptr + hdr.exc_offset;
  uint32_t codes[kEntryPointStride];
  for (uint32_t w = 0; w < entry_count; ++w) {
    const uint32_t begin = w * kEntryPointStride;
    const uint32_t wn = std::min(kEntryPointStride, in.n - begin);
    const EntryPoint& ep = entries[w];
    in.source->Fill(w, wn, win.syms, win.payloads);
    uint8_t* wptr = payload_ptr + ep.payload_off;
    if (ep.first_exc == kDenseWindow) {
      std::memcpy(wptr, win.payloads, 4ull * wn);
      continue;
    }
    const int b = ep.bit_width;
    FindExceptions(&win, wn, b, in.naive_layout);
    for (uint32_t i = 0; i < wn; ++i) {
      codes[i] = static_cast<uint32_t>(win.syms[i]);
    }
    // Exception slots carry the sentinel (naive) or the link to the next
    // exception (patched; the last link is never followed).
    for (uint32_t k = 0; k < win.n_exc; ++k) {
      const uint32_t pos = win.exc[k];
      codes[pos] = in.naive_layout ? (1u << b) - 1
                   : k + 1 < win.n_exc ? win.exc[k + 1] - pos - 1
                                       : 0;
      const ExceptionRecord rec{win.payloads[pos], begin + pos};
      std::memcpy(exc_ptr + sizeof(ExceptionRecord) * (ep.exc_start + k),
                  &rec, sizeof(rec));
    }
    PackWindow(codes, wn, b, wptr);
  }

  if (stats != nullptr) {
    stats->n = in.n;
    stats->bit_width = header_b;
    stats->n_exceptions = static_cast<uint32_t>(n_exceptions);
    stats->n_compulsory_exceptions = static_cast<uint32_t>(n_compulsory);
    stats->n_dense_windows = n_dense;
    stats->compressed_bytes = total;
  }
  return OkStatus();
}

}  // namespace internal

// ---------------------------------------------------------------------------
// BlockDecoder
// ---------------------------------------------------------------------------

Status BlockDecoder::Init(const uint8_t* data, size_t size) {
  return InitInternal(data, size, size, /*meta_only=*/false);
}

Status BlockDecoder::InitMeta(const uint8_t* meta, size_t meta_size,
                              size_t full_size) {
  return InitInternal(meta, meta_size, full_size, /*meta_only=*/true);
}

Status BlockDecoder::InitInternal(const uint8_t* data, size_t size,
                                  size_t full_size, bool meta_only) {
  if (data == nullptr || size < sizeof(BlockHeader)) {
    return InvalidArgument("block too small");
  }
  if ((reinterpret_cast<uintptr_t>(data) & 3u) != 0) {
    return InvalidArgument("block must be 4-byte aligned");
  }
  BlockHeader hdr;
  std::memcpy(&hdr, data, sizeof(hdr));
  if (hdr.magic != kBlockMagic) return InvalidArgument("bad block magic");
  if (hdr.bit_width < 1 || hdr.bit_width > kMaxBitWidth) {
    return InvalidArgument("bad bit width");
  }
  if (hdr.scheme > static_cast<uint8_t>(Scheme::kPdict)) {
    return InvalidArgument("bad scheme");
  }
  const uint64_t expected_entries =
      (static_cast<uint64_t>(hdr.n) + kEntryPointStride - 1) /
      kEntryPointStride;
  if (hdr.entry_count != expected_entries) {
    return InvalidArgument("bad entry count");
  }
  const uint64_t entries_end =
      sizeof(BlockHeader) +
      sizeof(EntryPoint) * static_cast<uint64_t>(hdr.entry_count);
  const uint64_t exc_end = static_cast<uint64_t>(hdr.exc_offset) +
                           sizeof(ExceptionRecord) *
                               static_cast<uint64_t>(hdr.n_exceptions);
  if (entries_end > hdr.code_offset || hdr.code_offset > hdr.exc_offset ||
      exc_end + kBlockPadBytes > full_size) {
    return InvalidArgument("truncated block");
  }
  if (meta_only) {
    // The caller hands us only the metadata prefix; everything up to the
    // window payloads must be present, and the naive layout is rejected
    // outright (per-window exception slots live in absent payload bytes).
    if (size < hdr.code_offset) {
      return InvalidArgument("metadata prefix shorter than code offset");
    }
    if ((hdr.flags & kFlagNaiveLayout) != 0) {
      return InvalidArgument("metadata-only init on a naive-layout block");
    }
  }
  if ((hdr.exc_offset & 3u) != 0 || (hdr.dict_offset & 3u) != 0) {
    return InvalidArgument("misaligned section offset");
  }
  // Only PDICT blocks carry a dictionary. A crafted PFOR/PFOR-DELTA block
  // can place a bounds-consistent dictionary section between the entry
  // points and the (shifted) payloads; accepting it would let fuzzed
  // payloads smuggle an unvalidated section the decoder silently ignores.
  if (hdr.scheme != static_cast<uint8_t>(Scheme::kPdict) &&
      hdr.dict_offset != 0) {
    return InvalidArgument("unexpected dictionary section");
  }
  if (hdr.dict_offset != 0 &&
      (hdr.dict_offset < entries_end ||
       static_cast<uint64_t>(hdr.dict_offset) + (4ull << hdr.bit_width) >
           hdr.code_offset)) {
    return InvalidArgument("dictionary out of bounds");
  }
  if (hdr.scheme == static_cast<uint8_t>(Scheme::kPdict) &&
      hdr.bit_width > kMaxDictBitWidth) {
    return InvalidArgument("pdict bit width too large");
  }

  data_ = data;
  size_ = size;
  scheme_ = static_cast<Scheme>(hdr.scheme);
  bit_width_ = hdr.bit_width;
  naive_layout_ = (hdr.flags & kFlagNaiveLayout) != 0;
  meta_only_ = meta_only;
  base_ = hdr.base;
  n_ = hdr.n;
  n_exceptions_ = hdr.n_exceptions;
  entry_count_ = hdr.entry_count;
  meta_bytes_ = hdr.code_offset;
  code_offset_ = hdr.code_offset;
  exc_offset_ = hdr.exc_offset;
  entries_ = data + sizeof(BlockHeader);
  codes_ = meta_only ? nullptr : data + hdr.code_offset;
  exceptions_ = meta_only ? nullptr : data + hdr.exc_offset;
  dict_ = hdr.dict_offset != 0
              ? reinterpret_cast<const int32_t*>(data + hdr.dict_offset)
              : nullptr;
  if (scheme_ == Scheme::kPdict && dict_ == nullptr) {
    return InvalidArgument("pdict block without dictionary");
  }

  // Structural check of the entry points (O(entry_count), cheap relative
  // to any decode): exception starts monotone; every packed window's width
  // in [1, header width] — a wider one would index the LOOP1 kernel table
  // out of bounds, and under PDICT gather past the dictionary — and a dense
  // window's 0; and payload offsets exactly canonical — each window's
  // payload immediately follows the previous one's, which also guarantees
  // the contiguity DecodeAll's batched LOOP1 relies on. Exception record
  // *positions* are not scanned here — that is O(n_exceptions); call
  // Validate() before decoding blocks from untrusted sources.
  const uint64_t payload_bytes = hdr.exc_offset - hdr.code_offset;
  uint32_t prev_exc = 0;
  uint64_t expected_off = 0;
  for (uint32_t w = 0; w < entry_count_; ++w) {
    const Entry ep = EntryAt(w);
    const uint32_t wn = WindowLen(w);
    if (ep.exc_start < prev_exc || ep.exc_start > n_exceptions_) {
      return InvalidArgument("entry exception index out of order");
    }
    prev_exc = ep.exc_start;
    if (ep.payload_off != expected_off) {
      return InvalidArgument("non-canonical window payload offset");
    }
    const bool dense = ep.first_exc == kDenseWindow;
    if (dense ? ep.bit_width != 0
              : ep.bit_width < 1 || ep.bit_width > bit_width_) {
      return InvalidArgument("bad window bit width");
    }
    if (ep.reserved != 0) return InvalidArgument("bad entry point");
    expected_off += dense ? 4 * wn : WindowBytes(wn, ep.bit_width);
    if (expected_off > payload_bytes) {
      return InvalidArgument("window payload out of bounds");
    }
    if (!dense && ep.first_exc != kNoException && ep.first_exc >= wn) {
      return InvalidArgument("bad first exception slot");
    }
  }
  return OkStatus();
}

Status BlockDecoder::Validate() const {
  if (data_ == nullptr) return Internal("Init not called");
  if (meta_only_) {
    return Internal("payload not resident (metadata-only init)");
  }
  const auto* exc = reinterpret_cast<const ExceptionRecord*>(exceptions_);
  for (uint32_t w = 0; w < entry_count_; ++w) {
    Entry ep;
    const uint32_t nexc = ExceptionsInWindow(w, &ep);
    const uint32_t begin = w * kEntryPointStride;
    const uint32_t wn = WindowLen(w);
    // Record positions: corruption would turn LOOP2's out[pos] into an
    // out-of-bounds write.
    for (uint32_t k = 0; k < nexc; ++k) {
      const uint32_t pos = exc[ep.exc_start + k].pos;
      if (pos < begin || pos - begin >= wn) {
        return InvalidArgument("exception position outside its window");
      }
    }
    // Naive layout: each sentinel codeword consumes one record during
    // decode; more sentinels than records would read past the exceptions
    // section.
    if (naive_layout_) {
      const uint8_t* src = codes_ + ep.payload_off;
      const uint32_t sentinel = (1u << ep.bit_width) - 1;
      uint32_t sentinels = 0;
      for (uint32_t i = 0; i < wn; ++i) {
        if (ReadCode(src, i, ep.bit_width) == sentinel) ++sentinels;
      }
      if (sentinels != nexc) {
        return InvalidArgument("sentinel count does not match records");
      }
    }
  }
  return OkStatus();
}

int32_t BlockDecoder::WindowValueBase(uint32_t w) const {
  return EntryAt(w).value_base;
}

int BlockDecoder::WindowBitWidth(uint32_t w) const {
  return EntryAt(w).bit_width;
}

WindowExtent BlockDecoder::WindowExtentOf(uint32_t w) const {
  Entry ep;
  const uint32_t nexc = ExceptionsInWindow(w, &ep);
  const uint32_t wn = WindowLen(w);
  WindowExtent ext;
  ext.payload_offset = code_offset_ + ep.payload_off;
  ext.payload_bytes = ep.first_exc == kDenseWindow
                          ? 4 * wn
                          : WindowBytes(wn, ep.bit_width);
  ext.exc_offset = exc_offset_ +
                   static_cast<uint64_t>(ep.exc_start) *
                       sizeof(ExceptionRecord);
  ext.exc_count = nexc;
  return ext;
}

WindowView BlockDecoder::WindowViewOf(uint32_t w) const {
  assert(!meta_only_ && "payload not resident (metadata-only init)");
  WindowView view;
  if (meta_only_) return view;
  Entry ep;
  view.exc_count = ExceptionsInWindow(w, &ep);
  view.payload = codes_ + ep.payload_off;
  view.exc = exceptions_ +
             static_cast<size_t>(ep.exc_start) * sizeof(ExceptionRecord);
  view.begin = w * kEntryPointStride;
  view.len = WindowLen(w);
  view.bit_width = ep.bit_width;
  view.base = base_;
  view.dense = ep.first_exc == kDenseWindow;
  if (view.dense) view.exc_count = 0;
  return view;
}

void BlockDecoder::DecodeWindowDetached(uint32_t w, const uint8_t* payload,
                                        const uint8_t* exc,
                                        int32_t* dst) const {
  const uint32_t wn = WindowLen(w);
  Entry ep;
  const uint32_t nexc = ExceptionsInWindow(w, &ep);
  if (ep.first_exc == kDenseWindow) {
    std::memcpy(dst, payload, 4ull * wn);
  } else {
    if (scheme_ == Scheme::kPdict) {
      internal::GetUnpackDict(ep.bit_width)(payload, wn, dict_, dst);
    } else {
      internal::GetUnpackAdd(ep.bit_width)(payload, wn, base_, dst);
    }
    // LOOP2 from the caller's record buffer. Unlike the resident path —
    // whose record positions Validate() vets once per block — these records
    // come straight off storage at query time, so out-of-window positions
    // are clamped here: a torn or corrupt file may yield wrong values but
    // never an out-of-bounds store.
    const auto* recs = reinterpret_cast<const ExceptionRecord*>(exc);
    const uint32_t begin = w * kEntryPointStride;
    for (uint32_t k = 0; k < nexc; ++k) {
      const uint32_t slot = recs[k].pos - begin;
      if (slot < wn) dst[slot] = recs[k].value;
    }
  }
  if (scheme_ == Scheme::kPforDelta) {
    PrefixSumInPlace(dst, wn, ep.value_base);
  }
}

BlockDecoder::Entry BlockDecoder::EntryAt(uint32_t w) const {
  static_assert(sizeof(Entry) == sizeof(EntryPoint), "entry mirrors format");
  Entry ep;
  std::memcpy(&ep, entries_ + static_cast<size_t>(w) * sizeof(EntryPoint),
              sizeof(ep));
  return ep;
}

uint32_t BlockDecoder::WindowLen(uint32_t w) const {
  const uint32_t begin = w * kEntryPointStride;
  return std::min(kEntryPointStride, n_ - begin);
}

uint32_t BlockDecoder::ExceptionsInWindow(uint32_t w, Entry* entry) const {
  *entry = EntryAt(w);
  const uint32_t next_start =
      w + 1 < entry_count_ ? EntryAt(w + 1).exc_start : n_exceptions_;
  return next_start - entry->exc_start;
}

void BlockDecoder::DecodeWindow(uint32_t w, int32_t* dst) const {
  const uint32_t wn = WindowLen(w);
  Entry ep;
  const uint32_t nexc = ExceptionsInWindow(w, &ep);
  const uint8_t* src = codes_ + ep.payload_off;

  if (ep.first_exc == kDenseWindow) {
    std::memcpy(dst, src, 4ull * wn);
  } else {
    // LOOP1: branch-free unpack (exception slots decode to garbage links;
    // LOOP2 overwrites them).
    if (scheme_ == Scheme::kPdict) {
      internal::GetUnpackDict(ep.bit_width)(src, wn, dict_, dst);
    } else {
      internal::GetUnpackAdd(ep.bit_width)(src, wn, base_, dst);
    }
    // LOOP2: patch exceptions from the materialized records — sequential
    // reads, scattered stores, no data-dependent branches.
    internal::GetPatch()(
        exceptions_ + static_cast<size_t>(ep.exc_start) *
                          sizeof(ExceptionRecord),
        nexc, w * kEntryPointStride, dst);
  }

  // LOOP3 (PFOR-DELTA): prefix-sum the patched deltas from the window's
  // running base.
  if (scheme_ == Scheme::kPforDelta) {
    PrefixSumInPlace(dst, wn, ep.value_base);
  }
}

void BlockDecoder::DecodeWindowNaive(uint32_t w, int32_t* dst) const {
  const uint32_t wn = WindowLen(w);
  Entry ep = EntryAt(w);
  const uint8_t* src = codes_ + ep.payload_off;
  const auto* excv = reinterpret_cast<const ExceptionRecord*>(exceptions_);
  const int b = ep.bit_width;
  const uint32_t sentinel = (1u << b) - 1;
  uint32_t j = ep.exc_start;
  uint64_t bit = 0;
  for (uint32_t i = 0; i < wn; ++i, bit += b) {
    uint64_t word;
    std::memcpy(&word, src + (bit >> 3), sizeof(word));
    const uint32_t code =
        static_cast<uint32_t>((word >> (bit & 7)) & sentinel);
    // The branch Figure 3 is about: unpredictable when the exception rate
    // nears 50%.
    if (code == sentinel) {
      dst[i] = excv[j].value;
      ++j;
    } else {
      dst[i] = static_cast<int32_t>(static_cast<uint32_t>(base_) + code);
    }
  }
  if (scheme_ == Scheme::kPforDelta) {
    PrefixSumInPlace(dst, wn, ep.value_base);
  }
}

namespace {
// Windows per decode batch: 8 windows = 4 KB of output, comfortably
// L1-resident so LOOP2 patches lines LOOP1 just wrote.
constexpr uint32_t kBatchWindows = 8;
}  // namespace

void BlockDecoder::DecodeAll(int32_t* out) const {
  assert(!meta_only_ && "payload not resident (metadata-only init)");
  if (meta_only_) return;
  if (naive_layout_) {
    for (uint32_t w = 0; w < entry_count_; ++w) {
      DecodeWindowNaive(w, out + static_cast<size_t>(w) * kEntryPointStride);
    }
    return;
  }

  const bool dict_scheme = scheme_ == Scheme::kPdict;
  const auto patch = internal::GetPatch();
  int32_t delta_acc = 0;
  // LOOP1 over `count` values of width b from src.
  const auto unpack = [&](int b, const uint8_t* src, uint32_t count,
                          int32_t* dst) {
    if (dict_scheme) {
      internal::GetUnpackDict(b)(src, count, dict_, dst);
    } else {
      internal::GetUnpackAdd(b)(src, count, base_, dst);
    }
  };

  // Process kBatchWindows windows per batch: LOOP1 unpacks the batch (a few
  // KB — stays in L1), LOOP2 patches the still-hot batch, LOOP3 prefix-sums
  // it. When the batch's windows share one width and none is dense, their
  // payloads are one contiguous bitstream (full windows occupy exactly
  // 16 * b bytes), so LOOP1 is a single call.
  for (uint32_t w0 = 0; w0 < entry_count_; w0 += kBatchWindows) {
    const uint32_t nlanes = std::min(kBatchWindows, entry_count_ - w0);
    const uint32_t begin = w0 * kEntryPointStride;
    const uint32_t batch_n = std::min(nlanes * kEntryPointStride, n_ - begin);
    int32_t* batch_dst = out + begin;

    Entry eps[kBatchWindows];
    bool one_width = true;
    for (uint32_t l = 0; l < nlanes; ++l) {
      eps[l] = EntryAt(w0 + l);
      // A dense window's width is 0, never a packed window's.
      one_width = one_width && eps[l].bit_width == eps[0].bit_width;
    }
    one_width = one_width && eps[0].first_exc != kDenseWindow;
    const uint32_t exc_hi = w0 + nlanes < entry_count_
                                ? EntryAt(w0 + nlanes).exc_start
                                : n_exceptions_;

    if (one_width) {
      // LOOP1 over the whole batch at once.
      unpack(eps[0].bit_width, codes_ + eps[0].payload_off, batch_n,
             batch_dst);
      // LOOP2: one flat run over the batch's slice of the exception
      // records. One sequential 8-byte load and one scattered store per
      // exception — no data-dependent branches, no pointer chase.
      patch(exceptions_ + static_cast<size_t>(eps[0].exc_start) *
                              sizeof(ExceptionRecord),
            exc_hi - eps[0].exc_start, 0, out);
    } else {
      // Mixed batch: per window, memcpy dense payloads, unpack the rest at
      // their own widths and patch them.
      for (uint32_t l = 0; l < nlanes; ++l) {
        const uint32_t wbegin = (w0 + l) * kEntryPointStride;
        const uint32_t wn = std::min(kEntryPointStride, n_ - wbegin);
        const uint8_t* src = codes_ + eps[l].payload_off;
        int32_t* dst = out + wbegin;
        if (eps[l].first_exc == kDenseWindow) {
          std::memcpy(dst, src, 4ull * wn);
          continue;
        }
        unpack(eps[l].bit_width, src, wn, dst);
        const uint32_t wexc_hi =
            l + 1 < nlanes ? eps[l + 1].exc_start : exc_hi;
        patch(exceptions_ + static_cast<size_t>(eps[l].exc_start) *
                                sizeof(ExceptionRecord),
              wexc_hi - eps[l].exc_start, 0, out);
      }
    }

    // LOOP3 (PFOR-DELTA): prefix-sum the batch; the accumulator carries
    // across batches, and window value_bases are only needed for range
    // decodes.
    if (scheme_ == Scheme::kPforDelta) {
      delta_acc = PrefixSumInPlace(batch_dst, batch_n, delta_acc);
    }
  }
}

void BlockDecoder::DecodeNaive(int32_t* out) const { DecodeAll(out); }

void BlockDecoder::Decode(uint32_t pos, uint32_t len, int32_t* out) const {
  assert(!meta_only_ && "payload not resident (metadata-only init)");
  if (meta_only_) return;
  // Edge cases pinned by Codec.RangeDecodeHostileEdges: len == 0 and
  // pos >= n_ (including pos == n_ exactly) write nothing; pos + len past
  // n_ (including uint32 wrap, e.g. pos = n_ - 1, len = UINT32_MAX) clamps
  // to the block. The end is computed in 64-bit to make the no-wrap
  // argument local: the previous min(len, n_ - pos) form was equally
  // correct but relied on the pos < n_ guard above.
  if (pos >= n_ || len == 0) return;
  const uint64_t end =
      std::min<uint64_t>(static_cast<uint64_t>(pos) + len, n_);
  len = static_cast<uint32_t>(end - pos);
  const uint32_t w0 = pos / kEntryPointStride;
  const uint32_t w1 = (pos + len - 1) / kEntryPointStride;
  int32_t tmp[kEntryPointStride];
  int32_t* outp = out;
  for (uint32_t w = w0; w <= w1; ++w) {
    const uint32_t begin = w * kEntryPointStride;
    const uint32_t wn = WindowLen(w);
    const uint32_t lo = w == w0 ? pos - begin : 0;
    const uint32_t hi = w == w1 ? pos + len - begin : wn;
    if (lo == 0 && hi == wn) {
      if (naive_layout_) {
        DecodeWindowNaive(w, outp);
      } else {
        DecodeWindow(w, outp);
      }
    } else {
      if (naive_layout_) {
        DecodeWindowNaive(w, tmp);
      } else {
        DecodeWindow(w, tmp);
      }
      std::memcpy(outp, tmp + lo, static_cast<size_t>(hi - lo) * 4);
    }
    outp += hi - lo;
  }
}

void BlockDecoder::ExceptionMask(std::vector<bool>* mask) const {
  assert(!meta_only_ && "payload not resident (metadata-only init)");
  mask->assign(n_, false);
  if (meta_only_) return;
  for (uint32_t w = 0; w < entry_count_; ++w) {
    const uint32_t begin = w * kEntryPointStride;
    const uint32_t wn = WindowLen(w);
    Entry ep;
    const uint32_t nexc = ExceptionsInWindow(w, &ep);
    const uint8_t* src = codes_ + ep.payload_off;
    if (naive_layout_) {
      const uint32_t sentinel = (1u << ep.bit_width) - 1;
      for (uint32_t i = 0; i < wn; ++i) {
        if (ReadCode(src, i, ep.bit_width) == sentinel) {
          (*mask)[begin + i] = true;
        }
      }
    } else if (ep.first_exc == kDenseWindow) {
      // Dense windows store no exceptions.
    } else if (nexc > 0) {
      // Walk the in-slot linked exception list — the paper's traversal,
      // which the branch-trace sims model. Clamped to the window so a
      // corrupt link can't walk out of bounds.
      uint32_t cur = ep.first_exc;
      for (uint32_t k = 0; k < nexc && cur < wn; ++k) {
        (*mask)[begin + cur] = true;
        cur += ReadCode(src, cur, ep.bit_width) + 1;
      }
    }
  }
}

}  // namespace x100ir::compress
