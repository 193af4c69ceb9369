// Internal block wire format + the shared block builder used by the three
// encoders (pfor.cc, pfor_delta.cc, pdict.cc). Not part of the public API.
//
// The builder streams: a scheme front end hands it a WindowSource that
// recomputes one 128-value window's symbols on demand, and BuildBlock makes
// two passes over the windows — a layout pass that picks each window's
// width, fills the entry points and counts exceptions, then, after
// allocating the block once at its exact size, an emit pass that writes
// codewords and exception records in place. An encode therefore holds its
// input, its output block, the entry points and a few fixed window buffers
// (PDICT adds its dictionary maps) — nothing else grows with n.
#ifndef X100IR_COMPRESS_BLOCK_LAYOUT_H_
#define X100IR_COMPRESS_BLOCK_LAYOUT_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "compress/codec.h"

namespace x100ir::compress::internal {

inline constexpr uint32_t kBlockMagic = 0x58314331;  // "1C1X" on LE disk
// Trailing slack so LOOP1's unaligned 64-bit loads on the last codewords
// never read past the buffer.
inline constexpr uint32_t kBlockPadBytes = 8;

struct BlockHeader {
  uint32_t magic;
  uint8_t scheme;
  uint8_t bit_width;  // bounds every window's width; PDICT: sizes the dict
  uint8_t flags;  // bit 0: naive layout
  uint8_t reserved;
  uint32_t n;
  int32_t base;
  uint32_t n_exceptions;
  uint32_t dict_count;   // logical dictionary entries (PDICT), 0 otherwise
  uint32_t entry_count;  // ceil(n / kEntryPointStride)
  uint32_t dict_offset;  // byte offsets from block start; 0 when absent
  uint32_t code_offset;
  uint32_t exc_offset;
};
static_assert(sizeof(BlockHeader) == 40, "packed header layout");

// EntryPoint::first_exc markers: a window with no exception, and a window
// stored raw (dense).
inline constexpr uint8_t kNoException = 0xFF;
inline constexpr uint8_t kDenseWindow = 0xFE;

struct EntryPoint {
  uint32_t exc_start;    // index of this window's first exception record
  uint8_t first_exc;     // in-window slot of the first exception,
                         // kNoException, or kDenseWindow
  uint8_t bit_width;     // this window's codeword width, 1..header width;
                         // 0 for a dense window
  uint16_t reserved;     // 0
  int32_t value_base;    // running value before the window (PFOR-DELTA)
  uint32_t payload_off;  // window payload, bytes from code_offset: packed
                         // codewords, or raw int32 values (dense)
};
static_assert(sizeof(EntryPoint) == 16, "packed entry layout");

// One entry in the exceptions section: the decoded value plus the
// block-absolute slot it patches. The codeword slots still carry the
// paper's linked exception list (first_exc + per-slot links), which
// ExceptionMask and the branch-trace sims walk; the materialized positions
// are what turn LOOP2 from a serial pointer chase (each link load feeds the
// next slot address) into a dependence-free sequential scan — one 8-byte
// load, one scattered store per exception, pipelining at store throughput.
struct ExceptionRecord {
  int32_t value;
  uint32_t pos;
};
static_assert(sizeof(ExceptionRecord) == 8, "packed exception layout");

inline constexpr uint8_t kFlagNaiveLayout = 1;

// Windows in a block of n values, ceil(n / kEntryPointStride), summed in 64
// bits so that n near 2^32 does not wrap.
inline uint32_t WindowCount(uint32_t n) {
  return static_cast<uint32_t>((uint64_t{n} + kEntryPointStride - 1) /
                               kEntryPointStride);
}

// Bytes occupied by a window of `wn` packed codewords at width b, padded to
// 4-byte alignment so raw (dense) windows interleave cleanly in the same
// payload section. Full windows occupy exactly 16*b bytes (128*b bits).
inline uint32_t WindowBytes(uint32_t wn, int b) {
  return ((wn * static_cast<uint32_t>(b) + 7) / 8 + 3u) & ~3u;
}

// A window is stored dense (raw int32 payload, no codewords, no exception
// records) whenever that is smaller than the patched form — the
// "compression must never lose to raw" rule applied per window. Decode-side
// a dense window is a memcpy, so bandwidth degrades toward memcpy speed —
// not toward zero — as the exception rate climbs.
inline bool DenseWins(uint32_t wn, int b, size_t nexc) {
  return 4u * wn < WindowBytes(wn, b) + sizeof(ExceptionRecord) * nexc;
}

// A scheme front end's column, one window at a time. Fill(w, wn, ...)
// writes window w's wn values (block positions w * kEntryPointStride
// onwards) into fixed buffers of kEntryPointStride entries:
//   syms[i]     — the codeword-domain symbol (value-base, delta-base, or
//                 dictionary code; any value outside [0, max_code] marks a
//                 natural exception; pdict uses -1 for out-of-dict),
//   payloads[i] — the 32-bit value to store if slot i ends up an exception
//                 or the window is stored dense (raw value or raw delta),
// and returns the running value before the window (PFOR-DELTA's entry-point
// value base; 0 for the other schemes). The builder calls it once per
// window per pass, in ascending window order, so a source recomputes its
// symbols from the input instead of storing them. Every call for window w
// must fill the same values: the emit pass writes exactly the exceptions
// and payload bytes the layout pass sized the block for.
class WindowSource {
 public:
  virtual int32_t Fill(uint32_t w, uint32_t wn, int64_t* syms,
                       int32_t* payloads) = 0;
};

// Everything BuildBlock needs besides the windows themselves.
struct BlockBuildInput {
  Scheme scheme = Scheme::kPfor;
  // 1..max_bit_width packs every window at that width; 0 gives each window
  // its own cheapest width (see BuildBlock).
  int bit_width = 0;
  // The widest a window may be. PDICT: the dictionary's width.
  int max_bit_width = kMaxBitWidth;
  bool naive_layout = false;
  int32_t base = 0;
  uint32_t n = 0;
  WindowSource* source = nullptr;
  // Padded dictionary of (1 << max_bit_width) int32 entries (PDICT only).
  const int32_t* dict = nullptr;
  uint32_t dict_count = 0;
};

// Builds the block in two passes over in.source (layout, then emit). With
// in.bit_width == 0 the layout pass gives each window the width in
// [1, max_bit_width] whose stored bytes — packed codewords plus one record
// per natural or compulsory exception — are fewest, the wider width on a
// tie, and stores the window dense when raw values are smaller. The
// header width is the widest window's (the dictionary's for PDICT). Every
// header offset and the block size are computed in 64 bits: a block that
// would exceed 4 GiB is InvalidArgument, refused before anything is
// allocated or the source is read when even its smallest possible layout
// (every window packed, no exceptions) does not fit.
Status BuildBlock(const BlockBuildInput& in, std::vector<uint8_t>* out,
                  BlockStats* stats);

}  // namespace x100ir::compress::internal

#endif  // X100IR_COMPRESS_BLOCK_LAYOUT_H_
