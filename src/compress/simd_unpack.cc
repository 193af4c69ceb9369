// LOOP1 unpack kernels: the scalar per-width template table (the portable
// ground truth), the SSE/NEON shuffle-table kernels for b in {4, 8, 16},
// the generic AVX2 kernels for every b in [1, kMaxBitWidth], the LOOP2
// exception-patch kernels, the LOOP3 prefix-sum and in-window lower-bound
// kernels, plus the runtime dispatch described in unpack.h.
#include "compress/unpack.h"

#include <array>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "compress/block_layout.h"
#include "compress/codec.h"

#if defined(__x86_64__) || defined(_M_X64)
#define X100IR_UNPACK_SSE 1
#include <immintrin.h>
#elif defined(__aarch64__)
#define X100IR_UNPACK_NEON 1
#include <arm_neon.h>
#endif

namespace x100ir::compress::internal {
namespace {

// ---------------------------------------------------------------------------
// Scalar kernels (moved verbatim from codec.cc). One unaligned 64-bit load
// per codeword; callers guarantee 8 readable bytes past the last codeword.
// ---------------------------------------------------------------------------

template <int B>
void UnpackAdd(const uint8_t* src, uint32_t n, int32_t base, int32_t* out) {
  constexpr uint64_t kMask = (1ull << B) - 1;
  const uint32_t ubase = static_cast<uint32_t>(base);
  uint64_t bit = 0;
  for (uint32_t i = 0; i < n; ++i, bit += B) {
    uint64_t word;
    std::memcpy(&word, src + (bit >> 3), sizeof(word));
    // Unsigned add so exception slots (whose codeword is a link, not a
    // value) can't hit signed overflow before LOOP2 patches them.
    out[i] = static_cast<int32_t>(
        ubase + static_cast<uint32_t>((word >> (bit & 7)) & kMask));
  }
}

template <int B>
void UnpackDict(const uint8_t* src, uint32_t n, const int32_t* dict,
                int32_t* out) {
  constexpr uint64_t kMask = (1ull << B) - 1;
  uint64_t bit = 0;
  for (uint32_t i = 0; i < n; ++i, bit += B) {
    uint64_t word;
    std::memcpy(&word, src + (bit >> 3), sizeof(word));
    // The dictionary is padded to 1 << B entries, so even link codewords in
    // exception slots (patched later by LOOP2) index in-bounds.
    out[i] = dict[(word >> (bit & 7)) & kMask];
  }
}

template <std::size_t... I>
constexpr std::array<UnpackAddFn, sizeof...(I)> MakeUnpackAddTable(
    std::index_sequence<I...>) {
  return {{&UnpackAdd<static_cast<int>(I)>...}};
}

template <std::size_t... I>
constexpr std::array<UnpackDictFn, sizeof...(I)> MakeUnpackDictTable(
    std::index_sequence<I...>) {
  return {{&UnpackDict<static_cast<int>(I)>...}};
}

constexpr auto kScalarUnpackAdd =
    MakeUnpackAddTable(std::make_index_sequence<kMaxBitWidth + 1>{});
constexpr auto kScalarUnpackDict =
    MakeUnpackDictTable(std::make_index_sequence<kMaxBitWidth + 1>{});

// ---------------------------------------------------------------------------
// SSE (SSSE3) kernels. Each processes whole 16-byte input groups — the
// group never reads past the bytes its own codewords occupy, so no extra
// slack beyond the scalar contract is needed — and hands the sub-group
// tail to the scalar kernel at a byte-aligned resume point (b=4 groups are
// 32 codes, so the resume bit offset is always a whole byte).
// ---------------------------------------------------------------------------

#if defined(X100IR_UNPACK_SSE)

__attribute__((target("ssse3"))) void UnpackAdd8Sse(const uint8_t* src,
                                                    uint32_t n, int32_t base,
                                                    int32_t* out) {
  const __m128i vbase = _mm_set1_epi32(base);
  // Shuffle tables: spread bytes j..j+3 of the load into the low byte of
  // each 32-bit lane; 0x80 lanes zero-fill (the pshufb sign-bit rule).
  const __m128i m0 = _mm_setr_epi8(0, -128, -128, -128, 1, -128, -128, -128,
                                   2, -128, -128, -128, 3, -128, -128, -128);
  const __m128i m1 = _mm_setr_epi8(4, -128, -128, -128, 5, -128, -128, -128,
                                   6, -128, -128, -128, 7, -128, -128, -128);
  const __m128i m2 = _mm_setr_epi8(8, -128, -128, -128, 9, -128, -128, -128,
                                   10, -128, -128, -128, 11, -128, -128,
                                   -128);
  const __m128i m3 = _mm_setr_epi8(12, -128, -128, -128, 13, -128, -128,
                                   -128, 14, -128, -128, -128, 15, -128,
                                   -128, -128);
  uint32_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_add_epi32(_mm_shuffle_epi8(v, m0), vbase));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 4),
                     _mm_add_epi32(_mm_shuffle_epi8(v, m1), vbase));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 8),
                     _mm_add_epi32(_mm_shuffle_epi8(v, m2), vbase));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 12),
                     _mm_add_epi32(_mm_shuffle_epi8(v, m3), vbase));
  }
  if (i < n) UnpackAdd<8>(src + i, n - i, base, out + i);
}

__attribute__((target("ssse3"))) void UnpackAdd16Sse(const uint8_t* src,
                                                     uint32_t n, int32_t base,
                                                     int32_t* out) {
  const __m128i vbase = _mm_set1_epi32(base);
  const __m128i mlo = _mm_setr_epi8(0, 1, -128, -128, 2, 3, -128, -128, 4, 5,
                                    -128, -128, 6, 7, -128, -128);
  const __m128i mhi = _mm_setr_epi8(8, 9, -128, -128, 10, 11, -128, -128, 12,
                                    13, -128, -128, 14, 15, -128, -128);
  uint32_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + 2 * i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_add_epi32(_mm_shuffle_epi8(v, mlo), vbase));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 4),
                     _mm_add_epi32(_mm_shuffle_epi8(v, mhi), vbase));
  }
  if (i < n) UnpackAdd<16>(src + 2 * i, n - i, base, out + i);
}

__attribute__((target("ssse3"))) void UnpackAdd4Sse(const uint8_t* src,
                                                    uint32_t n, int32_t base,
                                                    int32_t* out) {
  const __m128i vbase = _mm_set1_epi32(base);
  const __m128i nib = _mm_set1_epi8(0x0f);
  const __m128i m0 = _mm_setr_epi8(0, -128, -128, -128, 1, -128, -128, -128,
                                   2, -128, -128, -128, 3, -128, -128, -128);
  const __m128i m1 = _mm_setr_epi8(4, -128, -128, -128, 5, -128, -128, -128,
                                   6, -128, -128, -128, 7, -128, -128, -128);
  const __m128i m2 = _mm_setr_epi8(8, -128, -128, -128, 9, -128, -128, -128,
                                   10, -128, -128, -128, 11, -128, -128,
                                   -128);
  const __m128i m3 = _mm_setr_epi8(12, -128, -128, -128, 13, -128, -128,
                                   -128, 14, -128, -128, -128, 15, -128,
                                   -128, -128);
  uint32_t i = 0;
  for (; i + 32 <= n; i += 32) {
    // 16 bytes = 32 nibbles. LSB-first packing puts the even code in the
    // low nibble: interleaving (lo, hi) per byte restores code order.
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i / 2));
    const __m128i lo = _mm_and_si128(v, nib);
    const __m128i hi = _mm_and_si128(_mm_srli_epi16(v, 4), nib);
    const __m128i c0 = _mm_unpacklo_epi8(lo, hi);  // codes 0..15 as bytes
    const __m128i c1 = _mm_unpackhi_epi8(lo, hi);  // codes 16..31
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_add_epi32(_mm_shuffle_epi8(c0, m0), vbase));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 4),
                     _mm_add_epi32(_mm_shuffle_epi8(c0, m1), vbase));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 8),
                     _mm_add_epi32(_mm_shuffle_epi8(c0, m2), vbase));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 12),
                     _mm_add_epi32(_mm_shuffle_epi8(c0, m3), vbase));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 16),
                     _mm_add_epi32(_mm_shuffle_epi8(c1, m0), vbase));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 20),
                     _mm_add_epi32(_mm_shuffle_epi8(c1, m1), vbase));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 24),
                     _mm_add_epi32(_mm_shuffle_epi8(c1, m2), vbase));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 28),
                     _mm_add_epi32(_mm_shuffle_epi8(c1, m3), vbase));
  }
  if (i < n) UnpackAdd<4>(src + i / 2, n - i, base, out + i);
}

// ---------------------------------------------------------------------------
// Generic AVX2 kernels: LOOP1 unpack for *every* width b in
// [1, kMaxBitWidth], 8 values per iteration. A group of 8 b-bit codewords
// spans exactly b bytes, so group g starts byte-aligned at src + g*b. Two
// 16-byte loads — the group start and byte (4b)>>3 — are stacked into one
// 256-bit register so lane l's codeword dword is reachable by the in-lane
// vpshufb (source index <= 15 for every b <= 30); a per-lane variable
// right shift + mask then isolates the codeword. A group that fits one
// load needs only that load, broadcast to both halves: widths b <= 8 keep
// a group in its first 8 bytes and load 8, widths 9..16 in its first 16
// and load 16. Either reads fewer bytes past the group start than the two
// loads' (4b)>>3 + 16, which lets every group of a full window run here
// instead of leaving the last ones to the scalar tail (at b = 1 the two
// loads fit only 9 of a window's 16 groups in its payload plus slack, at
// b = 9..15 15 of 16). Widths b >= 26 can straddle the shuffled dword
// (shift + b > 32): a second shuffle fetches the spill byte and a variable
// left shift ORs the missing high bits in.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) inline __m128i LoadU128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Per-lane layout constants for one 8-value group at width B. Lanes 0..3
// shuffle from the low half, lanes 4..7 from the high half: the 16-byte
// load at byte (4B)>>3, or for a width whose group fits one load the same
// bytes as the low half. Off() is the byte offset *within the lane's half*.
template <int B>
struct Avx2Lane {
  // The group's B bytes fit one 8-byte load / one 16-byte load.
  static constexpr bool kNarrow = B <= 8;
  static constexpr bool kOneLoad = B <= 16;
  static constexpr int Off(int l) {
    return l < 4 || kOneLoad ? (l * B) >> 3
                             : ((l * B) >> 3) - ((4 * B) >> 3);
  }
  // Control byte k of lane l's dword. Only the last lanes at b = 15, 16
  // reach past the 16-byte half; those bytes lie past the group, so they
  // zero-fill (0x80) and the mask drops them.
  static constexpr char Byte(int l, int k) {
    return static_cast<char>(Off(l) + k < 16 ? Off(l) + k : -128);
  }
  static constexpr int Shift(int l) { return (l * B) & 7; }
  // True when the codeword straddles its shuffled dword (only b >= 26).
  static constexpr bool Spill(int l) { return Shift(l) + B > 32; }
};

// Four vpshufb control bytes selecting lane l's dword (bytes Off..Off+3 of
// its half), and the spill-byte control (byte Off+4 into the lane's low
// byte, or 0x80 = zero-fill for lanes that don't straddle).
#define X100IR_AVX2_LANE(l)                                          \
  Avx2Lane<B>::Byte(l, 0), Avx2Lane<B>::Byte(l, 1),                  \
      Avx2Lane<B>::Byte(l, 2), Avx2Lane<B>::Byte(l, 3)
#define X100IR_AVX2_SPILL(l)                                         \
  static_cast<char>(Avx2Lane<B>::Spill(l) ? Avx2Lane<B>::Off(l) + 4  \
                                          : -128),                   \
      -128, -128, -128

template <int B>
__attribute__((target("avx2"))) void UnpackAddAvx2(const uint8_t* src,
                                                   uint32_t n, int32_t base,
                                                   int32_t* out) {
  static_assert(B >= 1 && B <= kMaxBitWidth, "width out of range");
  constexpr uint32_t kHoff = (4 * B) >> 3;
  // Bytes a group's loads read from its start.
  constexpr uint32_t kReach =
      Avx2Lane<B>::kNarrow ? 8 : (Avx2Lane<B>::kOneLoad ? 16 : kHoff + 16);
  const __m256i shuf = _mm256_setr_epi8(
      X100IR_AVX2_LANE(0), X100IR_AVX2_LANE(1), X100IR_AVX2_LANE(2),
      X100IR_AVX2_LANE(3), X100IR_AVX2_LANE(4), X100IR_AVX2_LANE(5),
      X100IR_AVX2_LANE(6), X100IR_AVX2_LANE(7));
  const __m256i shifts = _mm256_setr_epi32(
      Avx2Lane<B>::Shift(0), Avx2Lane<B>::Shift(1), Avx2Lane<B>::Shift(2),
      Avx2Lane<B>::Shift(3), Avx2Lane<B>::Shift(4), Avx2Lane<B>::Shift(5),
      Avx2Lane<B>::Shift(6), Avx2Lane<B>::Shift(7));
  const __m256i mask = _mm256_set1_epi32(static_cast<int32_t>((1u << B) - 1));
  const __m256i vbase = _mm256_set1_epi32(base);
  // Bound full groups so the loads stay inside the bytes the scalar kernel
  // may touch: the codewords plus the guaranteed kBlockPadBytes of slack.
  // Group g's furthest load ends at byte g*B + kReach.
  const uint64_t readable =
      (static_cast<uint64_t>(n) * B + 7) / 8 + kBlockPadBytes;
  uint64_t groups = n / 8;
  if (readable < kReach) {
    groups = 0;
  } else {
    const uint64_t fit = (readable - kReach) / B + 1;
    if (fit < groups) groups = fit;
  }
  uint32_t i = 0;
  for (uint64_t g = 0; g < groups; ++g, i += 8) {
    const uint8_t* p = src + static_cast<size_t>(g) * B;
    __m256i v;
    if constexpr (Avx2Lane<B>::kNarrow) {
      int64_t word;
      std::memcpy(&word, p, sizeof(word));
      v = _mm256_set1_epi64x(word);
    } else if constexpr (Avx2Lane<B>::kOneLoad) {
      v = _mm256_broadcastsi128_si256(LoadU128(p));
    } else {
      v = _mm256_set_m128i(LoadU128(p + kHoff), LoadU128(p));
    }
    __m256i w = _mm256_srlv_epi32(_mm256_shuffle_epi8(v, shuf), shifts);
    if constexpr (B >= 26) {
      const __m256i spill_shuf = _mm256_setr_epi8(
          X100IR_AVX2_SPILL(0), X100IR_AVX2_SPILL(1), X100IR_AVX2_SPILL(2),
          X100IR_AVX2_SPILL(3), X100IR_AVX2_SPILL(4), X100IR_AVX2_SPILL(5),
          X100IR_AVX2_SPILL(6), X100IR_AVX2_SPILL(7));
      // Left shift by 32 - shift places the spill byte's bit 0 exactly
      // where the right-shifted dword ran out; lanes without a spill got a
      // zero byte (0x80 control) and a shift >= 32 also yields zero.
      const __m256i lshifts = _mm256_setr_epi32(
          32 - Avx2Lane<B>::Shift(0), 32 - Avx2Lane<B>::Shift(1),
          32 - Avx2Lane<B>::Shift(2), 32 - Avx2Lane<B>::Shift(3),
          32 - Avx2Lane<B>::Shift(4), 32 - Avx2Lane<B>::Shift(5),
          32 - Avx2Lane<B>::Shift(6), 32 - Avx2Lane<B>::Shift(7));
      w = _mm256_or_si256(
          w, _mm256_sllv_epi32(_mm256_shuffle_epi8(v, spill_shuf), lshifts));
    }
    w = _mm256_add_epi32(_mm256_and_si256(w, mask), vbase);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), w);
  }
  // Scalar tail resumes byte-aligned: i is a multiple of 8, so i*B bits is
  // exactly i/8 * B bytes.
  if (i < n) {
    UnpackAdd<B>(src + static_cast<size_t>(i / 8) * B, n - i, base, out + i);
  }
}

#undef X100IR_AVX2_LANE
#undef X100IR_AVX2_SPILL

template <std::size_t I>
constexpr UnpackAddFn Avx2EntryOrNull() {
  if constexpr (I >= 1 && I <= kMaxBitWidth) {
    return &UnpackAddAvx2<static_cast<int>(I)>;
  } else {
    return nullptr;  // b == 0 (constant run) stays scalar
  }
}

template <std::size_t... I>
constexpr std::array<UnpackAddFn, sizeof...(I)> MakeAvx2UnpackAddTable(
    std::index_sequence<I...>) {
  return {{Avx2EntryOrNull<I>()...}};
}

constexpr auto kAvx2UnpackAdd =
    MakeAvx2UnpackAddTable(std::make_index_sequence<kMaxBitWidth + 1>{});

#endif  // X100IR_UNPACK_SSE

// ---------------------------------------------------------------------------
// LOOP2 exception-patch kernels. The scattered stores are inherently scalar
// (no int32 scatter below AVX-512), but the AVX2 variant deinterleaves four
// 8-byte {value, pos} records per 32-byte load so the address/value lanes
// arrive as two contiguous quads instead of eight strided loads.
// ---------------------------------------------------------------------------

void PatchScalar(const uint8_t* recs, uint32_t count, uint32_t out_base,
                 int32_t* out) {
  for (uint32_t k = 0; k < count; ++k) {
    ExceptionRecord rec;
    std::memcpy(&rec, recs + static_cast<size_t>(k) * sizeof(ExceptionRecord),
                sizeof(rec));
    out[rec.pos - out_base] = rec.value;
  }
}

#if defined(X100IR_UNPACK_SSE)

__attribute__((target("avx2"))) void PatchAvx2(const uint8_t* recs,
                                               uint32_t count,
                                               uint32_t out_base,
                                               int32_t* out) {
  const __m256i deint = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
  uint32_t k = 0;
  for (; k + 4 <= count; k += 4) {
    const __m256i r = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
        recs + static_cast<size_t>(k) * sizeof(ExceptionRecord)));
    alignas(32) int32_t lanes[8];  // [v0 v1 v2 v3 | p0 p1 p2 p3]
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes),
                       _mm256_permutevar8x32_epi32(r, deint));
    // Positions are unique within a block, so store order is irrelevant.
    out[static_cast<uint32_t>(lanes[4]) - out_base] = lanes[0];
    out[static_cast<uint32_t>(lanes[5]) - out_base] = lanes[1];
    out[static_cast<uint32_t>(lanes[6]) - out_base] = lanes[2];
    out[static_cast<uint32_t>(lanes[7]) - out_base] = lanes[3];
  }
  if (k < count) {
    PatchScalar(recs + static_cast<size_t>(k) * sizeof(ExceptionRecord),
                count - k, out_base, out);
  }
}

#endif  // X100IR_UNPACK_SSE

// ---------------------------------------------------------------------------
// LOOP3 prefix-sum kernels (PFOR-DELTA). The scalar loop is the ground
// truth; the AVX2 variant sums 8 lanes in registers — two in-lane
// shift-and-adds, the low half's total added to the high half, then the
// running value broadcast from lane 7 — so the loop-carried chain is one
// add and one permute per 8 values instead of one add per value. paddd
// wraps like the scalar loop's uint32 sum.
// ---------------------------------------------------------------------------

int32_t PrefixSumScalar(int32_t* dst, uint32_t n, int32_t acc) {
  uint32_t sum = static_cast<uint32_t>(acc);
  for (uint32_t i = 0; i < n; ++i) {
    sum += static_cast<uint32_t>(dst[i]);
    dst[i] = static_cast<int32_t>(sum);
  }
  return static_cast<int32_t>(sum);
}

// In-window lower bound, scalar: the first slot in [from, end) whose value
// is >= target, or end. vals[from..end) must be nondecreasing.
uint32_t LowerBoundScalar(const int32_t* vals, uint32_t from, uint32_t end,
                          int32_t target) {
  while (from < end) {
    const uint32_t m = from + (end - from) / 2;
    if (vals[m] >= target) {
      end = m;
    } else {
      from = m + 1;
    }
  }
  return from;
}

#if defined(X100IR_UNPACK_SSE)

__attribute__((target("avx2"))) int32_t PrefixSumAvx2(int32_t* dst,
                                                     uint32_t n,
                                                     int32_t acc) {
  const __m256i last = _mm256_set1_epi32(7);
  __m256i carry = _mm256_set1_epi32(acc);
  uint32_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    x = _mm256_add_epi32(x, _mm256_slli_si256(x, 4));
    x = _mm256_add_epi32(x, _mm256_slli_si256(x, 8));
    // Lane 3's in-lane total, broadcast into the high half only.
    const __m256i low_total = _mm256_shuffle_epi32(
        _mm256_permute2x128_si256(x, x, 0x08), 0xFF);
    x = _mm256_add_epi32(_mm256_add_epi32(x, low_total), carry);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), x);
    carry = _mm256_permutevar8x32_epi32(x, last);
  }
  const int32_t sum = _mm256_cvtsi256_si32(carry);
  return i < n ? PrefixSumScalar(dst + i, n - i, sum) : sum;
}

// In-window lower bound, AVX2: a forward scan from `from`, 8 slots per
// compare, over 8-aligned groups (a window buffer holds kEntryPointStride
// values, so no group reads past it). Lanes outside [from, end) are masked
// off, so values before the cursor or past the range end — another term's
// postings, or a partial window's stale tail — never match.
__attribute__((target("avx2"))) uint32_t LowerBoundAvx2(const int32_t* vals,
                                                       uint32_t from,
                                                       uint32_t end,
                                                       int32_t target) {
  const __m256i t = _mm256_set1_epi32(target);
  uint32_t g = from & ~7u;
  uint32_t lanes = 0xFFu << (from - g);
  for (; g < end; g += 8, lanes = 0xFFu) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vals + g));
    const uint32_t below = static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(t, x))));
    if (end - g < 8) lanes &= (1u << (end - g)) - 1;
    const uint32_t hit = ~below & lanes & 0xFFu;
    if (hit != 0) return g + static_cast<uint32_t>(__builtin_ctz(hit));
  }
  return end;
}

#endif  // X100IR_UNPACK_SSE

// ---------------------------------------------------------------------------
// NEON kernels (AArch64: NEON is architectural, no runtime check needed).
// Same group structure as the SSE kernels: whole 16-byte groups, scalar
// tail at a byte-aligned resume point.
// ---------------------------------------------------------------------------

#if defined(X100IR_UNPACK_NEON)

void UnpackAdd8Neon(const uint8_t* src, uint32_t n, int32_t base,
                    int32_t* out) {
  const int32x4_t vbase = vdupq_n_s32(base);
  uint32_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t v = vld1q_u8(src + i);
    const uint16x8_t lo = vmovl_u8(vget_low_u8(v));
    const uint16x8_t hi = vmovl_u8(vget_high_u8(v));
    vst1q_s32(out + i, vaddq_s32(vreinterpretq_s32_u32(
                                     vmovl_u16(vget_low_u16(lo))),
                                 vbase));
    vst1q_s32(out + i + 4, vaddq_s32(vreinterpretq_s32_u32(
                                         vmovl_u16(vget_high_u16(lo))),
                                     vbase));
    vst1q_s32(out + i + 8, vaddq_s32(vreinterpretq_s32_u32(
                                         vmovl_u16(vget_low_u16(hi))),
                                     vbase));
    vst1q_s32(out + i + 12, vaddq_s32(vreinterpretq_s32_u32(
                                          vmovl_u16(vget_high_u16(hi))),
                                      vbase));
  }
  if (i < n) UnpackAdd<8>(src + i, n - i, base, out + i);
}

void UnpackAdd16Neon(const uint8_t* src, uint32_t n, int32_t base,
                     int32_t* out) {
  const int32x4_t vbase = vdupq_n_s32(base);
  uint32_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const uint16x8_t v = vreinterpretq_u16_u8(vld1q_u8(src + 2 * i));
    vst1q_s32(out + i, vaddq_s32(vreinterpretq_s32_u32(
                                     vmovl_u16(vget_low_u16(v))),
                                 vbase));
    vst1q_s32(out + i + 4, vaddq_s32(vreinterpretq_s32_u32(
                                         vmovl_u16(vget_high_u16(v))),
                                     vbase));
  }
  if (i < n) UnpackAdd<16>(src + 2 * i, n - i, base, out + i);
}

void UnpackAdd4Neon(const uint8_t* src, uint32_t n, int32_t base,
                    int32_t* out) {
  const int32x4_t vbase = vdupq_n_s32(base);
  const uint8x16_t nib = vdupq_n_u8(0x0f);
  uint32_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const uint8x16_t v = vld1q_u8(src + i / 2);
    const uint8x16_t lo = vandq_u8(v, nib);
    const uint8x16_t hi = vandq_u8(vshrq_n_u8(v, 4), nib);
    // LSB-first: even code in the low nibble; zip restores code order.
    const uint8x16_t c0 = vzip1q_u8(lo, hi);  // codes 0..15 as bytes
    const uint8x16_t c1 = vzip2q_u8(lo, hi);  // codes 16..31
    const uint16x8_t w0 = vmovl_u8(vget_low_u8(c0));
    const uint16x8_t w1 = vmovl_u8(vget_high_u8(c0));
    const uint16x8_t w2 = vmovl_u8(vget_low_u8(c1));
    const uint16x8_t w3 = vmovl_u8(vget_high_u8(c1));
    vst1q_s32(out + i, vaddq_s32(vreinterpretq_s32_u32(
                                     vmovl_u16(vget_low_u16(w0))),
                                 vbase));
    vst1q_s32(out + i + 4, vaddq_s32(vreinterpretq_s32_u32(
                                         vmovl_u16(vget_high_u16(w0))),
                                     vbase));
    vst1q_s32(out + i + 8, vaddq_s32(vreinterpretq_s32_u32(
                                         vmovl_u16(vget_low_u16(w1))),
                                     vbase));
    vst1q_s32(out + i + 12, vaddq_s32(vreinterpretq_s32_u32(
                                          vmovl_u16(vget_high_u16(w1))),
                                      vbase));
    vst1q_s32(out + i + 16, vaddq_s32(vreinterpretq_s32_u32(
                                          vmovl_u16(vget_low_u16(w2))),
                                      vbase));
    vst1q_s32(out + i + 20, vaddq_s32(vreinterpretq_s32_u32(
                                          vmovl_u16(vget_high_u16(w2))),
                                      vbase));
    vst1q_s32(out + i + 24, vaddq_s32(vreinterpretq_s32_u32(
                                          vmovl_u16(vget_low_u16(w3))),
                                      vbase));
    vst1q_s32(out + i + 28, vaddq_s32(vreinterpretq_s32_u32(
                                          vmovl_u16(vget_high_u16(w3))),
                                      vbase));
  }
  if (i < n) UnpackAdd<4>(src + i / 2, n - i, base, out + i);
}

#endif  // X100IR_UNPACK_NEON

SimdLevel DetectSimdLevel() {
#if defined(X100IR_UNPACK_SSE)
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
  return __builtin_cpu_supports("ssse3") ? SimdLevel::kSse
                                         : SimdLevel::kScalar;
#elif defined(X100IR_UNPACK_NEON)
  return SimdLevel::kNeon;
#else
  return SimdLevel::kScalar;
#endif
}

SimdLevel HostSimdLevel() {
  static const SimdLevel level = DetectSimdLevel();
  return level;
}

UnpackAddFn SimdUnpackAddOrNull(int b) {
  switch (HostSimdLevel()) {
#if defined(X100IR_UNPACK_SSE)
    case SimdLevel::kAvx2:
      if (b >= 0 && b <= static_cast<int>(kMaxBitWidth)) {
        return kAvx2UnpackAdd[b];
      }
      return nullptr;
    case SimdLevel::kSse:
      if (b == 4) return &UnpackAdd4Sse;
      if (b == 8) return &UnpackAdd8Sse;
      if (b == 16) return &UnpackAdd16Sse;
      return nullptr;
#endif
#if defined(X100IR_UNPACK_NEON)
    case SimdLevel::kNeon:
      if (b == 4) return &UnpackAdd4Neon;
      if (b == 8) return &UnpackAdd8Neon;
      if (b == 16) return &UnpackAdd16Neon;
      return nullptr;
#endif
    default:
      return nullptr;
  }
}

// Default: SIMD on. X100IR_FORCE_SCALAR=1 in the environment starts the
// process with the dispatcher pinned to scalar — how CI's sanitizer
// matrix runs the same suite over both kernel families without a
// rebuild. SetSimdUnpackEnabled still overrides at runtime (tests toggle
// both ways regardless of the starting state).
bool InitialSimdEnabled() {
  const char* e = std::getenv("X100IR_FORCE_SCALAR");
  return e == nullptr || e[0] == '\0' || e[0] == '0';
}

bool g_simd_enabled = InitialSimdEnabled();

}  // namespace

UnpackAddFn ScalarUnpackAdd(int b) { return kScalarUnpackAdd[b]; }
UnpackDictFn ScalarUnpackDict(int b) { return kScalarUnpackDict[b]; }

UnpackAddFn GetUnpackAdd(int b) {
  if (g_simd_enabled) {
    if (UnpackAddFn fn = SimdUnpackAddOrNull(b)) return fn;
  }
  return kScalarUnpackAdd[b];
}

UnpackDictFn GetUnpackDict(int b) { return kScalarUnpackDict[b]; }

PatchFn ScalarPatch() { return &PatchScalar; }

PatchFn GetPatch() {
#if defined(X100IR_UNPACK_SSE)
  if (g_simd_enabled && HostSimdLevel() == SimdLevel::kAvx2) {
    return &PatchAvx2;
  }
#endif
  return &PatchScalar;
}

PrefixSumFn ScalarPrefixSum() { return &PrefixSumScalar; }

PrefixSumFn GetPrefixSum() {
#if defined(X100IR_UNPACK_SSE)
  if (g_simd_enabled && HostSimdLevel() == SimdLevel::kAvx2) {
    return &PrefixSumAvx2;
  }
#endif
  return &PrefixSumScalar;
}

LowerBoundFn ScalarLowerBound() { return &LowerBoundScalar; }

LowerBoundFn GetLowerBound() {
#if defined(X100IR_UNPACK_SSE)
  if (g_simd_enabled && HostSimdLevel() == SimdLevel::kAvx2) {
    return &LowerBoundAvx2;
  }
#endif
  return &LowerBoundScalar;
}

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kSse:
      return "ssse3";
    case SimdLevel::kNeon:
      return "neon";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

SimdLevel ActiveSimdLevel() {
  return g_simd_enabled ? HostSimdLevel() : SimdLevel::kScalar;
}

bool SimdUnpackAvailable(int b) {
  return g_simd_enabled && SimdUnpackAddOrNull(b) != nullptr;
}

void SetSimdUnpackEnabled(bool enabled) { g_simd_enabled = enabled; }
bool SimdUnpackEnabled() { return g_simd_enabled; }

}  // namespace x100ir::compress::internal
