#include "ir/tf_window_score.h"

#include <cstring>

#include "compress/block_layout.h"
#include "compress/unpack.h"

#if defined(__x86_64__) || defined(_M_X64)
#define X100IR_FUSED_AVX2 1
#include <immintrin.h>
#endif

namespace x100ir::ir {
namespace {

using compress::kEntryPointStride;
using compress::WindowView;
using compress::internal::ActiveSimdLevel;
using compress::internal::GetUnpackAdd;
using compress::internal::SimdLevel;

// One BM25 contribution, in exactly MapBm25's operation order (bm25.h):
// (w * tff) / ((tff + c0) + (c1 * dlf)). Every op is elementwise and
// exactly rounded, so the vector path below computing the same sequence
// with AVX2 mul/add/div (no FMA) produces bit-identical floats.
inline float ScoreOne(float tff, float dlf, float w, float c0, float c1) {
  return w * tff / (tff + c0 + c1 * dlf);
}

// Exception record layout (block_layout.h): {int32 value, uint32 pos},
// positions block-absolute. Patched in the score domain: the codeword in
// an exception slot is a garbage link, so whatever score the bulk loop
// wrote there is overwritten with the real value's contribution.
void PatchScores(const WindowView& view, const int32_t* doclens, float w,
                 float c0, float c1, float* out) {
  for (uint32_t k = 0; k < view.exc_count; ++k) {
    int32_t value;
    uint32_t pos;
    std::memcpy(&value, view.exc + 8ull * k, 4);
    std::memcpy(&pos, view.exc + 8ull * k + 4, 4);
    const uint32_t slot = pos - view.begin;
    if (slot < view.len) {
      out[slot] = ScoreOne(static_cast<float>(value),
                           static_cast<float>(doclens[slot]), w, c0, c1);
    }
  }
}

#if defined(X100IR_FUSED_AVX2)

__attribute__((target("avx2"))) inline __m128i FusedLoadU128(
    const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// True fusion: unpack 8 b-bit codewords into a YMM register (the same
// load + in-lane-shuffle + variable-shift scheme as UnpackAddAvx2 in
// simd_unpack.cc, one broadcast 8-byte load for b <= 8, one broadcast
// 16-byte load for b <= 16 and two 16-byte loads above, but with the
// shuffle/shift controls built at runtime — one
// window amortizes the ~30 scalar setup ops over up to 16 groups), convert
// to float, and apply the BM25 map before anything is stored. The tf vector
// never exists in memory.
__attribute__((target("avx2"))) void Avx2UnpackScore(
    const uint8_t* src, uint32_t n, int b, int32_t base,
    const int32_t* doclens, float w, float c0, float c1, float* out) {
  const bool narrow = b <= 8;
  const bool one_load = b <= 16;
  const uint32_t hoff = one_load ? 0 : (4u * static_cast<uint32_t>(b)) >> 3;
  // Bytes a group reads.
  const uint32_t reach = narrow ? 8 : (one_load ? 16 : hoff + 16);

  alignas(32) int8_t shuf_b[32];
  alignas(32) int8_t spill_b[32];
  alignas(32) int32_t rsh[8];
  alignas(32) int32_t lsh[8];
  bool any_spill = false;
  for (int l = 0; l < 8; ++l) {
    const uint32_t bit = static_cast<uint32_t>(l) * static_cast<uint32_t>(b);
    const uint32_t off = l < 4 ? (bit >> 3) : (bit >> 3) - hoff;
    for (int k = 0; k < 4; ++k) {
      // Past the 16-byte half only at b = 15, 16, where those bytes lie
      // past the group: zero-fill.
      const uint32_t byte = off + static_cast<uint32_t>(k);
      shuf_b[4 * l + k] = byte < 16 ? static_cast<int8_t>(byte) : -128;
    }
    rsh[l] = static_cast<int32_t>(bit & 7u);
    lsh[l] = 32 - rsh[l];  // >= 32 shifts whole lanes to zero (vpsllvd)
    const bool spill = rsh[l] + b > 32;
    any_spill |= spill;
    spill_b[4 * l + 0] = spill ? static_cast<int8_t>(off + 4) : -128;
    spill_b[4 * l + 1] = -128;
    spill_b[4 * l + 2] = -128;
    spill_b[4 * l + 3] = -128;
  }

  const __m256i vshuf =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(shuf_b));
  const __m256i vspill =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(spill_b));
  const __m256i vrsh = _mm256_load_si256(reinterpret_cast<const __m256i*>(rsh));
  const __m256i vlsh = _mm256_load_si256(reinterpret_cast<const __m256i*>(lsh));
  const __m256i vmask = _mm256_set1_epi32(
      static_cast<int32_t>((1u << static_cast<uint32_t>(b)) - 1u));
  const __m256i vbase = _mm256_set1_epi32(base);
  const __m256 vw = _mm256_set1_ps(w);
  const __m256 vc0 = _mm256_set1_ps(c0);
  const __m256 vc1 = _mm256_set1_ps(c1);

  // Same over-read guard as the LOOP1 kernels: a group's loads end at byte
  // g*b + reach; bound them to the window payload plus the block's
  // trailing slack.
  const uint32_t readable =
      (n * static_cast<uint32_t>(b) + 7u) / 8u +
      compress::internal::kBlockPadBytes;
  uint32_t groups = n / 8u;
  const uint32_t fit =
      readable >= reach
          ? (readable - reach) / static_cast<uint32_t>(b) + 1u
          : 0u;
  if (groups > fit) groups = fit;

  uint32_t i = 0;
  for (uint32_t g = 0; g < groups; ++g, i += 8) {
    const uint8_t* p = src + static_cast<size_t>(g) * static_cast<size_t>(b);
    __m256i v;
    if (narrow) {
      int64_t word;
      std::memcpy(&word, p, sizeof(word));
      v = _mm256_set1_epi64x(word);
    } else if (one_load) {
      v = _mm256_broadcastsi128_si256(FusedLoadU128(p));
    } else {
      v = _mm256_set_m128i(FusedLoadU128(p + hoff), FusedLoadU128(p));
    }
    __m256i codes = _mm256_srlv_epi32(_mm256_shuffle_epi8(v, vshuf), vrsh);
    if (any_spill) {
      codes = _mm256_or_si256(
          codes, _mm256_sllv_epi32(_mm256_shuffle_epi8(v, vspill), vlsh));
    }
    const __m256i tf =
        _mm256_add_epi32(_mm256_and_si256(codes, vmask), vbase);
    const __m256 tff = _mm256_cvtepi32_ps(tf);
    const __m256 dlf = _mm256_cvtepi32_ps(_mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(doclens + i)));
    const __m256 num = _mm256_mul_ps(vw, tff);
    const __m256 den =
        _mm256_add_ps(_mm256_add_ps(tff, vc0), _mm256_mul_ps(vc1, dlf));
    _mm256_storeu_ps(out + i, _mm256_div_ps(num, den));
  }

  // Scalar tail, resuming at the (byte-aligned) next group boundary.
  if (i < n) {
    int32_t tmp[kEntryPointStride];
    GetUnpackAdd(b)(src + static_cast<size_t>(i / 8u) * static_cast<size_t>(b),
                    n - i, base, tmp);
    for (uint32_t j = 0; j < n - i; ++j) {
      out[i + j] = ScoreOne(static_cast<float>(tmp[j]),
                            static_cast<float>(doclens[i + j]), w, c0, c1);
    }
  }
}

// 8-lane hardware gather: the doclen feed's indices are valid docids, so
// full 8-groups gather unmasked; the tail stays scalar (a masked gather
// of garbage lanes could fault — the decoded window buffer holds exactly
// win_len values).
__attribute__((target("avx2"))) void Avx2GatherI32(const int32_t* base,
                                                   const int32_t* idx,
                                                   uint32_t n, int32_t* out) {
  uint32_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i ix =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_i32gather_epi32(base, ix, 4));
  }
  for (; i < n; ++i) out[i] = base[idx[i]];
}

#endif  // X100IR_FUSED_AVX2

}  // namespace

void GatherI32(const int32_t* base, const int32_t* idx, uint32_t n,
               int32_t* out) {
#if defined(X100IR_FUSED_AVX2)
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    Avx2GatherI32(base, idx, n, out);
    return;
  }
#endif
  for (uint32_t i = 0; i < n; ++i) out[i] = base[idx[i]];
}

bool FusedScoreTfWindow(const WindowView& view, const int32_t* doclens,
                        float w, float c0, float c1, float* out) {
  if (view.payload == nullptr || view.len == 0 ||
      view.len > kEntryPointStride) {
    return false;
  }
  const uint32_t n = view.len;

  if (view.dense) {
    // Raw int32 payload; no exceptions by construction.
    for (uint32_t i = 0; i < n; ++i) {
      int32_t tf;
      std::memcpy(&tf, view.payload + 4ull * i, 4);
      out[i] = ScoreOne(static_cast<float>(tf),
                        static_cast<float>(doclens[i]), w, c0, c1);
    }
    return true;
  }
  if (view.bit_width == 0) {
    // Constant run: every codeword is 0, value == base everywhere.
    const float tff = static_cast<float>(view.base);
    for (uint32_t i = 0; i < n; ++i) {
      out[i] = ScoreOne(tff, static_cast<float>(doclens[i]), w, c0, c1);
    }
    PatchScores(view, doclens, w, c0, c1, out);
    return true;
  }

#if defined(X100IR_FUSED_AVX2)
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    Avx2UnpackScore(view.payload, n, view.bit_width, view.base, doclens, w,
                    c0, c1, out);
    PatchScores(view, doclens, w, c0, c1, out);
    return true;
  }
#endif

  // No AVX2 (or SIMD disabled): unpack into a stack window, score in place.
  int32_t tmp[kEntryPointStride];
  GetUnpackAdd(view.bit_width)(view.payload, n, view.base, tmp);
  for (uint32_t i = 0; i < n; ++i) {
    out[i] = ScoreOne(static_cast<float>(tmp[i]),
                      static_cast<float>(doclens[i]), w, c0, c1);
  }
  PatchScores(view, doclens, w, c0, c1, out);
  return true;
}

}  // namespace x100ir::ir
