// LOOP1 kernel dispatch (internal): the branch-free bit-unpacking kernels
// behind BlockDecoder's decode paths.
//
// Two kernel families exist for the FOR-add shape (out[i] = base + code[i]):
//
//   - scalar: one unaligned 64-bit load + shift/mask per codeword,
//     specialized per width via a template table (moved here from codec.cc);
//     always available, and the ground truth the SIMD kernels must match
//     bit-exactly (Codec.SimdUnpackBitExact sweeps the agreement).
//   - SIMD shuffle-table kernels for the byte-friendly widths b in
//     {4, 8, 16}: one 16-byte load expands to 8..32 decoded values through
//     pshufb (SSSE3) or tbl/zip (NEON) byte shuffles — no per-codeword
//     shifting at all. Selected at runtime (DESIGN.md §7.3):
//     __builtin_cpu_supports("ssse3") on x86-64 (kernels carry
//     __attribute__((target("ssse3"))) so no global -m flags are needed),
//     unconditionally on AArch64, scalar anywhere else.
//   - a generic AVX2 kernel family covering *every* width b in
//     [1, kMaxBitWidth] (DESIGN.md §12.2): 8 values per iteration. A group
//     of 8 b-bit codewords spans exactly b bytes, so every group starts
//     byte-aligned; two 16-byte loads (the second at byte (4b)>>3) put each
//     value's dword in reach of an in-lane vpshufb, then a per-lane
//     variable shift + mask isolates the codeword. Widths b >= 26 can
//     straddle a dword (shift + b > 32); a second shuffle fetches the
//     spill byte and a left-shift ORs the missing high bits in. Selected
//     via __builtin_cpu_supports("avx2"), preferred over the SSSE3 kernels.
//
// LOOP2 (exception patching) also has a dispatchable kernel: GetPatch()
// returns either the scalar record loop or an AVX2 variant that
// deinterleaves four 8-byte {value, pos} records per 32-byte load before
// the (inherently scalar) scattered stores.
//
// LOOP3 (the PFOR-DELTA prefix sum) dispatches the same way: GetPrefixSum()
// returns the scalar running-sum loop or an AVX2 kernel that sums 8 lanes
// in registers with the same wrapping uint32 arithmetic. So does the
// sorted cursor's in-window lower bound (compress/skip_cursor.h):
// GetLowerBound() returns the scalar binary search or an AVX2
// compare/movemask scan forward from the cursor's slot.
//
// The dictionary-gather shape (PDICT) stays scalar: PDICT is off the
// posting-list hot path.
//
// SetSimdUnpackEnabled(false) forces the scalar table — the test/bench hook
// for bit-exactness sweeps and the SIMD-vs-scalar speedup measurement
// (bench_table1_systems). Not thread-safe; flip it only in single-threaded
// setup code.
#ifndef X100IR_COMPRESS_UNPACK_H_
#define X100IR_COMPRESS_UNPACK_H_

#include <cstdint>

namespace x100ir::compress::internal {

// Kernel contracts (identical to the scalar loops they replace):
//   - codewords are packed LSB-first from src, n values, width implied by
//     the kernel;
//   - the caller guarantees readable slack past the last codeword
//     (kBlockPadBytes for the scalar 8-byte loads; the SIMD kernels bound
//     their 16-byte loads to full groups inside src and finish the tail
//     with the scalar loop, so they never read further than scalar would);
//   - exception slots decode to garbage links, patched later by LOOP2, so
//     the add is two's-complement wraparound (unsigned / paddd semantics).
using UnpackAddFn = void (*)(const uint8_t* src, uint32_t n, int32_t base,
                             int32_t* out);
using UnpackDictFn = void (*)(const uint8_t* src, uint32_t n,
                              const int32_t* dict, int32_t* out);
// LOOP2: out[rec.pos - out_base] = rec.value for each 8-byte
// {int32 value, uint32 pos} ExceptionRecord in recs[0..count). Positions
// are block-absolute; out_base rebases them (0 for whole-block patching,
// the window's first position for per-window patching). The caller
// guarantees every rebased position is in bounds (Validate() vets records
// once per block).
using PatchFn = void (*)(const uint8_t* recs, uint32_t count,
                         uint32_t out_base, int32_t* out);
// LOOP3: dst[i] = acc + dst[0] + ... + dst[i] for i in [0, n), summed as
// uint32 (a corrupt block's deltas wrap instead of overflowing); returns
// the running value after dst[n - 1] (acc when n == 0).
using PrefixSumFn = int32_t (*)(int32_t* dst, uint32_t n, int32_t acc);
// The first slot in [from, end) whose value is >= target, or end.
// vals[from..end) must be nondecreasing and end <= kEntryPointStride; vals
// must hold kEntryPointStride readable values (a window buffer), whatever
// sits outside [from, end).
using LowerBoundFn = uint32_t (*)(const int32_t* vals, uint32_t from,
                                  uint32_t end, int32_t target);

// Always-scalar kernels (test oracle). b in [1, kMaxBitWidth].
UnpackAddFn ScalarUnpackAdd(int b);
UnpackDictFn ScalarUnpackDict(int b);
PatchFn ScalarPatch();
PrefixSumFn ScalarPrefixSum();
LowerBoundFn ScalarLowerBound();

// Dispatched kernels: SIMD when available and enabled (all widths at
// kAvx2, b in {4, 8, 16} at kSse/kNeon; LOOP2, LOOP3 and the lower bound at
// kAvx2), scalar otherwise.
UnpackAddFn GetUnpackAdd(int b);
UnpackDictFn GetUnpackDict(int b);
PatchFn GetPatch();
PrefixSumFn GetPrefixSum();
LowerBoundFn GetLowerBound();

enum class SimdLevel : uint8_t {
  kScalar = 0,
  kSse = 1,
  kNeon = 2,
  kAvx2 = 3,
};
const char* SimdLevelName(SimdLevel level);

// What the dispatcher currently resolves to: the detected host level, or
// kScalar while SIMD is disabled.
SimdLevel ActiveSimdLevel();

// True iff GetUnpackAdd(b) would return a SIMD kernel right now.
bool SimdUnpackAvailable(int b);

void SetSimdUnpackEnabled(bool enabled);
bool SimdUnpackEnabled();

}  // namespace x100ir::compress::internal

#endif  // X100IR_COMPRESS_UNPACK_H_
