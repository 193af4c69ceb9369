// Fused decode→score kernel (DESIGN.md §12.3): scores one tf window
// straight from its packed PFOR payload,
//
//   out[i] = w * tf[i] / ((tf[i] + c0) + c1 * doclen[i]),  i in [0, len)
//
// without ever materializing the tf vector — LOOP1 unpacks 8 codewords
// into AVX2 registers, converts to float, and applies the BM25 map in the
// same iteration; exceptions are patched afterwards in the *score* domain
// (one Bm25 evaluation per record). On hosts without AVX2 (or with the
// SIMD toggle off) the window is unpacked into a stack buffer and scored
// there — still no heap materialization, still one pass.
//
// Bit-identity contract, pinned by FusedScore.* in tests/ir_test.cc: the
// kernel performs exactly MapBm25's operation sequence over the decoded
// window (cast, mul, add, mul, add, div — each elementwise and exactly
// rounded, no FMA contraction), so its scores are the floats MapBm25
// computes, not merely close ones.
//
// Input contract: a resident window of a patched-layout PFOR block
// (value = base + codeword, exception records override). A view carries
// no scheme, so the caller vouches for it: InvertedIndex::TryLoadColumns
// admits only such a tf column and every build writes one. It is the one
// window scorer of Block-Max MaxScore; callers that need the raw tfs
// (probe completion, the Table 2 runs) never call it.
#ifndef X100IR_IR_TF_WINDOW_SCORE_H_
#define X100IR_IR_TF_WINDOW_SCORE_H_

#include <cstdint>

#include "compress/codec.h"

namespace x100ir::ir {

// Scores view's window into out[0..view.len). doclens[i] must be the
// doclen of the document holding posting view.begin + i (the caller
// gathers it from the decoded docid window). w/c0/c1 are MapBm25's folded
// constants: w = idf*(k1+1), c0 = k1*(1-b), c1 = k1*b*inv_avgdl.
// Returns false (out untouched) for a view with no payload or a length
// outside (0, kEntryPointStride]; the MaxScore executor fails the query
// with an Internal status then.
bool FusedScoreTfWindow(const compress::WindowView& view,
                        const int32_t* doclens, float w, float c0, float c1,
                        float* out);

// The kernel's feed: out[i] = base[idx[i]] for i in [0, n) — gathers the
// decoded docid window's doclens. AVX2 hardware gather when available,
// scalar loop otherwise; identical output either way.
void GatherI32(const int32_t* base, const int32_t* idx, uint32_t n,
               int32_t* out);

}  // namespace x100ir::ir

#endif  // X100IR_IR_TF_WINDOW_SCORE_H_
