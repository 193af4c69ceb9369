// PFOR-DELTA: PFOR over the first-order deltas of a (partially) sorted
// column — the docid representation of §3.3. Reconstruction is a prefix sum
// (LOOP3), seeded per 128-value window from the entry points so range
// decodes never scan from the block start.
#ifndef X100IR_COMPRESS_PFOR_DELTA_H_
#define X100IR_COMPRESS_PFOR_DELTA_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "compress/codec.h"

namespace x100ir::compress {

// Encodes values[0..n). Deltas (values[i] - values[i-1], with values[-1]
// taken as 0) must be representable in 32 bits — always true for sorted
// input. With opts.bit_width == 0 each window takes the width at which its
// deltas store fewest bytes.
Status PforDeltaEncode(const int32_t* values, uint32_t n,
                       const EncodeOptions& opts, std::vector<uint8_t>* out,
                       BlockStats* stats);

}  // namespace x100ir::compress

#endif  // X100IR_COMPRESS_PFOR_DELTA_H_
