// PFOR: frame-of-reference + patched exceptions (§3.3). Values are encoded
// as b-bit offsets from a base (the column minimum, or 0 with
// EncodeOptions::force_base); values outside [base, base + 2^b) become
// exceptions. Decode via BlockDecoder (codec.h).
#ifndef X100IR_COMPRESS_PFOR_H_
#define X100IR_COMPRESS_PFOR_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "compress/codec.h"

namespace x100ir::compress {

// Encodes values[0..n) into a self-describing block. With
// opts.bit_width == 0 each window takes the width at which it stores fewest
// bytes.
Status PforEncode(const int32_t* values, uint32_t n, const EncodeOptions& opts,
                  std::vector<uint8_t>* out, BlockStats* stats);

}  // namespace x100ir::compress

#endif  // X100IR_COMPRESS_PFOR_H_
