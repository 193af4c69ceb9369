// PDICT: dictionary compression with patched exceptions (§3.3). Codewords
// index a per-block dictionary of the most frequent values; values outside
// the dictionary are exceptions patched by LOOP2. LOOP1 is a branch-free
// unpack + gather.
#ifndef X100IR_COMPRESS_PDICT_H_
#define X100IR_COMPRESS_PDICT_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "compress/codec.h"

namespace x100ir::compress {

// Encodes values[0..n). With opts.bit_width == 0 the dictionary's width is
// the smallest covering all distinct values (capped at kMaxDictBitWidth)
// and each window takes the width, up to the dictionary's, at which it
// stores fewest bytes; with a given width every window has it, the 2^b most
// frequent values form the dictionary and the rest become exceptions.
// naive_layout is not supported for PDICT.
Status PdictEncode(const int32_t* values, uint32_t n,
                   const EncodeOptions& opts, std::vector<uint8_t>* out,
                   BlockStats* stats);

}  // namespace x100ir::compress

#endif  // X100IR_COMPRESS_PDICT_H_
