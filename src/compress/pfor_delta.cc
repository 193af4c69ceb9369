#include "compress/pfor_delta.h"

#include <algorithm>
#include <cstdint>

#include "compress/block_layout.h"

namespace x100ir::compress {
namespace {

// PFOR-DELTA's windows, recomputed from the values on every pass: symbol =
// delta - base, an exception stores the raw delta, and the window's value
// base is the value before it, so LOOP3 can prefix-sum any window
// independently. PforDeltaEncode checks first that every delta fits 32 bits.
class PforDeltaWindows final : public internal::WindowSource {
 public:
  PforDeltaWindows(const int32_t* values, int32_t base)
      : values_(values), base_(base) {}

  int32_t Fill(uint32_t w, uint32_t wn, int64_t* syms,
               int32_t* payloads) override {
    const uint32_t begin = w * kEntryPointStride;
    const int32_t value_base = begin == 0 ? 0 : values_[begin - 1];
    int32_t prev = value_base;
    for (uint32_t i = 0; i < wn; ++i) {
      const int32_t v = values_[begin + i];
      const int32_t delta =
          static_cast<int32_t>(static_cast<int64_t>(v) - prev);
      syms[i] = static_cast<int64_t>(delta) - base_;
      payloads[i] = delta;
      prev = v;
    }
    return value_base;
  }

 private:
  const int32_t* values_;
  int32_t base_;
};

}  // namespace

Status PforDeltaEncode(const int32_t* values, uint32_t n,
                       const EncodeOptions& opts, std::vector<uint8_t>* out,
                       BlockStats* stats) {
  if (n > 0 && values == nullptr) return InvalidArgument("null values");

  // One pass over the deltas: each must fit 32 bits, and the smallest is
  // the frame-of-reference base unless force_base keeps it at 0.
  int64_t min_delta = INT32_MAX;
  int32_t prev = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const int64_t d = static_cast<int64_t>(values[i]) - prev;
    if (d < INT32_MIN || d > INT32_MAX) {
      return InvalidArgument("delta exceeds 32 bits (unsorted input?)");
    }
    min_delta = std::min(min_delta, d);
    prev = values[i];
  }
  const int32_t base =
      opts.force_base || n == 0 ? 0 : static_cast<int32_t>(min_delta);
  PforDeltaWindows windows(values, base);

  internal::BlockBuildInput in;
  in.scheme = Scheme::kPforDelta;
  in.bit_width = opts.bit_width;
  in.naive_layout = opts.naive_layout;
  in.base = base;
  in.n = n;
  in.source = &windows;
  return internal::BuildBlock(in, out, stats);
}

}  // namespace x100ir::compress
