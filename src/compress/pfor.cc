#include "compress/pfor.h"

#include <algorithm>

#include "compress/block_layout.h"

namespace x100ir::compress {
namespace {

// PFOR's windows: symbol = value - base, and an exception stores the raw
// value.
class PforWindows final : public internal::WindowSource {
 public:
  PforWindows(const int32_t* values, int32_t base)
      : values_(values), base_(base) {}

  int32_t Fill(uint32_t w, uint32_t wn, int64_t* syms,
               int32_t* payloads) override {
    const int32_t* v = values_ + w * kEntryPointStride;
    for (uint32_t i = 0; i < wn; ++i) {
      syms[i] = static_cast<int64_t>(v[i]) - base_;
      payloads[i] = v[i];
    }
    return 0;
  }

 private:
  const int32_t* values_;
  int32_t base_;
};

}  // namespace

Status PforEncode(const int32_t* values, uint32_t n,
                  const EncodeOptions& opts, std::vector<uint8_t>* out,
                  BlockStats* stats) {
  if (n > 0 && values == nullptr) return InvalidArgument("null values");

  int32_t base = 0;
  if (!opts.force_base && n > 0) {
    base = *std::min_element(values, values + n);
  }
  PforWindows windows(values, base);

  internal::BlockBuildInput in;
  in.scheme = Scheme::kPfor;
  in.bit_width = opts.bit_width;
  in.naive_layout = opts.naive_layout;
  in.base = base;
  in.n = n;
  in.source = &windows;
  return internal::BuildBlock(in, out, stats);
}

}  // namespace x100ir::compress
