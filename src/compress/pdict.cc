#include "compress/pdict.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "compress/block_layout.h"

namespace x100ir::compress {
namespace {

// PDICT's windows: symbol = the value's dictionary code, or -1 outside the
// dictionary; an exception stores the raw value. Looked up again on every
// pass instead of kept as an n-sized code array.
class PdictWindows final : public internal::WindowSource {
 public:
  PdictWindows(const int32_t* values,
               const std::unordered_map<int32_t, uint32_t>* code_of)
      : values_(values), code_of_(code_of) {}

  int32_t Fill(uint32_t w, uint32_t wn, int64_t* syms,
               int32_t* payloads) override {
    const int32_t* v = values_ + w * kEntryPointStride;
    for (uint32_t i = 0; i < wn; ++i) {
      const auto it = code_of_->find(v[i]);
      syms[i] = it != code_of_->end() ? static_cast<int64_t>(it->second) : -1;
      payloads[i] = v[i];
    }
    return 0;
  }

 private:
  const int32_t* values_;
  const std::unordered_map<int32_t, uint32_t>* code_of_;
};

}  // namespace

Status PdictEncode(const int32_t* values, uint32_t n,
                   const EncodeOptions& opts, std::vector<uint8_t>* out,
                   BlockStats* stats) {
  if (n > 0 && values == nullptr) return InvalidArgument("null values");
  if (opts.naive_layout) {
    return InvalidArgument("naive layout is not supported for PDICT");
  }
  if (opts.bit_width < 0 || opts.bit_width > kMaxDictBitWidth) {
    return InvalidArgument("pdict bit_width must be in [0, 20]");
  }

  std::unordered_map<int32_t, uint32_t> freq;
  freq.reserve(1024);
  for (uint32_t i = 0; i < n; ++i) ++freq[values[i]];

  // Deterministic candidate order: frequency desc, then value asc.
  std::vector<std::pair<int32_t, uint32_t>> candidates(freq.begin(),
                                                       freq.end());
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) {
              return a.second != b.second ? a.second > b.second
                                          : a.first < b.first;
            });

  int b = opts.bit_width;
  if (b == 0) {
    b = 1;
    while (b < kMaxDictBitWidth &&
           (1ull << b) < candidates.size()) {
      ++b;
    }
  }

  const size_t dict_count =
      std::min(candidates.size(), static_cast<size_t>(1ull << b));
  // Sorted dictionary: decode order is value-stable and future PRs can
  // range-predicate directly on codes.
  std::vector<int32_t> dict_values(dict_count);
  for (size_t i = 0; i < dict_count; ++i) dict_values[i] = candidates[i].first;
  std::sort(dict_values.begin(), dict_values.end());

  std::unordered_map<int32_t, uint32_t> code_of;
  code_of.reserve(dict_count * 2);
  for (size_t i = 0; i < dict_values.size(); ++i) {
    code_of.emplace(dict_values[i], static_cast<uint32_t>(i));
  }

  // LOOP1 gathers dict[code] for *every* slot, including exception slots
  // whose codeword is a link — pad the stored dictionary to 2^b entries and
  // keep every window at most b bits wide so those gathers stay in bounds.
  std::vector<int32_t> padded_dict(static_cast<size_t>(1ull << b), 0);
  std::copy(dict_values.begin(), dict_values.end(), padded_dict.begin());

  PdictWindows windows(values, &code_of);
  internal::BlockBuildInput in;
  in.scheme = Scheme::kPdict;
  in.bit_width = opts.bit_width;
  in.max_bit_width = b;
  in.naive_layout = false;
  in.base = 0;
  in.n = n;
  in.source = &windows;
  in.dict = padded_dict.data();
  in.dict_count = static_cast<uint32_t>(dict_count);
  return internal::BuildBlock(in, out, stats);
}

}  // namespace x100ir::compress
