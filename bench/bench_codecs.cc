// Micro-benchmarks (google-benchmark) for the compression codecs: decode
// bandwidth by scheme/width/exception rate, range decode (skipping), and
// encode cost.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "compress/codec.h"
#include "compress/pdict.h"
#include "compress/pfor.h"
#include "compress/pfor_delta.h"

namespace x100ir::compress {
namespace {

constexpr uint32_t kN = 1 << 20;

std::vector<int32_t> DataWithRate(int bits, double rate, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> v(kN);
  uint32_t max_code = (1u << bits) - 1;
  for (auto& x : v) {
    x = rng.NextBernoulli(rate)
            ? static_cast<int32_t>(max_code) + 1 +
                  static_cast<int32_t>(rng.NextBounded(1 << 16))
            : static_cast<int32_t>(rng.NextBounded(max_code));
  }
  return v;
}

std::vector<int32_t> SortedDocids(uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> v(kN);
  int32_t cur = 0;
  for (auto& x : v) {
    cur += 1 + static_cast<int32_t>(rng.NextBounded(30));
    x = cur;
  }
  return v;
}

void BM_PforDecode(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  const double rate = static_cast<double>(state.range(1)) / 100.0;
  auto values = DataWithRate(bits, rate, 17);
  EncodeOptions opts;
  opts.bit_width = bits;
  std::vector<uint8_t> block;
  PforEncode(values.data(), kN, opts, &block, nullptr);
  BlockDecoder dec;
  dec.Init(block.data(), block.size());
  std::vector<int32_t> out(kN);
  for (auto _ : state) {
    dec.DecodeAll(out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * kN * 4);
  // Seconds per 128-value window, printed with an SI prefix (n = ns).
  state.counters["per_window"] = benchmark::Counter(
      static_cast<double>(kN / kEntryPointStride),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
// Widths 9-15 are where the TD docid column and the forward store's term
// column keep most of their windows (DESIGN.md §12.2).
BENCHMARK(BM_PforDecode)
    ->ArgsProduct({{4, 8, 16}, {0, 1, 10, 50}})
    ->ArgsProduct({{9, 10, 11, 12, 13, 14, 15}, {0}});

// The same decode over 64 windows whose block and output stay in cache:
// at 1M values the output's stores bound every width alike, here the LOOP1
// kernel does.
void BM_PforDecodeResident(benchmark::State& state) {
  constexpr uint32_t kValues = 64 * kEntryPointStride;
  const int bits = static_cast<int>(state.range(0));
  auto values = DataWithRate(bits, 0.0, 43);
  EncodeOptions opts;
  opts.bit_width = bits;
  std::vector<uint8_t> block;
  PforEncode(values.data(), kValues, opts, &block, nullptr);
  BlockDecoder dec;
  dec.Init(block.data(), block.size());
  std::vector<int32_t> out(kValues);
  for (auto _ : state) {
    dec.DecodeAll(out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["per_window"] = benchmark::Counter(
      static_cast<double>(kValues / kEntryPointStride),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_PforDecodeResident)->DenseRange(4, 16);

void BM_PforDecodeNaive(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  const double rate = static_cast<double>(state.range(1)) / 100.0;
  auto values = DataWithRate(bits, rate, 19);
  EncodeOptions opts;
  opts.bit_width = bits;
  opts.naive_layout = true;
  std::vector<uint8_t> block;
  PforEncode(values.data(), kN, opts, &block, nullptr);
  BlockDecoder dec;
  dec.Init(block.data(), block.size());
  std::vector<int32_t> out(kN);
  for (auto _ : state) {
    dec.DecodeNaive(out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * kN * 4);
}
BENCHMARK(BM_PforDecodeNaive)
    ->ArgsProduct({{8}, {0, 1, 10, 50}});

void BM_PforDeltaDecode(benchmark::State& state) {
  auto docids = SortedDocids(23);
  EncodeOptions opts;
  opts.bit_width = static_cast<int>(state.range(0));
  std::vector<uint8_t> block;
  PforDeltaEncode(docids.data(), kN, opts, &block, nullptr);
  BlockDecoder dec;
  dec.Init(block.data(), block.size());
  std::vector<int32_t> out(kN);
  for (auto _ : state) {
    dec.DecodeAll(out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * kN * 4);
}
BENCHMARK(BM_PforDeltaDecode)->Arg(4)->Arg(8)->Arg(16);

// Fine-granularity skipping: decode a small window from the middle of a
// block via the entry-point section ("especially useful during merging of
// inverted lists").
void BM_RangeDecodeSkip(benchmark::State& state) {
  auto docids = SortedDocids(29);
  EncodeOptions opts;
  opts.bit_width = 8;
  std::vector<uint8_t> block;
  PforDeltaEncode(docids.data(), kN, opts, &block, nullptr);
  BlockDecoder dec;
  dec.Init(block.data(), block.size());
  const auto len = static_cast<uint32_t>(state.range(0));
  std::vector<int32_t> out(len);
  Rng rng(31);
  for (auto _ : state) {
    auto pos = static_cast<uint32_t>(rng.NextBounded(kN - len));
    dec.Decode(pos, len, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * len * 4);
}
BENCHMARK(BM_RangeDecodeSkip)->Arg(128)->Arg(1024)->Arg(16384);

void BM_PdictDecode(benchmark::State& state) {
  Rng rng(37);
  std::vector<int32_t> values(kN);
  for (auto& v : values) {
    v = static_cast<int32_t>(rng.NextBounded(64)) * 9973;
  }
  std::vector<uint8_t> block;
  PdictEncode(values.data(), kN, {}, &block, nullptr);
  BlockDecoder dec;
  dec.Init(block.data(), block.size());
  std::vector<int32_t> out(kN);
  for (auto _ : state) {
    dec.DecodeAll(out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * kN * 4);
}
BENCHMARK(BM_PdictDecode);

void BM_PforEncode(benchmark::State& state) {
  auto values = DataWithRate(8, 0.02, 41);
  std::vector<uint8_t> block;
  for (auto _ : state) {
    EncodeOptions opts;
    opts.bit_width = static_cast<int>(state.range(0));  // 0 = auto select
    PforEncode(values.data(), kN, opts, &block, nullptr);
    benchmark::DoNotOptimize(block.data());
  }
  state.SetBytesProcessed(state.iterations() * kN * 4);
}
BENCHMARK(BM_PforEncode)->Arg(0)->Arg(8);

}  // namespace
}  // namespace x100ir::compress

BENCHMARK_MAIN();
