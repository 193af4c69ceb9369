// Micro-benchmarks (google-benchmark) for the X100 primitives: the §2
// call-amortization curve (BM_MapAddF32 over vector sizes), sparse
// selection-vector iteration, and the branch-free select.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "vec/primitives.h"

namespace x100ir::vec {
namespace {

std::vector<float> RandomFloats(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.NextDouble()) + 0.5f;
  return v;
}

std::vector<int32_t> RandomInts(size_t n, uint64_t bound, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> v(n);
  for (auto& x : v) x = static_cast<int32_t>(rng.NextBounded(bound)) + 1;
  return v;
}

// map_add_f32_col_f32_col throughput at varying vector sizes: the
// function-call amortization argument of §2 in one picture.
void BM_MapAddF32(benchmark::State& state) {
  const auto vector_size = static_cast<uint32_t>(state.range(0));
  auto a = RandomFloats(vector_size, 1);
  auto b = RandomFloats(vector_size, 2);
  std::vector<float> res(vector_size);
  for (auto _ : state) {
    MapColCol<AddOp, float, float, float>(vector_size, nullptr, 0, res.data(),
                                          a.data(), b.data());
    benchmark::DoNotOptimize(res.data());
  }
  state.SetItemsProcessed(state.iterations() * vector_size);
}
BENCHMARK(BM_MapAddF32)->RangeMultiplier(8)->Range(8, 64 << 10);

// Selection-vector evaluation vs dense: cost of sparse iteration.
void BM_MapMulSelected(benchmark::State& state) {
  const uint32_t n = 4096;
  const auto selectivity_pct = static_cast<uint32_t>(state.range(0));
  auto a = RandomFloats(n, 3);
  std::vector<float> res(n);
  Rng rng(9);
  std::vector<sel_t> sel;
  for (uint32_t i = 0; i < n; ++i) {
    if (rng.NextBounded(100) < selectivity_pct) sel.push_back(i);
  }
  for (auto _ : state) {
    MapColVal<MulOp, float, float, float>(
        n, sel.data(), static_cast<uint32_t>(sel.size()), res.data(),
        a.data(), 2.0f);
    benchmark::DoNotOptimize(res.data());
  }
  state.SetItemsProcessed(state.iterations() * sel.size());
}
BENCHMARK(BM_MapMulSelected)->Arg(1)->Arg(10)->Arg(50)->Arg(100);

// select_* primitive: branch-free qualifying-position emission.
void BM_SelectGtI32(benchmark::State& state) {
  const uint32_t n = 4096;
  auto a = RandomInts(n, 1000, 5);
  std::vector<sel_t> out(n);
  const auto threshold = static_cast<int32_t>(state.range(0));
  for (auto _ : state) {
    uint32_t cnt = SelectColVal<GtCmp, int32_t>(n, nullptr, 0, out.data(),
                                                a.data(), threshold);
    benchmark::DoNotOptimize(cnt);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SelectGtI32)->Arg(100)->Arg(500)->Arg(900);

}  // namespace
}  // namespace x100ir::vec

BENCHMARK_MAIN();
