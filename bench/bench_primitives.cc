// Micro-benchmarks (google-benchmark) for X100 primitives and the engine's
// ablation knobs: selection vectors vs compaction, composed expression vs
// fused BM25 kernel.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "ir/bm25.h"
#include "vec/expression.h"
#include "vec/mem_source.h"
#include "vec/primitives.h"
#include "vec/scan.h"
#include "vec/select.h"

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

// Ablation: Select with selection vector (zero copy) vs compaction.
void BM_SelectOperatorModes(benchmark::State& state) {
  const bool compact = state.range(0) == 1;
  const uint32_t rows = 256 * 1024;
  auto keys = RandomInts(rows, 1000, 7);
  ExecContext ctx;
  for (auto _ : state) {
    Schema schema;
    schema.Add("k", TypeId::kI32);
    std::vector<VectorSourcePtr> sources;
    sources.push_back(std::make_unique<MemVectorSource<int32_t>>(keys));
    auto scan = std::make_unique<ScanOperator>(&ctx, std::move(schema),
                                               std::move(sources));
    auto pred = Expr::Call("lt", {Expr::Col("k"), Expr::ConstI32(500)});
    SelectOperator select(&ctx, std::move(scan), pred,
                          compact ? SelectMode::kCompact
                                  : SelectMode::kSelectionVector);
    select.Open();
    uint64_t live = 0;
    Batch* b = nullptr;
    while (select.Next(&b).ok() && b != nullptr) live += b->ActiveCount();
    select.Close();
    benchmark::DoNotOptimize(live);
  }
  state.SetItemsProcessed(state.iterations() * rows);
  state.SetLabel(compact ? "compact" : "selection-vector");
}
BENCHMARK(BM_SelectOperatorModes)->Arg(0)->Arg(1);

// Ablation: composed BM25 expression (5 primitives/term) vs the fused
// map_bm25 kernel — the flexibility-vs-speed trade-off of the relational
// formulation.
void BM_Bm25ComposedVsFused(benchmark::State& state) {
  const bool fused = state.range(0) == 1;
  const uint32_t n = 4096;
  auto tf = RandomInts(n, 20, 11);
  auto doclen = RandomInts(n, 500, 13);
  std::vector<float> out(n);

  Schema schema;
  schema.Add("tf0", TypeId::kI32);
  schema.Add("doclen", TypeId::kI32);
  Vector tf_vec(TypeId::kI32, n), len_vec(TypeId::kI32, n);
  tf_vec.Fill(tf.data(), n);
  len_vec.Fill(doclen.data(), n);
  Batch batch;
  batch.count = n;
  batch.columns = {&tf_vec, &len_vec};

  const float idf = 2.1f, k1 = 1.2f, b = 0.75f, avgdl = 150.0f;
  std::unique_ptr<CompiledExpr> compiled;
  if (!fused) {
    auto tf_f = Expr::Call("cast_f32", {Expr::Col("tf0")});
    auto len_f = Expr::Call("cast_f32", {Expr::Col("doclen")});
    auto norm = Expr::Call(
        "add", {Expr::ConstF32(k1 * (1 - b)),
                Expr::Call("mul", {Expr::ConstF32(k1 * b / avgdl), len_f})});
    auto w = Expr::Call(
        "mul", {Expr::ConstF32(idf * (k1 + 1)),
                Expr::Call("div", {tf_f, Expr::Call("add", {tf_f, norm})})});
    auto compiled_or = CompiledExpr::Compile(w, schema, n);
    compiled = std::move(compiled_or.value());
  }
  for (auto _ : state) {
    if (fused) {
      MapBm25(n, out.data(), tf.data(), doclen.data(), idf, k1, b,
              1.0f / avgdl);
      benchmark::DoNotOptimize(out.data());
    } else {
      const Vector* result = nullptr;
      compiled->Eval(batch, &result);
      benchmark::DoNotOptimize(result);
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(fused ? "fused map_bm25" : "composed primitives");
}
BENCHMARK(BM_Bm25ComposedVsFused)->Arg(0)->Arg(1);

}  // namespace
}  // namespace x100ir::vec

BENCHMARK_MAIN();
