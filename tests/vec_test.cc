// Correctness tests for the vectorized primitive layer: map/select
// primitives (dense + selection-vector paths), the expression compiler,
// scan/select operators over memory and compressed-block sources, the
// galloping lower bound and the streaming merge-join vs set-intersection
// references, and fused-vs-composed BM25 agreement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "compress/pfor.h"
#include "ir/bm25.h"
#include "vec/expression.h"
#include "vec/mem_source.h"
#include "vec/primitives.h"
#include "vec/scan.h"
#include "vec/select.h"
#include "vec/streaming_merge.h"

namespace x100ir::vec {
namespace {

std::vector<int32_t> RandomInts(size_t n, uint64_t bound, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> v(n);
  for (auto& x : v) x = static_cast<int32_t>(rng.NextBounded(bound));
  return v;
}

std::vector<int32_t> SortedUnique(size_t n, uint32_t max_gap, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> v(n);
  int32_t cur = -1;
  for (auto& x : v) {
    cur += 1 + static_cast<int32_t>(rng.NextBounded(max_gap));
    x = cur;
  }
  return v;
}

// ---------------------------------------------------------------------------
// Map / select primitives
// ---------------------------------------------------------------------------

TEST(Primitives, MapColColDense) {
  const uint32_t n = 1000;
  auto a = RandomInts(n, 1000, 1);
  auto b = RandomInts(n, 1000, 2);
  std::vector<int32_t> res(n, -1);
  MapColCol<AddOp, int32_t, int32_t, int32_t>(n, nullptr, 0, res.data(),
                                              a.data(), b.data());
  for (uint32_t i = 0; i < n; ++i) ASSERT_EQ(res[i], a[i] + b[i]) << i;

  std::vector<float> fa(n), fres(n);
  for (uint32_t i = 0; i < n; ++i) fa[i] = static_cast<float>(a[i]) * 0.5f;
  MapColVal<MulOp, float, float, float>(n, nullptr, 0, fres.data(), fa.data(),
                                        3.0f);
  for (uint32_t i = 0; i < n; ++i) ASSERT_EQ(fres[i], fa[i] * 3.0f) << i;
}

TEST(Primitives, MapWritesThroughSelectionVectorOnly) {
  const uint32_t n = 256;
  auto a = RandomInts(n, 100, 3);
  // Sparse selection: every 7th row.
  std::vector<sel_t> sel;
  for (uint32_t i = 0; i < n; i += 7) sel.push_back(i);
  std::vector<int32_t> res(n, -777);
  MapColVal<AddOp, int32_t, int32_t, int32_t>(
      n, sel.data(), static_cast<uint32_t>(sel.size()), res.data(), a.data(),
      10);
  std::set<sel_t> selected(sel.begin(), sel.end());
  for (uint32_t i = 0; i < n; ++i) {
    if (selected.count(i)) {
      ASSERT_EQ(res[i], a[i] + 10) << i;
    } else {
      // Unselected rows must be untouched — maps write through sel, never
      // compact (DESIGN.md §4).
      ASSERT_EQ(res[i], -777) << i;
    }
  }
}

TEST(Primitives, EmptyVectors) {
  std::vector<int32_t> res(4, 9);
  MapColVal<AddOp, int32_t, int32_t, int32_t>(0, nullptr, 0, res.data(),
                                              nullptr, 1);
  sel_t dummy = 0;
  MapColVal<AddOp, int32_t, int32_t, int32_t>(4, &dummy, 0, res.data(),
                                              nullptr, 1);
  EXPECT_EQ(res, (std::vector<int32_t>{9, 9, 9, 9}));
  std::vector<sel_t> out(4);
  EXPECT_EQ(0u, (SelectColVal<GtCmp, int32_t>(0, nullptr, 0, out.data(),
                                              nullptr, 5)));
  EXPECT_EQ(0u, (SelectColVal<GtCmp, int32_t>(4, &dummy, 0, out.data(),
                                              nullptr, 5)));
}

TEST(Primitives, SelectColValMatchesReference) {
  const uint32_t n = 4096;
  auto a = RandomInts(n, 1000, 5);
  std::vector<sel_t> out(n);
  for (int32_t threshold : {-1, 0, 500, 999, 2000}) {
    const uint32_t k = SelectColVal<GtCmp, int32_t>(n, nullptr, 0, out.data(),
                                                    a.data(), threshold);
    std::vector<sel_t> expected;
    for (uint32_t i = 0; i < n; ++i) {
      if (a[i] > threshold) expected.push_back(i);
    }
    ASSERT_EQ(std::vector<sel_t>(out.begin(), out.begin() + k), expected)
        << "threshold " << threshold;
  }
}

TEST(Primitives, SelectComposesWithSelectionVector) {
  const uint32_t n = 500;
  auto a = RandomInts(n, 100, 7);
  std::vector<sel_t> even;
  for (uint32_t i = 0; i < n; i += 2) even.push_back(i);
  std::vector<sel_t> out(n);
  const uint32_t k = SelectColVal<LtCmp, int32_t>(
      n, even.data(), static_cast<uint32_t>(even.size()), out.data(),
      a.data(), 50);
  // Output must be the even positions with a[i] < 50, ascending — i.e. a
  // subset of the incoming selection vector, usable as the next one.
  std::vector<sel_t> expected;
  for (sel_t i : even) {
    if (a[i] < 50) expected.push_back(i);
  }
  ASSERT_EQ(std::vector<sel_t>(out.begin(), out.begin() + k), expected);
}

// ---------------------------------------------------------------------------
// Expression compiler
// ---------------------------------------------------------------------------

Batch MakeTwoColBatch(Vector* c0, Vector* c1, uint32_t n) {
  Batch b;
  b.count = n;
  b.columns = {c0, c1};
  return b;
}

TEST(Expression, ComposedArithmeticMatchesScalar) {
  const uint32_t n = 777;
  auto x = RandomInts(n, 50, 11);
  auto y = RandomInts(n, 50, 13);
  Schema schema;
  schema.Add("x", TypeId::kI32);
  schema.Add("y", TypeId::kI32);
  Vector vx(TypeId::kI32, n), vy(TypeId::kI32, n);
  vx.Fill(x.data(), n);
  vy.Fill(y.data(), n);
  Batch batch = MakeTwoColBatch(&vx, &vy, n);

  // (x + y) * 3 - y, in i32.
  auto e = Expr::Call(
      "sub", {Expr::Call("mul", {Expr::Call("add", {Expr::Col("x"),
                                                    Expr::Col("y")}),
                                 Expr::ConstI32(3)}),
              Expr::Col("y")});
  auto compiled_or = CompiledExpr::Compile(e, schema, n);
  ASSERT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
  auto compiled = std::move(compiled_or.value());
  EXPECT_EQ(compiled->out_type(), TypeId::kI32);
  const Vector* out = nullptr;
  ASSERT_TRUE(compiled->Eval(batch, &out).ok());
  for (uint32_t i = 0; i < n; ++i) {
    ASSERT_EQ(out->Data<int32_t>()[i], (x[i] + y[i]) * 3 - y[i]) << i;
  }
}

TEST(Expression, RespectsSelectionVector) {
  const uint32_t n = 100;
  auto x = RandomInts(n, 50, 17);
  Schema schema;
  schema.Add("x", TypeId::kI32);
  Vector vx(TypeId::kI32, n);
  vx.Fill(x.data(), n);
  std::vector<sel_t> sel = {3, 10, 42, 99};
  Batch batch;
  batch.count = n;
  batch.columns = {&vx};
  batch.sel = sel.data();
  batch.sel_count = static_cast<uint32_t>(sel.size());

  auto e = Expr::Call("mul", {Expr::Col("x"), Expr::ConstI32(2)});
  auto compiled_or = CompiledExpr::Compile(e, schema, n);
  ASSERT_TRUE(compiled_or.ok());
  const Vector* out = nullptr;
  ASSERT_TRUE(compiled_or.value()->Eval(batch, &out).ok());
  for (sel_t i : sel) ASSERT_EQ(out->Data<int32_t>()[i], x[i] * 2) << i;
}

TEST(Expression, ConstantFoldingAndConstRoot) {
  Schema schema;
  schema.Add("x", TypeId::kI32);
  Vector vx(TypeId::kI32, 8);
  std::vector<int32_t> x(8, 1);
  vx.Fill(x.data(), 8);
  Batch batch;
  batch.count = 8;
  batch.columns = {&vx};

  // mul(add(2, 3), 4) folds to the literal 20 and materializes once.
  auto e = Expr::Call(
      "mul", {Expr::Call("add", {Expr::ConstI32(2), Expr::ConstI32(3)}),
              Expr::ConstI32(4)});
  auto compiled_or = CompiledExpr::Compile(e, schema, 8);
  ASSERT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
  const Vector* out = nullptr;
  ASSERT_TRUE(compiled_or.value()->Eval(batch, &out).ok());
  for (uint32_t i = 0; i < 8; ++i) ASSERT_EQ(out->Data<int32_t>()[i], 20);
}

TEST(Expression, CompileErrors) {
  Schema schema;
  schema.Add("x", TypeId::kI32);
  EXPECT_FALSE(
      CompiledExpr::Compile(Expr::Call("frobnicate", {Expr::Col("x")}),
                            schema, 64)
          .ok());
  EXPECT_FALSE(CompiledExpr::Compile(Expr::Col("nope"), schema, 64).ok());
  // i32 + f32 without a cast.
  EXPECT_FALSE(
      CompiledExpr::Compile(
          Expr::Call("add", {Expr::Col("x"), Expr::ConstF32(1.0f)}), schema,
          64)
          .ok());
  // Wrong arity.
  EXPECT_FALSE(
      CompiledExpr::Compile(Expr::Call("add", {Expr::Col("x")}), schema, 64)
          .ok());
  EXPECT_FALSE(CompiledExpr::Compile(
                   Expr::Call("cast_f32", {Expr::Col("x"), Expr::Col("x")}),
                   schema, 64)
                   .ok());
  // i32 division by a zero literal must come back as a Status, not a
  // SIGFPE in the constant fold (or in every batch at run time).
  EXPECT_FALSE(
      CompiledExpr::Compile(
          Expr::Call("div", {Expr::ConstI32(1), Expr::ConstI32(0)}), schema,
          64)
          .ok());
  EXPECT_FALSE(
      CompiledExpr::Compile(
          Expr::Call("div", {Expr::Col("x"), Expr::ConstI32(0)}), schema, 64)
          .ok());
  EXPECT_FALSE(CompiledExpr::Compile(
                   Expr::Call("div", {Expr::ConstI32(INT32_MIN),
                                      Expr::ConstI32(-1)}),
                   schema, 64)
                   .ok());
  // f32 division by zero is well-defined (inf) and must compile.
  EXPECT_TRUE(
      CompiledExpr::Compile(
          Expr::Call("div", {Expr::ConstF32(1.0f), Expr::ConstF32(0.0f)}),
          schema, 64)
          .ok());
}

TEST(Expression, EvalSelectDirectAndGenericAgree) {
  const uint32_t n = 1024;
  auto x = RandomInts(n, 1000, 19);
  Schema schema;
  schema.Add("x", TypeId::kI32);
  Vector vx(TypeId::kI32, n);
  vx.Fill(x.data(), n);
  Batch batch;
  batch.count = n;
  batch.columns = {&vx};

  // Direct path: lt(col, literal).
  auto direct = CompiledExpr::Compile(
      Expr::Call("lt", {Expr::Col("x"), Expr::ConstI32(500)}), schema, n);
  ASSERT_TRUE(direct.ok());
  // Generic path: the same predicate phrased so the fast path can't fire
  // (literal on the left).
  auto generic = CompiledExpr::Compile(
      Expr::Call("gt", {Expr::ConstI32(500), Expr::Col("x")}), schema, n);
  ASSERT_TRUE(generic.ok());

  std::vector<sel_t> sel_a(n), sel_b(n);
  uint32_t ka = 0, kb = 0;
  ASSERT_TRUE(direct.value()->EvalSelect(batch, sel_a.data(), &ka).ok());
  ASSERT_TRUE(generic.value()->EvalSelect(batch, sel_b.data(), &kb).ok());
  ASSERT_EQ(ka, kb);
  for (uint32_t i = 0; i < ka; ++i) ASSERT_EQ(sel_a[i], sel_b[i]) << i;
  for (uint32_t i = 0; i < ka; ++i) ASSERT_LT(x[sel_a[i]], 500) << i;
}

TEST(Expression, CSESharedSubtreeEvaluatesOncePerBatch) {
  // A BM25-shaped composition where tf_f = cast_f32(tf) occurs twice
  // (numerator and denominator — DESIGN.md §5's motivating case). Distinct
  // primitive nodes after CSE: cast_f32(tf), mul(2.5, tf_f),
  // cast_f32(len), mul(0.3, len_f), add(tf_f, ·), div — six, where a tree
  // build would run the tf cast twice (seven calls per batch).
  const uint32_t n = 256;
  auto tf = RandomInts(n, 20, 31);
  auto len = RandomInts(n, 300, 32);
  Schema schema;
  schema.Add("tf", TypeId::kI32);
  schema.Add("len", TypeId::kI32);

  auto tf_f = Expr::Call("cast_f32", {Expr::Col("tf")});
  auto len_f = Expr::Call("cast_f32", {Expr::Col("len")});
  auto num = Expr::Call("mul", {Expr::ConstF32(2.5f), tf_f});
  auto den = Expr::Call(
      "add", {tf_f, Expr::Call("mul", {Expr::ConstF32(0.3f), len_f})});
  auto expr = Expr::Call("div", {num, den});

  auto compiled_or = CompiledExpr::Compile(expr, schema, n);
  ASSERT_TRUE(compiled_or.ok());
  auto& compiled = compiled_or.value();
  EXPECT_EQ(compiled->primitive_calls(), 0u);

  Vector vtf(TypeId::kI32, n), vlen(TypeId::kI32, n);
  vtf.Fill(tf.data(), n);
  vlen.Fill(len.data(), n);
  Batch batch;
  batch.count = n;
  batch.columns = {&vtf, &vlen};

  const Vector* out = nullptr;
  ASSERT_TRUE(compiled->Eval(batch, &out).ok());
  EXPECT_EQ(compiled->primitive_calls(), 6u);
  ASSERT_TRUE(compiled->Eval(batch, &out).ok());
  EXPECT_EQ(compiled->primitive_calls(), 12u);  // once per node per batch

  // Correctness survives the sharing.
  const float* res = out->Data<float>();
  for (uint32_t i = 0; i < n; ++i) {
    const float tff = static_cast<float>(tf[i]);
    const float want =
        2.5f * tff / (tff + 0.3f * static_cast<float>(len[i]));
    ASSERT_FLOAT_EQ(res[i], want) << i;
  }
}

TEST(Expression, CSEUnifiesIdenticalCallTrees) {
  // add(mul(a, b), mul(a, b)): the whole mul subtree is shared, so per
  // batch only two primitives run (one mul, one add) over four nodes
  // total (2 column refs + mul + add).
  const uint32_t n = 128;
  auto a = RandomInts(n, 100, 33);
  auto b = RandomInts(n, 100, 34);
  Schema schema;
  schema.Add("a", TypeId::kI32);
  schema.Add("b", TypeId::kI32);
  auto mul = Expr::Call("mul", {Expr::Col("a"), Expr::Col("b")});
  auto expr = Expr::Call("add", {mul, Expr::Call("mul", {Expr::Col("a"),
                                                         Expr::Col("b")})});
  auto compiled_or = CompiledExpr::Compile(expr, schema, n);
  ASSERT_TRUE(compiled_or.ok());
  auto& compiled = compiled_or.value();
  EXPECT_EQ(compiled->num_nodes(), 4u);

  Vector va(TypeId::kI32, n), vb(TypeId::kI32, n);
  va.Fill(a.data(), n);
  vb.Fill(b.data(), n);
  Batch batch;
  batch.count = n;
  batch.columns = {&va, &vb};
  const Vector* out = nullptr;
  ASSERT_TRUE(compiled->Eval(batch, &out).ok());
  EXPECT_EQ(compiled->primitive_calls(), 2u);
  const int32_t* res = out->Data<int32_t>();
  for (uint32_t i = 0; i < n; ++i) {
    ASSERT_EQ(res[i], 2 * a[i] * b[i]) << i;
  }
}

// ---------------------------------------------------------------------------
// Scan / select operators
// ---------------------------------------------------------------------------

TEST(Scan, StreamsInVectorSizeBatches) {
  const uint32_t n = 100;
  auto values = RandomInts(n, 1000, 23);
  ExecContext ctx;
  ctx.vector_size = 7;  // deliberately not a divisor of n
  Schema schema;
  schema.Add("v", TypeId::kI32);
  std::vector<VectorSourcePtr> sources;
  sources.push_back(std::make_unique<MemVectorSource<int32_t>>(values));
  ScanOperator scan(&ctx, std::move(schema), std::move(sources));
  ASSERT_TRUE(scan.Open().ok());
  std::vector<int32_t> got;
  uint32_t batches = 0;
  Batch* b = nullptr;
  while (true) {
    ASSERT_TRUE(scan.Next(&b).ok());
    if (b == nullptr) break;
    ++batches;
    EXPECT_LE(b->count, 7u);
    const int32_t* data = b->columns[0]->Data<int32_t>();
    got.insert(got.end(), data, data + b->count);
  }
  scan.Close();
  EXPECT_EQ(batches, (n + 6) / 7);
  EXPECT_EQ(got, values);
}

TEST(Scan, CompressedBlockSourceMatchesOriginal) {
  const uint32_t n = 10000;
  Rng rng(29);
  std::vector<int32_t> values(n);
  for (auto& v : values) {
    v = rng.NextBernoulli(0.05)
            ? 100000 + static_cast<int32_t>(rng.NextBounded(1000))
            : static_cast<int32_t>(rng.NextBounded(256));
  }
  compress::EncodeOptions opts;
  opts.bit_width = 8;
  std::vector<uint8_t> block;
  ASSERT_TRUE(
      compress::PforEncode(values.data(), n, opts, &block, nullptr).ok());
  auto source_or = BlockVectorSource::Create(std::move(block));
  ASSERT_TRUE(source_or.ok()) << source_or.status().ToString();

  ExecContext ctx;
  ctx.vector_size = 1000;  // forces mid-window range decodes
  Schema schema;
  schema.Add("v", TypeId::kI32);
  std::vector<VectorSourcePtr> sources;
  sources.push_back(std::move(source_or.value()));
  ScanOperator scan(&ctx, std::move(schema), std::move(sources));
  ASSERT_TRUE(scan.Open().ok());
  std::vector<int32_t> got;
  Batch* b = nullptr;
  while (true) {
    ASSERT_TRUE(scan.Next(&b).ok());
    if (b == nullptr) break;
    const int32_t* data = b->columns[0]->Data<int32_t>();
    got.insert(got.end(), data, data + b->count);
  }
  scan.Close();
  EXPECT_EQ(got, values);
}

TEST(Scan, ValidatesVectorSizeAtOpen) {
  auto values = RandomInts(64, 100, 41);
  auto make_scan = [&](ExecContext* ctx) {
    Schema schema;
    schema.Add("v", TypeId::kI32);
    std::vector<VectorSourcePtr> sources;
    sources.push_back(std::make_unique<MemVectorSource<int32_t>>(values));
    return ScanOperator(ctx, std::move(schema), std::move(sources));
  };
  {
    ExecContext ctx;
    ctx.vector_size = 0;  // rejected, not trusted
    ScanOperator scan = make_scan(&ctx);
    const Status s = scan.Open();
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  }
  {
    ExecContext ctx;
    ctx.vector_size = ExecContext::kMaxVectorSize * 8;  // clamped
    ScanOperator scan = make_scan(&ctx);
    ASSERT_TRUE(scan.Open().ok());
    EXPECT_EQ(ctx.vector_size, ExecContext::kMaxVectorSize);
    Batch* b = nullptr;
    ASSERT_TRUE(scan.Next(&b).ok());
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->count, 64u);
    scan.Close();
  }
}

TEST(Scan, RejectsMismatchedSources) {
  ExecContext ctx;
  std::vector<int32_t> a(10), b(20);
  {
    Schema schema;
    schema.Add("a", TypeId::kI32);
    schema.Add("b", TypeId::kI32);
    std::vector<VectorSourcePtr> sources;
    sources.push_back(std::make_unique<MemVectorSource<int32_t>>(a));
    sources.push_back(std::make_unique<MemVectorSource<int32_t>>(b));
    ScanOperator scan(&ctx, std::move(schema), std::move(sources));
    EXPECT_FALSE(scan.Open().ok());  // length mismatch
  }
  {
    Schema schema;
    schema.Add("a", TypeId::kF32);  // type mismatch
    std::vector<VectorSourcePtr> sources;
    sources.push_back(std::make_unique<MemVectorSource<int32_t>>(a));
    ScanOperator scan(&ctx, std::move(schema), std::move(sources));
    EXPECT_FALSE(scan.Open().ok());
  }
}

std::unique_ptr<SelectOperator> MakeSelectPlan(ExecContext* ctx,
                                               const std::vector<int32_t>& keys,
                                               int32_t threshold,
                                               SelectMode mode) {
  Schema schema;
  schema.Add("k", TypeId::kI32);
  std::vector<VectorSourcePtr> sources;
  sources.push_back(std::make_unique<MemVectorSource<int32_t>>(keys));
  auto scan = std::make_unique<ScanOperator>(ctx, std::move(schema),
                                             std::move(sources));
  auto pred = Expr::Call("lt", {Expr::Col("k"), Expr::ConstI32(threshold)});
  return std::make_unique<SelectOperator>(ctx, std::move(scan), pred, mode);
}

TEST(Select, ModesProduceSameSurvivors) {
  const uint32_t n = 10000;
  auto keys = RandomInts(n, 1000, 31);
  for (int32_t threshold : {0, 250, 1000}) {
    std::vector<int32_t> expected;
    for (int32_t k : keys) {
      if (k < threshold) expected.push_back(k);
    }
    for (SelectMode mode :
         {SelectMode::kSelectionVector, SelectMode::kCompact}) {
      ExecContext ctx;
      auto select = MakeSelectPlan(&ctx, keys, threshold, mode);
      ASSERT_TRUE(select->Open().ok());
      std::vector<int32_t> got;
      Batch* b = nullptr;
      while (true) {
        ASSERT_TRUE(select->Next(&b).ok());
        if (b == nullptr) break;
        const int32_t* data = b->columns[0]->Data<int32_t>();
        if (b->sel != nullptr) {
          for (uint32_t j = 0; j < b->sel_count; ++j) {
            got.push_back(data[b->sel[j]]);
          }
        } else {
          got.insert(got.end(), data, data + b->count);
        }
      }
      select->Close();
      ASSERT_EQ(got, expected)
          << "threshold " << threshold << " mode "
          << (mode == SelectMode::kCompact ? "compact" : "sel-vector");
    }
  }
}

// ---------------------------------------------------------------------------
// Galloping lower bound (streaming_merge.h)
// ---------------------------------------------------------------------------

TEST(MergeJoin, GallopLowerBoundEdges) {
  std::vector<int32_t> v = {2, 4, 6, 8, 10, 12, 14, 16};
  const uint32_t n = static_cast<uint32_t>(v.size());
  EXPECT_EQ(GallopLowerBound(v.data(), 0, n, 1), 0u);
  EXPECT_EQ(GallopLowerBound(v.data(), 0, n, 2), 0u);
  EXPECT_EQ(GallopLowerBound(v.data(), 0, n, 9), 4u);
  EXPECT_EQ(GallopLowerBound(v.data(), 0, n, 16), 7u);
  EXPECT_EQ(GallopLowerBound(v.data(), 0, n, 17), n);
  EXPECT_EQ(GallopLowerBound(v.data(), 3, n, 5), 3u);   // already >= key
  EXPECT_EQ(GallopLowerBound(v.data(), n, n, 5), n);    // empty suffix
  for (uint32_t lo = 0; lo < n; ++lo) {
    for (int32_t key = 0; key < 20; ++key) {
      const uint32_t expected = static_cast<uint32_t>(
          std::lower_bound(v.begin() + lo, v.end(), key) - v.begin());
      ASSERT_EQ(GallopLowerBound(v.data(), lo, n, key), expected)
          << "lo " << lo << " key " << key;
    }
  }
}

// ---------------------------------------------------------------------------
// Streaming merge-join over skip cursors (PR 4)
// ---------------------------------------------------------------------------

std::vector<int32_t> RunStreamingJoin(
    const std::vector<std::vector<int32_t>>& lists, uint32_t vector_size) {
  ExecContext ctx;
  ctx.vector_size = vector_size;
  std::vector<SkipCursorPtr> cursors;
  for (const auto& l : lists) {
    cursors.push_back(std::make_unique<MemSkipCursor>(l));
  }
  StreamingJoinOperator join(&ctx, std::move(cursors));
  EXPECT_TRUE(join.Open().ok());
  std::vector<int32_t> out;
  Batch* batch = nullptr;
  while (true) {
    EXPECT_TRUE(join.Next(&batch).ok());
    if (batch == nullptr) break;
    EXPECT_EQ(batch->sel, nullptr);
    const int32_t* d = batch->columns[0]->Data<int32_t>();
    out.insert(out.end(), d, d + batch->count);
  }
  join.Close();
  return out;
}

TEST(StreamingMergeJoin, MatchesSetIntersectionOracle) {
  struct Case {
    std::vector<uint32_t> sizes;
    uint32_t gap;
  };
  const std::vector<Case> cases = {
      {{1000, 1000}, 3},        // dense overlap
      {{50, 100000}, 2},        // rare-vs-frequent (the skipping case)
      {{100000, 50}, 2},        // candidate list is the long one
      {{300, 4000, 900}, 4},    // 3-way
      {{20, 20, 20, 20, 5}, 6},  // 5-way tiny
      {{700}, 2},               // single child: identity
  };
  uint64_t seed = 1234;
  for (const Case& c : cases) {
    std::vector<std::vector<int32_t>> lists;
    for (uint32_t n : c.sizes) lists.push_back(SortedUnique(n, c.gap, seed++));
    std::vector<int32_t> expected = lists[0];
    for (size_t i = 1; i < lists.size(); ++i) {
      std::vector<int32_t> next;
      std::set_intersection(expected.begin(), expected.end(),
                            lists[i].begin(), lists[i].end(),
                            std::back_inserter(next));
      expected = std::move(next);
    }
    for (uint32_t vs : {1u, 7u, 1024u}) {
      EXPECT_EQ(RunStreamingJoin(lists, vs), expected)
          << "sizes[0]=" << c.sizes[0] << " vs=" << vs;
    }
  }
}

TEST(StreamingMergeJoin, EmptyAndDisjointInputs) {
  const std::vector<int32_t> some = {1, 5, 9};
  EXPECT_TRUE(RunStreamingJoin({{}, some}, 16).empty());
  EXPECT_TRUE(RunStreamingJoin({some, {}}, 16).empty());
  EXPECT_TRUE(RunStreamingJoin({{2, 4, 6}, {1, 3, 5}}, 16).empty());

  ExecContext ctx;
  std::vector<SkipCursorPtr> none;
  StreamingJoinOperator join(&ctx, std::move(none));
  EXPECT_FALSE(join.Open().ok());
}

// ---------------------------------------------------------------------------
// BM25: fused kernel vs composed expression
// ---------------------------------------------------------------------------

TEST(Bm25, FusedMatchesComposedTo1e5) {
  const uint32_t n = 4096;
  Rng rng(59);
  std::vector<int32_t> tf(n), doclen(n);
  for (auto& x : tf) x = 1 + static_cast<int32_t>(rng.NextBounded(20));
  for (auto& x : doclen) x = 1 + static_cast<int32_t>(rng.NextBounded(500));
  const float idf = 2.1f, k1 = 1.2f, b = 0.75f, avgdl = 150.0f;

  // Composed: the exact expression shape bench_primitives uses.
  Schema schema;
  schema.Add("tf0", TypeId::kI32);
  schema.Add("doclen", TypeId::kI32);
  Vector tf_vec(TypeId::kI32, n), len_vec(TypeId::kI32, n);
  tf_vec.Fill(tf.data(), n);
  len_vec.Fill(doclen.data(), n);
  Batch batch;
  batch.count = n;
  batch.columns = {&tf_vec, &len_vec};

  auto tf_f = Expr::Call("cast_f32", {Expr::Col("tf0")});
  auto len_f = Expr::Call("cast_f32", {Expr::Col("doclen")});
  auto norm = Expr::Call(
      "add", {Expr::ConstF32(k1 * (1 - b)),
              Expr::Call("mul", {Expr::ConstF32(k1 * b / avgdl), len_f})});
  auto w = Expr::Call(
      "mul", {Expr::ConstF32(idf * (k1 + 1)),
              Expr::Call("div", {tf_f, Expr::Call("add", {tf_f, norm})})});
  auto compiled_or = CompiledExpr::Compile(w, schema, n);
  ASSERT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
  const Vector* composed = nullptr;
  ASSERT_TRUE(compiled_or.value()->Eval(batch, &composed).ok());

  std::vector<float> fused(n);
  MapBm25(n, fused.data(), tf.data(), doclen.data(), idf, k1, b,
          1.0f / avgdl);

  for (uint32_t i = 0; i < n; ++i) {
    // Same formula, different association/rounding: agree to 1e-5.
    ASSERT_NEAR(fused[i], composed->Data<float>()[i], 1e-5f) << i;
    // And both agree with a double-precision reference.
    const double tff = tf[i];
    const double ref = static_cast<double>(idf) * (k1 + 1.0) * tff /
                       (tff + k1 * (1.0 - b) + k1 * b * doclen[i] / avgdl);
    ASSERT_NEAR(fused[i], static_cast<float>(ref), 1e-4f) << i;
  }
}

TEST(Bm25, SelVariantWritesThroughSel) {
  const uint32_t n = 64;
  std::vector<int32_t> tf(n, 5), doclen(n, 100);
  std::vector<float> out(n, -1.0f);
  std::vector<sel_t> sel = {1, 7, 40};
  MapBm25Sel(n, sel.data(), static_cast<uint32_t>(sel.size()), out.data(),
             tf.data(), doclen.data(), 2.0f, 1.2f, 0.75f, 1.0f / 150.0f);
  std::vector<float> dense(n);
  MapBm25(n, dense.data(), tf.data(), doclen.data(), 2.0f, 1.2f, 0.75f,
          1.0f / 150.0f);
  std::set<sel_t> selected(sel.begin(), sel.end());
  for (uint32_t i = 0; i < n; ++i) {
    if (selected.count(i)) {
      ASSERT_EQ(out[i], dense[i]) << i;
    } else {
      ASSERT_EQ(out[i], -1.0f) << i;
    }
  }
}

}  // namespace
}  // namespace x100ir::vec
