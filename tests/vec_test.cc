// Correctness tests for the vectorized primitive layer: map/select
// primitives (dense + selection-vector paths), the scan operator over
// array and compressed-block window sources, the galloping lower bound and the
// streaming merge-join vs set-intersection references, and the fused BM25
// map vs its scalar twin and a double-precision reference.
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
#include "compress/skip_cursor.h"
#include "ir/bm25.h"
#include "vec/primitives.h"
#include "vec/scan.h"
#include "vec/streaming_merge.h"

#include "test_util.h"

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
      // compact (DESIGN.md §4.1).
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
// Scan operator
// ---------------------------------------------------------------------------

using ArrayScan = ScanOperator<compress::ArrayWindows>;

// Drains a scan; each batch's columns are appended to cols[c].
void DrainScan(Operator* scan, uint32_t vector_size,
               std::vector<std::vector<int32_t>>* cols,
               uint32_t* batches = nullptr) {
  ASSERT_TRUE(scan->Open().ok());
  Batch* b = nullptr;
  for (;;) {
    ASSERT_TRUE(scan->Next(&b).ok());
    if (b == nullptr) break;
    if (batches != nullptr) ++*batches;
    EXPECT_GT(b->count, 0u);
    EXPECT_LE(b->count, vector_size);
    ASSERT_EQ(b->columns.size(), cols->size());
    for (size_t c = 0; c < cols->size(); ++c) {
      const int32_t* data = b->columns[c]->Data<int32_t>();
      (*cols)[c].insert((*cols)[c].end(), data, data + b->count);
    }
  }
  scan->Close();
}

TEST(Scan, StreamsInVectorSizeBatches) {
  const uint32_t n = 100;
  auto values = RandomInts(n, 1000, 23);
  auto tfs = RandomInts(n, 50, 24);
  const compress::ArrayWindows docid_src(values.data(), n);
  const compress::ArrayWindows tf_src(tfs.data(), n);
  ExecContext ctx;
  ctx.vector_size = 7;  // deliberately not a divisor of n
  {
    ArrayScan scan(&ctx, docid_src, 0, n);
    std::vector<std::vector<int32_t>> got(1);
    uint32_t batches = 0;
    DrainScan(&scan, 7, &got, &batches);
    EXPECT_EQ(batches, (n + 6) / 7);
    EXPECT_EQ(got[0], values);
  }
  // A sub-range of both columns, read in lockstep.
  ArrayScan scan(&ctx, docid_src, tf_src, 13, 71);
  std::vector<std::vector<int32_t>> got(2);
  uint32_t batches = 0;
  DrainScan(&scan, 7, &got, &batches);
  EXPECT_EQ(batches, (71u + 6) / 7);
  EXPECT_EQ(got[0], std::vector<int32_t>(values.begin() + 13,
                                         values.begin() + 84));
  EXPECT_EQ(got[1], std::vector<int32_t>(tfs.begin() + 13, tfs.begin() + 84));
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
  compress::BlockDecoder dec;
  ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
  ASSERT_TRUE(dec.Validate().ok());
  const compress::ResidentWindows src(&dec);

  // Vector sizes that cut windows mid-way, one at a time, and whole-block.
  for (uint32_t vs : {1000u, 1u, 7u, 1u << 20}) {
    ExecContext ctx;
    ctx.vector_size = vs;
    ScanOperator<compress::ResidentWindows> scan(&ctx, src, 0, n);
    std::vector<std::vector<int32_t>> got(1);
    DrainScan(&scan, ctx.vector_size, &got);
    EXPECT_EQ(got[0], values) << "vector size " << vs;
  }
  // A range starting and ending inside windows, two columns from one block.
  ExecContext ctx;
  ctx.vector_size = 100;
  ScanOperator<compress::ResidentWindows> scan(&ctx, src, src, 301, 5000);
  std::vector<std::vector<int32_t>> got(2);
  DrainScan(&scan, 100, &got);
  const std::vector<int32_t> want(values.begin() + 301,
                                  values.begin() + 5301);
  EXPECT_EQ(got[0], want);
  EXPECT_EQ(got[1], want);
}

TEST(Scan, ValidatesVectorSizeAtOpen) {
  auto values = RandomInts(64, 100, 41);
  const compress::ArrayWindows src(values.data(), values.size());
  {
    ExecContext ctx;
    ctx.vector_size = 0;  // rejected, not trusted
    ArrayScan scan(&ctx, src, 0, values.size());
    const Status s = scan.Open();
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  }
  {
    ExecContext ctx;
    ctx.vector_size = ExecContext::kMaxVectorSize * 8;  // clamped
    ArrayScan scan(&ctx, src, 0, values.size());
    ASSERT_TRUE(scan.Open().ok());
    EXPECT_EQ(ctx.vector_size, ExecContext::kMaxVectorSize);
    Batch* b = nullptr;
    ASSERT_TRUE(scan.Next(&b).ok());
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->count, 64u);
    scan.Close();
  }
}

// A range outside either column is refused at Open, never read.
TEST(Scan, RejectsMismatchedSources) {
  ExecContext ctx;
  std::vector<int32_t> a(20, 1), b(10, 2);
  const compress::ArrayWindows long_src(a.data(), a.size());
  const compress::ArrayWindows short_src(b.data(), b.size());
  const auto open = [](ArrayScan scan) { return scan.Open(); };
  // The tf column is shorter than the docid range.
  EXPECT_EQ(open(ArrayScan(&ctx, long_src, short_src, 0, 20)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(open(ArrayScan(&ctx, long_src, short_src, 5, 6)).code(),
            StatusCode::kInvalidArgument);
  // The range runs past the docid column, or wraps around.
  EXPECT_EQ(open(ArrayScan(&ctx, long_src, 15, 6)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(open(ArrayScan(&ctx, long_src, UINT64_MAX - 1, 5)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(open(ArrayScan(&ctx, long_src, short_src, 0, 10)).ok());
  // An empty range at the end is fine and yields nothing.
  ArrayScan empty(&ctx, long_src, 20, 0);
  ASSERT_TRUE(empty.Open().ok());
  Batch* out = nullptr;
  ASSERT_TRUE(empty.Next(&out).ok());
  EXPECT_EQ(out, nullptr);
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
// Streaming merge-join over skip cursors, here over arrays
// ---------------------------------------------------------------------------

using ArrayJoin = StreamingJoinOperator<compress::ArrayWindows>;

// The join over one SortedCursor<ArrayWindows> per list, as a write
// buffer's BoolAND runs it.
std::vector<int32_t> RunStreamingJoin(
    const std::vector<std::vector<int32_t>>& lists, uint32_t vector_size,
    ExecStats* stats = nullptr) {
  ExecContext ctx;
  ctx.vector_size = vector_size;
  std::vector<ArrayJoin::Cursor> cursors(lists.size());
  for (size_t i = 0; i < lists.size(); ++i) {
    EXPECT_TRUE(cursors[i]
                    .Init(compress::ArrayWindows(lists[i].data(),
                                                 lists[i].size()),
                          0, lists[i].size())
                    .ok());
  }
  ArrayJoin join(&ctx, std::move(cursors));
  EXPECT_TRUE(join.Open().ok());
  std::vector<int32_t> out;
  Batch* batch = nullptr;
  while (true) {
    EXPECT_TRUE(join.Next(&batch).ok());
    if (batch == nullptr) break;
    const int32_t* d = batch->columns[0]->Data<int32_t>();
    out.insert(out.end(), d, d + batch->count);
  }
  join.Close();
  if (stats != nullptr) *stats = ctx.stats;
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
      ExecStats stats;
      EXPECT_EQ(RunStreamingJoin(lists, vs, &stats), expected)
          << "sizes[0]=" << c.sizes[0] << " vs=" << vs;
      // The cursors' window counters reach the plan's stats at Close.
      EXPECT_GT(stats.windows_decoded, 0u) << "vs=" << vs;
    }
  }
}

TEST(StreamingMergeJoin, EmptyAndDisjointInputs) {
  const std::vector<int32_t> some = {1, 5, 9};
  EXPECT_TRUE(RunStreamingJoin({{}, some}, 16).empty());
  EXPECT_TRUE(RunStreamingJoin({some, {}}, 16).empty());
  EXPECT_TRUE(RunStreamingJoin({{2, 4, 6}, {1, 3, 5}}, 16).empty());

  ExecContext ctx;
  ArrayJoin join(&ctx, {});
  EXPECT_FALSE(join.Open().ok());
}

// ---------------------------------------------------------------------------
// BM25: the fused map vs its scalar twin
// ---------------------------------------------------------------------------

// The composed side is Bm25One, the scalar formula every one-posting call
// site evaluates (MaxScore bounds and probes, the custom engines): bm25.h
// promises MapBm25 produces its float bits, element for element. Both
// must also sit within 1e-4 of the formula in double precision.
TEST(Bm25, FusedMatchesComposedTo1e5) {
  const uint32_t n = 4096;
  Rng rng(59);
  std::vector<int32_t> tf(n), doclen(n);
  for (auto& x : tf) x = 1 + static_cast<int32_t>(rng.NextBounded(20));
  for (auto& x : doclen) x = 1 + static_cast<int32_t>(rng.NextBounded(500));
  const float idf = 2.1f, k1 = 1.2f, b = 0.75f, avgdl = 150.0f;
  const float inv_avgdl = 1.0f / avgdl;

  std::vector<float> fused(n), one(n);
  MapBm25(n, fused.data(), tf.data(), doclen.data(), idf, k1, b, inv_avgdl);
  for (uint32_t i = 0; i < n; ++i) {
    one[i] = Bm25One(idf, static_cast<float>(tf[i]),
                     static_cast<float>(doclen[i]), k1, b, inv_avgdl);
  }
  ASSERT_EQ(ScoreBits(fused), ScoreBits(one));

  for (uint32_t i = 0; i < n; ++i) {
    const double tff = tf[i];
    const double ref = static_cast<double>(idf) * (k1 + 1.0) * tff /
                       (tff + k1 * (1.0 - b) + k1 * b * doclen[i] / avgdl);
    ASSERT_NEAR(fused[i], static_cast<float>(ref), 1e-4f) << i;
  }
}

}  // namespace
}  // namespace x100ir::vec
