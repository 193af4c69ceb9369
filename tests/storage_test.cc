// The storage/ layer battery (DESIGN.md §8): BufferManager pin/unpin
// refcount invariants, eviction-under-pressure never touching pinned
// pages, exact stats counters, EvictAll cold-pool semantics; ColumnReader
// round trips for every encoding plus window-granular compressed reads
// against the resident BlockDecoder as oracle; SortedColumnCursor vs
// compress::SortedRangeCursor across hostile block boundaries; torn-write
// safety of Database::Open over every persisted file; wrong-scheme column
// files rebuilt at load, never served; all seven RunTypes end-to-end with
// ranked runs pinned against the reference evaluator (reference.h); the
// quantization error bound; and a seeded eviction-schedule stress whose
// results must be bit-identical to an all-hot pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/database.h"
#include "compress/pdict.h"
#include "compress/pfor.h"
#include "compress/pfor_delta.h"
#include "compress/skip_cursor.h"
#include "ir/bm25.h"
#include "ir/index_builder.h"
#include "ir/index_meta.h"
#include "ir/query_gen.h"
#include "ir/search_engine.h"
#include "storage/buffer_manager.h"
#include "storage/column_reader.h"
#include "storage/column_source.h"
#include "storage/file.h"

#include "reference.h"
#include "test_util.h"

namespace x100ir::storage {
namespace {

// Paths are namespaced by the running test: ctest runs discovered tests in
// parallel processes, and two tests sharing a scratch file name must not
// race on it.
std::string TempPath(const char* name) {
  const auto* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string tag =
      info != nullptr
          ? std::string(info->test_suite_name()) + "_" + info->name()
          : std::string("global");
  return std::string(::testing::TempDir()) + "/x100ir_storage_" + tag +
         "_" + name;
}

// Writes `bytes` to a fresh file and returns its path.
std::string WriteFile(const char* name, const std::vector<uint8_t>& bytes) {
  const std::string path = TempPath(name);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  if (!bytes.empty()) {
    EXPECT_EQ(std::fwrite(bytes.data(), bytes.size(), 1, f), 1u);
  }
  std::fclose(f);
  return path;
}

// A deterministic pattern file: byte i = (i * 131 + 7) & 0xFF.
std::vector<uint8_t> PatternBytes(size_t n) {
  std::vector<uint8_t> bytes(n);
  for (size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<uint8_t>((i * 131 + 7) & 0xFF);
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// File
// ---------------------------------------------------------------------------

TEST(StorageFile, ReadAtExactAndOutOfRange) {
  const auto bytes = PatternBytes(1000);
  const std::string path = WriteFile("file_basic", bytes);
  File f;
  ASSERT_TRUE(File::OpenReadOnly(path, &f).ok());
  uint64_t size = 0;
  ASSERT_TRUE(f.Size(&size).ok());
  EXPECT_EQ(size, 1000u);
  std::vector<uint8_t> buf(250);
  ASSERT_TRUE(f.ReadAt(500, 250, buf.data()).ok());
  EXPECT_EQ(0, std::memcmp(buf.data(), bytes.data() + 500, 250));
  EXPECT_FALSE(f.ReadAt(900, 101, buf.data()).ok());
  EXPECT_FALSE(File::OpenReadOnly(TempPath("no_such_file"), &f).ok());
}

TEST(SimulatedDisk, ChargesAreDeterministic) {
  DiskModelOptions model;
  model.seek_seconds = 1e-3;
  model.bytes_per_second = 1e6;
  SimulatedDisk disk(model);
  disk.Charge(1000);
  disk.Charge(4000);
  EXPECT_EQ(disk.seeks(), 2u);
  EXPECT_EQ(disk.total_bytes(), 5000u);
  EXPECT_NEAR(disk.io_seconds(), 2e-3 + 5e-3, 1e-12);
  disk.ResetStats();
  EXPECT_EQ(disk.seeks(), 0u);
  EXPECT_EQ(disk.io_seconds(), 0.0);
}

// ---------------------------------------------------------------------------
// BufferManager
// ---------------------------------------------------------------------------

class BufferManagerTest : public ::testing::Test {
 protected:
  // A 16-page file (4 KB pages), pool of 3 pages by default.
  void Open(uint64_t pool_pages = 3, uint32_t page_bytes = 4096) {
    page_bytes_ = page_bytes;
    bytes_ = PatternBytes(16 * page_bytes);
    path_ = WriteFile("bm_file", bytes_);
    ASSERT_TRUE(File::OpenReadOnly(path_, &file_).ok());
    bm_ = std::make_unique<BufferManager>(pool_pages * page_bytes, &disk_,
                                          page_bytes);
    ASSERT_TRUE(bm_->RegisterFile(7, &file_).ok());
  }

  uint32_t page_bytes_ = 4096;
  std::vector<uint8_t> bytes_;
  std::string path_;
  File file_;
  SimulatedDisk disk_;
  std::unique_ptr<BufferManager> bm_;
};

TEST_F(BufferManagerTest, MissThenHitServesCorrectBytes) {
  Open();
  const uint8_t* data = nullptr;
  uint32_t len = 0;
  ASSERT_TRUE(bm_->Pin(7, 2, &data, &len).ok());
  EXPECT_EQ(len, page_bytes_);
  EXPECT_EQ(0, std::memcmp(data, bytes_.data() + 2 * page_bytes_,
                           page_bytes_));
  EXPECT_EQ(bm_->stats().misses, 1u);
  EXPECT_EQ(bm_->stats().hits, 0u);
  bm_->Unpin(7, 2);
  ASSERT_TRUE(bm_->Pin(7, 2, &data, &len).ok());
  EXPECT_EQ(bm_->stats().hits, 1u);
  EXPECT_EQ(bm_->stats().misses, 1u);
  bm_->Unpin(7, 2);
}

TEST_F(BufferManagerTest, PinsNestByRefcount) {
  Open();
  const uint8_t* data = nullptr;
  uint32_t len = 0;
  ASSERT_TRUE(bm_->Pin(7, 0, &data, &len).ok());
  ASSERT_TRUE(bm_->Pin(7, 0, &data, &len).ok());
  EXPECT_EQ(bm_->pinned_pages(), 1u);
  bm_->Unpin(7, 0);
  // Still pinned once: EvictAll must refuse.
  EXPECT_FALSE(bm_->EvictAll().ok());
  EXPECT_EQ(bm_->pinned_pages(), 1u);
  bm_->Unpin(7, 0);
  EXPECT_EQ(bm_->pinned_pages(), 0u);
  EXPECT_TRUE(bm_->EvictAll().ok());
}

TEST_F(BufferManagerTest, EvictionUnderPressureNeverEvictsPinned) {
  Open(/*pool_pages=*/3);
  const uint8_t* pinned = nullptr;
  uint32_t len = 0;
  ASSERT_TRUE(bm_->Pin(7, 5, &pinned, &len).ok());
  // Stream every other page through the 2 remaining frames.
  const uint8_t* data = nullptr;
  for (uint64_t p = 0; p < 16; ++p) {
    if (p == 5) continue;
    ASSERT_TRUE(bm_->Pin(7, p, &data, &len).ok());
    bm_->Unpin(7, p);
  }
  EXPECT_GT(bm_->stats().evictions, 0u);
  // The pinned frame was never evicted: its bytes are still valid and
  // re-pinning it is a hit.
  EXPECT_EQ(0, std::memcmp(pinned, bytes_.data() + 5 * page_bytes_,
                           page_bytes_));
  const uint64_t hits_before = bm_->stats().hits;
  ASSERT_TRUE(bm_->Pin(7, 5, &data, &len).ok());
  EXPECT_EQ(bm_->stats().hits, hits_before + 1);
  bm_->Unpin(7, 5);
  bm_->Unpin(7, 5);
}

TEST_F(BufferManagerTest, ExhaustedWhenEverythingIsPinned) {
  Open(/*pool_pages=*/2);
  const uint8_t* data = nullptr;
  uint32_t len = 0;
  ASSERT_TRUE(bm_->Pin(7, 0, &data, &len).ok());
  ASSERT_TRUE(bm_->Pin(7, 1, &data, &len).ok());
  Status s = bm_->Pin(7, 2, &data, &len);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  // Releasing one page makes room again.
  bm_->Unpin(7, 0);
  ASSERT_TRUE(bm_->Pin(7, 2, &data, &len).ok());
  bm_->Unpin(7, 1);
  bm_->Unpin(7, 2);
}

TEST_F(BufferManagerTest, EvictAllLeavesAFullyColdPool) {
  Open();
  const uint8_t* data = nullptr;
  uint32_t len = 0;
  for (uint64_t p = 0; p < 3; ++p) {
    ASSERT_TRUE(bm_->Pin(7, p, &data, &len).ok());
    bm_->Unpin(7, p);
  }
  EXPECT_GT(bm_->resident_bytes(), 0u);
  ASSERT_TRUE(bm_->EvictAll().ok());
  EXPECT_EQ(bm_->resident_bytes(), 0u);
  EXPECT_EQ(bm_->resident_pages(), 0u);
  // Every page faults back in.
  const uint64_t misses_before = bm_->stats().misses;
  for (uint64_t p = 0; p < 3; ++p) {
    ASSERT_TRUE(bm_->Pin(7, p, &data, &len).ok());
    bm_->Unpin(7, p);
  }
  EXPECT_EQ(bm_->stats().misses, misses_before + 3);
}

TEST_F(BufferManagerTest, StatsCountersExact) {
  Open(/*pool_pages=*/2);
  const uint8_t* data = nullptr;
  uint32_t len = 0;
  // Script: miss 0, miss 1, hit 1, miss 2 (evicts 0), miss 0 (evicts 1).
  ASSERT_TRUE(bm_->Pin(7, 0, &data, &len).ok());
  bm_->Unpin(7, 0);
  ASSERT_TRUE(bm_->Pin(7, 1, &data, &len).ok());
  bm_->Unpin(7, 1);
  ASSERT_TRUE(bm_->Pin(7, 1, &data, &len).ok());
  bm_->Unpin(7, 1);
  ASSERT_TRUE(bm_->Pin(7, 2, &data, &len).ok());
  bm_->Unpin(7, 2);
  ASSERT_TRUE(bm_->Pin(7, 0, &data, &len).ok());
  bm_->Unpin(7, 0);
  EXPECT_EQ(bm_->stats().misses, 4u);
  EXPECT_EQ(bm_->stats().hits, 1u);
  EXPECT_EQ(bm_->stats().evictions, 2u);
  EXPECT_EQ(bm_->stats().bytes_fetched, 4ull * page_bytes_);
  EXPECT_EQ(disk_.seeks(), 4u);
  EXPECT_EQ(disk_.total_bytes(), 4ull * page_bytes_);
  EXPECT_NEAR(bm_->stats().HitRate(), 1.0 / 5.0, 1e-12);
}

TEST_F(BufferManagerTest, LruEvictsColdestUnpinnedPage) {
  Open(/*pool_pages=*/2);
  const uint8_t* data = nullptr;
  uint32_t len = 0;
  ASSERT_TRUE(bm_->Pin(7, 0, &data, &len).ok());
  bm_->Unpin(7, 0);
  ASSERT_TRUE(bm_->Pin(7, 1, &data, &len).ok());
  bm_->Unpin(7, 1);
  // Touch 0 again: 1 becomes the LRU victim.
  ASSERT_TRUE(bm_->Pin(7, 0, &data, &len).ok());
  bm_->Unpin(7, 0);
  ASSERT_TRUE(bm_->Pin(7, 2, &data, &len).ok());
  bm_->Unpin(7, 2);
  const uint64_t hits_before = bm_->stats().hits;
  ASSERT_TRUE(bm_->Pin(7, 0, &data, &len).ok());  // still resident
  bm_->Unpin(7, 0);
  EXPECT_EQ(bm_->stats().hits, hits_before + 1);
  const uint64_t misses_before = bm_->stats().misses;
  ASSERT_TRUE(bm_->Pin(7, 1, &data, &len).ok());  // was evicted
  bm_->Unpin(7, 1);
  EXPECT_EQ(bm_->stats().misses, misses_before + 1);
}

TEST_F(BufferManagerTest, ShortLastPageAndBounds) {
  Open(/*pool_pages=*/3, /*page_bytes=*/4096);
  // A second file whose size is not a page multiple.
  const auto odd = PatternBytes(4096 + 1000);
  const std::string path = WriteFile("bm_odd", odd);
  File f;
  ASSERT_TRUE(File::OpenReadOnly(path, &f).ok());
  ASSERT_TRUE(bm_->RegisterFile(8, &f).ok());
  const uint8_t* data = nullptr;
  uint32_t len = 0;
  ASSERT_TRUE(bm_->Pin(8, 1, &data, &len).ok());
  EXPECT_EQ(len, 1000u);
  EXPECT_EQ(0, std::memcmp(data, odd.data() + 4096, 1000));
  bm_->Unpin(8, 1);
  EXPECT_FALSE(bm_->Pin(8, 2, &data, &len).ok());   // past EOF
  EXPECT_FALSE(bm_->Pin(99, 0, &data, &len).ok());  // unregistered
}

TEST_F(BufferManagerTest, EvictFileDropsExactlyThatFilesPages) {
  Open(/*pool_pages=*/8);
  // A second 4-page file sharing the pool: segment retirement must be able
  // to chill one file's pages without touching its neighbors'.
  const auto other = PatternBytes(4 * page_bytes_);
  const std::string path = WriteFile("bm_other", other);
  File f;
  ASSERT_TRUE(File::OpenReadOnly(path, &f).ok());
  ASSERT_TRUE(bm_->RegisterFile(8, &f).ok());

  const uint8_t* data = nullptr;
  uint32_t len = 0;
  for (uint64_t p = 0; p < 3; ++p) {
    ASSERT_TRUE(bm_->Pin(7, p, &data, &len).ok());
    bm_->Unpin(7, p);
  }
  for (uint64_t p = 0; p < 2; ++p) {
    ASSERT_TRUE(bm_->Pin(8, p, &data, &len).ok());
    bm_->Unpin(8, p);
  }
  EXPECT_EQ(bm_->ResidentPagesOfFile(7), 3u);
  EXPECT_EQ(bm_->ResidentPagesOfFile(8), 2u);
  EXPECT_EQ(bm_->stats().misses, 5u);

  ASSERT_TRUE(bm_->EvictFile(7).ok());
  EXPECT_EQ(bm_->ResidentPagesOfFile(7), 0u);
  EXPECT_EQ(bm_->ResidentPagesOfFile(8), 2u);
  EXPECT_EQ(bm_->resident_pages(), 2u);
  // Targeted drops are not pressure evictions: the counter is untouched.
  EXPECT_EQ(bm_->stats().evictions, 0u);

  // File 7 re-pins miss (its pages are gone); file 8 stayed hot.
  ASSERT_TRUE(bm_->Pin(7, 0, &data, &len).ok());
  bm_->Unpin(7, 0);
  EXPECT_EQ(bm_->stats().misses, 6u);
  ASSERT_TRUE(bm_->Pin(8, 0, &data, &len).ok());
  bm_->Unpin(8, 0);
  EXPECT_EQ(bm_->stats().hits, 1u);
}

TEST_F(BufferManagerTest, EvictFileRefusesPinsAndRejectsUnknownIds) {
  Open(/*pool_pages=*/8);
  const auto other = PatternBytes(4 * page_bytes_);
  const std::string path = WriteFile("bm_other2", other);
  File f;
  ASSERT_TRUE(File::OpenReadOnly(path, &f).ok());
  ASSERT_TRUE(bm_->RegisterFile(8, &f).ok());

  const uint8_t* data = nullptr;
  uint32_t len = 0;
  ASSERT_TRUE(bm_->Pin(7, 1, &data, &len).ok());
  // A pinned page in THIS file blocks its eviction...
  EXPECT_EQ(bm_->EvictFile(7).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(bm_->ResidentPagesOfFile(7), 1u);
  // ...but not another file's (per-file granularity is the whole point:
  // retiring a dead segment must not wait for unrelated readers).
  ASSERT_TRUE(bm_->Pin(8, 0, &data, &len).ok());
  bm_->Unpin(8, 0);
  EXPECT_TRUE(bm_->EvictFile(8).ok());
  EXPECT_EQ(bm_->ResidentPagesOfFile(8), 0u);

  bm_->Unpin(7, 1);
  EXPECT_TRUE(bm_->EvictFile(7).ok());
  EXPECT_EQ(bm_->EvictFile(99).code(), StatusCode::kInvalidArgument);

  // UnregisterFile = EvictFile + drop the binding: later pins must fail
  // rather than resurrect the file.
  ASSERT_TRUE(bm_->UnregisterFile(8).ok());
  EXPECT_EQ(bm_->ResidentPagesOfFile(8), 0u);
  EXPECT_FALSE(bm_->Pin(8, 0, &data, &len).ok());
  EXPECT_EQ(bm_->EvictFile(8).code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// ColumnReader
// ---------------------------------------------------------------------------

std::vector<uint8_t> ColumnFileBytes(uint32_t encoding, uint64_t n,
                                     const void* payload,
                                     size_t payload_bytes) {
  ir::ColumnFileHeader hdr;
  hdr.encoding = encoding;
  hdr.value_count = n;
  std::vector<uint8_t> bytes(sizeof(hdr) + payload_bytes);
  std::memcpy(bytes.data(), &hdr, sizeof(hdr));
  if (payload_bytes > 0) {
    std::memcpy(bytes.data() + sizeof(hdr), payload, payload_bytes);
  }
  return bytes;
}

TEST(ColumnReader, RawI32RoundTripAcrossPageSizes) {
  std::vector<int32_t> values(3000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int32_t>(i * 7 - 1000);
  }
  const std::string path = WriteFile(
      "col_rawi32",
      ColumnFileBytes(ir::ColumnFileHeader::kRawI32, values.size(),
                      values.data(), values.size() * 4));
  for (uint32_t page_bytes : {64u, 1024u, 1u << 20}) {
    SimulatedDisk disk;
    BufferManager bm(1ull << 30, &disk, page_bytes);
    ColumnReader col;
    ASSERT_TRUE(col.Open(path, 1, &bm).ok());
    EXPECT_EQ(col.value_count(), values.size());
    std::vector<int32_t> out(values.size());
    ASSERT_TRUE(col.Read(0, values.size(), out.data()).ok());
    EXPECT_EQ(out, values);
    // Unaligned sub-range straddling pages.
    std::vector<int32_t> sub(777);
    ASSERT_TRUE(col.Read(1111, 777, sub.data()).ok());
    EXPECT_EQ(0, std::memcmp(sub.data(), values.data() + 1111, 777 * 4));
    EXPECT_FALSE(col.Read(values.size() - 1, 2, sub.data()).ok());
  }
}

TEST(ColumnReader, CompressedMatchesResidentDecoderAcrossBoundaries) {
  Rng rng(2024);
  // n % 128 in {0, 1, 127} plus a sub-window case; sorted values with
  // forced exceptions in the delta stream.
  for (uint32_t n : {1280u, 1281u, 1407u, 131u}) {
    std::vector<int32_t> values(n);
    int32_t v = 0;
    for (uint32_t i = 0; i < n; ++i) {
      v += static_cast<int32_t>(rng.NextBounded(9));
      if (rng.NextBounded(64) == 0) v += 100000;
      values[i] = v;
    }
    std::vector<uint8_t> block;
    compress::BlockStats stats;
    ASSERT_TRUE(compress::PforDeltaEncode(values.data(), n, {}, &block,
                                          &stats).ok());
    compress::BlockDecoder oracle;
    ASSERT_TRUE(oracle.Init(block.data(), block.size()).ok());

    const std::string path = WriteFile(
        "col_pfd", ColumnFileBytes(ir::ColumnFileHeader::kCompressedBlock,
                                   n, block.data(), block.size()));
    SimulatedDisk disk;
    BufferManager bm(1ull << 30, &disk, 512);
    ColumnReader col;
    ASSERT_TRUE(col.Open(path, 1, &bm).ok());
    ASSERT_EQ(col.value_count(), n);
    ASSERT_TRUE(col.is_compressed());
    ASSERT_TRUE(col.WindowIsDelta());

    std::vector<int32_t> full(n);
    ASSERT_TRUE(col.Read(0, n, full.data()).ok());
    EXPECT_EQ(full, values) << "n=" << n;
    EXPECT_GT(col.windows_decoded(), 0u);
    // Window value bases match the resident decoder's.
    for (uint32_t w = 0; w < col.num_windows(); ++w) {
      EXPECT_EQ(col.WindowValueBase(w), oracle.WindowValueBase(w));
    }
    // Random sub-ranges, including window-interior ones.
    for (int trial = 0; trial < 20; ++trial) {
      const uint32_t pos = static_cast<uint32_t>(rng.NextBounded(n));
      const uint32_t len = static_cast<uint32_t>(
          1 + rng.NextBounded(std::min<uint64_t>(n - pos, 300)));
      std::vector<int32_t> got(len), want(len);
      ASSERT_TRUE(col.Read(pos, len, got.data()).ok());
      oracle.Decode(pos, len, want.data());
      ASSERT_EQ(got, want) << "n=" << n << " pos=" << pos;
    }
  }
}

TEST(ColumnReader, Q8RoundTripAndParams) {
  const uint32_t n = 1000;
  ir::Q8Params params;
  params.scale = 0.5f;
  params.bias = -3.0f;
  std::vector<uint8_t> payload(sizeof(params) + n);
  std::memcpy(payload.data(), &params, sizeof(params));
  for (uint32_t i = 0; i < n; ++i) {
    payload[sizeof(params) + i] = static_cast<uint8_t>(i & 0xFF);
  }
  const std::string path = WriteFile(
      "col_q8", ColumnFileBytes(ir::ColumnFileHeader::kQuantU8, n,
                                payload.data(), payload.size()));
  SimulatedDisk disk;
  BufferManager bm(1ull << 30, &disk, 4096);
  ColumnReader col;
  ASSERT_TRUE(col.Open(path, 1, &bm).ok());
  EXPECT_FLOAT_EQ(col.q8_scale(), 0.5f);
  EXPECT_FLOAT_EQ(col.q8_bias(), -3.0f);
  std::vector<float> out(n);
  ASSERT_TRUE(col.ReadF32(0, n, out.data()).ok());
  for (uint32_t i = 0; i < n; ++i) {
    ASSERT_FLOAT_EQ(out[i], -3.0f + 0.5f * static_cast<float>(i & 0xFF));
  }
}

TEST(ColumnReader, RejectsTruncationBadMagicAndBadParams) {
  std::vector<int32_t> values(500, 42);
  const auto good =
      ColumnFileBytes(ir::ColumnFileHeader::kRawI32, values.size(),
                      values.data(), values.size() * 4);
  SimulatedDisk disk;
  BufferManager bm(1ull << 30, &disk, 4096);
  // Truncations at hostile offsets: header-less, mid-header, mid-payload,
  // one byte short — and one byte long.
  for (size_t cut : {size_t{0}, size_t{1}, size_t{10}, good.size() / 2,
                     good.size() - 1}) {
    std::vector<uint8_t> torn(good.begin(), good.begin() + cut);
    ColumnReader col;
    EXPECT_FALSE(col.Open(WriteFile("col_torn", torn), 1, &bm).ok())
        << "cut=" << cut;
  }
  std::vector<uint8_t> grown = good;
  grown.push_back(0);
  ColumnReader col;
  EXPECT_FALSE(col.Open(WriteFile("col_grown", grown), 1, &bm).ok());
  std::vector<uint8_t> bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(col.Open(WriteFile("col_magic", bad_magic), 1, &bm).ok());
  // Quantized column with a degenerate scale.
  ir::Q8Params params;
  params.scale = 0.0f;
  std::vector<uint8_t> payload(sizeof(params) + 4, 0);
  std::memcpy(payload.data(), &params, sizeof(params));
  EXPECT_FALSE(col.Open(WriteFile("col_badscale",
                                  ColumnFileBytes(
                                      ir::ColumnFileHeader::kQuantU8, 4,
                                      payload.data(), payload.size())),
                        1, &bm)
                   .ok());
}

// ---------------------------------------------------------------------------
// SortedColumnCursor
// ---------------------------------------------------------------------------

TEST(SortedColumnCursor, MatchesSortedRangeCursorOracle) {
  Rng rng(77);
  std::vector<int32_t> values(1407);
  int32_t v = 0;
  for (auto& x : values) {
    v += static_cast<int32_t>(rng.NextBounded(7));
    x = v;
  }
  std::vector<uint8_t> block;
  compress::BlockStats stats;
  ASSERT_TRUE(compress::PforDeltaEncode(
      values.data(), static_cast<uint32_t>(values.size()), {}, &block,
      &stats).ok());
  compress::BlockDecoder resident;
  ASSERT_TRUE(resident.Init(block.data(), block.size()).ok());
  const std::string path = WriteFile(
      "cur_pfd",
      ColumnFileBytes(ir::ColumnFileHeader::kCompressedBlock, values.size(),
                      block.data(), block.size()));
  const std::string raw_path = WriteFile(
      "cur_raw", ColumnFileBytes(ir::ColumnFileHeader::kRawI32,
                                 values.size(), values.data(),
                                 values.size() * 4));
  SimulatedDisk disk;
  BufferManager bm(1ull << 30, &disk, 512);
  ColumnReader compressed, raw;
  ASSERT_TRUE(compressed.Open(path, 1, &bm).ok());
  ASSERT_TRUE(raw.Open(raw_path, 2, &bm).ok());

  // Sub-ranges crossing window boundaries, incl. the block's tail window,
  // and 8 whole windows ending inside the block (SkipTo past their end
  // jumps without decoding the last one).
  const std::pair<uint64_t, uint64_t> ranges[] = {
      {0, values.size()}, {100, 700}, {127, 129}, {1280, 1407}, {5, 5},
      {128, 1152}};
  for (const auto& [begin, end] : ranges) {
    for (uint64_t probe_seed = 0; probe_seed < 3; ++probe_seed) {
      compress::SortedRangeCursor oracle;
      ASSERT_TRUE(oracle.Init(&resident, begin, end).ok());
      SortedColumnCursor cold, cold_raw;
      ASSERT_TRUE(cold.Init(&compressed, begin, end).ok());
      ASSERT_TRUE(cold_raw.Init(&raw, begin, end).ok());
      Rng prng(900 + probe_seed);
      int32_t target =
          begin < values.size()
              ? values[begin] - 1 +
                    static_cast<int32_t>(prng.NextBounded(3))
              : 0;
      for (int step = 0; step < 40; ++step) {
        const bool found_oracle = oracle.SkipTo(target);
        bool found = false, found_raw = false;
        ASSERT_TRUE(cold.SkipTo(target, &found).ok());
        ASSERT_TRUE(cold_raw.SkipTo(target, &found_raw).ok());
        ASSERT_EQ(found, found_oracle) << "target=" << target;
        ASSERT_EQ(found_raw, found_oracle);
        ASSERT_EQ(cold.windows_skipped(), oracle.stats().windows_skipped)
            << "target=" << target;
        if (!found_oracle) break;
        ASSERT_EQ(cold.position(), oracle.position());
        ASSERT_EQ(cold_raw.position(), oracle.position());
        int32_t cv = 0, rv = 0;
        ASSERT_TRUE(cold.Value(&cv).ok());
        ASSERT_TRUE(cold_raw.Value(&rv).ok());
        ASSERT_EQ(cv, oracle.value());
        ASSERT_EQ(rv, oracle.value());
        target =
            oracle.value() + static_cast<int32_t>(prng.NextBounded(30));
      }
      // A probe past every value: the windows the jump to end passes
      // count as skipped in both cursors.
      const int32_t past_end = std::numeric_limits<int32_t>::max();
      const bool found_oracle = oracle.SkipTo(past_end);
      bool found = true;
      ASSERT_TRUE(cold.SkipTo(past_end, &found).ok());
      ASSERT_EQ(found, found_oracle);
      ASSERT_EQ(cold.windows_skipped(), oracle.stats().windows_skipped);
    }
  }
}

TEST(SortedColumnCursor, SkipsWindowsWithoutFetching) {
  // A long strictly-increasing range: skipping to a far target must not
  // decode (fetch) the windows in between.
  std::vector<int32_t> values(128 * 40);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int32_t>(i * 3);
  }
  std::vector<uint8_t> block;
  compress::BlockStats stats;
  ASSERT_TRUE(compress::PforDeltaEncode(
      values.data(), static_cast<uint32_t>(values.size()), {}, &block,
      &stats).ok());
  const std::string path = WriteFile(
      "skip_pfd",
      ColumnFileBytes(ir::ColumnFileHeader::kCompressedBlock, values.size(),
                      block.data(), block.size()));
  SimulatedDisk disk;
  BufferManager bm(1ull << 30, &disk, 4096);
  ColumnReader col;
  ASSERT_TRUE(col.Open(path, 1, &bm).ok());
  SortedColumnCursor cursor;
  ASSERT_TRUE(cursor.Init(&col, 0, values.size()).ok());
  bool found = false;
  ASSERT_TRUE(cursor.SkipTo(values[128 * 35], &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(cursor.position(), 128u * 35);
  EXPECT_GE(cursor.windows_skipped(), 30u);
  EXPECT_LE(col.windows_decoded(), 3u);
}

TEST(ColumnSliceSource, LatchesPoolFailureAndZeroFills) {
  std::vector<int32_t> values(5000, 9);
  const std::string path = WriteFile(
      "src_rawi32", ColumnFileBytes(ir::ColumnFileHeader::kRawI32,
                                    values.size(), values.data(),
                                    values.size() * 4));
  SimulatedDisk disk;
  // Pool smaller than one page: every fetch is ResourceExhausted.
  BufferManager bm(1024, &disk, 4096);
  ColumnReader col;
  ASSERT_TRUE(col.Open(path, 1, &bm).ok());
  ColumnSliceSource src(&col, 0, values.size(), vec::TypeId::kI32);
  ASSERT_TRUE(src.status().ok());
  std::vector<int32_t> out(64, -1);
  src.Read(0, 64, out.data());
  EXPECT_EQ(src.status().code(), StatusCode::kResourceExhausted);
  for (int32_t x : out) EXPECT_EQ(x, 0);  // zero-filled, never garbage
}

// ---------------------------------------------------------------------------
// Index storage integration: materialized scores, torn writes, RunTypes
// ---------------------------------------------------------------------------

ir::Corpus GoldenCorpus() {
  std::vector<std::vector<uint32_t>> docs = {
      {0, 1, 2, 2, 3},              // doc 0
      {1, 2, 4},                    // doc 1
      {0, 0, 0, 5, 6},              // doc 2
      {2, 2, 2, 2, 7},              // doc 3
      {1, 3, 5, 7, 9},              // doc 4
      {8, 8, 9},                    // doc 5
      {0, 1, 2, 3, 4, 5, 6, 7, 8},  // doc 6
      {2, 9},                       // doc 7
  };
  ir::Corpus corpus;
  EXPECT_TRUE(ir::Corpus::FromDocuments(docs, 10, &corpus).ok());
  return corpus;
}

ir::CorpusOptions SmallGeneratedOptions() {
  ir::CorpusOptions opts;
  opts.num_docs = 1500;
  opts.vocab_size = 2000;
  opts.doclen_mu = 3.2;
  opts.doclen_sigma = 0.5;
  opts.num_topics = 10;
  opts.terms_per_topic = 5;
  opts.relevant_docs_per_topic = 40;
  opts.topical_mass = 0.35;
  opts.topic_rank_min = 20;
  opts.topic_rank_max = 300;
  opts.seed = 2007;
  return opts;
}

std::string FreshDir(const char* name) {
  const std::string dir = TempPath(name);
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(IndexStorageTest, MaterializedScoresMatchRecomputationAndQ8Bound) {
  const ir::Corpus corpus = GoldenCorpus();
  const std::string dir = FreshDir("materialize");
  ir::InvertedIndex index;
  ir::BuildStats stats;
  ASSERT_TRUE(index.BuildFromCorpus(corpus, dir, &stats).ok());
  ASSERT_TRUE(index.has_storage());
  ir::IndexStorage* st = index.storage();
  const uint64_t n = index.num_postings();
  ASSERT_EQ(st->score_f32.value_count(), n);
  ASSERT_EQ(st->score_q8.value_count(), n);

  const float inv_avgdl = static_cast<float>(1.0 / index.avg_doc_len());
  std::vector<float> scores(n), q8(n);
  ASSERT_TRUE(st->score_f32.ReadF32(0, n, scores.data()).ok());
  ASSERT_TRUE(st->score_q8.ReadF32(0, n, q8.data()).ok());
  const float max_err = st->score_q8.q8_scale() * 0.5f * 1.001f;
  for (uint32_t t = 0; t < index.vocab_size(); ++t) {
    const ir::TermInfo& info = index.term(t);
    std::vector<int32_t> docids, tfs;
    ASSERT_TRUE(index.DecodePostings(t, &docids, &tfs).ok());
    for (uint32_t j = 0; j < info.doc_freq; ++j) {
      const uint64_t p = info.posting_start + j;
      const float want =
          Bm25One(info.idf, static_cast<float>(tfs[j]),
                  static_cast<float>(index.doc_lens()[docids[j]]),
                  ir::InvertedIndex::kMaterializedK1,
                  ir::InvertedIndex::kMaterializedB, inv_avgdl);
      ASSERT_FLOAT_EQ(scores[p], want) << "term " << t << " posting " << j;
      // The quantization error bound: |dequant - f32| <= scale / 2.
      ASSERT_LE(std::abs(q8[p] - scores[p]), max_err);
    }
  }
}

TEST(IndexStorageTest, TornWritesTriggerRebuildNeverGarbage) {
  const ir::Corpus corpus = GoldenCorpus();
  const std::string dir = FreshDir("torn");
  ir::InvertedIndex index;
  ir::BuildStats stats;
  ASSERT_TRUE(index.BuildFromCorpus(corpus, dir, &stats).ok());
  EXPECT_FALSE(stats.reused_files);
  ASSERT_TRUE(index.BuildFromCorpus(corpus, dir, &stats).ok());
  EXPECT_TRUE(stats.reused_files);

  const char* files[] = {ir::kDocidRawFile,        ir::kTfRawFile,
                         ir::kDocidCompressedFile, ir::kTfCompressedFile,
                         ir::kScoreF32File,        ir::kScoreQ8File,
                         ir::kIndexMetaFile};
  for (const char* file : files) {
    const std::string path = dir + "/" + file;
    const uint64_t size = std::filesystem::file_size(path);
    // Hostile truncation offsets: empty, one byte, mid-file, size - 1.
    for (uint64_t cut : {uint64_t{0}, uint64_t{1}, size / 2, size - 1}) {
      std::filesystem::resize_file(path, cut);
      ir::InvertedIndex reopened;
      ASSERT_TRUE(reopened.BuildFromCorpus(corpus, dir, &stats).ok())
          << file << " cut at " << cut;
      EXPECT_FALSE(stats.reused_files) << file << " cut at " << cut;
      ASSERT_TRUE(reopened.has_storage());
      // The rebuilt index serves correct data.
      std::vector<int32_t> docids;
      ASSERT_TRUE(reopened.DecodePostings(2, &docids, nullptr).ok());
      EXPECT_EQ(docids, (std::vector<int32_t>{0, 1, 3, 6, 7}));
    }
  }
  // After all that torture a clean reopen reuses again.
  ASSERT_TRUE(index.BuildFromCorpus(corpus, dir, &stats).ok());
  EXPECT_TRUE(stats.reused_files);
}

// A compressed column file holding a valid block of the wrong scheme —
// right value count, clean header — must never be served: the skip
// cursors need PFOR-DELTA docid windows (BoolAND and ranked BM25 would
// fail) and the fused scorer needs patched-PFOR tf windows. Reuse rebuilds
// the directory; a corpus-free LoadFromDir (the manifest reopen path)
// refuses it.
TEST(IndexStorageTest, WrongSchemeColumnsRebuildNeverServe) {
  ir::CorpusOptions copts = SmallGeneratedOptions();
  copts.num_docs = 600;
  copts.vocab_size = 900;
  copts.num_topics = 6;
  copts.relevant_docs_per_topic = 30;
  ir::Corpus corpus;
  ASSERT_TRUE(ir::Corpus::Generate(copts, &corpus).ok());
  const std::string dir = FreshDir("scheme");
  ir::InvertedIndex index;
  ir::BuildStats stats;
  ASSERT_TRUE(index.BuildFromCorpus(corpus, dir, &stats).ok());
  std::vector<int32_t> docid_col, tf_col;  // the TD table, term order
  for (uint32_t t = 0; t < index.vocab_size(); ++t) {
    std::vector<int32_t> d, f;
    ASSERT_TRUE(index.DecodePostings(t, &d, &f).ok());
    docid_col.insert(docid_col.end(), d.begin(), d.end());
    tf_col.insert(tf_col.end(), f.begin(), f.end());
  }
  const uint32_t n = static_cast<uint32_t>(docid_col.size());

  // LoadFromDir through a shared pool: OK on the intact directory.
  SimulatedDisk disk;
  BufferManager pool(4u << 20, &disk, 4096);
  const auto load_ok = [&] {
    ir::InvertedIndex loaded;
    const bool ok = loaded.LoadFromDir(dir, {&pool, 0}).ok();
    loaded.DetachSharedStorage();
    return ok;
  };
  ASSERT_TRUE(load_ok());

  struct Case {
    const char* file;
    const std::vector<int32_t>* values;
    compress::Scheme scheme;
    bool naive;
  };
  const Case cases[] = {
      {ir::kDocidCompressedFile, &docid_col, compress::Scheme::kPfor, false},
      {ir::kDocidCompressedFile, &docid_col, compress::Scheme::kPdict, false},
      {ir::kTfCompressedFile, &tf_col, compress::Scheme::kPforDelta, false},
      {ir::kTfCompressedFile, &tf_col, compress::Scheme::kPdict, false},
      {ir::kTfCompressedFile, &tf_col, compress::Scheme::kPfor, true},
  };
  ir::QueryGenOptions qopts;
  qopts.num_efficiency_queries = 20;
  ir::QueryGenerator gen(corpus, qopts);
  const std::vector<ir::Query> queries = gen.EfficiencyQueries();
  const Reference ref = Reference::Of(corpus);
  for (const Case& c : cases) {
    const std::string what = std::string(c.file) + " scheme " +
                             std::to_string(static_cast<int>(c.scheme)) +
                             (c.naive ? " naive" : "");
    compress::EncodeOptions eo;
    eo.naive_layout = c.naive;
    std::vector<uint8_t> block;
    const int32_t* v = c.values->data();
    const Status enc =
        c.scheme == compress::Scheme::kPfor
            ? compress::PforEncode(v, n, eo, &block, nullptr)
        : c.scheme == compress::Scheme::kPforDelta
            ? compress::PforDeltaEncode(v, n, eo, &block, nullptr)
            : compress::PdictEncode(v, n, eo, &block, nullptr);
    ASSERT_TRUE(enc.ok()) << what;
    const std::vector<uint8_t> bytes = ColumnFileBytes(
        ir::ColumnFileHeader::kCompressedBlock, n, block.data(), block.size());
    std::FILE* f = std::fopen((dir + "/" + c.file).c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), bytes.size(), 1, f), 1u);
    ASSERT_EQ(std::fclose(f), 0);

    EXPECT_FALSE(load_ok()) << what;
    ir::InvertedIndex reopened;
    ASSERT_TRUE(reopened.BuildFromCorpus(corpus, dir, &stats).ok()) << what;
    EXPECT_FALSE(stats.reused_files) << what;
    ir::SearchEngine engine(&reopened);
    ir::SearchOptions opts;
    ir::SearchOptions exact;
    exact.maxscore_bm25 = false;
    for (const ir::Query& q : queries) {
      for (ir::RunType type : {ir::RunType::kBoolAnd, ir::RunType::kBoolOr}) {
        ir::SearchResult r;
        ASSERT_TRUE(engine.Search(q, type, opts, &r).ok()) << what;
        const ir::SearchResult want = ref.Search(q, type, opts);
        EXPECT_EQ(r.docids, want.docids) << what;
        EXPECT_EQ(r.num_matches, want.num_matches) << what;
      }
      const ir::SearchResult want = ref.Search(q, ir::RunType::kBm25, opts);
      ir::SearchResult r;
      ASSERT_TRUE(engine.Search(q, ir::RunType::kBm25, exact, &r).ok());
      EXPECT_EQ(r.docids, want.docids) << what;
      EXPECT_EQ(ScoreBits(r.scores), ScoreBits(want.scores)) << what;
      ASSERT_TRUE(engine.Search(q, ir::RunType::kBm25, opts, &r).ok());
      ExpectRankingsEquivalent(r.docids, r.scores, want.docids, want.scores,
                               1e-4f);
    }
    // The rebuild rewrote a servable directory.
    EXPECT_TRUE(load_ok()) << what;
  }
}

// All 7 RunTypes end-to-end on the golden corpus; ranked runs agree with
// the reference.
TEST(RunTypes, AllSevenExecuteAndRankedRunsMatchOracle) {
  const ir::Corpus corpus = GoldenCorpus();
  const std::string dir = FreshDir("runtypes");
  ir::InvertedIndex index;
  ir::BuildStats bstats;
  ASSERT_TRUE(index.BuildFromCorpus(corpus, dir, &bstats).ok());
  ir::SearchEngine engine(&index);

  ir::Query q;
  q.terms = {1, 2, 3};
  ir::SearchOptions opts;
  opts.k = 5;
  const ir::SearchResult want =
      Reference::Of(corpus).Search(q, ir::RunType::kBm25, opts);
  for (ir::RunType type : ir::AllRunTypes()) {
    ir::SearchResult r;
    ASSERT_TRUE(engine.Search(q, type, opts, &r).ok())
        << ir::RunTypeName(type);
    ASSERT_FALSE(r.docids.empty()) << ir::RunTypeName(type);
    if (type == ir::RunType::kBoolAnd) {
      EXPECT_EQ(r.docids, (std::vector<int32_t>{0, 6}));
      continue;
    }
    if (type == ir::RunType::kBoolOr) {
      EXPECT_EQ(r.docids, (std::vector<int32_t>{0, 1, 3, 4, 6}));
      continue;
    }
    // Ranked runs agree with the reference. TCMQ8 scores carry
    // quantization error (<= 3 terms * scale/2); the others are
    // float-tight.
    const float tol = type == ir::RunType::kBm25TCMQ8
                          ? 3.0f * index.storage()->score_q8.q8_scale()
                          : 1e-4f;
    ASSERT_EQ(r.docids.size(), want.docids.size());
    for (size_t i = 0; i < r.docids.size(); ++i) {
      EXPECT_EQ(r.docids[i], want.docids[i])
          << ir::RunTypeName(type) << " rank " << i;
      EXPECT_NEAR(r.scores[i], want.scores[i], tol)
          << ir::RunTypeName(type) << " rank " << i;
    }
  }
}

// Both two-pass shapes — pass 1 provably exact, and the forced full
// evaluation — agree on every ranked storage run.
TEST(RunTypes, ForcedPassShapesAgree) {
  ir::Corpus corpus;
  ASSERT_TRUE(ir::Corpus::Generate(SmallGeneratedOptions(), &corpus).ok());
  const std::string dir = FreshDir("passes");
  ir::InvertedIndex index;
  ir::BuildStats bstats;
  ASSERT_TRUE(index.BuildFromCorpus(corpus, dir, &bstats).ok());
  ir::SearchEngine engine(&index);

  ir::QueryGenOptions qopts;
  qopts.num_efficiency_queries = 30;
  ir::QueryGenerator gen(corpus, qopts);
  const ir::RunType types[] = {ir::RunType::kBm25T, ir::RunType::kBm25TC,
                               ir::RunType::kBm25TCM,
                               ir::RunType::kBm25TCMQ8};
  for (const auto& q : gen.EfficiencyQueries()) {
    for (ir::RunType type : types) {
      ir::SearchOptions all_short, all_long;
      all_short.twopass_df_cutoff = UINT32_MAX;  // everything selective
      all_long.twopass_df_cutoff = 1;            // everything probed/full
      ir::SearchResult a, b;
      ASSERT_TRUE(engine.Search(q, type, all_short, &a).ok());
      ASSERT_TRUE(engine.Search(q, type, all_long, &b).ok());
      // All-selective pass 1 is exact (no long lists to bound). The
      // all-long shape runs the full evaluation; both must return the
      // same ranking.
      EXPECT_FALSE(a.used_second_pass);
      ASSERT_EQ(a.docids.size(), b.docids.size()) << ir::RunTypeName(type);
      for (size_t i = 0; i < a.docids.size(); ++i) {
        ASSERT_NEAR(a.scores[i], b.scores[i], 1e-4)
            << ir::RunTypeName(type);
      }
    }
  }
}

// The quantized run keeps ranking quality: top-20 overlap vs TCM on the
// planted-topic corpus.
TEST(RunTypes, Q8TopKOverlapAtLeast19Of20) {
  ir::Corpus corpus;
  ASSERT_TRUE(ir::Corpus::Generate(SmallGeneratedOptions(), &corpus).ok());
  const std::string dir = FreshDir("q8overlap");
  ir::InvertedIndex index;
  ir::BuildStats bstats;
  ASSERT_TRUE(index.BuildFromCorpus(corpus, dir, &bstats).ok());
  ir::SearchEngine engine(&index);

  ir::QueryGenOptions qopts;
  qopts.num_eval_queries = 10;
  ir::QueryGenerator gen(corpus, qopts);
  ir::SearchOptions opts;
  opts.k = 20;
  for (const auto& q : gen.EvalQueries()) {
    ir::SearchResult tcm, q8;
    ASSERT_TRUE(engine.Search(q, ir::RunType::kBm25TCM, opts, &tcm).ok());
    ASSERT_TRUE(engine.Search(q, ir::RunType::kBm25TCMQ8, opts, &q8).ok());
    const std::set<int32_t> a(tcm.docids.begin(), tcm.docids.end());
    size_t overlap = 0;
    for (int32_t d : q8.docids) overlap += a.count(d);
    EXPECT_GE(overlap + 1, tcm.docids.size()) << "topic " << q.topic;
  }
}

// A pool failure on the second pass's value column zero-fills tfs or
// scores but leaves the docid stream intact, so the plan drains cleanly:
// only the run's check of its sources' latched status after the drain can
// fail the query, and it must, rather than rank zeros.
TEST(RunTypes, SecondPassValueColumnFailureFailsTheQuery) {
  ir::Corpus corpus;
  ASSERT_TRUE(ir::Corpus::Generate(SmallGeneratedOptions(), &corpus).ok());
  const std::string dir = FreshDir("pass2fault");
  ir::InvertedIndex index;
  ir::BuildStats bstats;
  ASSERT_TRUE(index.BuildFromCorpus(corpus, dir, &bstats).ok());
  ir::SearchEngine engine(&index);
  BufferManager* pool = index.buffer_manager();
  ir::Query q;
  q.terms = {3, 50};
  ir::SearchOptions opts;
  opts.twopass_df_cutoff = 1;  // every list long: straight to pass 2
  const std::pair<ir::RunType, ColumnReader*> runs[] = {
      {ir::RunType::kBm25TC, &index.storage()->tf_compressed},
      {ir::RunType::kBm25TCM, &index.storage()->score_f32},
  };
  for (const auto& [type, value_col] : runs) {
    // Warm run: every page the plan reads is resident, and pool hits
    // never fault. Then only the value column goes cold, under a plan
    // that tears every fetch.
    ir::SearchResult warm;
    ASSERT_TRUE(engine.Search(q, type, opts, &warm).ok());
    ASSERT_FALSE(warm.docids.empty());
    ASSERT_TRUE(pool->EvictFile(value_col->file_id()).ok());
    FaultPlanOptions fopts;
    fopts.torn_rate = 1.0;
    FaultPlan plan(fopts);
    pool->set_fault_plan(&plan);
    ir::SearchResult r;
    const Status s = engine.Search(q, type, opts, &r);
    pool->set_fault_plan(nullptr);
    EXPECT_EQ(s.code(), StatusCode::kIOError)
        << ir::RunTypeName(type) << ": " << s.ToString();
  }
}

TEST(RunTypes, StorageRunsFailCleanlyWithoutDirectory) {
  const ir::Corpus corpus = GoldenCorpus();
  ir::InvertedIndex index;
  ir::BuildStats bstats;
  ASSERT_TRUE(index.BuildFromCorpus(corpus, "", &bstats).ok());
  EXPECT_FALSE(index.has_storage());
  EXPECT_FALSE(index.EvictAll().ok());
  ir::SearchEngine engine(&index);
  ir::Query q;
  q.terms = {2};
  ir::SearchOptions opts;
  ir::SearchResult r;
  const Status s = engine.Search(q, ir::RunType::kBm25TC, opts, &r);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Cold/hot accounting and the Database surface
// ---------------------------------------------------------------------------

TEST(ColdRuns, IoChargesAreDeterministicAndVanishWhenHot) {
  ir::Corpus corpus;
  ASSERT_TRUE(ir::Corpus::Generate(SmallGeneratedOptions(), &corpus).ok());
  const std::string dir = FreshDir("coldhot");
  ir::InvertedIndex index;
  ir::BuildStats bstats;
  StorageOptions sopts;
  sopts.page_bytes = 4096;
  ASSERT_TRUE(index.BuildFromCorpus(corpus, dir, &bstats, sopts).ok());
  ir::SearchEngine engine(&index);
  ir::Query q;
  q.terms = {5, 40, 200};
  ir::SearchOptions opts;

  ir::SearchResult cold1, cold2, hot;
  ASSERT_TRUE(index.EvictAll().ok());
  ASSERT_TRUE(engine.Search(q, ir::RunType::kBm25TC, opts, &cold1).ok());
  EXPECT_GT(cold1.io_seconds, 0.0);
  ASSERT_TRUE(index.EvictAll().ok());
  ASSERT_TRUE(engine.Search(q, ir::RunType::kBm25TC, opts, &cold2).ok());
  EXPECT_DOUBLE_EQ(cold1.io_seconds, cold2.io_seconds);  // deterministic
  ASSERT_TRUE(engine.Search(q, ir::RunType::kBm25TC, opts, &hot).ok());
  EXPECT_EQ(hot.io_seconds, 0.0);  // fully pool-resident
  EXPECT_EQ(hot.docids, cold1.docids);
  // TotalSeconds = wall + simulated I/O.
  EXPECT_GE(cold1.TotalSeconds(), cold1.io_seconds);
}

TEST(DatabaseStorage, SurfacesBufferStatsAndEvictAll) {
  core::DatabaseOptions dopts;
  dopts.corpus = SmallGeneratedOptions();
  core::Database mem;
  ASSERT_TRUE(mem.Open(dopts).ok());
  EXPECT_FALSE(mem.has_storage());
  EXPECT_EQ(mem.disk(), nullptr);

  dopts.dir = FreshDir("db_stats");
  dopts.storage.page_bytes = 4096;
  core::Database db;
  ASSERT_TRUE(db.Open(dopts).ok());
  ASSERT_TRUE(db.has_storage());
  ASSERT_NE(db.disk(), nullptr);
  ir::Query q;
  q.terms = {3, 50};
  ir::SearchOptions opts;
  ir::SearchResult r;
  ASSERT_TRUE(db.index()->EvictAll().ok());
  ASSERT_TRUE(db.Search(q, ir::RunType::kBm25TCM, opts, &r).ok());
  EXPECT_GT(db.buffer_stats().misses, 0u);
  EXPECT_GT(db.disk()->seeks(), 0u);
  EXPECT_GT(r.stats.windows_decoded, 0u);
}

// ---------------------------------------------------------------------------
// Randomized eviction-schedule stress: 10K mixed Search() calls at a tiny
// page budget must be bit-identical to the all-hot oracle (pool = ∞).
// ---------------------------------------------------------------------------

TEST(EvictionStress, TinyPoolBitIdenticalToAllHotOracle) {
  ir::CorpusOptions copts = SmallGeneratedOptions();
  copts.num_docs = 600;
  copts.vocab_size = 900;
  copts.num_topics = 6;
  copts.relevant_docs_per_topic = 30;
  ir::Corpus corpus;
  ASSERT_TRUE(ir::Corpus::Generate(copts, &corpus).ok());
  const std::string dir = FreshDir("stress");

  // All-hot oracle: pool big enough to never evict.
  ir::InvertedIndex hot_index;
  ir::BuildStats bstats;
  StorageOptions hot_opts;
  hot_opts.pool_bytes = 1ull << 30;
  hot_opts.page_bytes = 4096;
  ASSERT_TRUE(
      hot_index.BuildFromCorpus(corpus, dir, &bstats, hot_opts).ok());

  // Stressed pool: 6 KB across 512-byte pages — far below any query's
  // working set, so the schedule constantly evicts mid-query.
  ir::InvertedIndex cold_index;
  StorageOptions tiny_opts;
  tiny_opts.pool_bytes = 6 * 1024;
  tiny_opts.page_bytes = 512;
  ASSERT_TRUE(
      cold_index.BuildFromCorpus(corpus, dir, &bstats, tiny_opts).ok());
  EXPECT_TRUE(bstats.reused_files);

  ir::SearchEngine hot(&hot_index), cold(&cold_index);
  const ir::RunType types[] = {ir::RunType::kBm25T, ir::RunType::kBm25TC,
                               ir::RunType::kBm25TCM,
                               ir::RunType::kBm25TCMQ8};
  Rng rng(20070601);
  uint64_t evictions_seen = 0;
  for (int call = 0; call < 10000; ++call) {
    ir::Query q;
    const uint32_t n_terms = 1 + static_cast<uint32_t>(rng.NextBounded(4));
    for (uint32_t i = 0; i < n_terms; ++i) {
      q.terms.push_back(
          static_cast<uint32_t>(rng.NextBounded(copts.vocab_size)));
    }
    ir::SearchOptions opts;
    opts.k = 1 + static_cast<uint32_t>(rng.NextBounded(10));
    opts.vector_size = 1u << (4 + rng.NextBounded(7));  // 16 .. 1024
    const ir::RunType type = types[rng.NextBounded(4)];
    // Occasionally hard-reset the stressed pool mid-schedule.
    if (rng.NextBounded(50) == 0) {
      ASSERT_TRUE(cold_index.EvictAll().ok());
    }
    ir::SearchResult want, got;
    ASSERT_TRUE(hot.Search(q, type, opts, &want).ok()) << "call " << call;
    ASSERT_TRUE(cold.Search(q, type, opts, &got).ok()) << "call " << call;
    // Bit-identical: same docids, same score bits, same match counts.
    ASSERT_EQ(got.docids, want.docids) << "call " << call;
    ASSERT_EQ(got.scores.size(), want.scores.size());
    if (!got.scores.empty()) {
      ASSERT_EQ(0, std::memcmp(got.scores.data(), want.scores.data(),
                               got.scores.size() * sizeof(float)))
          << "call " << call;
    }
    ASSERT_EQ(got.num_matches, want.num_matches) << "call " << call;
    ASSERT_EQ(got.used_second_pass, want.used_second_pass);
    evictions_seen = cold_index.buffer_manager()->stats().evictions;
  }
  // The schedule actually exercised eviction pressure, massively.
  EXPECT_GT(evictions_seen, 10000u);
  EXPECT_EQ(hot_index.buffer_manager()->stats().evictions, 0u);
}

}  // namespace
}  // namespace x100ir::storage
