// Round-trip and range-decode tests for the PFOR / PFOR-DELTA / PDICT block
// codecs across bit widths, exception rates, and awkward block lengths; the
// skip cursor over resident blocks, and its counter partition over every
// window source; the streaming encoders' byte identity with the
// array-based oracle (reference.h) and their memory bound, measured by a
// counting allocator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "compress/block_layout.h"
#include "compress/codec.h"
#include "compress/pdict.h"
#include "compress/skip_cursor.h"
#include "compress/unpack.h"
#include "compress/pfor.h"
#include "compress/pfor_delta.h"
#include "ir/index_meta.h"
#include "storage/buffer_manager.h"
#include "storage/column_reader.h"

#include "counting_allocator.h"
#include "reference.h"
#include "test_util.h"

namespace x100ir::compress {
namespace {

std::vector<int32_t> MakeData(uint32_t n, int bits, double exc_rate,
                              uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> v(n);
  const uint32_t max_code = bits >= 31 ? 0x7FFFFFFFu : (1u << bits) - 1;
  for (auto& x : v) {
    if (rng.NextBernoulli(exc_rate)) {
      x = static_cast<int32_t>(max_code) +
          1 + static_cast<int32_t>(rng.NextBounded(1 << 20));
    } else {
      x = static_cast<int32_t>(rng.NextBounded(max_code));
    }
  }
  return v;
}

std::vector<int32_t> MakeSorted(uint32_t n, uint64_t seed,
                                uint32_t max_gap = 30) {
  Rng rng(seed);
  std::vector<int32_t> v(n);
  int32_t cur = 0;
  for (auto& x : v) {
    cur += 1 + static_cast<int32_t>(rng.NextBounded(max_gap));
    x = cur;
  }
  return v;
}

std::vector<int32_t> RoundTrip(const std::vector<int32_t>& values,
                               const EncodeOptions& opts,
                               Status (*encode)(const int32_t*, uint32_t,
                                                const EncodeOptions&,
                                                std::vector<uint8_t>*,
                                                BlockStats*),
                               BlockStats* stats = nullptr) {
  std::vector<uint8_t> block;
  Status s = encode(values.data(), static_cast<uint32_t>(values.size()), opts,
                    &block, stats);
  EXPECT_TRUE(s.ok()) << s.ToString();
  BlockDecoder dec;
  s = dec.Init(block.data(), block.size());
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(dec.n(), values.size());
  std::vector<int32_t> out(values.size());
  dec.DecodeAll(out.data());
  return out;
}

TEST(Pfor, RoundTripAllBitWidths) {
  for (int bits = 1; bits <= 30; ++bits) {
    auto values = MakeData(5000, bits, 0.01, 100 + bits);
    EncodeOptions opts;
    opts.bit_width = bits;
    auto out = RoundTrip(values, opts, &PforEncode);
    ASSERT_EQ(out, values) << "bit width " << bits;
  }
}

TEST(Pfor, RoundTripExceptionRates) {
  for (double rate : {0.0, 0.01, 0.5, 1.0}) {
    for (int bits : {4, 8, 16}) {
      auto values = MakeData(4096, bits, rate, 7);
      EncodeOptions opts;
      opts.bit_width = bits;
      // Pin base = 0 so the requested exception rate is the actual one
      // (otherwise FOR re-centers on min(values) and absorbs outliers).
      opts.force_base = true;
      BlockStats stats;
      auto out = RoundTrip(values, opts, &PforEncode, &stats);
      ASSERT_EQ(out, values) << "rate " << rate << " bits " << bits;
      if (rate == 0.0) {
        EXPECT_EQ(stats.n_compulsory_exceptions, 0u);
        EXPECT_EQ(stats.n_dense_windows, 0u);
      }
      if (rate == 1.0) {
        // Every window is all-exceptions, so the encoder stores them raw
        // (dense) — the block must stay near 4 bytes/value, not the ~12 a
        // fully patched window would cost.
        EXPECT_EQ(stats.n_dense_windows, 4096u / kEntryPointStride);
        EXPECT_LT(stats.BitsPerValue(), 36.0);
      }
    }
  }
}

TEST(Pfor, EmptyBlock) {
  std::vector<int32_t> values;
  EncodeOptions opts;
  opts.bit_width = 8;
  auto out = RoundTrip(values, opts, &PforEncode);
  EXPECT_TRUE(out.empty());
}

TEST(Pfor, SingleValue) {
  for (int32_t v : {0, 1, 255, 1 << 20, -5}) {
    std::vector<int32_t> values = {v};
    EncodeOptions opts;
    opts.bit_width = 8;
    opts.force_base = true;
    auto out = RoundTrip(values, opts, &PforEncode);
    ASSERT_EQ(out, values) << "value " << v;
  }
}

TEST(Pfor, NonMultipleOf128Lengths) {
  for (uint32_t n : {1u, 127u, 128u, 129u, 1000u, 4095u}) {
    auto values = MakeData(n, 8, 0.1, n);
    EncodeOptions opts;
    opts.bit_width = 8;
    auto out = RoundTrip(values, opts, &PforEncode);
    ASSERT_EQ(out, values) << "n = " << n;
  }
}

TEST(Pfor, AutoBitWidthSelection) {
  // Mostly 6-bit values with rare large outliers: auto selection should
  // land near 6 bits, not 30.
  auto values = MakeData(1 << 16, 6, 0.005, 11);
  EncodeOptions opts;
  opts.bit_width = 0;
  BlockStats stats;
  auto out = RoundTrip(values, opts, &PforEncode, &stats);
  ASSERT_EQ(out, values);
  EXPECT_GE(stats.bit_width, 4);
  EXPECT_LE(stats.bit_width, 10);
  EXPECT_LT(stats.BitsPerValue(), 12.0);
}

TEST(Pfor, FrameOfReferenceBase) {
  // Values clustered near 1e6: FOR base should make them 4-bit encodable.
  Rng rng(13);
  std::vector<int32_t> values(2000);
  for (auto& v : values) {
    v = 1000000 + static_cast<int32_t>(rng.NextBounded(14));
  }
  EncodeOptions opts;
  opts.bit_width = 4;
  BlockStats stats;
  auto out = RoundTrip(values, opts, &PforEncode, &stats);
  ASSERT_EQ(out, values);
  EXPECT_EQ(stats.n_exceptions, 0u);
}

TEST(Pfor, NegativeValuesBecomeExceptionsWithForcedBase) {
  std::vector<int32_t> values = {5, -1, 200, -1000000, 17, 3};
  EncodeOptions opts;
  opts.bit_width = 8;
  opts.force_base = true;
  BlockStats stats;
  auto out = RoundTrip(values, opts, &PforEncode, &stats);
  ASSERT_EQ(out, values);
  EXPECT_GE(stats.n_exceptions, 2u);
}

TEST(Pfor, NaiveLayoutRoundTrip) {
  for (double rate : {0.0, 0.01, 0.5, 1.0}) {
    auto values = MakeData(4096, 8, rate, 23);
    EncodeOptions opts;
    opts.bit_width = 8;
    opts.naive_layout = true;
    opts.force_base = true;
    std::vector<uint8_t> block;
    ASSERT_TRUE(PforEncode(values.data(), 4096, opts, &block, nullptr).ok());
    BlockDecoder dec;
    ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
    EXPECT_TRUE(dec.naive_layout());
    std::vector<int32_t> out(values.size());
    dec.DecodeNaive(out.data());
    ASSERT_EQ(out, values) << "rate " << rate;
    // DecodeAll must agree on naive blocks.
    std::vector<int32_t> out2(values.size());
    dec.DecodeAll(out2.data());
    ASSERT_EQ(out2, values);
  }
}

TEST(Pfor, NaiveSentinelValueIsException) {
  // The all-ones codeword is reserved in the naive layout, so a value equal
  // to it must round-trip through the exception section.
  std::vector<int32_t> values = {0, 255, 254, 255, 1};
  EncodeOptions opts;
  opts.bit_width = 8;
  opts.naive_layout = true;
  opts.force_base = true;
  BlockStats stats;
  auto out = RoundTrip(values, opts, &PforEncode, &stats);
  ASSERT_EQ(out, values);
  EXPECT_EQ(stats.n_exceptions, 2u);
}

TEST(Pfor, CompulsoryExceptionsAtSmallWidths) {
  // b=2: links reach at most 4 positions, so sparse exceptions force
  // compulsory intermediates — and the block must still round-trip.
  Rng rng(31);
  std::vector<int32_t> values(2048);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = i % 97 == 0 ? 1000 : static_cast<int32_t>(rng.NextBounded(4));
  }
  EncodeOptions opts;
  opts.bit_width = 2;
  opts.force_base = true;
  BlockStats stats;
  auto out = RoundTrip(values, opts, &PforEncode, &stats);
  ASSERT_EQ(out, values);
  EXPECT_GT(stats.n_compulsory_exceptions, 0u);
}

TEST(Pfor, RangeDecodeMatchesDecodeAll) {
  auto values = MakeData(10000, 8, 0.05, 41);
  EncodeOptions opts;
  opts.bit_width = 8;
  std::vector<uint8_t> block;
  ASSERT_TRUE(PforEncode(values.data(), 10000, opts, &block, nullptr).ok());
  BlockDecoder dec;
  ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
  Rng rng(43);
  for (int trial = 0; trial < 100; ++trial) {
    const auto pos = static_cast<uint32_t>(rng.NextBounded(10000));
    const auto len =
        static_cast<uint32_t>(1 + rng.NextBounded(10000 - pos));
    std::vector<int32_t> out(len, -12345);
    dec.Decode(pos, len, out.data());
    for (uint32_t i = 0; i < len; ++i) {
      ASSERT_EQ(out[i], values[pos + i])
          << "pos " << pos << " len " << len << " i " << i;
    }
  }
}

TEST(Pfor, RangeDecodeClampsOutOfRange) {
  auto values = MakeData(300, 8, 0.0, 47);
  EncodeOptions opts;
  opts.bit_width = 8;
  std::vector<uint8_t> block;
  ASSERT_TRUE(PforEncode(values.data(), 300, opts, &block, nullptr).ok());
  BlockDecoder dec;
  ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
  std::vector<int32_t> out(300, -1);
  dec.Decode(290, 100, out.data());  // only 10 values exist
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[i], values[290 + i]);
  EXPECT_EQ(out[10], -1);
  dec.Decode(5000, 10, out.data());  // fully out of range: no write
  EXPECT_EQ(out[10], -1);
}

TEST(Pfor, ExceptionMaskMatchesData) {
  for (bool naive : {false, true}) {
    EncodeOptions opts;
    opts.bit_width = 8;
    opts.naive_layout = naive;
    opts.force_base = true;
    // 10% exceptions: low enough that no window trips the dense escape
    // (dense windows store no exceptions to flag).
    auto values = MakeData(1000, 8, 0.1, 53);
    std::vector<uint8_t> block;
    ASSERT_TRUE(PforEncode(values.data(), 1000, opts, &block, nullptr).ok());
    BlockDecoder dec;
    ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
    std::vector<bool> mask;
    dec.ExceptionMask(&mask);
    ASSERT_EQ(mask.size(), values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      if (values[i] > 255) {
        // Natural exceptions must always be flagged (the patched layout may
        // additionally flag compulsory ones, but not at b=8).
        EXPECT_TRUE(mask[i]) << (naive ? "naive" : "patched") << " i=" << i;
      } else if (!naive) {
        EXPECT_FALSE(mask[i]) << "patched i=" << i;
      }
    }
  }
}

TEST(Pfor, InvalidArgumentsRejected) {
  std::vector<int32_t> values = {1, 2, 3};
  std::vector<uint8_t> block;
  EncodeOptions opts;
  opts.bit_width = 31;  // > kMaxBitWidth
  EXPECT_FALSE(PforEncode(values.data(), 3, opts, &block, nullptr).ok());
  opts.bit_width = -3;
  EXPECT_FALSE(PforEncode(values.data(), 3, opts, &block, nullptr).ok());
  opts.bit_width = 8;
  ASSERT_TRUE(PforEncode(values.data(), 3, opts, &block, nullptr).ok());
  BlockDecoder dec;
  EXPECT_FALSE(dec.Init(block.data(), 4).ok());  // truncated
  block[0] ^= 0xFF;                              // corrupt magic
  EXPECT_FALSE(dec.Init(block.data(), block.size()).ok());
}

TEST(Codec, InitRejectsCraftedHeaders) {
  // A header whose value count implies far more entry points than the
  // block can hold must not pass Init (it would read out of bounds).
  std::vector<int32_t> values(300, 7);
  std::vector<uint8_t> block;
  EncodeOptions opts;
  opts.bit_width = 8;
  ASSERT_TRUE(PforEncode(values.data(), 300, opts, &block, nullptr).ok());
  auto corrupt = [&](size_t offset, uint32_t v) {
    std::vector<uint8_t> bad = block;
    std::memcpy(bad.data() + offset, &v, 4);
    BlockDecoder dec;
    return dec.Init(bad.data(), bad.size());
  };
  EXPECT_FALSE(corrupt(8, 0x40000000u).ok());   // n blown up
  EXPECT_FALSE(corrupt(32, 44u).ok());          // code_offset into entries
  EXPECT_FALSE(corrupt(16, 0xFFFFFFu).ok());    // n_exceptions blown up
  // Second entry point's payload_off bent to alias the first window:
  // DecodeAll's batched unpack assumes canonical back-to-back payloads.
  EXPECT_FALSE(corrupt(40 + 16 + 12, 0u).ok());
  EXPECT_FALSE(corrupt(36, 41u).ok());  // exc_offset misaligned
}

TEST(Codec, ValidateCatchesCorruptExceptionRecords) {
  auto values = MakeData(1000, 8, 0.1, 131);
  std::vector<uint8_t> block;
  EncodeOptions opts;
  opts.bit_width = 8;
  opts.force_base = true;
  BlockStats stats;
  ASSERT_TRUE(PforEncode(values.data(), 1000, opts, &block, &stats).ok());
  ASSERT_GT(stats.n_exceptions, 0u);
  BlockDecoder dec;
  ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
  EXPECT_TRUE(dec.Validate().ok());
  // Smash the first record's position to point far outside the block's
  // value range: Validate must flag what DecodeAll would have turned into
  // an out-of-bounds write.
  const uint32_t huge = 1u << 30;
  std::memcpy(block.data() + block.size() - 8 /*pad*/ -
                  8ull * stats.n_exceptions + 4,
              &huge, 4);
  ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
  EXPECT_FALSE(dec.Validate().ok());
}

TEST(Codec, ValidateCatchesForgedNaiveSentinels) {
  // A naive block whose codewords claim more exceptions than there are
  // records would read past the exceptions section during decode.
  std::vector<int32_t> values(256, 3);
  std::vector<uint8_t> block;
  EncodeOptions opts;
  opts.bit_width = 8;
  opts.naive_layout = true;
  opts.force_base = true;
  ASSERT_TRUE(PforEncode(values.data(), 256, opts, &block, nullptr).ok());
  BlockDecoder dec;
  ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
  EXPECT_TRUE(dec.Validate().ok());
  // Flip one codeword to the all-ones sentinel without adding a record.
  const size_t code_offset = 40 + 2 * 16;  // header + 2 entry points
  block[code_offset] = 0xFF;
  ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
  EXPECT_FALSE(dec.Validate().ok());
}

TEST(Pdict, RejectsOutOfRangeBitWidth) {
  std::vector<int32_t> values = {1, 2, 3};
  std::vector<uint8_t> block;
  EncodeOptions opts;
  opts.bit_width = -3;
  EXPECT_FALSE(PdictEncode(values.data(), 3, opts, &block, nullptr).ok());
  opts.bit_width = 21;  // > kMaxDictBitWidth
  EXPECT_FALSE(PdictEncode(values.data(), 3, opts, &block, nullptr).ok());
}

TEST(PforDelta, RoundTripSortedDocids) {
  for (int bits : {0, 4, 8, 16}) {
    auto docids = MakeSorted(20000, 61 + bits);
    EncodeOptions opts;
    opts.bit_width = bits;
    auto out = RoundTrip(docids, opts, &PforDeltaEncode);
    ASSERT_EQ(out, docids) << "bits " << bits;
  }
}

TEST(PforDelta, RoundTripAllBitWidths) {
  for (int bits = 1; bits <= 30; ++bits) {
    auto docids = MakeSorted(3000, 200 + bits, /*max_gap=*/1u << (bits / 2));
    EncodeOptions opts;
    opts.bit_width = bits;
    auto out = RoundTrip(docids, opts, &PforDeltaEncode);
    ASSERT_EQ(out, docids) << "bits " << bits;
  }
}

TEST(PforDelta, AwkwardLengths) {
  for (uint32_t n : {0u, 1u, 127u, 129u, 777u}) {
    auto docids = MakeSorted(n, 71 + n);
    EncodeOptions opts;
    opts.bit_width = 8;
    auto out = RoundTrip(docids, opts, &PforDeltaEncode);
    ASSERT_EQ(out, docids) << "n = " << n;
  }
}

TEST(PforDelta, RangeDecodeFromMidBlock) {
  auto docids = MakeSorted(50000, 73);
  EncodeOptions opts;
  opts.bit_width = 8;
  std::vector<uint8_t> block;
  ASSERT_TRUE(
      PforDeltaEncode(docids.data(), 50000, opts, &block, nullptr).ok());
  BlockDecoder dec;
  ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
  Rng rng(79);
  for (int trial = 0; trial < 100; ++trial) {
    const auto pos = static_cast<uint32_t>(rng.NextBounded(50000));
    const auto len =
        static_cast<uint32_t>(1 + rng.NextBounded(
                                      std::min<uint64_t>(2048, 50000 - pos)));
    std::vector<int32_t> out(len);
    dec.Decode(pos, len, out.data());
    for (uint32_t i = 0; i < len; ++i) {
      ASSERT_EQ(out[i], docids[pos + i]) << "pos " << pos << " len " << len;
    }
  }
}

TEST(PforDelta, LargeGapsBecomeExceptions) {
  // A few huge docid jumps among small gaps: deltas overflow b bits and
  // must be patched.
  auto docids = MakeSorted(5000, 83);
  for (size_t i = 500; i < docids.size(); i += 500) {
    for (size_t j = i; j < docids.size(); ++j) docids[j] += 1 << 22;
  }
  EncodeOptions opts;
  opts.bit_width = 8;
  BlockStats stats;
  auto out = RoundTrip(docids, opts, &PforDeltaEncode, &stats);
  ASSERT_EQ(out, docids);
  EXPECT_GE(stats.n_exceptions, 9u);
}

TEST(Pdict, RoundTripSmallDictionary) {
  Rng rng(89);
  std::vector<int32_t> values(10000);
  for (auto& v : values) {
    v = static_cast<int32_t>(rng.NextBounded(64)) * 9973;
  }
  EncodeOptions opts;
  BlockStats stats;
  auto out = RoundTrip(values, opts, &PdictEncode, &stats);
  ASSERT_EQ(out, values);
  EXPECT_EQ(stats.bit_width, 6);
  EXPECT_EQ(stats.n_exceptions, 0u);
}

TEST(Pdict, OverflowingDictionaryPatchesExceptions) {
  // 2-bit dictionary over values with 20 distinct codes: the 4 most
  // frequent values stay in the dictionary, the tail gets patched.
  Rng rng(97);
  std::vector<int32_t> values(8000);
  for (auto& v : values) {
    // Zipf-ish skew: favor small codes.
    uint32_t r = static_cast<uint32_t>(rng.NextBounded(100));
    v = static_cast<int32_t>(r < 80 ? r % 4 : r % 20) * 31 - 7;
  }
  EncodeOptions opts;
  opts.bit_width = 2;
  BlockStats stats;
  auto out = RoundTrip(values, opts, &PdictEncode, &stats);
  ASSERT_EQ(out, values);
  EXPECT_GT(stats.n_exceptions, 0u);
  EXPECT_LT(stats.n_exceptions, 4000u);  // the skewed head stays dictionary
}

TEST(Pdict, AwkwardLengthsAndRange) {
  Rng rng(101);
  std::vector<int32_t> values(1337);
  for (auto& v : values) {
    v = static_cast<int32_t>(rng.NextBounded(10)) - 5;
  }
  EncodeOptions opts;
  std::vector<uint8_t> block;
  ASSERT_TRUE(PdictEncode(values.data(), 1337, opts, &block, nullptr).ok());
  BlockDecoder dec;
  ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
  std::vector<int32_t> all(values.size());
  dec.DecodeAll(all.data());
  ASSERT_EQ(all, values);
  std::vector<int32_t> window(100);
  dec.Decode(640, 100, window.data());
  for (int i = 0; i < 100; ++i) ASSERT_EQ(window[i], values[640 + i]);
}

TEST(Pdict, RejectsNaiveLayout) {
  std::vector<int32_t> values = {1, 2, 3};
  std::vector<uint8_t> block;
  EncodeOptions opts;
  opts.naive_layout = true;
  EXPECT_FALSE(PdictEncode(values.data(), 3, opts, &block, nullptr).ok());
}

TEST(Pfor, DenseWindowsNeverLoseToRaw) {
  // Sweep exception rates; compressed size must never exceed raw by more
  // than the fixed metadata (header + entry points), because high-exception
  // windows fall back to dense storage.
  for (double rate : {0.6, 0.8, 0.95, 1.0}) {
    auto values = MakeData(10000, 8, rate, 111);
    EncodeOptions opts;
    opts.bit_width = 8;
    opts.force_base = true;
    BlockStats stats;
    auto out = RoundTrip(values, opts, &PforEncode, &stats);
    ASSERT_EQ(out, values) << "rate " << rate;
    EXPECT_GT(stats.n_dense_windows, 0u) << "rate " << rate;
    const size_t raw = 4u * 10000;
    const size_t metadata =
        sizeof(uint32_t) * 10 + (10000 / kEntryPointStride + 1) * 16 + 64;
    EXPECT_LE(stats.compressed_bytes, raw + metadata) << "rate " << rate;
  }
}

TEST(Pfor, DenseWindowRangeDecode) {
  // Mixed dense/patched block: range decodes crossing dense windows must
  // still match DecodeAll.
  Rng rng(113);
  std::vector<int32_t> values(5000);
  for (size_t i = 0; i < values.size(); ++i) {
    // Alternate stretches of lightly-excepted 8-bit data (stays patched)
    // and exception-heavy data (goes dense).
    const bool heavy = (i / 512) % 2 == 1;
    values[i] = rng.NextBernoulli(heavy ? 0.9 : 0.05)
                    ? 100000 + static_cast<int32_t>(rng.NextBounded(1000))
                    : static_cast<int32_t>(rng.NextBounded(200));
  }
  EncodeOptions opts;
  opts.bit_width = 8;
  opts.force_base = true;
  std::vector<uint8_t> block;
  BlockStats stats;
  ASSERT_TRUE(PforEncode(values.data(), 5000, opts, &block, &stats).ok());
  EXPECT_GT(stats.n_dense_windows, 0u);
  EXPECT_GT(stats.n_exceptions, 0u);  // patched windows coexist
  BlockDecoder dec;
  ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
  std::vector<int32_t> all(values.size());
  dec.DecodeAll(all.data());
  ASSERT_EQ(all, values);
  Rng trng(127);
  for (int trial = 0; trial < 50; ++trial) {
    const auto pos = static_cast<uint32_t>(trng.NextBounded(5000));
    const auto len = static_cast<uint32_t>(1 + trng.NextBounded(5000 - pos));
    std::vector<int32_t> window(len);
    dec.Decode(pos, len, window.data());
    for (uint32_t i = 0; i < len; ++i) {
      ASSERT_EQ(window[i], values[pos + i]) << "pos " << pos << " len " << len;
    }
  }
}

TEST(Codec, CompressionActuallyCompresses) {
  // 60k 8-bit-ish values, 1% exceptions: the block must be far below the
  // 4-bytes-per-value raw footprint (the §3.3 story).
  auto values = MakeData(1 << 16, 8, 0.01, 103);
  EncodeOptions opts;
  opts.bit_width = 8;
  BlockStats stats;
  std::vector<uint8_t> block;
  ASSERT_TRUE(PforEncode(values.data(), 1 << 16, opts, &block, &stats).ok());
  EXPECT_LT(stats.BitsPerValue(), 10.0);
  EXPECT_EQ(stats.compressed_bytes, block.size());
}

TEST(Codec, RangeDecodeHostileEdges) {
  // Hostile-argument regression tests for Decode(pos, len): len == 0,
  // pos == n exactly, pos far beyond n, and pos + len wrapping uint32.
  // None of these may write outside the decoded span.
  auto values = MakeData(300, 8, 0.05, 211);
  EncodeOptions opts;
  opts.bit_width = 8;
  std::vector<uint8_t> block;
  ASSERT_TRUE(PforEncode(values.data(), 300, opts, &block, nullptr).ok());
  BlockDecoder dec;
  ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
  constexpr uint32_t kMax = std::numeric_limits<uint32_t>::max();

  std::vector<int32_t> out(301, -7);
  dec.Decode(0, 0, out.data());    // len == 0: no write
  dec.Decode(150, 0, out.data());  // len == 0 mid-block: no write
  dec.Decode(300, 1, out.data());  // pos == n exactly: no write
  dec.Decode(300, kMax, out.data());
  dec.Decode(kMax, kMax, out.data());  // pos and pos+len both out of range
  for (int32_t v : out) ASSERT_EQ(v, -7);

  // pos + len wraps uint32 (299 + kMax == 298 in 32-bit arithmetic): the
  // clamp must be computed in 64-bit, yielding exactly [299, 300).
  dec.Decode(299, kMax, out.data());
  EXPECT_EQ(out[0], values[299]);
  EXPECT_EQ(out[1], -7);

  // Wrap-around with a multi-window remainder: decodes [100, 300).
  std::fill(out.begin(), out.end(), -7);
  dec.Decode(100, kMax - 3, out.data());
  for (uint32_t i = 0; i < 200; ++i) ASSERT_EQ(out[i], values[100 + i]) << i;
  EXPECT_EQ(out[200], -7);

  // Empty block: every range is out of range.
  std::vector<uint8_t> empty_block;
  ASSERT_TRUE(PforEncode(nullptr, 0, opts, &empty_block, nullptr).ok());
  BlockDecoder empty_dec;
  ASSERT_TRUE(empty_dec.Init(empty_block.data(), empty_block.size()).ok());
  std::fill(out.begin(), out.end(), -7);
  empty_dec.Decode(0, 5, out.data());
  empty_dec.Decode(0, kMax, out.data());
  EXPECT_EQ(out[0], -7);
}

TEST(Codec, InitRejectsDeadDictSectionOnNonPdict) {
  // A crafted PFOR block can carry a bounds-consistent dictionary section
  // (payload offsets are relative to code_offset, so shifting the payload
  // right keeps every other check green). Before the fix Init accepted it
  // and silently ignored the section; fuzzed payloads must not be able to
  // smuggle unvalidated bytes, so Init now rejects dict_offset != 0 for
  // PFOR / PFOR-DELTA.
  std::vector<int32_t> values(200, 7);
  std::vector<uint8_t> block;
  EncodeOptions opts;
  opts.bit_width = 8;
  ASSERT_TRUE(PforEncode(values.data(), 200, opts, &block, nullptr).ok());
  BlockDecoder dec;
  ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());

  // Splice a zeroed (4 << b)-byte dictionary between the entry points and
  // the payload, then patch dict/code/exc offsets to keep the block
  // self-consistent.
  const uint32_t entries_end = 40 + 2 * 16;  // header + 2 entry points
  const uint32_t dict_bytes = 4u << 8;
  std::vector<uint8_t> bad(block.begin(), block.begin() + entries_end);
  bad.insert(bad.end(), dict_bytes, 0);
  bad.insert(bad.end(), block.begin() + entries_end, block.end());
  auto patch_u32 = [&](size_t offset, uint32_t delta_or_value, bool add) {
    uint32_t v;
    std::memcpy(&v, bad.data() + offset, 4);
    v = add ? v + delta_or_value : delta_or_value;
    std::memcpy(bad.data() + offset, &v, 4);
  };
  patch_u32(28, entries_end, /*add=*/false);  // dict_offset
  patch_u32(32, dict_bytes, /*add=*/true);    // code_offset
  patch_u32(36, dict_bytes, /*add=*/true);    // exc_offset
  BlockDecoder bad_dec;
  Status s = bad_dec.Init(bad.data(), bad.size());
  EXPECT_FALSE(s.ok());

  // Sanity: a genuine PDICT block (which must carry a dictionary) still
  // passes Init.
  std::vector<uint8_t> pdict_block;
  EncodeOptions pdict_opts;
  ASSERT_TRUE(
      PdictEncode(values.data(), 200, pdict_opts, &pdict_block, nullptr)
          .ok());
  BlockDecoder pdict_dec;
  EXPECT_TRUE(pdict_dec.Init(pdict_block.data(), pdict_block.size()).ok());
}

// Encoder round-trip at boundary shapes: n % 128 in {0, 1, 127} exercises
// the final-partial-window path, b in {1, 7, 8, 30} the byte-aligned and
// straddling codeword widths (30 leans hardest on the 8-byte
// unaligned-load pad), across all three schemes.
class BoundaryShapeTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, int, int>> {};

TEST_P(BoundaryShapeTest, RoundTripsAndRangeDecodes) {
  const uint32_t n = 384 + std::get<0>(GetParam());  // 384 / 385 / 511
  const int b = std::get<1>(GetParam());
  const int scheme = std::get<2>(GetParam());

  std::vector<int32_t> values;
  EncodeOptions opts;
  Status (*encode)(const int32_t*, uint32_t, const EncodeOptions&,
                   std::vector<uint8_t>*, BlockStats*) = nullptr;
  switch (scheme) {
    case 0:  // PFOR
      values = MakeData(n, b, 0.03, 1000 + n + b);
      opts.bit_width = b;
      opts.force_base = true;
      encode = &PforEncode;
      break;
    case 1: {  // PFOR-DELTA
      values = MakeSorted(n, 2000 + n + b,
                          /*max_gap=*/std::max(1u, 1u << (b / 2)));
      // A few huge jumps so exceptions hit the partial-window path too.
      for (size_t i = 100; i < values.size(); i += 150) {
        for (size_t j = i; j < values.size(); ++j) values[j] += 1 << 24;
      }
      opts.bit_width = b;
      encode = &PforDeltaEncode;
      break;
    }
    default: {  // PDICT: width capped at kMaxDictBitWidth
      const int bd = std::min(b, kMaxDictBitWidth);
      Rng rng(3000 + n + b);
      values.resize(n);
      // Slightly more distinct values than the dictionary holds, so small
      // widths exercise exception patching.
      const uint64_t distinct = (1ull << std::min(bd, 10)) + 3;
      for (auto& v : values) {
        v = static_cast<int32_t>(rng.NextBounded(distinct)) * 7 - 3;
      }
      opts.bit_width = bd;
      encode = &PdictEncode;
      break;
    }
  }

  std::vector<uint8_t> block;
  ASSERT_TRUE(
      encode(values.data(), n, opts, &block, nullptr).ok());
  BlockDecoder dec;
  ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
  ASSERT_TRUE(dec.Validate().ok());
  ASSERT_EQ(dec.n(), n);
  std::vector<int32_t> out(n);
  dec.DecodeAll(out.data());
  ASSERT_EQ(out, values);

  // Range decodes that isolate the final (possibly partial) window and the
  // very last value — the unaligned-load pad path.
  const uint32_t last_window_start = ((n - 1) / kEntryPointStride) *
                                     kEntryPointStride;
  const uint32_t wn = n - last_window_start;
  std::vector<int32_t> tail(wn);
  dec.Decode(last_window_start, wn, tail.data());
  for (uint32_t i = 0; i < wn; ++i) {
    ASSERT_EQ(tail[i], values[last_window_start + i]) << i;
  }
  int32_t last = 0;
  dec.Decode(n - 1, 1, &last);
  EXPECT_EQ(last, values[n - 1]);
}

std::string BoundaryShapeName(
    const ::testing::TestParamInfo<BoundaryShapeTest::ParamType>& info) {
  const int scheme = std::get<2>(info.param);
  const std::string name =
      scheme == 0 ? "Pfor" : scheme == 1 ? "PforDelta" : "Pdict";
  return name + "_n384p" + std::to_string(std::get<0>(info.param)) + "_b" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    EncoderBoundarySweep, BoundaryShapeTest,
    ::testing::Combine(::testing::Values(0u, 1u, 127u),
                       ::testing::Values(1, 7, 8, 30),
                       ::testing::Values(0, 1, 2)),
    BoundaryShapeName);

TEST(Codec, EntryPointStrideIsStable) {
  // The on-disk format and the skip granularity depend on this constant;
  // changing it is a format break.
  EXPECT_EQ(kEntryPointStride, 128u);
}

// ---------------------------------------------------------------------------
// SIMD LOOP1 unpack (PR 4): bit-exactness against the scalar kernels.
// ---------------------------------------------------------------------------

TEST(Codec, SimdUnpackBitExactSweep) {
  // On hosts without SIMD support both decodes run the scalar table and the
  // sweep degenerates to determinism; on SSE/NEON hosts it pins the shuffle
  // kernels (including their scalar tails at awkward lengths) to the scalar
  // ground truth across schemes and exception rates.
  ScopedSimdToggle guard;
  for (int b : {1, 4, 7, 8, 13, 16, 26, 30}) {
    for (bool delta : {false, true}) {
      // Delta exceptions are giant gaps; past b=16 their running sum would
      // overflow int32 at these lengths, so wide widths sweep PFOR only.
      if (delta && b > 16) continue;
      for (uint32_t n : {1u, 127u, 128u, 129u, 1023u, 4096u}) {
        for (double rate : {0.0, 0.05, 0.5}) {
          std::vector<int32_t> values;
          if (delta) {
            // Exceptions in the delta domain: occasional giant gaps.
            Rng rng(7'000 + b + n + static_cast<uint64_t>(rate * 100));
            values.resize(n);
            int32_t cur = 0;
            for (auto& x : values) {
              // Exception gaps stay small enough that 4096 of them cannot
              // overflow the running int32 value.
              cur += rng.NextBernoulli(rate)
                         ? (1 << b) + 1 +
                               static_cast<int32_t>(rng.NextBounded(1 << 10))
                         : 1 + static_cast<int32_t>(
                                   rng.NextBounded((1u << b) - 1));
              x = cur;
            }
          } else {
            values = MakeData(n, b, rate, 9'000 + b + n);
          }
          EncodeOptions opts;
          opts.bit_width = b;
          std::vector<uint8_t> block;
          const auto encode = delta ? &PforDeltaEncode : &PforEncode;
          ASSERT_TRUE(encode(values.data(), n, opts, &block, nullptr).ok());
          BlockDecoder dec;
          ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());

          std::vector<int32_t> simd_out(n), scalar_out(n);
          internal::SetSimdUnpackEnabled(true);
          dec.DecodeAll(simd_out.data());
          internal::SetSimdUnpackEnabled(false);
          dec.DecodeAll(scalar_out.data());
          ASSERT_EQ(simd_out, scalar_out)
              << "b=" << b << " delta=" << delta << " n=" << n
              << " rate=" << rate;
          ASSERT_EQ(simd_out, values);

          // Range decodes hit the per-window path with partial windows.
          Rng rng(31 + n);
          for (int rep = 0; rep < 8; ++rep) {
            const uint32_t pos =
                static_cast<uint32_t>(rng.NextBounded(n));
            const uint32_t len = 1 + static_cast<uint32_t>(
                                         rng.NextBounded(n - pos));
            std::vector<int32_t> a(len), s(len);
            internal::SetSimdUnpackEnabled(true);
            dec.Decode(pos, len, a.data());
            internal::SetSimdUnpackEnabled(false);
            dec.Decode(pos, len, s.data());
            ASSERT_EQ(a, s) << "b=" << b << " pos=" << pos << " len=" << len;
          }
        }
      }
    }
  }
}

TEST(Codec, Avx2UnpackAllWidthsBitExact) {
  // Direct kernel-level sweep: every width 1..kMaxBitWidth against the
  // scalar oracle on raw random bitstreams, at lengths chosen to hit zero
  // full groups, exact group boundaries, and partial tails (the SIMD
  // kernels' scalar resume). On hosts without AVX2 the dispatcher returns
  // the shuffle-table or scalar kernel and the sweep still pins agreement.
  ScopedSimdToggle guard;
  internal::SetSimdUnpackEnabled(true);
  Rng rng(0xA7C2);
  for (int b = 1; b <= kMaxBitWidth; ++b) {
    for (uint32_t n :
         {1u, 7u, 8u, 9u, 15u, 63u, 127u, 128u, 129u, 1024u, 1031u}) {
      // Codeword bytes plus the kBlockPadBytes slack every decode path
      // guarantees past the last codeword.
      std::vector<uint8_t> src((static_cast<uint64_t>(n) * b + 7) / 8 +
                               internal::kBlockPadBytes);
      for (auto& byte : src) {
        byte = static_cast<uint8_t>(rng.NextBounded(256));
      }
      const int32_t base =
          static_cast<int32_t>(rng.NextBounded(1u << 20)) - 17;
      std::vector<int32_t> got(n, -1), want(n, -2);
      internal::GetUnpackAdd(b)(src.data(), n, base, got.data());
      internal::ScalarUnpackAdd(b)(src.data(), n, base, want.data());
      ASSERT_EQ(got, want) << "b=" << b << " n=" << n;
    }
  }
}

TEST(Codec, PatchKernelBitExact) {
  // LOOP2 kernel agreement: unique positions (the block invariant) make
  // store order irrelevant, so the SIMD deinterleave must land the exact
  // same bytes as the scalar record loop, including the sub-quad tail.
  ScopedSimdToggle guard;
  internal::SetSimdUnpackEnabled(true);
  Rng rng(0x9E37);
  const uint32_t out_base = 256;
  const uint32_t window = 512;
  for (uint32_t count : {0u, 1u, 3u, 4u, 5u, 8u, 127u}) {
    std::vector<internal::ExceptionRecord> recs(count);
    std::vector<uint32_t> pos(window);
    for (uint32_t i = 0; i < window; ++i) pos[i] = out_base + i;
    for (uint32_t i = 0; i < count; ++i) {
      std::swap(pos[i],
                pos[i + static_cast<uint32_t>(rng.NextBounded(window - i))]);
      recs[i].pos = pos[i];
      recs[i].value = static_cast<int32_t>(rng.NextBounded(1u << 30)) - 5;
    }
    std::vector<int32_t> got(window, 0), want(window, 0);
    internal::GetPatch()(reinterpret_cast<const uint8_t*>(recs.data()), count,
                         out_base, got.data());
    internal::ScalarPatch()(reinterpret_cast<const uint8_t*>(recs.data()),
                            count, out_base, want.data());
    ASSERT_EQ(got, want) << count;
  }
}

// LOOP3 kernel agreement: the dispatched prefix sum against the scalar
// loop on every length from 0 to 128 (and past a window, where the AVX2
// kernel carries its running value across several 8-lane steps), over
// arbitrary int32 deltas and seeds, so the uint32 sum wraps both ways.
TEST(Codec, PrefixSumKernelBitExact) {
  ScopedSimdToggle guard;
  internal::SetSimdUnpackEnabled(true);
  Rng rng(0x5CA7);
  std::vector<uint32_t> lengths;
  for (uint32_t n = 0; n <= kEntryPointStride; ++n) lengths.push_back(n);
  for (uint32_t n : {129u, 1024u, 1031u}) lengths.push_back(n);
  for (const uint32_t n : lengths) {
    for (const int32_t acc : {0, -1, std::numeric_limits<int32_t>::max(),
                              std::numeric_limits<int32_t>::min()}) {
      std::vector<int32_t> got(n);
      for (auto& x : got) {
        x = static_cast<int32_t>(static_cast<uint32_t>(rng.Next()));
      }
      std::vector<int32_t> want = got;
      const int32_t got_end = internal::GetPrefixSum()(got.data(), n, acc);
      const int32_t want_end =
          internal::ScalarPrefixSum()(want.data(), n, acc);
      ASSERT_EQ(got, want) << "n=" << n << " acc=" << acc;
      ASSERT_EQ(got_end, want_end) << "n=" << n << " acc=" << acc;
    }
  }
}

// PFOR-DELTA windows of every length from 0 to 128, as a block's only
// window and as the partial window after a full one (a nonzero value
// base), decoded whole and per window with SIMD on and off. Values take
// deltas of both signs around zero or near either end of int32, so the
// uint32 running sum wraps. The small-delta blocks are packed at a forced
// 30 bits without exceptions (the first delta, the first value itself,
// must fit too), the others at 4 bits with exceptions: negative and
// 2^30-sized deltas.
TEST(Codec, SimdPrefixSumMatchesScalarOnEveryWindowLength) {
  ScopedSimdToggle guard;
  Rng rng(0xDE17A);
  const std::vector<int32_t> small_starts = {-3, -(1 << 29)};
  const std::vector<int32_t> large_starts = {
      std::numeric_limits<int32_t>::min() + 7,
      std::numeric_limits<int32_t>::max() - 7, -3};
  uint32_t with_exceptions = 0;
  for (uint32_t len = 0; len <= kEntryPointStride; ++len) {
    for (const uint32_t lead : {0u, kEntryPointStride}) {
      for (const bool exceptions : {false, true}) {
        for (const int32_t start :
             exceptions ? large_starts : small_starts) {
          const uint32_t n = lead + len;
          std::vector<int32_t> values(n);
          int64_t cur = start;
          for (auto& x : values) {
            int64_t d;
            if (!exceptions) {
              d = static_cast<int64_t>(rng.NextBounded(401)) - 200;
            } else if (rng.NextBernoulli(0.1)) {
              d = (int64_t{1} << 30) +
                  static_cast<int64_t>(rng.NextBounded(1000));
              if (rng.NextBernoulli(0.5)) d = -d;
            } else {
              d = static_cast<int64_t>(rng.NextBounded(16)) -
                  (rng.NextBernoulli(0.15) ? 16 : 0);
            }
            if (cur + d > std::numeric_limits<int32_t>::max() ||
                cur + d < std::numeric_limits<int32_t>::min()) {
              d = -d;
            }
            cur += d;
            x = static_cast<int32_t>(cur);
          }
          // A negative FOR base without exceptions (LOOP1's add wraps too);
          // base 0 with them, so negative deltas are exceptions.
          EncodeOptions opts;
          opts.bit_width = exceptions ? 4 : 30;
          opts.force_base = exceptions;
          std::vector<uint8_t> block;
          BlockStats stats;
          ASSERT_TRUE(
              PforDeltaEncode(values.data(), n, opts, &block, &stats).ok());
          if (!exceptions) {
            ASSERT_EQ(stats.n_exceptions, 0u);
          }
          with_exceptions += stats.n_exceptions > 0 ? 1 : 0;
          BlockDecoder dec;
          ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
          for (const bool simd : {true, false}) {
            internal::SetSimdUnpackEnabled(simd);
            std::vector<int32_t> all(n, 0), tail(len, 0);
            dec.DecodeAll(all.data());
            ASSERT_EQ(all, values) << "len=" << len << " lead=" << lead
                                   << " exceptions=" << exceptions
                                   << " simd=" << simd;
            dec.Decode(lead, len, tail.data());
            ASSERT_TRUE(std::equal(tail.begin(), tail.end(),
                                   values.begin() + lead))
                << "len=" << len << " lead=" << lead
                << " exceptions=" << exceptions << " simd=" << simd;
          }
        }
      }
    }
  }
  EXPECT_GT(with_exceptions, 2 * kEntryPointStride);
}

TEST(Codec, SimdDispatchReportsConsistently) {
  ScopedSimdToggle guard;
  internal::SetSimdUnpackEnabled(true);
  const internal::SimdLevel level = internal::ActiveSimdLevel();
  const bool host_has_simd = level != internal::SimdLevel::kScalar;
  for (int b : {4, 8, 16}) {
    EXPECT_EQ(internal::SimdUnpackAvailable(b), host_has_simd) << b;
    EXPECT_EQ(internal::GetUnpackAdd(b) != internal::ScalarUnpackAdd(b),
              host_has_simd)
        << b;
  }
  // The generic AVX2 kernels cover every width; the shuffle-table SSSE3 /
  // NEON kernels only the byte-friendly ones, so other widths fall back to
  // the scalar table there.
  const bool all_widths = level == internal::SimdLevel::kAvx2;
  for (int b : {1, 7, 15, 26, 30}) {
    EXPECT_EQ(internal::SimdUnpackAvailable(b), all_widths) << b;
    EXPECT_EQ(internal::GetUnpackAdd(b) != internal::ScalarUnpackAdd(b),
              all_widths)
        << b;
  }
  // The LOOP2 patch, LOOP3 prefix-sum and in-window lower-bound kernels
  // dispatch the same way.
  EXPECT_EQ(internal::GetPatch() != internal::ScalarPatch(), all_widths);
  EXPECT_EQ(internal::GetPrefixSum() != internal::ScalarPrefixSum(),
            all_widths);
  EXPECT_EQ(internal::GetLowerBound() != internal::ScalarLowerBound(),
            all_widths);
  internal::SetSimdUnpackEnabled(false);
  EXPECT_EQ(internal::ActiveSimdLevel(), internal::SimdLevel::kScalar);
  EXPECT_FALSE(internal::SimdUnpackAvailable(8));
  EXPECT_EQ(internal::GetUnpackAdd(8), internal::ScalarUnpackAdd(8));
  EXPECT_EQ(internal::GetPatch(), internal::ScalarPatch());
  EXPECT_EQ(internal::GetPrefixSum(), internal::ScalarPrefixSum());
  EXPECT_EQ(internal::GetLowerBound(), internal::ScalarLowerBound());
}

// ---------------------------------------------------------------------------
// SortedCursor / SkipTo: block-skipping scans, over the resident
// block source and over the plain-array source a write buffer's read uses.
// ---------------------------------------------------------------------------

// Builds a TD.docid-shaped column: `runs` concatenated ascending runs whose
// boundaries reset to small values (the per-term resets force_base turns
// into exceptions).
std::vector<int32_t> MakeRunColumn(const std::vector<uint32_t>& run_lens,
                                   uint64_t seed, uint32_t max_gap = 9) {
  Rng rng(seed);
  std::vector<int32_t> v;
  for (uint32_t len : run_lens) {
    int32_t cur = static_cast<int32_t>(rng.NextBounded(50));
    for (uint32_t i = 0; i < len; ++i) {
      cur += 1 + static_cast<int32_t>(rng.NextBounded(max_gap));
      v.push_back(cur);
    }
  }
  return v;
}

// Drives one cursor over [begin, end) with an ascending probe list and
// checks every landing against the linear-scan oracle on the full decode.
template <class Source>
void CheckCursorAgainstOracle(const Source& src,
                              const std::vector<int32_t>& full,
                              uint64_t begin, uint64_t end,
                              const std::vector<int32_t>& probes) {
  SortedCursor<Source> cur;
  ASSERT_TRUE(cur.Init(src, begin, end).ok());
  uint64_t opos = begin;
  for (int32_t t : probes) {
    while (opos < end && full[opos] < t) ++opos;
    const bool found = cur.SkipTo(t);
    ASSERT_EQ(found, opos < end) << "probe " << t;
    ASSERT_EQ(cur.AtEnd(), opos >= end);
    if (found) {
      ASSERT_EQ(cur.position(), opos) << "probe " << t;
      ASSERT_EQ(cur.value(), full[opos]) << "probe " << t;
    }
  }
}

void SkipCursorAgreesWithOracleAcrossHostileBoundaries() {
  // Shapes: run splits landing on/next to window boundaries, totals with
  // n % 128 in {0, 1, 127}, widths from compulsory-exception-riddled b=1
  // to exception-free b=30.
  const std::vector<std::vector<uint32_t>> shapes = {
      {256, 128, 384},        // n = 768 (0 mod 128), boundaries on windows
      {129, 127, 1},          // n = 257 (1 mod 128)
      {100, 27, 300, 84},     // n = 511 (127 mod 128)
      {1, 1, 126},            // tiny runs inside one window
      {640},                  // single run spanning 5 windows
  };
  for (const auto& shape : shapes) {
    const auto values = MakeRunColumn(shape, 42 + shape[0]);
    const uint32_t n = static_cast<uint32_t>(values.size());
    const auto check_runs = [&](const auto& src) {
      uint64_t begin = 0;
      for (uint32_t len : shape) {
        const uint64_t end = begin + len;
        // Probe script: every run value, its neighbors, and window-edge
        // positions — ascending, as the merge-join contract requires.
        std::vector<int32_t> probes;
        for (uint64_t p = begin; p < end; ++p) {
          probes.push_back(values[p] - 1);
          probes.push_back(values[p]);
          probes.push_back(values[p] + 1);
        }
        std::sort(probes.begin(), probes.end());
        CheckCursorAgainstOracle(src, values, begin, end, probes);
        // A second pass probing only past-the-end.
        CheckCursorAgainstOracle(src, values, begin, end,
                                 {values[end - 1], values[end - 1] + 1});
        begin = end;
      }
    };
    check_runs(ArrayWindows(values.data(), n));
    for (int b : {1, 7, 8, 16, 30}) {
      EncodeOptions opts;
      opts.bit_width = b;
      opts.force_base = true;
      std::vector<uint8_t> block;
      ASSERT_TRUE(
          PforDeltaEncode(values.data(), n, opts, &block, nullptr).ok());
      BlockDecoder dec;
      ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
      // Sanity: the decoder still round-trips this shape.
      std::vector<int32_t> out(n);
      dec.DecodeAll(out.data());
      ASSERT_EQ(out, values) << "b=" << b;
      check_runs(ResidentWindows(&dec));
    }
  }
}

TEST(SkipCursor, AgreesWithOracleAcrossHostileBoundaries) {
  ForEachDispatch(SkipCursorAgreesWithOracleAcrossHostileBoundaries);
}

void SkipCursorSequentialNextMatchesFullDecode() {
  const auto values = MakeRunColumn({500, 300, 200}, 99);
  EncodeOptions opts;
  opts.bit_width = 8;
  opts.force_base = true;
  std::vector<uint8_t> block;
  ASSERT_TRUE(PforDeltaEncode(values.data(),
                              static_cast<uint32_t>(values.size()), opts,
                              &block, nullptr)
                  .ok());
  BlockDecoder dec;
  ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
  const auto check = [&](const auto& src) {
    SortedCursor<std::decay_t<decltype(src)>> cur;
    ASSERT_TRUE(cur.Init(src, 500, 800).ok());
    for (uint64_t p = 500; p < 800; ++p) {
      ASSERT_FALSE(cur.AtEnd());
      ASSERT_EQ(cur.position(), p);
      ASSERT_EQ(cur.value(), values[p]);
      cur.Next();
    }
    ASSERT_TRUE(cur.AtEnd());
    // Sequential reads decode each window exactly once.
    EXPECT_EQ(cur.stats().windows_decoded, (800 + 127) / 128 - 500 / 128);
  };
  check(ResidentWindows(&dec));
  check(ArrayWindows(values.data(), values.size()));
}

TEST(SkipCursor, SequentialNextMatchesFullDecode) {
  ForEachDispatch(SkipCursorSequentialNextMatchesFullDecode);
}

void SkipCursorSkipsWindowsWithoutDecodingThem() {
  // A long sorted list probed at a handful of far-apart targets: the
  // cursor must decode only the windows it lands in, skipping the rest.
  const auto values = MakeSorted(128 * 100, 7);  // 100 windows
  EncodeOptions opts;
  opts.force_base = true;
  std::vector<uint8_t> block;
  ASSERT_TRUE(PforDeltaEncode(values.data(),
                              static_cast<uint32_t>(values.size()), opts,
                              &block, nullptr)
                  .ok());
  BlockDecoder dec;
  ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
  const auto check = [&](const auto& src) {
    SortedCursor<std::decay_t<decltype(src)>> cur;
    ASSERT_TRUE(cur.Init(src, 0, values.size()).ok());
    for (uint64_t p : {4000ull, 8000ull, 12700ull}) {
      ASSERT_TRUE(cur.SkipTo(values[p]));
      EXPECT_EQ(cur.position(), p);
    }
    EXPECT_EQ(cur.stats().windows_decoded, 3u);
    EXPECT_GT(cur.stats().windows_skipped, 90u);
  };
  check(ResidentWindows(&dec));
  check(ArrayWindows(values.data(), values.size()));
}

TEST(SkipCursor, SkipsWindowsWithoutDecodingThem) {
  ForEachDispatch(SkipCursorSkipsWindowsWithoutDecodingThem);
}

// The in-window lower bound on its own: the dispatched kernel against
// std::lower_bound over [from, end) of a window buffer whose slots outside
// that range hold values on the wrong side of the targets (INT32_MAX,
// INT32_MIN, or the two alternating), as a previous window's stale tail or
// another term's postings can. From slot 0, mid-window and 127; targets
// below the first value, equal to each value, between two values, and past
// the last.
void SkipCursorInWindowLowerBoundEdges() {
  constexpr uint32_t kStride = kEntryPointStride;
  constexpr int32_t kMin = std::numeric_limits<int32_t>::min();
  constexpr int32_t kMax = std::numeric_limits<int32_t>::max();
  alignas(32) int32_t vals[kStride];
  for (const int outside : {0, 1, 2}) {
    for (const uint32_t from : {0u, 1u, 63u, 64u, 127u}) {
      for (uint32_t end = from; end <= kStride; ++end) {
        for (uint32_t i = 0; i < kStride; ++i) {
          const int32_t stale =
              outside == 0 ? kMax : outside == 1 ? kMin : i % 2 ? kMax : kMin;
          vals[i] = i >= from && i < end ? static_cast<int32_t>(10 * i) + 5
                                         : stale;
        }
        std::vector<int32_t> targets = {kMin, kMax};
        for (uint32_t i = from; i < end; ++i) {
          targets.push_back(vals[i] - 1);  // below it / between two values
          targets.push_back(vals[i]);      // equal to it
          targets.push_back(vals[i] + 1);  // past it
        }
        for (const int32_t t : targets) {
          const uint32_t want = static_cast<uint32_t>(
              std::lower_bound(vals + from, vals + end, t) - vals);
          ASSERT_EQ(internal::GetLowerBound()(vals, from, end, t), want)
              << "from=" << from << " end=" << end << " target=" << t
              << " outside=" << outside;
        }
      }
    }
  }

  // Through the cursor: a column whose final window is partial, probed from
  // slot 0, mid-window and slot 127 of a window, then past the last value.
  // Before the partial window loads, the cursor's buffer holds a window of
  // larger values (another cursor's, over another column), so its stale
  // tail would match the last probe if the search read it; a second pass
  // leaves the column's own smaller values there.
  std::vector<int32_t> col(2 * kStride + 37);
  for (size_t i = 0; i < col.size(); ++i) {
    col[i] = static_cast<int32_t>(10 * i);
  }
  std::vector<int32_t> big(kStride, std::numeric_limits<int32_t>::max());
  const ArrayWindows src(col.data(), col.size());
  for (const bool stale_big : {true, false}) {
    SortedCursor<ArrayWindows> cur;
    if (stale_big) {
      ASSERT_TRUE(cur.Init(ArrayWindows(big.data(), big.size()), 0, kStride)
                      .ok());
      ASSERT_EQ(cur.value(), std::numeric_limits<int32_t>::max());
    }
    ASSERT_TRUE(cur.Init(src, 0, col.size()).ok());
    for (const uint32_t slot : {0u, 64u, 127u}) {
      ASSERT_TRUE(cur.SkipTo(col[kStride + slot] - 3));  // between
      EXPECT_EQ(cur.position(), kStride + slot);
      ASSERT_TRUE(cur.SkipTo(col[kStride + slot]));  // equal
      EXPECT_EQ(cur.position(), kStride + slot);
    }
    const uint64_t last = col.size() - 1;
    ASSERT_TRUE(cur.SkipTo(col[last - 1] + 1));  // into the partial window
    EXPECT_EQ(cur.position(), last);
    EXPECT_FALSE(cur.SkipTo(col[last] + 1));  // past the last value
    EXPECT_TRUE(cur.AtEnd());
  }
}

TEST(SkipCursor, InWindowLowerBoundEdges) {
  ForEachDispatch(SkipCursorInWindowLowerBoundEdges);
}

// Drives a SortedCursor<Source> over hostile sub-ranges of `values` with a
// seeded random mix of value skips (SkipTo, including the
// probe-past-everything exhaust path), Block-Max window rejects and bulk
// run loads until it exhausts, and checks that its three window counters
// partition the windows overlapping the range.
template <class Source>
void CheckSkipStatsPartition(const Source& src,
                             const std::vector<int32_t>& values,
                             const char* what) {
  const uint32_t n = static_cast<uint32_t>(values.size());
  const uint32_t ranges[][2] = {{0, n},         {1, n - 1}, {127, 129},
                                {128, 256},     {130, 131}, {3, 128 * 4 + 1},
                                {128 * 2, n}};
  Rng rng(0x5EED);
  for (const auto& range : ranges) {
    const uint32_t begin = range[0], end = range[1];
    for (int rep = 0; rep < 16; ++rep) {
      SortedCursor<Source> cur;
      ASSERT_TRUE(cur.Init(src, begin, end).ok());
      int32_t probe = values[begin];
      while (!cur.AtEnd()) {
        switch (rng.NextBounded(3)) {
          case 0:
            cur.SkipCurrentWindowBlockMax();
            break;
          case 1: {
            const auto rv = cur.CurrentRunView();
            ASSERT_LT(rv.lo, rv.hi) << what;
            probe = std::max(probe, rv.vals[rv.hi - 1]);
            cur.AdvanceTo(rv.win_base + rv.hi);
            break;
          }
          default: {
            probe += static_cast<int32_t>(rng.NextBounded(200));
            if (cur.SkipTo(probe)) {
              probe = std::max(probe, cur.value());
              cur.Next();
            }
            break;
          }
        }
      }
      const SkipStats st = cur.stats();
      const uint64_t overlapped = (end - 1) / 128 - begin / 128 + 1;
      ASSERT_EQ(st.windows_decoded + st.windows_skipped +
                    st.windows_blockmax_skipped,
                overlapped)
          << what << " range [" << begin << "," << end << ") rep " << rep
          << " decoded=" << st.windows_decoded
          << " skipped=" << st.windows_skipped
          << " blockmax=" << st.windows_blockmax_skipped;
    }
  }
}

// A column file (ir/index_meta.h layout) under the test temp dir.
std::string WriteColumnFile(const char* name, uint32_t encoding, uint64_t n,
                            const void* payload, size_t payload_bytes) {
  ir::ColumnFileHeader hdr;
  hdr.encoding = encoding;
  hdr.value_count = n;
  const std::string path =
      ::testing::TempDir() + "/x100ir_compress_" + name + ".col";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  EXPECT_EQ(std::fwrite(&hdr, sizeof(hdr), 1, f), 1u);
  EXPECT_EQ(std::fwrite(payload, payload_bytes, 1, f), 1u);
  std::fclose(f);
  return path;
}

TEST(Codec, SkipStatsPartitionExact) {
  // Counter-drift audit (DESIGN.md §12.4): at exhaustion,
  // windows_decoded + windows_skipped + windows_blockmax_skipped must equal
  // the number of 128-value windows overlapping [begin, end) exactly, for
  // the resident and array sources and for both pool-served sources (a
  // compressed and a raw column file of the same values). No single
  // counter is monotone in how aggressively the cursor's caller skips; only
  // the partition is invariant.
  const auto values = MakeSorted(5 * 128 + 57, 0xBEEF, 40);
  const uint32_t n = static_cast<uint32_t>(values.size());
  EncodeOptions opts;
  opts.force_base = true;
  std::vector<uint8_t> block;
  ASSERT_TRUE(PforDeltaEncode(values.data(), n, opts, &block, nullptr).ok());
  BlockDecoder dec;
  ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
  CheckSkipStatsPartition(ResidentWindows(&dec), values, "resident");
  if (HasFatalFailure()) return;
  CheckSkipStatsPartition(ArrayWindows(values.data(), n), values, "array");
  if (HasFatalFailure()) return;

  storage::SimulatedDisk disk;
  storage::BufferManager bm(1ull << 30, &disk, 512);
  storage::ColumnReader compressed, raw;
  ASSERT_TRUE(compressed
                  .Open(WriteColumnFile(
                            "partition_pfd",
                            ir::ColumnFileHeader::kCompressedBlock, n,
                            block.data(), block.size()),
                        &bm)
                  .ok());
  ASSERT_TRUE(raw.Open(WriteColumnFile("partition_raw",
                                       ir::ColumnFileHeader::kRawI32, n,
                                       values.data(), 4ull * n),
                       &bm)
                  .ok());
  Status latch;
  CheckSkipStatsPartition(storage::PoolWindows(&compressed, &latch), values,
                          "pool compressed");
  if (HasFatalFailure()) return;
  CheckSkipStatsPartition(storage::PoolWindows(&raw, &latch), values,
                          "pool raw");
  EXPECT_TRUE(latch.ok()) << latch.ToString();
}

void SkipCursorInitRejectsBadRangesAndSchemes() {
  const auto values = MakeSorted(1000, 3);
  std::vector<uint8_t> delta_block, pfor_block;
  EncodeOptions opts;
  opts.force_base = true;
  ASSERT_TRUE(PforDeltaEncode(values.data(), 1000, opts, &delta_block,
                              nullptr)
                  .ok());
  ASSERT_TRUE(PforEncode(values.data(), 1000, {}, &pfor_block, nullptr).ok());
  BlockDecoder delta_dec, pfor_dec;
  ASSERT_TRUE(delta_dec.Init(delta_block.data(), delta_block.size()).ok());
  ASSERT_TRUE(pfor_dec.Init(pfor_block.data(), pfor_block.size()).ok());

  SortedRangeCursor cur;
  EXPECT_FALSE(cur.Init(nullptr, 0, 0).ok());
  // PFOR blocks carry no window value bases: skipping would be wrong.
  EXPECT_FALSE(cur.Init(&pfor_dec, 0, 1000).ok());
  SortedCursor<ArrayWindows> arr;
  EXPECT_FALSE(arr.Init(ArrayWindows(nullptr, 5), 0, 0).ok());
  const ArrayWindows array(values.data(), values.size());

  const auto check = [&](auto& c, const auto& src) {
    EXPECT_FALSE(c.Init(src, 500, 400).ok());  // begin > end
    EXPECT_FALSE(c.Init(src, 0, 1001).ok());   // past the column
    ASSERT_TRUE(c.Init(src, 700, 700).ok());   // empty range is fine
    EXPECT_TRUE(c.AtEnd());
    EXPECT_FALSE(c.SkipTo(0));

    // Probing below the current value never moves the cursor.
    ASSERT_TRUE(c.Init(src, 200, 900).ok());
    ASSERT_TRUE(c.SkipTo(values[450]));
    const uint64_t pos = c.position();
    ASSERT_TRUE(c.SkipTo(values[450] - 3));
    EXPECT_EQ(c.position(), pos);
    ASSERT_TRUE(c.SkipTo(values[450]));
    EXPECT_EQ(c.position(), pos);
    // Probing past everything exhausts the cursor cleanly.
    EXPECT_FALSE(c.SkipTo(values[899] + 1));
    EXPECT_TRUE(c.AtEnd());
  };
  check(cur, ResidentWindows(&delta_dec));
  check(arr, array);
}

TEST(SkipCursor, InitRejectsBadRangesAndSchemes) {
  ForEachDispatch(SkipCursorInitRejectsBadRangesAndSchemes);
}

// ---------------------------------------------------------------------------
// The streaming encoders against the array-based oracle (reference.h).
// ---------------------------------------------------------------------------

using Encoder = Status (*)(const int32_t*, uint32_t, const EncodeOptions&,
                           std::vector<uint8_t>*, BlockStats*);

struct SchemeEncoders {
  const char* name;
  Encoder streaming;
  Encoder oracle;
  bool delta;     // values are a running sum of the generated deltas
  bool for_base;  // the scheme has a frame-of-reference base to force
};

const SchemeEncoders kPforEncoders{"pfor", PforEncode,
                                   ReferenceCodec::PforEncode, false, true};
const SchemeEncoders kPforDeltaEncoders{
    "pfor_delta", PforDeltaEncode, ReferenceCodec::PforDeltaEncode, true,
    true};
const SchemeEncoders kPdictEncoders{"pdict", PdictEncode,
                                    ReferenceCodec::PdictEncode, false, false};

// An outlier: INT32_MIN, INT32_MAX, a negative value or one far past `bits`.
int32_t Outlier(Rng* rng, int bits) {
  switch (rng->NextBounded(4)) {
    case 0:
      return std::numeric_limits<int32_t>::min();
    case 1:
      return std::numeric_limits<int32_t>::max();
    case 2:
      return -1 - static_cast<int32_t>(rng->NextBounded(1u << 20));
    default:
      return (1 << bits) + static_cast<int32_t>(rng->NextBounded(1u << 24));
  }
}

// `bits`-bit values with a share `rate` of outliers.
std::vector<int32_t> OracleValues(uint32_t n, int bits, double rate,
                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> v(n);
  for (int32_t& x : v) {
    x = rng.NextBernoulli(rate)
            ? Outlier(&rng, bits)
            : static_cast<int32_t>(rng.NextBounded(1u << bits));
  }
  return v;
}

// Values whose deltas are `bits`-bit with a share `rate` of outlier deltas,
// every delta within 32 bits (an outlier that would leave int32 is
// reflected, or dropped to 0 when the reflection does not fit either).
std::vector<int32_t> OracleDeltaValues(uint32_t n, int bits, double rate,
                                       uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> v(n);
  const auto fits = [](int64_t x) {
    return x >= std::numeric_limits<int32_t>::min() &&
           x <= std::numeric_limits<int32_t>::max();
  };
  int64_t cur = 0;
  for (int32_t& x : v) {
    const int64_t d = rng.NextBernoulli(rate)
                          ? Outlier(&rng, bits)
                          : static_cast<int64_t>(rng.NextBounded(1u << bits));
    if (fits(cur + d)) {
      cur += d;
    } else if (fits(cur - d) && fits(-d)) {
      cur -= d;
    }
    x = static_cast<int32_t>(cur);
  }
  return v;
}

// Both encoders agree on the Status code, and on success on every block
// byte and every BlockStats field.
void ExpectMatchesOracle(const SchemeEncoders& enc,
                         const std::vector<int32_t>& values,
                         const EncodeOptions& opts, const std::string& ctx) {
  std::vector<uint8_t> got, want;
  BlockStats got_stats, want_stats;
  const uint32_t n = static_cast<uint32_t>(values.size());
  const Status g = enc.streaming(values.data(), n, opts, &got, &got_stats);
  const Status w = enc.oracle(values.data(), n, opts, &want, &want_stats);
  ASSERT_EQ(g.code(), w.code()) << ctx << ": " << g.ToString() << " vs "
                                << w.ToString();
  if (!w.ok()) return;
  ASSERT_TRUE(got == want) << ctx << ": block bytes differ ("
                           << got.size() << " vs " << want.size() << ")";
  EXPECT_EQ(got_stats.n, want_stats.n) << ctx;
  EXPECT_EQ(got_stats.bit_width, want_stats.bit_width) << ctx;
  EXPECT_EQ(got_stats.n_exceptions, want_stats.n_exceptions) << ctx;
  EXPECT_EQ(got_stats.n_compulsory_exceptions,
            want_stats.n_compulsory_exceptions)
      << ctx;
  EXPECT_EQ(got_stats.n_dense_windows, want_stats.n_dense_windows) << ctx;
  EXPECT_EQ(got_stats.compressed_bytes, want_stats.compressed_bytes) << ctx;
}

// Every option combination of one scheme over one length: the given widths
// (0 = automatic), patched and naive layouts, with and without force_base
// where the scheme has a base, the given exception rates, and 1-bit and
// 7-bit value ranges (sparse outliers at 1 bit force compulsory exceptions
// at b = 1-3; dense ones turn windows dense).
void SweepAgainstOracle(const SchemeEncoders& enc, uint32_t n,
                        const std::vector<int>& widths,
                        const std::vector<double>& rates) {
  uint64_t seed = 1;
  for (const int bits : {1, 7}) {
    for (const double rate : rates) {
      const std::vector<int32_t> values =
          enc.delta ? OracleDeltaValues(n, bits, rate, ++seed)
                : OracleValues(n, bits, rate, ++seed);
      for (const int width : widths) {
        for (const bool naive : {false, true}) {
          for (const bool force_base : {false, true}) {
            if (force_base && !enc.for_base) continue;
            EncodeOptions opts;
            opts.bit_width = width;
            opts.naive_layout = naive;
            opts.force_base = force_base;
            ExpectMatchesOracle(
                enc, values, opts,
                std::string(enc.name) + " n=" + std::to_string(n) +
                    " bits=" + std::to_string(bits) +
                    " rate=" + std::to_string(rate) +
                    " b=" + std::to_string(width) +
                    (naive ? " naive" : "") + (force_base ? " base0" : ""));
            if (::testing::Test::HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

// Short blocks sweep the automatic width and every forced one (plus 31, a
// refusal) at exception rates from 0 to 100%; the long block, 1024 windows
// and a one-value tail, a spread of widths at a sparse and a dense rate.
std::vector<int> AllWidths() {
  std::vector<int> widths;
  for (int b = 0; b <= kMaxBitWidth + 1; ++b) widths.push_back(b);
  return widths;
}
const std::vector<int> kLongBlockWidths = {0, 1, 2, 3, 8, 13, 30};
const std::vector<double> kAllRates = {0.0, 0.01, 0.1, 0.5, 1.0};
const std::vector<double> kLongBlockRates = {0.01, 0.5};
constexpr uint32_t kShortLengths[] = {0, 1, 127, 128, 129, 1000};
constexpr uint32_t kLongLength = 131073;

TEST(EncoderOracle, PforBlocksAreByteIdentical) {
  for (const uint32_t n : kShortLengths) {
    SweepAgainstOracle(kPforEncoders, n, AllWidths(), kAllRates);
  }
  SweepAgainstOracle(kPforEncoders, kLongLength, kLongBlockWidths,
                     kLongBlockRates);
}

TEST(EncoderOracle, PforDeltaBlocksAreByteIdentical) {
  for (const uint32_t n : kShortLengths) {
    SweepAgainstOracle(kPforDeltaEncoders, n, AllWidths(), kAllRates);
  }
  SweepAgainstOracle(kPforDeltaEncoders, kLongLength, kLongBlockWidths,
                     kLongBlockRates);
}

// PDICT's widths stop at kMaxDictBitWidth; the wider ones and the naive
// layout are refused by both encoders alike.
TEST(EncoderOracle, PdictBlocksAreByteIdentical) {
  for (const uint32_t n : kShortLengths) {
    SweepAgainstOracle(kPdictEncoders, n, AllWidths(), kAllRates);
  }
  SweepAgainstOracle(kPdictEncoders, kLongLength, {0, 1, 2, 3, 8, 13},
                     kLongBlockRates);
}

TEST(EncoderOracle, PforDeltaRefusesDeltasWiderThan32Bits) {
  const std::vector<int32_t> unsorted = {
      0, std::numeric_limits<int32_t>::max(),
      std::numeric_limits<int32_t>::min(), 5};
  for (const bool force_base : {false, true}) {
    EncodeOptions opts;
    opts.force_base = force_base;
    ExpectMatchesOracle(kPforDeltaEncoders, unsorted, opts, "unsorted");
    std::vector<uint8_t> block;
    EXPECT_EQ(PforDeltaEncode(unsorted.data(), 4, opts, &block, nullptr)
                  .code(),
              StatusCode::kInvalidArgument);
  }
}

// The window-source seam on its own: a block whose smallest layout (every
// window packed at b = 30, no exceptions) passes 4 GiB is refused before
// the builder allocates anything or reads a single window.
class CountingSource final : public internal::WindowSource {
 public:
  int32_t Fill(uint32_t, uint32_t wn, int64_t* syms,
               int32_t* payloads) override {
    ++calls;
    std::fill(syms, syms + wn, 0);
    std::fill(payloads, payloads + wn, 0);
    return 0;
  }
  int calls = 0;
};

TEST(BlockBuilder, RefusesBlocksPast4GiBBeforeReadingAWindow) {
  CountingSource source;
  internal::BlockBuildInput in;
  in.bit_width = 30;
  in.n = std::numeric_limits<uint32_t>::max();
  in.source = &source;
  std::vector<uint8_t> out;
  BlockStats stats;
  {
    CountingScope scope;
    EXPECT_EQ(internal::BuildBlock(in, &out, &stats).code(),
              StatusCode::kInvalidArgument);
    // Only the Status message: the 512 MiB of entry points that a build
    // of 2^32 - 1 values starts with were never allocated.
    EXPECT_LT(scope.peak(), 1024);
  }
  EXPECT_EQ(source.calls, 0);
  EXPECT_TRUE(out.empty());

  // The same seam builds an ordinary block, reading each window once per
  // pass (layout, then emit).
  in.n = 1000;
  ASSERT_TRUE(internal::BuildBlock(in, &out, &stats).ok());
  EXPECT_EQ(source.calls, 2 * 8);
  EXPECT_EQ(stats.n, 1000u);
}

// ---------------------------------------------------------------------------
// Memory bound: an encode holds its output block, its entry points and a
// few fixed window buffers — no n-sized scratch.
// ---------------------------------------------------------------------------

constexpr int64_t kWindowScratchBytes = 64 << 10;

// Peak bytes `encode` allocates beyond its output block and entry points.
int64_t ScratchPeak(Encoder encode, const std::vector<int32_t>& values,
                    const EncodeOptions& opts) {
  std::vector<uint8_t> block;
  int64_t peak = 0;
  {
    CountingScope scope;
    const Status s = encode(values.data(),
                            static_cast<uint32_t>(values.size()), opts,
                            &block, nullptr);
    EXPECT_TRUE(s.ok()) << s.ToString();
    peak = scope.peak();
  }
  const int64_t entries = static_cast<int64_t>(
      (values.size() + kEntryPointStride - 1) / kEntryPointStride *
      sizeof(internal::EntryPoint));
  return peak - static_cast<int64_t>(block.size()) - entries;
}

TEST(EncoderMemory, PforAndPforDeltaHoldNoColumnSizedScratch) {
  constexpr uint32_t kN = 1u << 20;
  const std::vector<int32_t> tf = MakeData(kN, 3, 0.05, 41);
  const std::vector<int32_t> docids = MakeSorted(kN, 43, 3000);
  EncodeOptions base0;
  base0.force_base = true;
  struct Case {
    const char* name;
    Encoder streaming;
    Encoder oracle;
    const std::vector<int32_t>* values;
    EncodeOptions opts;
  };
  const Case cases[] = {
      {"pfor", PforEncode, ReferenceCodec::PforEncode, &tf, {}},
      {"pfor_delta", PforDeltaEncode, ReferenceCodec::PforDeltaEncode,
       &docids, base0},
  };
  for (const Case& c : cases) {
    EXPECT_LE(ScratchPeak(c.streaming, *c.values, c.opts),
              kWindowScratchBytes)
        << c.name;
    // The allocator sees the oracle's n-sized symbol and codeword arrays
    // (8 + 4 bytes per value), so the bound above is not vacuous.
    EXPECT_GT(ScratchPeak(c.oracle, *c.values, c.opts), int64_t{12} << 20)
        << c.name;
  }
}

TEST(EncoderMemory, PdictHoldsNoColumnSizedScratch) {
  // 256 dictionary values and a 1% tail of 64 others at b = 8: the
  // dictionary maps stay small, so anything near the 8 MB a symbol array
  // of 1M values takes would show.
  constexpr uint32_t kN = 1u << 20;
  Rng rng(47);
  std::vector<int32_t> values(kN);
  for (int32_t& v : values) {
    v = rng.NextBernoulli(0.01)
            ? 1000000 + static_cast<int32_t>(rng.NextBounded(64))
            : static_cast<int32_t>(rng.NextBounded(256)) * 977;
  }
  EncodeOptions opts;
  opts.bit_width = 8;
  constexpr int64_t kDictionaryMapBytes = 64 << 10;
  EXPECT_LE(ScratchPeak(PdictEncode, values, opts),
            kWindowScratchBytes + kDictionaryMapBytes);
  EXPECT_GT(ScratchPeak(ReferenceCodec::PdictEncode, values, opts),
            int64_t{8} << 20);
}


// ---------------------------------------------------------------------------
// Block decoder fuzzer: seeded mutations of valid blocks. A mutant is
// rejected by Init or Validate, or decodes through DecodeAll and a
// Decode(pos, len) per window; and, on its own, it is rejected by InitMeta
// on its metadata prefix, or every window decodes with DecodeWindowDetached
// from copies of its bytes. Every buffer is an exact-size heap allocation,
// so under ASan (the sanitize CI job, both dispatch legs) a read or write
// past any of them fails the test.
// ---------------------------------------------------------------------------

struct FuzzSeed {
  std::string name;
  std::vector<uint8_t> block;
  BlockStats stats;
};

// Fills window w of `v` (kEntryPointStride values from w * stride) by f(i).
template <typename F>
void FillWindow(std::vector<int32_t>* v, uint32_t w, F f) {
  const uint32_t begin = w * kEntryPointStride;
  for (uint32_t i = 0; begin + i < v->size() && i < kEntryPointStride; ++i) {
    (*v)[begin + i] = f(i);
  }
}

// Blocks whose windows differ in width, with dense windows, compulsory
// exceptions and a short last window among them, in every scheme.
std::vector<FuzzSeed> FuzzSeeds() {
  Rng rng(0xF5EED);
  std::vector<FuzzSeed> seeds;
  const auto add = [&](const std::string& name, Encoder encode,
                       const std::vector<int32_t>& values,
                       const EncodeOptions& opts) {
    FuzzSeed seed{name, {}, {}};
    EXPECT_TRUE(encode(values.data(), static_cast<uint32_t>(values.size()),
                       opts, &seed.block, &seed.stats)
                    .ok())
        << name;
    seeds.push_back(std::move(seed));
  };

  // PFOR, base 0: a 1-bit window whose two negative values sit 3 apart
  // (one compulsory exception at b = 1), a 12-bit window with outliers, a
  // dense window of random int32s, a 5-bit window, a 20-bit window with
  // wide outliers, and a 1-value last window.
  std::vector<int32_t> pfor(5 * kEntryPointStride + 1);
  FillWindow(&pfor, 0, [](uint32_t i) {
    return i == 10 || i == 13 ? -5 : static_cast<int32_t>(i % 2);
  });
  FillWindow(&pfor, 1, [&](uint32_t i) {
    return i % 50 == 7 ? 1 << 20
                       : static_cast<int32_t>(rng.NextBounded(1u << 12));
  });
  FillWindow(&pfor, 2, [&](uint32_t) {
    return static_cast<int32_t>(static_cast<uint32_t>(rng.Next()));
  });
  FillWindow(&pfor, 3, [&](uint32_t) {
    return static_cast<int32_t>(rng.NextBounded(32));
  });
  FillWindow(&pfor, 4, [&](uint32_t) {
    return rng.NextBernoulli(0.1)
               ? 1 << 28
               : static_cast<int32_t>(rng.NextBounded(1u << 20));
  });
  pfor.back() = 7;
  EncodeOptions base0;
  base0.force_base = true;
  add("pfor", PforEncode, pfor, base0);
  EncodeOptions naive = base0;
  naive.naive_layout = true;
  add("pfor naive", PforEncode, pfor, naive);

  // PFOR-DELTA, base 0: unit gaps with one large jump, gaps up to 2^9, a
  // dense window of deltas alternating +-2^30, and a 37-value last window.
  std::vector<int32_t> deltas(3 * kEntryPointStride + 37);
  FillWindow(&deltas, 0, [](uint32_t i) { return i == 70 ? 1 << 20 : 1; });
  FillWindow(&deltas, 1, [&](uint32_t) {
    return static_cast<int32_t>(rng.NextBounded(1u << 9));
  });
  FillWindow(&deltas, 2,
             [](uint32_t i) { return i % 2 == 0 ? 1 << 30 : -(1 << 30); });
  FillWindow(&deltas, 3, [&](uint32_t) {
    return static_cast<int32_t>(rng.NextBounded(16));
  });
  std::vector<int32_t> docids(deltas.size());
  int32_t cur = 0;
  for (size_t i = 0; i < deltas.size(); ++i) docids[i] = cur += deltas[i];
  add("pfor_delta", PforDeltaEncode, docids, base0);

  // PDICT over 200 values coded by rank: a window of codes 0-3 with a few
  // high codes (a 2-bit window with exceptions), a window over every code,
  // a 5-bit window, and a 1-value last window.
  std::vector<int32_t> dict(3 * kEntryPointStride + 1);
  FillWindow(&dict, 0, [&](uint32_t i) {
    return 3 * static_cast<int32_t>(i % 41 == 5 ? 150 + i % 7
                                                : rng.NextBounded(4));
  });
  FillWindow(&dict, 1, [](uint32_t i) {
    return 3 * static_cast<int32_t>((i * 37) % 200);
  });
  FillWindow(&dict, 2, [&](uint32_t) {
    return 3 * static_cast<int32_t>(rng.NextBounded(32));
  });
  dict.back() = 3 * 199;
  add("pdict", PdictEncode, dict, {});
  // PDICT at a forced 3-bit width: a window of the 8 dictionary values, a
  // dense window of values outside it, and a 30-value last window. Its 12
  // payload bytes leave the block 4 bytes of alignment slack, so the last
  // window read one bit wider still fits the payload section and only the
  // width check keeps its codes inside the 8-entry dictionary.
  std::vector<int32_t> dict3(2 * kEntryPointStride + 30);
  FillWindow(&dict3, 0, [](uint32_t i) { return static_cast<int32_t>(i % 8); });
  FillWindow(&dict3, 1,
             [](uint32_t i) { return 100 + static_cast<int32_t>(i); });
  FillWindow(&dict3, 2, [](uint32_t i) { return static_cast<int32_t>(i % 9); });
  EncodeOptions width3;
  width3.bit_width = 3;
  add("pdict b3", PdictEncode, dict3, width3);
  return seeds;
}

// One mutation of `block`, described by the seed's own layout: a header or
// entry-point field set to a boundary value, a random byte in the metadata,
// the payloads or the exception records, or a truncation.
void Mutate(const internal::BlockHeader& hdr, Rng* rng,
            std::vector<uint8_t>* block) {
  const size_t size = block->size();
  const auto overwrite = [&](size_t lo, size_t hi) {
    hi = std::min(hi, size);
    if (lo >= hi) return;
    (*block)[lo + rng->NextBounded(hi - lo)] =
        static_cast<uint8_t>(rng->NextBounded(256));
  };
  switch (rng->NextBounded(5)) {
    case 0: {
      // A field, as {offset, bytes}: every header field, or one entry
      // point's exc_start, first_exc, bit_width, value_base or payload_off.
      static constexpr uint8_t kHeaderFields[][2] = {
          {0, 4},  {4, 1},  {5, 1},  {6, 1},  {8, 4},  {12, 4}, {16, 4},
          {20, 4}, {24, 4}, {28, 4}, {32, 4}, {36, 4}};
      static constexpr uint8_t kEntryFields[][2] = {
          {0, 4}, {4, 1}, {5, 1}, {8, 4}, {12, 4}};
      size_t off, bytes;
      if (hdr.entry_count == 0 || rng->NextBounded(3) == 0) {
        const auto& f = kHeaderFields[rng->NextBounded(12)];
        off = f[0];
        bytes = f[1];
      } else {
        const auto& f = kEntryFields[rng->NextBounded(5)];
        off = sizeof(internal::BlockHeader) +
              sizeof(internal::EntryPoint) *
                  rng->NextBounded(hdr.entry_count) +
              f[0];
        bytes = f[1];
      }
      if (off + bytes > size) return;
      uint32_t old = 0;
      std::memcpy(&old, block->data() + off, bytes);
      const uint32_t b = hdr.bit_width;
      const uint32_t values[] = {
          0,      1,          2,           b - 1,   b,       b + 1,
          30,     31,         32,          127,     128,     0xFE,
          0xFF,   0xFFFF,     0x7FFFFFFFu, ~0u,     old - 1, old + 1,
          static_cast<uint32_t>(rng->Next())};
      const uint32_t v = values[rng->NextBounded(std::size(values))];
      std::memcpy(block->data() + off, &v, bytes);  // little-endian
      return;
    }
    case 1:  // header, entry points, dictionary
      overwrite(0, hdr.code_offset);
      return;
    case 2:
      overwrite(hdr.code_offset, hdr.exc_offset);
      return;
    case 3:
      overwrite(hdr.exc_offset,
                hdr.exc_offset + sizeof(internal::ExceptionRecord) *
                                     size_t{hdr.n_exceptions});
      return;
    default:
      block->resize(rng->NextBounded(size));
      return;
  }
}

// The resident paths. Returns whether Init and Validate accepted `block`.
bool DecodeResident(const std::vector<uint8_t>& block) {
  BlockDecoder dec;
  if (!dec.Init(block.data(), block.size()).ok() || !dec.Validate().ok()) {
    return false;
  }
  std::vector<int32_t> all(dec.n());
  dec.DecodeAll(all.data());
  std::vector<int32_t> window(kEntryPointStride);
  for (uint32_t w = 0; w < dec.entry_count(); ++w) {
    dec.Decode(w * kEntryPointStride, kEntryPointStride, window.data());
  }
  std::vector<bool> mask;
  dec.ExceptionMask(&mask);
  return true;
}

// The storage path: InitMeta on the metadata prefix, then each window from
// copies of its payload (plus the kernels' 8-byte slack) and its exception
// records. Returns whether InitMeta accepted `block`.
bool DecodeDetached(const std::vector<uint8_t>& block) {
  size_t prefix_len = block.size();
  if (block.size() >= sizeof(internal::BlockHeader)) {
    internal::BlockHeader hdr;
    std::memcpy(&hdr, block.data(), sizeof(hdr));
    prefix_len = std::min<size_t>(hdr.code_offset, block.size());
  }
  const std::vector<uint8_t> prefix(block.begin(),
                                    block.begin() + prefix_len);
  BlockDecoder dec;
  if (!dec.InitMeta(prefix.data(), prefix.size(), block.size()).ok()) {
    return false;
  }
  for (uint32_t w = 0; w < dec.entry_count(); ++w) {
    const WindowExtent ext = dec.WindowExtentOf(w);
    // InitMeta vouches that every extent lies inside the block.
    EXPECT_LE(ext.payload_offset + ext.payload_bytes, block.size());
    EXPECT_LE(ext.exc_offset + 8ull * ext.exc_count, block.size());
    if (ext.payload_offset + ext.payload_bytes > block.size() ||
        ext.exc_offset + 8ull * ext.exc_count > block.size()) {
      return true;
    }
    std::vector<uint8_t> payload(ext.payload_bytes + internal::kBlockPadBytes);
    std::copy_n(block.begin() + ext.payload_offset, ext.payload_bytes,
                payload.begin());
    const std::vector<uint8_t> exc(
        block.begin() + ext.exc_offset,
        block.begin() + ext.exc_offset + 8ull * ext.exc_count);
    std::vector<int32_t> dst(std::min<uint64_t>(
        kEntryPointStride, dec.n() - uint64_t{w} * kEntryPointStride));
    dec.DecodeWindowDetached(w, payload.data(), exc.data(), dst.data());
  }
  return true;
}

TEST(BlockFuzzer, MutantsAreRejectedOrDecodeInBounds) {
  const std::vector<FuzzSeed> seeds = FuzzSeeds();
  // The seeds hold what the fuzzer is meant to start from.
  uint32_t dense = 0, compulsory = 0, mixed = 0, short_tail = 0;
  for (const FuzzSeed& seed : seeds) {
    BlockDecoder dec;
    ASSERT_TRUE(dec.Init(seed.block.data(), seed.block.size()).ok())
        << seed.name;
    ASSERT_TRUE(dec.Validate().ok()) << seed.name;
    std::vector<bool> widths(kMaxBitWidth + 1);
    for (uint32_t w = 0; w < dec.entry_count(); ++w) {
      widths[dec.WindowBitWidth(w)] = true;
    }
    dense += widths[0] ? 1 : 0;
    mixed += std::count(widths.begin() + 1, widths.end(), true) > 1 ? 1 : 0;
    short_tail += dec.n() % kEntryPointStride != 0 ? 1 : 0;
    compulsory += seed.stats.n_compulsory_exceptions > 0 ? 1 : 0;
  }
  EXPECT_GE(dense, 3u);
  EXPECT_GE(mixed, 4u);
  EXPECT_GE(compulsory, 1u);
  EXPECT_EQ(short_tail, seeds.size());

  constexpr int kMutantsPerSeed = 2000;
  Rng rng(0xB10CF022ull);
  uint64_t resident_ok = 0, detached_ok = 0, rejected = 0;
  for (const FuzzSeed& seed : seeds) {
    internal::BlockHeader hdr;
    std::memcpy(&hdr, seed.block.data(), sizeof(hdr));
    for (int trial = 0; trial < kMutantsPerSeed; ++trial) {
      std::vector<uint8_t> mutated = seed.block;
      const int mutations = 1 + static_cast<int>(rng.NextBounded(3));
      for (int m = 0; m < mutations; ++m) Mutate(hdr, &rng, &mutated);
      // Reallocated at its exact size, so a truncation leaves no capacity
      // behind the last byte for a stray read to land in.
      const std::vector<uint8_t> mutant(mutated.begin(), mutated.end());
      const bool resident = DecodeResident(mutant);
      const bool detached = DecodeDetached(mutant);
      resident_ok += resident ? 1 : 0;
      detached_ok += detached ? 1 : 0;
      rejected += !resident && !detached ? 1 : 0;
      if (HasFailure()) {
        FAIL() << seed.name << " trial " << trial;
      }
    }
  }
  // Neither outcome is vacuous: mutants of both kinds occur.
  EXPECT_GT(resident_ok, 0u);
  EXPECT_GT(detached_ok, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace x100ir::compress
