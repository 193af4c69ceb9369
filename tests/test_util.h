// Helpers shared by the test binaries.
#ifndef X100IR_TESTS_TEST_UTIL_H_
#define X100IR_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"
#include "compress/unpack.h"
#include "ir/corpus.h"
#include "ir/index_builder.h"
#include "storage/buffer_manager.h"

namespace x100ir {

// An index with its own buffer pool over a simulated disk, for tests that
// drive an on-disk index below the database. Build writes `dir` and opens
// it through the pool; Load reopens a directory a Build wrote.
struct PooledIndex {
  explicit PooledIndex(const storage::StorageOptions& opts = {})
      : disk(opts.disk),
        pool(opts.pool_bytes, &disk, opts.page_bytes, opts.shards) {}

  Status Build(const ir::Corpus& corpus, const std::string& dir) {
    return index.BuildFromCorpus(corpus, dir, &pool);
  }
  Status Load(const std::string& dir) {
    return index.LoadFromDir(dir, &pool);
  }

  storage::SimulatedDisk disk;
  storage::BufferManager pool;
  ir::InvertedIndex index;  // declared last: dies before its pool
};

// Restores the process-wide SIMD unpack toggle even when an assertion
// bails out of a test.
class ScopedSimdToggle {
 public:
  ScopedSimdToggle() : prev_(compress::internal::SimdUnpackEnabled()) {}
  ~ScopedSimdToggle() { compress::internal::SetSimdUnpackEnabled(prev_); }

 private:
  bool prev_;
};

// Runs `body` once with the SIMD kernels dispatched and once with the
// scalar ground truth (compress/unpack.h), then restores the toggle.
template <class Body>
void ForEachDispatch(const Body& body) {
  ScopedSimdToggle restore;
  for (const bool simd : {true, false}) {
    SCOPED_TRACE(simd ? "SIMD dispatch" : "scalar dispatch");
    compress::internal::SetSimdUnpackEnabled(simd);
    body();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Float bit patterns, for bitwise score comparisons (== would equate +0
// and -0).
inline std::vector<uint32_t> ScoreBits(const std::vector<float>& scores) {
  std::vector<uint32_t> bits(scores.size());
  if (!scores.empty()) {
    std::memcpy(bits.data(), scores.data(), scores.size() * sizeof(float));
  }
  return bits;
}

// Non-asserting core of ExpectRankingsEquivalent, for multi-threaded
// drivers (gtest assertions are not thread-safe; they count mismatches).
inline bool RankingsEquivalent(const std::vector<int32_t>& docids_a,
                               const std::vector<float>& scores_a,
                               const std::vector<int32_t>& docids_b,
                               const std::vector<float>& scores_b, float tol) {
  if (docids_a.size() != docids_b.size()) return false;
  if (scores_a.size() != scores_b.size()) return false;
  const size_t n = docids_a.size();
  for (size_t i = 0; i < n; ++i) {
    if (std::abs(scores_a[i] - scores_b[i]) > tol) return false;
    const bool tied_prev =
        i > 0 && std::abs(scores_a[i] - scores_a[i - 1]) <= tol;
    const bool tied_next =
        i + 1 < n && std::abs(scores_a[i] - scores_a[i + 1]) <= tol;
    if (!tied_prev && !tied_next && i + 1 < n &&
        docids_a[i] != docids_b[i]) {
      return false;
    }
  }
  return true;
}

// Compares two ranked results that were produced by different execution
// paths of the same retrieval model. The paths sum per-term float
// contributions in different orders (score-all union: merge order;
// MaxScore: essential streams then probes strongest-first), so genuinely
// tied documents can differ in the last ulp and legally swap ranks or
// substitute across the k boundary. Scores must agree to `tol` rank by
// rank everywhere; docids must match exactly at every rank that is not
// score-tied with a neighbor.
inline void ExpectRankingsEquivalent(const std::vector<int32_t>& docids_a,
                                     const std::vector<float>& scores_a,
                                     const std::vector<int32_t>& docids_b,
                                     const std::vector<float>& scores_b,
                                     float tol) {
  ASSERT_EQ(docids_a.size(), docids_b.size());
  ASSERT_EQ(scores_a.size(), scores_b.size());
  const size_t n = docids_a.size();
  for (size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(scores_a[i], scores_b[i], tol) << "rank " << i;
    const bool tied_prev =
        i > 0 && std::abs(scores_a[i] - scores_a[i - 1]) <= tol;
    const bool tied_next =
        i + 1 < n && std::abs(scores_a[i] - scores_a[i + 1]) <= tol;
    // The last kept rank can also tie against the first *dropped* score,
    // which is not observable here, so it is exempt from exact equality.
    if (!tied_prev && !tied_next && i + 1 < n) {
      EXPECT_EQ(docids_a[i], docids_b[i]) << "rank " << i;
    }
  }
}

}  // namespace x100ir

#endif  // X100IR_TESTS_TEST_UTIL_H_
