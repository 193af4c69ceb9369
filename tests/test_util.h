// Helpers shared by the test binaries.
#ifndef X100IR_TESTS_TEST_UTIL_H_
#define X100IR_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace x100ir {

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
