// Fork-join over a fixed list of independent jobs: how the bulk load
// spreads its work over the host's cores — corpus generation's sort phase
// (DESIGN.md §3.1), seg_0's column jobs (§6.4) and a cluster's node builds
// (§11.1).
//
// Contract: ForkJoin(n, job) runs job(0) .. job(n - 1), each exactly once,
// on at most min(n, max_threads, hardware_concurrency) threads. The calling
// thread is one of them, so n <= 1 or max_threads == 1 runs every job
// inline and starts no thread. It returns only after every job has
// finished. A failing job cancels and skips nothing; the result is the
// status of the lowest-index job that failed (OK when none did), so it
// does not depend on thread timing. Header-only like thread_pool.h.
#ifndef X100IR_COMMON_FORK_JOIN_H_
#define X100IR_COMMON_FORK_JOIN_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"

namespace x100ir {

inline Status ForkJoin(size_t n, const std::function<Status(size_t)>& job,
                       uint32_t max_threads = UINT32_MAX) {
  std::vector<Status> status(n);
  std::atomic<size_t> next{0};
  const auto worker = [&] {
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      status[i] = job(i);
    }
  };
  const size_t threads = std::min<size_t>(
      {n, max_threads, std::max(1u, std::thread::hardware_concurrency())});
  std::vector<std::thread> helpers;
  for (size_t t = 1; t < threads; ++t) helpers.emplace_back(worker);
  worker();
  for (std::thread& t : helpers) t.join();
  for (Status& s : status) {
    if (!s.ok()) return std::move(s);
  }
  return OkStatus();
}

}  // namespace x100ir

#endif  // X100IR_COMMON_FORK_JOIN_H_
