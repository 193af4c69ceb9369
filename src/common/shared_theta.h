// Shared top-k threshold channel for scatter-gather search (DESIGN.md
// §11.3): one atomic float per distributed query, monotonically raised
// toward the global k-th-best score. Every shard of a doc-partitioned
// query publishes its local k-th-best-so-far (each shard's heap holds k
// real documents with exact final scores, so its threshold is a valid
// lower bound on the global k-th best), and every shard reads the channel
// at vector-batch boundaries to floor its MaxScore pruning threshold —
// a late or slow shard prunes with the best bound any peer has proven,
// instead of rediscovering it from -inf. The gather (ir/gather.h) publishes
// too: the k-th best of the shard results merged so far, which is at least
// every bound those shards published.
//
// Memory-ordering argument: the channel carries no payload besides the
// bound itself and the bound is monotone non-decreasing, so every access
// can be memory_order_relaxed. A stale read returns some *earlier*
// published bound (or the initial -inf), which is still a correct lower
// bound — the reader merely prunes less than it could. A lost CAS race in
// RaiseTo means another thread published a value; the loop re-reads and
// either finds its own candidate no longer an improvement (fine: the
// channel is already at least that tight) or retries. Atomicity rules out
// torn floats; no acquire/release pairing is needed because no other
// memory is published through the channel.
#ifndef X100IR_COMMON_SHARED_THETA_H_
#define X100IR_COMMON_SHARED_THETA_H_

#include <atomic>
#include <limits>

namespace x100ir {

class SharedTheta {
 public:
  SharedTheta() = default;
  SharedTheta(const SharedTheta&) = delete;
  SharedTheta& operator=(const SharedTheta&) = delete;

  // Current global lower bound on the k-th-best score; -inf until any
  // shard's heap fills. Thread-safe, wait-free.
  float Load() const { return theta_.load(std::memory_order_relaxed); }

  // Fetch-max: raises the bound to `s` if it improves it. Publishing -inf
  // (an unfilled heap's threshold) is a natural no-op, so shards can
  // publish unconditionally. Thread-safe, lock-free.
  void RaiseTo(float s) {
    float cur = theta_.load(std::memory_order_relaxed);
    while (s > cur && !theta_.compare_exchange_weak(
                          cur, s, std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<float> theta_{-std::numeric_limits<float>::infinity()};
};

}  // namespace x100ir

#endif  // X100IR_COMMON_SHARED_THETA_H_
