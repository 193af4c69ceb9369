// ColumnBM's memory hierarchy seam (DESIGN.md §8, threading in §9): a
// fixed-budget buffer pool of file pages with pin/unpin refcounts and LRU
// eviction, fed by a deterministic simulated-disk cost model.
//
// Pages are fixed-size byte ranges of files (the last page of a file may be
// short). The pool keeps no file registry: each open file takes an id from
// IssueFileId, never reused within the pool, and its reader passes its own
// File with that id to every Pin. A Pin either hits a resident frame or
// fetches the page — charging the simulated disk one positioned read (seek
// + transfer) and evicting unpinned LRU frames until the fetch fits the
// budget. Pinned frames are never evicted; when everything resident is
// pinned and the budget is exhausted, Pin reports ResourceExhausted ("pool
// smaller than the pinned working set") instead of over-allocating, which
// the ablation bench surfaces as its smallest-pool row.
//
// Concurrency (DESIGN.md §9.2): the pool is lock-striped into `shards`
// partitions, each with its own mutex, frame map, LRU list, byte budget
// (pool_bytes / shards) and stats — concurrent queries pinning different
// pages contend only when they hash to the same shard, and a Pin or Unpin
// takes no other lock. Every resident frame keeps one LRU node from fetch
// to eviction, so neither a hit nor an unpin allocates. With shards == 1
// (the default, and what the deterministic Table 2 runs use) behavior is
// byte-identical to the pre-striping pool, just mutex-protected. Frame
// data pointers stay valid for exactly the pin's lifetime: frames live in
// node-based maps, and eviction skips pinned frames, so no lock is held
// while a caller reads pinned bytes.
//
// The disk charges *simulated* seconds (it never sleeps): cold-run costs in
// Table 2 are deterministic and runner-independent, while wall-clock keeps
// measuring the real decode work. Stats counters (hits/misses/evictions/
// bytes) are exact per shard; stats() aggregates a snapshot across shards
// (consistent per shard, not across them — a counter read never blocks the
// read path for long).
#ifndef X100IR_STORAGE_BUFFER_MANAGER_H_
#define X100IR_STORAGE_BUFFER_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/fault_injection.h"
#include "storage/file.h"
#include "storage/wal.h"

namespace x100ir::storage {

// Deterministic cold-I/O latency model, applied per positioned read. The
// defaults sketch one commodity disk (2 ms positioning, 200 MB/s
// sequential transfer) — Table 2 reproduces the paper's *ordering*, not
// its hardware.
struct DiskModelOptions {
  double seek_seconds = 2e-3;
  double bytes_per_second = 200e6;
};

// Thread-safe: counters are atomics (the io-seconds accumulator is a CAS
// loop), so concurrent page fetches from different pool shards never
// serialize on the disk model.
class SimulatedDisk {
 public:
  SimulatedDisk() = default;
  explicit SimulatedDisk(const DiskModelOptions& opts) : opts_(opts) {}
  SimulatedDisk(SimulatedDisk&& o) noexcept { *this = std::move(o); }
  SimulatedDisk& operator=(SimulatedDisk&& o) noexcept {
    if (this != &o) {
      opts_ = o.opts_;
      seeks_.store(o.seeks(), std::memory_order_relaxed);
      total_bytes_.store(o.total_bytes(), std::memory_order_relaxed);
      io_seconds_.store(o.io_seconds(), std::memory_order_relaxed);
    }
    return *this;
  }

  // One positioned read of `bytes`: a seek plus the transfer time.
  void Charge(uint64_t bytes) {
    seeks_.fetch_add(1, std::memory_order_relaxed);
    total_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    AddSeconds(opts_.seek_seconds +
               static_cast<double>(bytes) / opts_.bytes_per_second);
  }

  // Pure latency with no positioned read: fault-injected spikes and the
  // retry loop's backoff — simulated, deterministic, never a sleep.
  void ChargeLatency(double seconds) { AddSeconds(seconds); }

  uint64_t seeks() const { return seeks_.load(std::memory_order_relaxed); }
  uint64_t total_bytes() const {
    return total_bytes_.load(std::memory_order_relaxed);
  }
  double io_seconds() const {
    return io_seconds_.load(std::memory_order_relaxed);
  }

  void ResetStats() {
    seeks_.store(0, std::memory_order_relaxed);
    total_bytes_.store(0, std::memory_order_relaxed);
    io_seconds_.store(0.0, std::memory_order_relaxed);
  }

 private:
  void AddSeconds(double s) {
    double cur = io_seconds_.load(std::memory_order_relaxed);
    while (!io_seconds_.compare_exchange_weak(cur, cur + s,
                                              std::memory_order_relaxed)) {
    }
  }

  DiskModelOptions opts_;
  std::atomic<uint64_t> seeks_{0};
  std::atomic<uint64_t> total_bytes_{0};
  std::atomic<double> io_seconds_{0.0};
};

struct BufferStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;      // pressure evictions only, not EvictAll
  uint64_t bytes_fetched = 0;  // bytes read through the simulated disk
  uint64_t faults_transient = 0;  // injected transient errors surfaced
  uint64_t faults_torn = 0;       // injected torn reads surfaced

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(total);
  }
};

// Classified-retry policy for transient page faults (common/status.h
// IsTransient): ColumnReader retries a failed pin up to `budget` extra
// attempts, charging `backoff_seconds` (doubling per attempt) of simulated
// latency to the disk model between attempts.
struct RetryPolicy {
  uint32_t budget = 3;
  double backoff_seconds = 1e-3;
};

// Knobs the Database facade forwards down to the storage layer.
struct StorageOptions {
  uint64_t pool_bytes = 64ull << 20;
  uint32_t page_bytes = 256u << 10;
  // Lock stripes. 1 (default) reproduces the single-partition LRU exactly
  // — what the deterministic Table 2 counters pin; the concurrent query
  // service opens its pool with ~2x worker threads.
  uint32_t shards = 1;
  RetryPolicy retry;
  DiskModelOptions disk;
  // Delta-tier durability (storage/wal.h). Only meaningful for on-disk
  // databases: in-memory ones have nowhere to log.
  WalOptions wal;
};

class BufferManager {
 public:
  // `disk` is borrowed and must outlive the manager.
  BufferManager(uint64_t pool_bytes, SimulatedDisk* disk,
                uint32_t page_bytes = 256u << 10, uint32_t shards = 1);

  // The page key keeps a file id in its top 24 bits.
  static constexpr uint64_t kMaxFileIds = 1ull << 24;

  // Issues the id one open file's pages go under. An id is never issued
  // twice by one pool, so no page of a closed file can be hit under a later
  // file's id. ResourceExhausted once kMaxFileIds ids have been issued.
  // Thread-safe.
  Status IssueFileId(uint32_t* file_id);

  // Pins page `page_no` of `file`, whose pages go under `file_id` (issued
  // by this pool for that file); *data/*len describe the frame and stay
  // valid until the matching Unpin. Pins nest (refcount). Only a miss reads
  // `file`. Thread-safe: a hit takes its shard's mutex and allocates
  // nothing. An injected fault surfaces as Unavailable (transient) or
  // IOError (torn, permanent) and the frame never enters the pool.
  Status Pin(const File& file, uint32_t file_id, uint64_t page_no,
             const uint8_t** data, uint32_t* len);
  void Unpin(uint32_t file_id, uint64_t page_no);

  // Drops every resident page — the Table 2 cold-run reset. Locks all
  // shards (ascending, per the §9.2 lock order), and fails
  // (FailedPrecondition) if any page is still pinned by *any* thread: a
  // cold run with pins outstanding is a caller bug, not a colder cache.
  Status EvictAll();

  // Drops `file_id`'s unpinned resident pages and leaves every other
  // file's pages hot: per-run cold resets, and a closing reader's drop.
  // FailedPrecondition when any page of *that file* is pinned; such a page
  // stays resident until its Unpin and then ages out of the LRU like any
  // other. Like EvictAll, the drops are not counted as pressure
  // `evictions`.
  Status EvictFile(uint32_t file_id);

  // Aggregated snapshot (per-shard-consistent). By value: there is no
  // single stats object once the pool is striped.
  BufferStats stats() const;
  void ResetStats();

  // Borrowed fault plan; pass nullptr to disarm. Only consulted on page
  // fetches, so attach/detach between queries is race-free in practice —
  // the pointer itself is atomic for the soak's mid-run disarm.
  void set_fault_plan(FaultPlan* plan) {
    fault_plan_.store(plan, std::memory_order_release);
  }
  FaultPlan* fault_plan() const {
    return fault_plan_.load(std::memory_order_acquire);
  }

  void set_retry_policy(const RetryPolicy& retry) { retry_ = retry; }
  const RetryPolicy& retry_policy() const { return retry_; }
  SimulatedDisk* disk() const { return disk_; }

  uint64_t pool_bytes() const { return pool_bytes_; }
  uint32_t page_bytes() const { return page_bytes_; }
  uint32_t shards() const { return static_cast<uint32_t>(shards_.size()); }
  uint64_t resident_bytes() const;
  uint64_t resident_pages() const;
  uint64_t pinned_pages() const;
  // Resident pages belonging to one file — retirement tests pin down that
  // eviction dropped exactly the dead file's pages. O(resident) scan.
  uint64_t ResidentPagesOfFile(uint32_t file_id) const;

 private:
  struct Frame {
    std::vector<uint8_t> data;
    uint32_t refcount = 0;
    // This frame's node in its shard's LRU list, from fetch to eviction.
    std::list<uint64_t>::iterator lru_pos;
  };

  // One lock stripe: a self-contained pool partition.
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, Frame> frames;
    // Every resident frame's key; unpinned frames in the order of their
    // last unpin, front = coldest. Pinned frames sit wherever they were
    // and eviction skips them.
    std::list<uint64_t> lru;
    uint64_t budget = 0;
    uint64_t resident_bytes = 0;
    uint64_t pinned_pages = 0;
    BufferStats stats;
  };

  static uint64_t Key(uint32_t file_id, uint64_t page_no) {
    return (static_cast<uint64_t>(file_id) << 40) | page_no;
  }

  Shard& ShardOf(uint64_t key) {
    // SplitMix64 finalizer: adjacent pages of one file spread across
    // shards, so one hot column doesn't serialize on one mutex.
    uint64_t x = key;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return *shards_[(x ^ (x >> 31)) % shards_.size()];
  }

  uint64_t pool_bytes_;
  uint32_t page_bytes_;
  SimulatedDisk* disk_;
  RetryPolicy retry_;
  std::atomic<FaultPlan*> fault_plan_{nullptr};
  std::atomic<uint64_t> next_file_id_{0};

  // Lock order (§9.2): shard mutexes are only ever held together in
  // ascending index order (EvictAll); nothing below storage/ is called
  // with a lock held.
  std::vector<std::unique_ptr<Shard>> shards_;
};

// RAII pin: unpins on destruction. Movable, not copyable.
class PinnedPage {
 public:
  PinnedPage() = default;
  ~PinnedPage() { Release(); }
  PinnedPage(const PinnedPage&) = delete;
  PinnedPage& operator=(const PinnedPage&) = delete;
  PinnedPage(PinnedPage&& o) noexcept { *this = std::move(o); }
  PinnedPage& operator=(PinnedPage&& o) noexcept {
    if (this != &o) {
      Release();
      bm_ = o.bm_;
      file_id_ = o.file_id_;
      page_no_ = o.page_no_;
      data_ = o.data_;
      len_ = o.len_;
      o.bm_ = nullptr;
    }
    return *this;
  }

  Status Acquire(BufferManager* bm, const File& file, uint32_t file_id,
                 uint64_t page_no) {
    Release();
    X100IR_RETURN_IF_ERROR(bm->Pin(file, file_id, page_no, &data_, &len_));
    bm_ = bm;
    file_id_ = file_id;
    page_no_ = page_no;
    return OkStatus();
  }

  void Release() {
    if (bm_ != nullptr) {
      bm_->Unpin(file_id_, page_no_);
      bm_ = nullptr;
    }
  }

  bool held() const { return bm_ != nullptr; }
  const uint8_t* data() const { return data_; }
  uint32_t len() const { return len_; }

 private:
  BufferManager* bm_ = nullptr;
  uint32_t file_id_ = 0;
  uint64_t page_no_ = 0;
  const uint8_t* data_ = nullptr;
  uint32_t len_ = 0;
};

}  // namespace x100ir::storage

#endif  // X100IR_STORAGE_BUFFER_MANAGER_H_
