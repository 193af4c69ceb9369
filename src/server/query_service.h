// Concurrent query service over one open core::Database (DESIGN.md §9):
// a fixed worker pool behind a *bounded* admission queue, per-query
// deadlines and retry budgets, and a graceful-degradation ladder driven by
// the observed fault rate. The Database is immutable and its read path
// thread-safe (§9.1), so the service adds exactly the operational layer —
// admission, scheduling, classification, shedding — and no query-time
// locking of its own.
//
// Admission (§9.5): Submit either enqueues the query or refuses it
// *immediately* with a classified Status — ResourceExhausted when the
// bounded queue is full (overload shedding: reject new arrivals rather
// than grow latency without bound) or Unavailable when the degradation
// ladder has reached Refusing. An admitted query's completion callback is
// always invoked, exactly once, from a worker thread.
//
// Every finished query lands in exactly one outcome class:
//   OK                 — full, correct result (bit-identical to a serial
//                        fault-free run of the same request)
//   DeadlineExceeded   — deadline expired mid-flight; partial stats only
//   ResourceExhausted  — shed at admission (queue full / pool too small)
//   Unavailable        — refused by the ladder, cancelled at shutdown, or
//                        transient faults outlasted every retry budget
//   anything else      — permanent failure (torn page -> IOError, bad
//                        request -> InvalidArgument); never retried
//
// Degradation ladder (§9.5): a sliding window over recent outcomes
// estimates the transient-fault rate. Normal -> Degraded remaps the
// storage runs to the materialized quantized-score column (kBm25TCMQ8 —
// the least I/O per query, so a sick disk is touched as little as
// possible); Degraded -> Refusing sheds everything except a 1-in-K probe
// stream whose successes walk the service back down the ladder. Every
// transition and refusal is observable in ServiceStats.
#ifndef X100IR_SERVER_QUERY_SERVICE_H_
#define X100IR_SERVER_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/deadline.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/database.h"
#include "ir/search_engine.h"
#include "server/result_cache.h"

namespace x100ir::server {

// Where the ladder currently stands. Transitions are logged in stats, not
// announced: callers observe mode() or the per-response degraded flag.
enum class ServiceMode : uint8_t {
  kNormal = 0,
  kDegraded = 1,   // storage runs remapped to the materialized q8 column
  kRefusing = 2,   // only 1-in-probe_interval probes admitted
};

inline const char* ServiceModeName(ServiceMode m) {
  switch (m) {
    case ServiceMode::kNormal:
      return "normal";
    case ServiceMode::kDegraded:
      return "degraded";
    case ServiceMode::kRefusing:
      return "refusing";
  }
  return "unknown";
}

struct QueryServiceOptions {
  // Worker threads executing queries (0 -> 1).
  uint32_t num_threads = 4;
  // Bound on queries admitted but not yet finished (queued + running).
  // Submissions past it are shed with ResourceExhausted.
  uint32_t max_pending = 64;
  // Deadline applied when a request does not carry its own; 0 = none.
  double default_deadline_seconds = 0.0;
  // Whole-query re-runs after the storage layer's page-level retries are
  // exhausted (each re-run is a fresh fault draw; see fault_injection.h).
  uint32_t retry_budget = 1;
  // Real (wall-clock) backoff before a service-level retry, jittered by
  // the query's private rng; doubles per attempt.
  double retry_backoff_seconds = 0.5e-3;
  // Seed of the service's root Rng; query q draws from Fork(q's ordinal),
  // so per-query streams are reproducible and order-independent (§9.1).
  uint64_t rng_seed = 0x5EEDBA5Eull;

  // --- Degradation ladder (§9.5) ---
  // Sliding outcome window the fault-rate estimate is computed over.
  uint32_t fault_window = 64;
  // Fault fraction at which Normal escalates to Degraded.
  double degrade_threshold = 0.25;
  // Fault fraction at which Degraded escalates to Refusing.
  double refuse_threshold = 0.60;
  // In Refusing, every Nth submission is admitted as a probe; its outcome
  // feeds the window, so recovered storage de-escalates the ladder.
  uint32_t probe_interval = 8;

  // Result cache entries (0 = disabled). A repeated request (same run,
  // normalized term set, k, and scoring knobs) is answered synchronously
  // from the cache without admission — no queue slot, no worker, no I/O.
  // Entries are tagged with the snapshot epoch; any live update (add,
  // delete, merge commit) invalidates the whole cache (result_cache.h).
  uint32_t result_cache_entries = 0;
};

struct QueryRequest {
  ir::Query query;
  ir::RunType run = ir::RunType::kBm25;
  ir::SearchOptions opts;  // opts.deadline is overwritten by the service
                           // (it owns the per-query deadline)
  // Per-request deadline; 0 falls back to default_deadline_seconds.
  double deadline_seconds = 0.0;
};

struct QueryResponse {
  Status status;            // the outcome classification (header comment)
  ir::SearchResult result;  // valid iff status.ok(); partial stats on
                            // DeadlineExceeded
  ir::RunType executed_run = ir::RunType::kBm25;  // after any remap
  bool degraded = false;    // executed against the degraded (q8) column
  uint32_t retries = 0;     // service-level re-runs this query consumed
};

// Monotonic service counters (all since Start). submitted = cache_hits +
// admitted + shed_queue_full + refused_unavailable; admitted = the sum of
// the five outcome rows once Drain() has run. Cache hits are served at
// submission and never admitted, so they appear in no outcome row.
struct ServiceStats {
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t shed_queue_full = 0;      // ResourceExhausted at admission
  uint64_t refused_unavailable = 0;  // ladder refusals at admission
  uint64_t ok = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t unavailable = 0;          // retries exhausted / cancelled
  uint64_t failed = 0;               // permanent (IOError etc.)
  uint64_t retries = 0;              // service-level re-runs performed
  uint64_t degraded_queries = 0;     // executed with a remapped run
  uint64_t probes_admitted = 0;      // admitted while Refusing
  uint64_t mode_transitions = 0;     // ladder moves (either direction)
  // Result cache (all zero when result_cache_entries == 0).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_invalidations = 0;  // whole-cache drops on epoch change
  // Write-path durability, mirrored from the database's WAL (zero when the
  // WAL is off): appends framed, fsyncs issued, and the largest number of
  // records one group-commit fsync covered — the amortization the ingest
  // bench gates on, surfaced here so an operator can see it live.
  uint64_t wal_appends = 0;
  uint64_t wal_fsyncs = 0;
  uint64_t wal_group_commit_batch_max = 0;
  ServiceMode mode = ServiceMode::kNormal;
};

class QueryService {
 public:
  QueryService() = default;
  ~QueryService() { Stop(); }
  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // `db` is borrowed, must be open, and must outlive the service.
  Status Start(const core::Database* db, const QueryServiceOptions& opts);

  // Admission: OK means `done` will be invoked exactly once — from a
  // worker thread after execution, or synchronously from Submit itself on
  // a result-cache hit; any error means the query was NOT enqueued and
  // `done` will never run (the error itself is the response).
  // Thread-safe; callable from any thread, including from callbacks.
  Status Submit(const QueryRequest& request,
                std::function<void(QueryResponse)> done);

  // Blocking convenience: Submit + wait. Admission failures come back as
  // the response status with zero retries.
  QueryResponse Execute(const QueryRequest& request);

  // Waits until every admitted query has completed. Does not block new
  // Submits — callers wanting a quiescent point stop submitting first.
  void Drain();

  // Cancels in-flight deadlines, drains, joins the workers. Idempotent.
  // Queries still queued run to completion (their deadline is cancelled,
  // so they finish Unavailable — the service dies, queries don't hang).
  void Stop();

  bool running() const { return pool_ != nullptr; }
  ServiceMode mode() const {
    return mode_.load(std::memory_order_relaxed);
  }
  ServiceStats stats() const;

 private:
  struct InFlight {
    Deadline deadline;
    InFlight() = default;
    explicit InFlight(double seconds) : deadline(seconds) {}
  };

  void RunQuery(QueryRequest request, uint64_t ordinal,
                std::shared_ptr<InFlight> flight,
                std::function<void(QueryResponse)> done);
  void RecordOutcome(bool fault);
  ir::RunType EffectiveRun(ir::RunType requested, bool* remapped) const;

  const core::Database* db_ = nullptr;
  QueryServiceOptions opts_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<Rng> root_rng_;  // only Fork()ed, never advanced
  std::unique_ptr<ResultCache> cache_;  // null when disabled

  // Admission + drain bookkeeping.
  std::atomic<uint64_t> pending_{0};
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;

  // Live deadlines, for Stop()'s cancellation sweep. Entries are appended
  // at admission and pruned opportunistically once their query finished.
  std::mutex flights_mu_;
  std::vector<std::weak_ptr<InFlight>> flights_;

  // Degradation ladder state: a ring of recent outcome bits (1 = fault)
  // under its own mutex (it is touched once per query, not per vector).
  std::mutex window_mu_;
  std::vector<uint8_t> window_;
  uint32_t window_pos_ = 0;
  uint32_t window_filled_ = 0;
  uint32_t window_faults_ = 0;
  std::atomic<ServiceMode> mode_{ServiceMode::kNormal};

  // Counters (relaxed atomics; stats() snapshots them).
  std::atomic<uint64_t> submitted_{0}, admitted_{0}, shed_{0}, refused_{0};
  std::atomic<uint64_t> ok_{0}, deadline_exceeded_{0}, unavailable_{0},
      failed_{0};
  std::atomic<uint64_t> retries_{0}, degraded_queries_{0}, probes_{0},
      transitions_{0};
};

}  // namespace x100ir::server

#endif  // X100IR_SERVER_QUERY_SERVICE_H_
