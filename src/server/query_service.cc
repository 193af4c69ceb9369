#include "server/query_service.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "common/string_util.h"

namespace x100ir::server {

Status QueryService::Start(const core::Database* db,
                           const QueryServiceOptions& opts) {
  if (running()) return FailedPrecondition("query service already running");
  if (db == nullptr || !db->is_open()) {
    return InvalidArgument("query service needs an open database");
  }
  if (opts.max_pending == 0) {
    return InvalidArgument("max_pending must be > 0 (everything would shed)");
  }
  if (opts.degrade_threshold > opts.refuse_threshold) {
    return InvalidArgument(
        "degrade_threshold must not exceed refuse_threshold");
  }
  db_ = db;
  opts_ = opts;
  if (opts_.fault_window == 0) opts_.fault_window = 1;
  if (opts_.probe_interval == 0) opts_.probe_interval = 1;
  root_rng_ = std::make_unique<Rng>(opts_.rng_seed);
  cache_ = opts_.result_cache_entries > 0
               ? std::make_unique<ResultCache>(opts_.result_cache_entries)
               : nullptr;
  window_.assign(opts_.fault_window, 0);
  window_pos_ = window_filled_ = window_faults_ = 0;
  mode_.store(ServiceMode::kNormal, std::memory_order_relaxed);
  pool_ = std::make_unique<ThreadPool>(opts_.num_threads);
  return OkStatus();
}

Status QueryService::Submit(const QueryRequest& request,
                            std::function<void(QueryResponse)> done) {
  if (!running()) return FailedPrecondition("query service is not running");
  if (done == nullptr) return InvalidArgument("null completion callback");
  const uint64_t ordinal =
      submitted_.fetch_add(1, std::memory_order_relaxed);

  // Result cache first — even ahead of the ladder: a hit touches no
  // storage, so serving it costs a refusing service nothing and sheds a
  // whole query's worth of load from the sick device.
  if (cache_ != nullptr) {
    const std::string key =
        ResultCacheKey(request.query, request.run, request.opts);
    QueryResponse hit;
    if (!key.empty() && cache_->Lookup(key, db_->epoch(), &hit.result)) {
      hit.status = OkStatus();
      hit.executed_run = request.run;
      done(std::move(hit));
      return OkStatus();
    }
  }

  // Ladder refusal next: a refusing service sheds load *before* the
  // capacity check, admitting only the probe stream that can heal it.
  if (mode() == ServiceMode::kRefusing) {
    if (ordinal % opts_.probe_interval != 0) {
      refused_.fetch_add(1, std::memory_order_relaxed);
      return Unavailable(
          "service is refusing queries (observed fault rate above the "
          "refuse threshold); retry later");
    }
    probes_.fetch_add(1, std::memory_order_relaxed);
  }

  // Bounded admission: CAS pending_ up only while below the bound, so a
  // burst of concurrent Submits can never overshoot it.
  uint64_t cur = pending_.load(std::memory_order_relaxed);
  do {
    if (cur >= opts_.max_pending) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      return ResourceExhausted(StrFormat(
          "admission queue full (%llu queries pending, bound %u)",
          static_cast<unsigned long long>(cur), opts_.max_pending));
    }
  } while (!pending_.compare_exchange_weak(cur, cur + 1,
                                           std::memory_order_relaxed));
  admitted_.fetch_add(1, std::memory_order_relaxed);

  // The deadline starts at admission, so queue wait burns query budget —
  // an overloaded service times queries out instead of serving stale work.
  const double deadline_s = request.deadline_seconds > 0.0
                                ? request.deadline_seconds
                                : opts_.default_deadline_seconds;
  auto flight = deadline_s > 0.0 ? std::make_shared<InFlight>(deadline_s)
                                 : std::make_shared<InFlight>();
  {
    std::lock_guard<std::mutex> lock(flights_mu_);
    // Opportunistic prune: drop entries whose query already finished.
    if (flights_.size() >= 2 * opts_.max_pending) {
      std::vector<std::weak_ptr<InFlight>> live;
      live.reserve(flights_.size());
      for (auto& w : flights_) {
        if (!w.expired()) live.push_back(std::move(w));
      }
      flights_.swap(live);
    }
    flights_.push_back(flight);
  }

  pool_->Submit([this, req = request, ordinal, flight = std::move(flight),
                 cb = std::move(done)]() mutable {
    RunQuery(std::move(req), ordinal, std::move(flight), std::move(cb));
  });
  return OkStatus();
}

QueryResponse QueryService::Execute(const QueryRequest& request) {
  std::mutex mu;
  std::condition_variable cv;
  bool ready = false;
  QueryResponse out;
  Status admitted = Submit(request, [&](QueryResponse resp) {
    std::lock_guard<std::mutex> lock(mu);
    out = std::move(resp);
    ready = true;
    cv.notify_one();
  });
  if (!admitted.ok()) {
    out.status = admitted;
    out.executed_run = request.run;
    return out;
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return ready; });
  return out;
}

ir::RunType QueryService::EffectiveRun(ir::RunType requested,
                                       bool* remapped) const {
  *remapped = false;
  if (mode() == ServiceMode::kNormal) return requested;
  // Degraded (and probes while Refusing): storage runs fall back to the
  // materialized quantized-score column — the fewest cold bytes per query,
  // so the sick device sees the least possible traffic. In-memory runs
  // never touch the pool and pass through unchanged.
  switch (requested) {
    case ir::RunType::kBm25T:
    case ir::RunType::kBm25TC:
    case ir::RunType::kBm25TCM:
      *remapped = true;
      return ir::RunType::kBm25TCMQ8;
    default:
      return requested;
  }
}

void QueryService::RunQuery(QueryRequest request, uint64_t ordinal,
                            std::shared_ptr<InFlight> flight,
                            std::function<void(QueryResponse)> done) {
  // The query's private random stream (retry backoff jitter): forked from
  // the root seed by ordinal, so it is reproducible and independent of
  // scheduling (§9.1).
  Rng rng = root_rng_->Fork(ordinal);
  QueryResponse resp;
  double backoff = opts_.retry_backoff_seconds;
  for (uint32_t attempt = 0;; ++attempt) {
    bool remapped = false;
    const ir::RunType run = EffectiveRun(request.run, &remapped);
    ir::SearchOptions opts = request.opts;
    opts.deadline = &flight->deadline;
    resp.result = ir::SearchResult();
    resp.status = db_->Search(request.query, run, opts, &resp.result);
    resp.executed_run = run;
    resp.degraded = remapped;
    // Service-level classified retry: only transient failures, only while
    // budget and deadline remain. Each re-run re-reads every page (nothing
    // poisoned entered the pool), with a real jittered backoff so
    // concurrent retries don't stampede the same device.
    if (!IsTransient(resp.status) || attempt >= opts_.retry_budget ||
        flight->deadline.cancelled() || flight->deadline.expired()) {
      break;
    }
    retries_.fetch_add(1, std::memory_order_relaxed);
    resp.retries = attempt + 1;
    const double sleep_s = backoff * (0.5 + rng.NextDouble());
    std::this_thread::sleep_for(std::chrono::duration<double>(sleep_s));
    backoff *= 2.0;
  }
  if (resp.degraded) {
    degraded_queries_.fetch_add(1, std::memory_order_relaxed);
  }

  // Outcome classification — exactly one bucket per admitted query.
  bool fault = false;
  switch (resp.status.code()) {
    case StatusCode::kOk:
      ok_.fetch_add(1, std::memory_order_relaxed);
      break;
    case StatusCode::kDeadlineExceeded:
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      break;
    case StatusCode::kUnavailable:
      unavailable_.fetch_add(1, std::memory_order_relaxed);
      fault = true;
      break;
    default:
      failed_.fetch_add(1, std::memory_order_relaxed);
      // Permanent I/O failures (torn pages) are storage sickness and feed
      // the ladder; caller errors (InvalidArgument) do not.
      fault = resp.status.code() == StatusCode::kIOError;
      break;
  }
  RecordOutcome(fault);

  // Cache only full-fidelity successes: a degraded (remapped-run) result
  // must not be replayed to a healthy-mode request for the original run.
  // Insert validates the result's snapshot epoch against the cache's, so a
  // query that raced a commit never publishes its stale answer.
  if (cache_ != nullptr && resp.status.ok() && !resp.degraded) {
    const std::string key =
        ResultCacheKey(request.query, request.run, request.opts);
    if (!key.empty()) cache_->Insert(key, resp.result.epoch, resp.result);
  }

  done(std::move(resp));
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    pending_.fetch_sub(1, std::memory_order_relaxed);
  }
  drain_cv_.notify_all();
}

void QueryService::RecordOutcome(bool fault) {
  ServiceMode target;
  {
    std::lock_guard<std::mutex> lock(window_mu_);
    if (window_filled_ == window_.size()) {
      window_faults_ -= window_[window_pos_];
    } else {
      ++window_filled_;
    }
    window_[window_pos_] = fault ? 1 : 0;
    window_faults_ += window_[window_pos_];
    window_pos_ = (window_pos_ + 1) % static_cast<uint32_t>(window_.size());
    // Don't judge a nearly-empty window: a single early fault would refuse
    // the whole service. Wait for a quarter of it (at least 4 outcomes).
    const uint32_t min_sample = std::max<uint32_t>(
        4, static_cast<uint32_t>(window_.size()) / 4);
    if (window_filled_ < min_sample) return;
    const double frac = static_cast<double>(window_faults_) /
                        static_cast<double>(window_filled_);
    target = frac >= opts_.refuse_threshold    ? ServiceMode::kRefusing
             : frac >= opts_.degrade_threshold ? ServiceMode::kDegraded
                                               : ServiceMode::kNormal;
  }
  ServiceMode prev = mode_.exchange(target, std::memory_order_relaxed);
  if (prev != target) {
    transitions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void QueryService::Drain() {
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [this] {
    return pending_.load(std::memory_order_relaxed) == 0;
  });
}

void QueryService::Stop() {
  if (!running()) return;
  // Cancel every live deadline: queued/running queries observe it at their
  // next checkpoint and finish Unavailable("query cancelled") instead of
  // holding shutdown hostage to a slow plan.
  {
    std::lock_guard<std::mutex> lock(flights_mu_);
    for (auto& w : flights_) {
      if (auto f = w.lock()) f->deadline.Cancel();
    }
  }
  Drain();
  pool_->Shutdown();
  pool_.reset();
  {
    std::lock_guard<std::mutex> lock(flights_mu_);
    flights_.clear();
  }
}

ServiceStats QueryService::stats() const {
  ServiceStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.shed_queue_full = shed_.load(std::memory_order_relaxed);
  s.refused_unavailable = refused_.load(std::memory_order_relaxed);
  s.ok = ok_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.unavailable = unavailable_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.degraded_queries = degraded_queries_.load(std::memory_order_relaxed);
  s.probes_admitted = probes_.load(std::memory_order_relaxed);
  s.mode_transitions = transitions_.load(std::memory_order_relaxed);
  if (cache_ != nullptr) {
    const ResultCacheStats cs = cache_->stats();
    s.cache_hits = cs.hits;
    s.cache_misses = cs.misses;
    s.cache_evictions = cs.evictions;
    s.cache_invalidations = cs.invalidations;
  }
  if (db_ != nullptr) {
    const storage::WalStats ws = db_->wal_stats();
    s.wal_appends = ws.appends;
    s.wal_fsyncs = ws.fsyncs;
    s.wal_group_commit_batch_max = ws.batch_records_max;
  }
  s.mode = mode();
  return s;
}

}  // namespace x100ir::server
