// Bounded LRU cache of full query responses, keyed on the complete result
// surface of a request: run type, normalized term set, k, and every
// SearchOptions knob that can change what Search returns (BM25 parameters,
// path selection, vector size — MaxScore demotes terms at vector
// boundaries, which changes a score's float addition order).
//
// Epoch discipline (DESIGN.md §10): every entry is tagged with the snapshot
// epoch its result was computed at, and the cache as a whole carries one
// current-epoch tag. A lookup under a newer epoch (a document was added,
// deleted, or a merge committed since) drops the whole cache — any mutation
// can change any result, and epochs are global, so per-entry invalidation
// buys nothing. An insert whose result is older than the cache's epoch is
// refused: a query that raced a commit must not publish its stale answer.
//
// Thread-safe; all counters monotonic since construction.
#ifndef X100IR_SERVER_RESULT_CACHE_H_
#define X100IR_SERVER_RESULT_CACHE_H_

#include <cstdint>
#include <cstring>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ir/request.h"
#include "ir/search_engine.h"

namespace x100ir::server {

struct ResultCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;      // LRU capacity evictions
  uint64_t invalidations = 0;  // whole-cache drops on epoch change
};

// Serializes the result-relevant parts of a request into the cache key.
// PrepareQuery normalizes the terms against a target holding every term
// (the key is taken before a snapshot is pinned), so query [5, 3, 5] and
// query [3, 5] share an entry. Returns "" for a request PrepareQuery
// rejects even so; it is never cached.
inline std::string ResultCacheKey(const ir::Query& query, ir::RunType run,
                                  const ir::SearchOptions& opts) {
  std::vector<uint32_t> terms;
  const Status s =
      ir::PrepareQuery(query, run, opts, UINT32_MAX, /*has_storage=*/true,
                       [](uint32_t) { return 1u; }, &terms);
  if (!s.ok()) return "";
  std::string key;
  key.reserve(18 + terms.size() * sizeof(uint32_t));
  auto append = [&key](const void* p, size_t n) {
    key.append(static_cast<const char*>(p), n);
  };
  const uint8_t run_byte = static_cast<uint8_t>(run);
  append(&run_byte, 1);
  append(&opts.k, sizeof(opts.k));
  append(&opts.bm25.k1, sizeof(opts.bm25.k1));
  append(&opts.bm25.b, sizeof(opts.bm25.b));
  const uint8_t maxscore = opts.maxscore_bm25 ? 1 : 0;
  append(&maxscore, 1);
  append(&opts.vector_size, sizeof(opts.vector_size));
  append(terms.data(), terms.size() * sizeof(uint32_t));
  return key;
}

class ResultCache {
 public:
  explicit ResultCache(uint32_t capacity) : capacity_(capacity) {}
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  // Looks `key` up under the caller's current epoch. An epoch newer than
  // the cache's tag first drops every entry (counted as one invalidation).
  // A hit copies the stored result into *out and refreshes LRU recency.
  bool Lookup(const std::string& key, uint64_t current_epoch,
              ir::SearchResult* out) {
    std::lock_guard<std::mutex> lock(mu_);
    SyncEpochLocked(current_epoch);
    auto it = map_.find(key);
    if (it == map_.end()) {
      ++stats_.misses;
      return false;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    *out = it->second->second;
    ++stats_.hits;
    return true;
  }

  // Stores a successful result computed at `result_epoch`. Refused (a
  // no-op) when the cache has already observed a newer epoch, or when
  // capacity is zero. Evicts the least recently used entry past capacity.
  void Insert(const std::string& key, uint64_t result_epoch,
              const ir::SearchResult& result) {
    if (capacity_ == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    SyncEpochLocked(result_epoch);
    if (result_epoch < epoch_) return;  // raced a commit: stale, drop it
    auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      it->second->second = result;
      return;
    }
    lru_.emplace_front(key, result);
    map_[key] = lru_.begin();
    if (map_.size() > capacity_) {
      map_.erase(lru_.back().first);
      lru_.pop_back();
      ++stats_.evictions;
    }
  }

  uint64_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }

  ResultCacheStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  void SyncEpochLocked(uint64_t epoch) {
    if (epoch <= epoch_) return;
    if (!map_.empty()) {
      map_.clear();
      lru_.clear();
      ++stats_.invalidations;
    }
    epoch_ = epoch;
  }

  const uint32_t capacity_;
  mutable std::mutex mu_;
  uint64_t epoch_ = 0;
  std::list<std::pair<std::string, ir::SearchResult>> lru_;  // front = MRU
  std::unordered_map<std::string,
                     std::list<std::pair<std::string, ir::SearchResult>>::
                         iterator>
      map_;
  ResultCacheStats stats_;
};

}  // namespace x100ir::server

#endif  // X100IR_SERVER_RESULT_CACHE_H_
