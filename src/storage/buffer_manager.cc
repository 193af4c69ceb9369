#include "storage/buffer_manager.h"

#include <algorithm>
#include <cassert>

#include "common/string_util.h"

namespace x100ir::storage {

BufferManager::BufferManager(uint64_t pool_bytes, SimulatedDisk* disk,
                             uint32_t page_bytes, uint32_t shards)
    : pool_bytes_(pool_bytes),
      page_bytes_(page_bytes == 0 ? 1 : page_bytes),
      disk_(disk) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (uint32_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->budget = pool_bytes / shards;
  }
  // The division remainder goes to shard 0 so the budgets sum to the pool;
  // with shards == 1 that makes the budget exactly pool_bytes.
  shards_[0]->budget += pool_bytes % shards;
}

Status BufferManager::IssueFileId(uint32_t* file_id) {
  const uint64_t id = next_file_id_.fetch_add(1, std::memory_order_relaxed);
  if (id >= kMaxFileIds) {
    return ResourceExhausted(StrFormat(
        "buffer pool has issued all %llu file ids of its page key",
        static_cast<unsigned long long>(kMaxFileIds)));
  }
  *file_id = static_cast<uint32_t>(id);
  return OkStatus();
}

Status BufferManager::EvictFile(uint32_t file_id) {
  uint64_t pinned = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto fit = shard->frames.begin(); fit != shard->frames.end();) {
      Frame& frame = fit->second;
      if ((fit->first >> 40) != file_id) {
        ++fit;
      } else if (frame.refcount != 0) {
        ++pinned;
        ++fit;
      } else {
        shard->lru.erase(frame.lru_pos);
        shard->resident_bytes -= frame.data.size();
        fit = shard->frames.erase(fit);
      }
    }
  }
  if (pinned != 0) {
    return FailedPrecondition(
        StrFormat("evicting file %u with %llu pinned pages", file_id,
                  static_cast<unsigned long long>(pinned)));
  }
  return OkStatus();
}

Status BufferManager::Pin(const File& file, uint32_t file_id,
                          uint64_t page_no, const uint8_t** data,
                          uint32_t* len) {
  if (data == nullptr || len == nullptr) {
    return InvalidArgument("null pin output");
  }
  const uint64_t key = Key(file_id, page_no);
  Shard& shard = ShardOf(key);
  std::lock_guard<std::mutex> lock(shard.mu);

  auto it = shard.frames.find(key);
  if (it != shard.frames.end()) {
    Frame& frame = it->second;
    ++shard.stats.hits;
    if (frame.refcount++ == 0) ++shard.pinned_pages;
    *data = frame.data.data();
    *len = static_cast<uint32_t>(frame.data.size());
    return OkStatus();
  }

  // Miss: size the page against the file, make room, fetch. The shard lock
  // is held across the read — a second thread pinning the *same* page must
  // wait for the fetch anyway, and other shards proceed unblocked.
  uint64_t file_size = 0;
  X100IR_RETURN_IF_ERROR(file.Size(&file_size));
  const uint64_t off = page_no * static_cast<uint64_t>(page_bytes_);
  if (off >= file_size) {
    return InvalidArgument(
        StrFormat("page %llu past end of file %u",
                  static_cast<unsigned long long>(page_no), file_id));
  }
  const uint32_t page_len = static_cast<uint32_t>(
      std::min<uint64_t>(page_bytes_, file_size - off));

  while (shard.resident_bytes + page_len > shard.budget) {
    // The victim is the least recently unpinned frame: the first unpinned
    // one from the front.
    auto victim = std::find_if(
        shard.lru.begin(), shard.lru.end(), [&shard](uint64_t k) {
          return shard.frames.find(k)->second.refcount == 0;
        });
    if (victim == shard.lru.end()) {
      return ResourceExhausted(StrFormat(
          "buffer pool shard exhausted: %llu bytes resident are all pinned, "
          "%u more needed (shard budget %llu)",
          static_cast<unsigned long long>(shard.resident_bytes), page_len,
          static_cast<unsigned long long>(shard.budget)));
    }
    auto vit = shard.frames.find(*victim);
    shard.resident_bytes -= vit->second.data.size();
    shard.lru.erase(victim);
    shard.frames.erase(vit);
    ++shard.stats.evictions;
  }

  // Fault injection happens at the same point a real device would fail:
  // after admission control, before any bytes land. A faulted page never
  // enters the pool, so a later retry re-fetches from scratch.
  if (FaultPlan* plan = fault_plan()) {
    switch (plan->Decide(file_id, page_no)) {
      case FaultKind::kTransientError:
        ++shard.stats.faults_transient;
        return Unavailable(StrFormat(
            "injected transient read error (file %u page %llu)", file_id,
            static_cast<unsigned long long>(page_no)));
      case FaultKind::kTornRead:
        ++shard.stats.faults_torn;
        return IOError(StrFormat(
            "injected torn read: page %llu of file %u came back short",
            static_cast<unsigned long long>(page_no), file_id));
      case FaultKind::kLatencySpike:
        if (disk_ != nullptr) {
          disk_->ChargeLatency(plan->options().latency_spike_seconds);
        }
        break;
      case FaultKind::kNone:
        break;
    }
  }

  Frame& frame = shard.frames[key];
  frame.data.resize(page_len);
  Status read = file.ReadAt(off, page_len, frame.data.data());
  if (!read.ok()) {
    // Drop the half-built frame: leaving it resident would make the next
    // Pin a "hit" on never-filled bytes.
    shard.frames.erase(key);
    return read;
  }
  if (disk_ != nullptr) disk_->Charge(page_len);
  ++shard.stats.misses;
  shard.stats.bytes_fetched += page_len;
  shard.resident_bytes += page_len;
  frame.refcount = 1;
  frame.lru_pos = shard.lru.insert(shard.lru.end(), key);
  ++shard.pinned_pages;
  *data = frame.data.data();
  *len = page_len;
  return OkStatus();
}

void BufferManager::Unpin(uint32_t file_id, uint64_t page_no) {
  const uint64_t key = Key(file_id, page_no);
  Shard& shard = ShardOf(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.frames.find(key);
  if (it == shard.frames.end() || it->second.refcount == 0) {
    // Unbalanced unpin: a caller bug. Loud in debug, harmless in release.
    assert(false && "unpin of an unpinned page");
    return;
  }
  Frame& frame = it->second;
  if (--frame.refcount == 0) {
    --shard.pinned_pages;
    shard.lru.splice(shard.lru.end(), shard.lru, frame.lru_pos);
  }
}

Status BufferManager::EvictAll() {
  // All-shard operation: take every shard lock in ascending index order
  // (the only order shard locks are ever held together, per §9.2), verify
  // nothing is pinned anywhere, then clear atomically.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (auto& shard : shards_) locks.emplace_back(shard->mu);
  uint64_t pinned = 0;
  for (auto& shard : shards_) pinned += shard->pinned_pages;
  if (pinned != 0) {
    return FailedPrecondition(StrFormat(
        "EvictAll with %llu pages still pinned",
        static_cast<unsigned long long>(pinned)));
  }
  for (auto& shard : shards_) {
    shard->frames.clear();
    shard->lru.clear();
    shard->resident_bytes = 0;
  }
  return OkStatus();
}

BufferStats BufferManager::stats() const {
  BufferStats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total.hits += shard->stats.hits;
    total.misses += shard->stats.misses;
    total.evictions += shard->stats.evictions;
    total.bytes_fetched += shard->stats.bytes_fetched;
    total.faults_transient += shard->stats.faults_transient;
    total.faults_torn += shard->stats.faults_torn;
  }
  return total;
}

void BufferManager::ResetStats() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->stats = BufferStats{};
  }
}

uint64_t BufferManager::resident_bytes() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->resident_bytes;
  }
  return total;
}

uint64_t BufferManager::resident_pages() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->frames.size();
  }
  return total;
}

uint64_t BufferManager::ResidentPagesOfFile(uint32_t file_id) const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [key, frame] : shard->frames) {
      (void)frame;
      if ((key >> 40) == file_id) ++total;
    }
  }
  return total;
}

uint64_t BufferManager::pinned_pages() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->pinned_pages;
  }
  return total;
}

}  // namespace x100ir::storage
