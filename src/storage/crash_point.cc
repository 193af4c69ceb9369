#include "storage/crash_point.h"

namespace x100ir::storage {

CrashPoint& CrashPoint::Instance() {
  static CrashPoint instance;
  return instance;
}

void CrashPoint::Arm(CrashSite site, uint64_t countdown) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_site_ = site;
  countdown_ = countdown;
  crashed_.store(false, std::memory_order_release);
  armed_.store(countdown > 0 || held_site_ != CrashSite::kNumSites,
               std::memory_order_release);
}

void CrashPoint::Reset() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    armed_site_ = CrashSite::kNumSites;
    countdown_ = 0;
    for (uint64_t& h : hits_) h = 0;
    crashed_.store(false, std::memory_order_release);
  }
  Release();  // drops any hold and, with countdown_ now 0, disarms
}

void CrashPoint::Hold(CrashSite site) {
  std::lock_guard<std::mutex> lock(mu_);
  held_site_ = site;
  armed_.store(true, std::memory_order_release);
}

void CrashPoint::WaitHeld() {
  std::unique_lock<std::mutex> lock(mu_);
  held_cv_.wait(lock, [this] { return parked_; });
}

void CrashPoint::Release() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    held_site_ = CrashSite::kNumSites;
    parked_ = false;
    armed_.store(countdown_ > 0, std::memory_order_release);
  }
  held_cv_.notify_all();
}

bool CrashPoint::Reached(CrashSite site) {
  // Fast path: nothing armed, no crash — one relaxed load, no lock. The
  // counters only advance while a battery is armed, which keeps this off
  // the production append path entirely.
  if (!armed_.load(std::memory_order_relaxed)) {
    return crashed_.load(std::memory_order_acquire);
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (crashed_.load(std::memory_order_acquire)) return true;
  ++hits_[static_cast<size_t>(site)];
  if (site == held_site_) {
    held_site_ = CrashSite::kNumSites;  // park only the first arrival
    parked_ = true;
    held_cv_.notify_all();
    held_cv_.wait(lock, [this] { return !parked_; });
  }
  if (site == armed_site_ && countdown_ > 0 &&
      hits_[static_cast<size_t>(site)] == countdown_) {
    crashed_.store(true, std::memory_order_release);
    return true;
  }
  return false;
}

uint64_t CrashPoint::hits(CrashSite site) const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_[static_cast<size_t>(site)];
}

}  // namespace x100ir::storage
