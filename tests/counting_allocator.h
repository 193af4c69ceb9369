// The counting allocator behind the tests that bound what a code path
// allocates. It replaces the global operator new and delete, so include it
// in exactly one translation unit of a test binary.
//
// The replaced operator new prefixes every block with its size and the
// CountingScope generation it was allocated under (0 outside any scope);
// operator delete subtracts a block only if it was allocated under the
// scope still active. So a scope's peak is the most bytes that allocations
// made inside it held at once, unaffected by blocks from before it, and a
// peak of 0 means the scope allocated nothing.
#ifndef X100IR_TESTS_COUNTING_ALLOCATOR_H_
#define X100IR_TESTS_COUNTING_ALLOCATOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {

std::atomic<uint64_t> g_alloc_generation{0};  // 0: not counting
std::atomic<int64_t> g_alloc_live{0};
std::atomic<int64_t> g_alloc_peak{0};
std::atomic<uint64_t> g_alloc_large_bytes{UINT64_MAX};
std::atomic<int64_t> g_alloc_large{0};  // allocations of >= large bytes
std::atomic<int64_t> g_alloc_count{0};
constexpr size_t kAllocHeader = 16;  // keeps malloc's 16-byte alignment

void* CountedNew(size_t bytes) {
  auto* hdr = static_cast<uint64_t*>(std::malloc(bytes + kAllocHeader));
  if (hdr == nullptr) throw std::bad_alloc();
  const uint64_t gen = g_alloc_generation.load(std::memory_order_relaxed);
  hdr[0] = bytes;
  hdr[1] = gen;
  if (gen != 0) {
    g_alloc_count.fetch_add(1);
    const int64_t live =
        g_alloc_live.fetch_add(static_cast<int64_t>(bytes)) +
        static_cast<int64_t>(bytes);
    int64_t peak = g_alloc_peak.load();
    while (live > peak && !g_alloc_peak.compare_exchange_weak(peak, live)) {
    }
    if (bytes >= g_alloc_large_bytes.load(std::memory_order_relaxed)) {
      g_alloc_large.fetch_add(1);
    }
  }
  return hdr + 2;
}

void CountedDelete(void* p) noexcept {
  if (p == nullptr) return;
  uint64_t* hdr = static_cast<uint64_t*>(p) - 2;
  const uint64_t gen = g_alloc_generation.load(std::memory_order_relaxed);
  if (gen != 0 && hdr[1] == gen) {
    g_alloc_live.fetch_sub(static_cast<int64_t>(hdr[0]));
  }
  std::free(hdr);
}

}  // namespace

void* operator new(size_t bytes) { return CountedNew(bytes); }
void* operator new[](size_t bytes) { return CountedNew(bytes); }
void* operator new(size_t bytes, const std::nothrow_t&) noexcept {
  try {
    return CountedNew(bytes);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](size_t bytes, const std::nothrow_t& tag) noexcept {
  return operator new(bytes, tag);
}
void operator delete(void* p) noexcept { CountedDelete(p); }
void operator delete[](void* p) noexcept { CountedDelete(p); }
void operator delete(void* p, size_t) noexcept { CountedDelete(p); }
void operator delete[](void* p, size_t) noexcept { CountedDelete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedDelete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedDelete(p);
}

namespace x100ir {

// Counts the heap bytes allocated inside its lifetime (one scope at a time),
// the allocations, and the allocations of at least `large_bytes` each.
class CountingScope {
 public:
  explicit CountingScope(uint64_t large_bytes = UINT64_MAX) {
    static uint64_t generations = 0;
    g_alloc_live.store(0);
    g_alloc_peak.store(0);
    g_alloc_large_bytes.store(large_bytes);
    g_alloc_large.store(0);
    g_alloc_count.store(0);
    g_alloc_generation.store(++generations);
  }
  ~CountingScope() { g_alloc_generation.store(0); }
  CountingScope(const CountingScope&) = delete;
  CountingScope& operator=(const CountingScope&) = delete;

  int64_t peak() const { return g_alloc_peak.load(); }
  int64_t large_allocations() const { return g_alloc_large.load(); }
  int64_t allocations() const { return g_alloc_count.load(); }
};

}  // namespace x100ir

#endif  // X100IR_TESTS_COUNTING_ALLOCATOR_H_
