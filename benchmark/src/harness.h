// Shared machinery of x100ir_bench: the clock, open-loop arrival
// schedules, percentiles, host metadata, child-process runs, peak memory,
// CPU rotation, CPU steal, the metric registry, result files and the span
// log of traced runs.
#ifndef X100IR_BENCHMARK_HARNESS_H_
#define X100IR_BENCHMARK_HARNESS_H_

#include <sched.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace x100ir::harness {

// steady_clock nanoseconds; every timestamp the benchmark records.
int64_t NowNs();
void SleepUntilNs(int64_t t_ns);

// Poisson arrivals at `rate` per second over [0, seconds): offsets in ns.
std::vector<int64_t> PoissonArrivals(Rng* rng, double rate, double seconds);

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

// 64-bit mix of a seed and a stream tag, so every input drawn from the
// workload seed (pool, popularity, arrivals, documents) gets its own stream.
uint64_t SeedFor(uint64_t seed, uint64_t stream);

enum WorkloadBit : uint8_t {
  kHotZipf = 1,
  kColdPool = 2,
  kIngestRw = 4,
  kCluster4 = 8,
};
constexpr uint8_t kServiceWorkloads = kHotZipf | kColdPool | kIngestRw;
constexpr uint8_t kAllWorkloads = kServiceWorkloads | kCluster4;

const char* WorkloadName(WorkloadBit w);
bool ParseWorkload(const std::string& name, WorkloadBit* out);

// Every metric the benchmark can print. A layer that does no work in a
// workload reports zero counts there; a time is reported only where it
// was measured, so no workload prints a time that reads 0 by construction.
struct MetricDef {
  const char* name;
  const char* unit;
  bool higher_is_better;
  uint8_t workloads;  // WorkloadBit mask of the workloads that report it
  bool traced_only;   // reported only by --trace runs
  bool end_to_end;
  // Regression bound for the end-to-end metrics BENCHMARK.json does not
  // list (README.md says why); < 0 means "take the bound from
  // BENCHMARK.json" (end-to-end) or "no bound" (per-layer, diagnostics).
  double bound;
};
const std::vector<MetricDef>& Metrics();
const MetricDef* FindMetric(const std::string& name);

struct HostInfo {
  uint32_t nproc = 0;
  std::string cpu;
  bool simd_unpack = false;
  std::string force_scalar;  // X100IR_FORCE_SCALAR as set, "" when unset
  std::string build_type;
  std::string scale;  // "tiny" in --smoke runs, else "default"
  std::string commit;
};
// `repo_root` locates .git for the commit ("unknown" outside a checkout).
HostInfo CollectHost(const std::string& scale, const std::string& repo_root);
// The fields two runs must share to be comparable: everything but commit,
// and scale, which follows the run's smoke flag.
bool SameHost(const HostInfo& a, const HostInfo& b, std::string* why);

// Runs `fn` in a forked child process and stores the value it returns; a
// negative value, or a child that dies, is an error. The child exits right
// after `fn`, without unwinding or running exit handlers. Call it only while
// this process runs a single thread.
Status ValueFromChild(const std::function<double()>& fn, double* out);

double PeakRssMb();  // VmHWM of this process
// Returns the allocator's free pages to the system and restarts VmHWM from
// the current resident size, so PeakRssMb() covers what runs after it.
// false when the kernel refuses the restart (VmHWM then keeps counting).
bool RestartPeakRss();
uint64_t BytesUnder(const std::string& dir);
// Milliseconds one thread takes for a fixed integer loop: the host's own
// speed, which on a shared VM moves timed metrics as much as the program
// does.
double CpuProbeMs();

// Moves the calling thread from CPU to CPU among those the process may
// use, and gives it its whole set back when destroyed. Make it, use it and
// destroy it on one thread.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  // Pins the calling thread to the k-th CPU of the set (k modulo its size).
  void Pin(size_t k) const;

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
};

// CPU time the hypervisor took from this VM: the "steal" column of
// /proc/stat, sampled every 100 ms by a thread of its own while the object
// lives. On a shared host steal comes in episodes of minutes, and while one
// lasts, queues back up behind vCPUs that do not run: latency grows tenfold
// and more while the program's own time per query does not move
// (README.md, "Steal").
class StealMonitor {
 public:
  StealMonitor();
  ~StealMonitor();
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

  // The stolen share of all CPU time from `from_ns` to `to_ns`, measured
  // between the samples that enclose the interval; 0 where /proc/stat has
  // no steal column.
  double Share(int64_t from_ns, int64_t to_ns) const;

 private:
  struct Sample {
    int64_t t_ns;
    uint64_t steal;
    uint64_t total;
  };
  void Take();

  mutable std::mutex mu_;
  std::vector<Sample> samples_;  // guarded by mu_, in time order
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: started after the state above
};

struct RunResult {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool traced = false;
  bool smoke = false;
  HostInfo host;
  bool valid = true;
  std::string invalid_reason;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;

  void Set(const std::string& name, double value);
  const double* Find(const std::string& name) const;
};

// `METRIC <workload> <name> <value> <unit>`, one line per metric.
void PrintMetrics(const RunResult& r);
// Names the workload should report but did not (empty = complete).
std::vector<std::string> MissingMetrics(const RunResult& r,
                                        WorkloadBit workload);
Status WriteResult(const RunResult& r, const std::string& path);
Status ReadResult(const std::string& path, RunResult* r);

// One timed interval of a traced run. Spans of one request share `req`;
// `parent` is the id of the span that caused this one (0 = root).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t req = 0;
  const char* name = nullptr;  // static string
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Spans are kept in memory and written out when the run ends. Load threads
// fill pre-reserved slots by index (one writer per slot, no lock); rare or
// serial events append under a mutex.
class SpanLog {
 public:
  SpanLog() = default;
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  // Slot i holds the span with id i + 1; NewId hands out ids above them.
  void ReserveSlots(size_t n) {
    slots_.assign(n, Span{});
    next_id_.store(n + 1, std::memory_order_relaxed);
  }
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void SetSlot(size_t i, const Span& s) { slots_[i] = s; }
  void Add(const Span& s);
  Status Write(const std::string& path, const std::string& workload,
               uint64_t seed, int64_t origin_ns) const;

 private:
  std::atomic<uint64_t> next_id_{1};
  std::vector<Span> slots_;
  mutable std::mutex mu_;
  std::vector<Span> appended_;  // guarded by mu_
};

}  // namespace x100ir::harness

#endif  // X100IR_BENCHMARK_HARNESS_H_
