#include "harness.h"

#include <malloc.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/string_util.h"
#include "compress/unpack.h"
#include "json.h"

#ifndef X100IR_BENCH_BUILD_TYPE
#define X100IR_BENCH_BUILD_TYPE "unknown"
#endif

namespace x100ir::harness {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntilNs(int64_t t_ns) {
  // Linux rounds a sleeping thread's wake-up up by its timer slack (50 us
  // by default) — as long as a fast query. A load thread wants it on time.
  thread_local const bool precise = prctl(PR_SET_TIMERSLACK, 1UL) == 0;
  (void)precise;
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t_ns)));
}

std::vector<int64_t> PoissonArrivals(Rng* rng, double rate, double seconds) {
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(rate * seconds * 1.05) + 16);
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng->NextDouble()) / rate;
    if (t >= seconds) return out;
    out.push_back(static_cast<int64_t>(t * 1e9));
  }
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

uint64_t SeedFor(uint64_t seed, uint64_t stream) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ull + stream;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

const char* WorkloadName(WorkloadBit w) {
  switch (w) {
    case kHotZipf:
      return "hot_zipf";
    case kColdPool:
      return "cold_pool";
    case kIngestRw:
      return "ingest_rw";
    case kCluster4:
      return "cluster4";
  }
  return "unknown";
}

bool ParseWorkload(const std::string& name, WorkloadBit* out) {
  for (const WorkloadBit w : {kHotZipf, kColdPool, kIngestRw, kCluster4}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const std::vector<MetricDef>& Metrics() {
  constexpr uint8_t kAll = kAllWorkloads;
  constexpr bool kHigher = true;
  constexpr bool kLower = false;
  static const std::vector<MetricDef> defs = {
      // name, unit, better, workloads, traced_only, end_to_end, bound
      {"setup_s", "s", kLower, kAll, false, true, -1},
      {"search_mean_ms", "ms", kLower, kAll, false, true, -1},
      {"search_p50_ms", "ms", kLower, kAll, false, true, 0.25},
      {"query_p50_ms", "ms", kLower, kAll, false, true, 0.25},
      {"query_p99_ms", "ms", kLower, kAll, false, true, 0.25},
      {"query_p999_ms", "ms", kLower, kAll, false, true, -1},
      {"capacity_qps", "1/s", kHigher, kAll, false, true, 0.25},
      {"write_p50_ms", "ms", kLower, kIngestRw, false, true, 0.10},
      {"write_p99_ms", "ms", kLower, kIngestRw, false, true, 0.10},
      {"error_rate", "share", kLower, kAll, false, true, 0.0},
      {"ok_share", "share", kHigher, kAll, false, true, -1},
      {"p_at_20", "share", kHigher, kAll, false, true, -1},
      {"peak_rss_mb", "MiB", kLower, kAll, false, true, -1},
      {"stored_bytes_per_posting", "B", kLower, kAll, false, true, -1},

      {"server.queue_ms_p50", "ms", kLower, kAll, false, false, -1},
      {"server.queue_ms_p99", "ms", kLower, kAll, false, false, -1},
      {"server.submit_us_p50", "us", kLower, kServiceWorkloads, false, false,
       -1},
      {"server.cache_hit_share", "share", kHigher, kAll, false, false, -1},
      {"server.shed_share", "share", kLower, kAll, false, false, -1},
      {"server.cache_invalidations_per_s", "1/s", kLower, kAll, false, false,
       -1},

      {"ir.engine_ms_p50", "ms", kLower, kAll, false, false, -1},
      {"ir.engine_ms_p99", "ms", kLower, kAll, false, false, -1},
      {"ir.candidates_per_query", "count", kLower, kAll, false, false, -1},
      {"ir.docs_probed_per_query", "count", kLower, kAll, false, false, -1},
      {"ir.vectors_pruned_per_query", "count", kHigher, kAll, false, false,
       -1},
      {"ir.blockmax_skip_share", "share", kHigher, kAll, false, false, -1},
      {"ir.second_pass_share", "share", kLower, kAll, false, false, -1},

      {"compress.windows_decoded_per_query", "count", kLower, kAll, false,
       false, -1},
      {"compress.windows_skipped_per_query", "count", kHigher, kAll, false,
       false, -1},
      {"compress.tf_windows_per_query", "count", kLower, kAll, false, false,
       -1},
      {"compress.fused_window_share", "share", kHigher, kAll, false, false,
       -1},
      {"compress.ns_per_window", "ns", kLower, kAll, true, false, -1},

      {"vec.primitive_calls_per_query", "count", kLower, kAll, false, false,
       -1},

      {"storage.hit_rate", "share", kHigher, kAll, false, false, -1},
      {"storage.misses_per_query", "count", kLower, kAll, false, false, -1},
      {"storage.kb_fetched_per_query", "KiB", kLower, kAll, false, false, -1},
      {"storage.evictions_per_query", "count", kLower, kAll, false, false,
       -1},
      {"storage.modeled_io_ms_per_query", "ms", kLower, kColdPool, false,
       false, -1},

      {"wal.fsyncs_per_s", "1/s", kLower, kAll, false, false, -1},
      {"wal.records_per_fsync", "count", kHigher, kAll, false, false, -1},
      {"wal.sync_wait_share", "share", kLower, kAll, false, false, -1},

      {"snapshot.structures_per_query", "count", kLower, kAll, false, false,
       -1},
      {"snapshot.delta_docs_mean", "count", kLower, kAll, false, false, -1},
      {"snapshot.self_ms_p50", "ms", kLower, kAll, true, false, -1},
      {"merge.count", "count", kLower, kAll, false, false, -1},
      {"merge.seconds_mean", "s", kLower, kIngestRw, false, false, -1},
      {"merge.bytes_per_doc_added", "B", kLower, kAll, false, false, -1},

      {"dist.shard_ms_max_p50", "ms", kLower, kCluster4, false, false, -1},
      {"dist.shard_skew", "ratio", kLower, kCluster4, false, false, -1},
      {"dist.gather_ms_p50", "ms", kLower, kCluster4, false, false, -1},

      {"gen.send_lag_ms_p99", "ms", kLower, kAll, false, false, -1},
      {"gen.offered_qps", "1/s", kHigher, kAll, false, false, -1},
      {"gen.samples", "count", kHigher, kAll, false, false, -1},
      {"gen.lone_rounds", "count", kHigher, kAll, false, false, -1},
      {"host.cpu_probe_ms", "ms", kLower, kAll, false, false, -1},
      {"host.steal_share", "share", kLower, kAll, false, false, -1},

      {"trace.query_p50_ms", "ms", kLower, kAll, true, false, -1},
      {"trace.overhead_ms_p50", "ms", kLower, kAll, true, false, -1},
  };
  return defs;
}

const MetricDef* FindMetric(const std::string& name) {
  for (const MetricDef& d : Metrics()) {
    if (name == d.name) return &d;
  }
  return nullptr;
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

std::string ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

// HEAD's commit, read from the files git keeps (no subprocess).
std::string GitCommit(const std::string& repo_root) {
  const std::string git = repo_root + "/.git";
  const std::string head = ReadFirstLine(git + "/HEAD");
  if (head.rfind("ref: ", 0) != 0) return head.empty() ? "unknown" : head;
  const std::string ref = head.substr(5);
  const std::string loose = ReadFirstLine(git + "/" + ref);
  if (!loose.empty()) return loose;
  std::ifstream packed(git + "/packed-refs");
  std::string line;
  while (std::getline(packed, line)) {
    const size_t sp = line.find(' ');
    if (sp != std::string::npos && line.substr(sp + 1) == ref) {
      return line.substr(0, sp);
    }
  }
  return "unknown";
}

}  // namespace

HostInfo CollectHost(const std::string& scale, const std::string& repo_root) {
  HostInfo h;
  cpu_set_t set;
  CPU_ZERO(&set);
  h.nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                ? static_cast<uint32_t>(CPU_COUNT(&set))
                : std::thread::hardware_concurrency();
  h.cpu = CpuModel();
  h.simd_unpack = compress::internal::SimdUnpackEnabled();
  const char* scalar = std::getenv("X100IR_FORCE_SCALAR");
  h.force_scalar = scalar != nullptr ? scalar : "";
  h.build_type = X100IR_BENCH_BUILD_TYPE;
  h.scale = scale;
  h.commit = GitCommit(repo_root);
  return h;
}

bool SameHost(const HostInfo& a, const HostInfo& b, std::string* why) {
  const auto differ = [why](const char* field, const std::string& x,
                            const std::string& y) {
    *why = StrFormat("%s differs: '%s' vs '%s'", field, x.c_str(), y.c_str());
    return false;
  };
  if (a.nproc != b.nproc) {
    return differ("nproc", std::to_string(a.nproc), std::to_string(b.nproc));
  }
  if (a.cpu != b.cpu) return differ("cpu", a.cpu, b.cpu);
  if (a.simd_unpack != b.simd_unpack) {
    return differ("simd_unpack", a.simd_unpack ? "true" : "false",
                  b.simd_unpack ? "true" : "false");
  }
  if (a.force_scalar != b.force_scalar) {
    return differ("force_scalar", a.force_scalar, b.force_scalar);
  }
  if (a.build_type != b.build_type) {
    return differ("build_type", a.build_type, b.build_type);
  }
  return true;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

Status ValueFromChild(const std::function<double()>& fn, double* out) {
  int fds[2];
  if (pipe(fds) != 0) return IOError("pipe failed");
  std::fflush(nullptr);  // or the child would write buffered output again
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return IOError("fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    const double v = fn();
    const bool sent = write(fds[1], &v, sizeof v) == sizeof v;
    _exit(sent && v >= 0.0 ? 0 : 1);
  }
  close(fds[1]);
  double v = -1.0;
  ssize_t got = 0;
  do {
    got = read(fds[0], &v, sizeof v);
  } while (got < 0 && errno == EINTR);
  close(fds[0]);
  int wstatus = 0;
  while (waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
  }
  if (got != static_cast<ssize_t>(sizeof v) || v < 0.0 ||
      !WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return Internal("child process failed");
  }
  *out = v;
  return OkStatus();
}

bool RestartPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // 5: reset the peak resident set size
  clear.close();
  return static_cast<bool>(clear);
}

uint64_t BytesUnder(const std::string& dir) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

double CpuProbeMs() {
  const int64_t start = NowNs();
  uint64_t x = 1;
  for (int i = 0; i < 10000000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  const int64_t end = NowNs();
  volatile uint64_t sink = x;  // keeps the loop
  (void)sink;
  return static_cast<double>(end - start) * 1e-6;
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&allowed_);
  if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof allowed_, &allowed_);
}

void CpuRotation::Pin(size_t k) const {
  if (cpus_.empty()) return;  // the set is unknown: leave the thread be
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[k % cpus_.size()], &one);
  sched_setaffinity(0, sizeof one, &one);
}

StealMonitor::StealMonitor() {
  Take();
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      Take();
    }
  });
}

StealMonitor::~StealMonitor() {
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
}

void StealMonitor::Take() {
  // The first line sums all CPUs, in USER_HZ ticks:
  //   cpu user nice system idle iowait irq softirq steal [guest ...]
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t ticks[8] = {};
  in >> cpu;
  for (uint64_t& t : ticks) in >> t;
  if (!in || cpu != "cpu") return;
  uint64_t total = 0;
  for (const uint64_t t : ticks) total += t;
  const Sample s{NowNs(), ticks[7], total};
  std::lock_guard<std::mutex> lock(mu_);
  samples_.push_back(s);
}

double StealMonitor::Share(int64_t from_ns, int64_t to_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.size() < 2) return 0.0;
  auto lo = std::upper_bound(
      samples_.begin(), samples_.end(), from_ns,
      [](int64_t t, const Sample& s) { return t < s.t_ns; });
  if (lo != samples_.begin()) --lo;
  auto hi = std::lower_bound(
      samples_.begin(), samples_.end(), to_ns,
      [](const Sample& s, int64_t t) { return s.t_ns < t; });
  if (hi == samples_.end()) --hi;
  if (hi->total <= lo->total) return 0.0;
  return static_cast<double>(hi->steal - lo->steal) /
         static_cast<double>(hi->total - lo->total);
}

void RunResult::Set(const std::string& name, double value) {
  if (FindMetric(name) == nullptr) {
    std::fprintf(stderr, "internal: unregistered metric %s\n", name.c_str());
    std::abort();
  }
  if (!std::isfinite(value)) value = 0.0;
  for (auto& m : metrics) {
    if (m.first == name) {
      m.second = value;
      return;
    }
  }
  metrics.emplace_back(name, value);
}

const double* RunResult::Find(const std::string& name) const {
  for (const auto& m : metrics) {
    if (m.first == name) return &m.second;
  }
  return nullptr;
}

void PrintMetrics(const RunResult& r) {
  for (const auto& m : r.metrics) {
    std::printf("METRIC %s %s %.9g %s\n", r.workload.c_str(), m.first.c_str(),
                m.second, FindMetric(m.first)->unit);
  }
  std::fflush(stdout);
}

std::vector<std::string> MissingMetrics(const RunResult& r,
                                        WorkloadBit workload) {
  std::vector<std::string> missing;
  for (const MetricDef& d : Metrics()) {
    if ((d.workloads & workload) == 0) continue;
    if (d.traced_only && !r.traced) continue;
    if (r.Find(d.name) == nullptr) missing.push_back(d.name);
  }
  return missing;
}

Status WriteResult(const RunResult& r, const std::string& path) {
  std::ostringstream o;
  const auto num = [](double v) { return StrFormat("%.17g", v); };
  o << "{\n  \"schema\": \"x100ir_bench/1\",\n"
    << "  \"workload\": " << JsonQuote(r.workload) << ",\n"
    << "  \"seed\": " << r.seed << ",\n"
    << "  \"seconds\": " << num(r.seconds) << ",\n"
    << "  \"traced\": " << (r.traced ? "true" : "false") << ",\n"
    << "  \"smoke\": " << (r.smoke ? "true" : "false") << ",\n"
    << "  \"host\": {\"nproc\": " << r.host.nproc
    << ", \"cpu\": " << JsonQuote(r.host.cpu)
    << ", \"simd_unpack\": " << (r.host.simd_unpack ? "true" : "false")
    << ", \"force_scalar\": " << JsonQuote(r.host.force_scalar)
    << ", \"build_type\": " << JsonQuote(r.host.build_type)
    << ", \"scale\": " << JsonQuote(r.host.scale)
    << ", \"commit\": " << JsonQuote(r.host.commit) << "},\n"
    << "  \"valid\": " << (r.valid ? "true" : "false") << ",\n"
    << "  \"invalid_reason\": " << JsonQuote(r.invalid_reason) << ",\n"
    << "  \"correct\": " << (r.correct ? "true" : "false") << ",\n"
    << "  \"attempted\": " << r.attempted << ",\n"
    << "  \"failed\": " << r.failed << ",\n"
    << "  \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    o << (i == 0 ? "\n" : ",\n") << "    " << JsonQuote(m.first)
      << ": {\"value\": " << num(m.second)
      << ", \"unit\": " << JsonQuote(FindMetric(m.first)->unit) << "}";
  }
  o << "\n  }\n}\n";
  std::ofstream out(path);
  out << o.str();
  out.close();
  if (!out) return IOError(StrFormat("cannot write %s", path.c_str()));
  return OkStatus();
}

Status ReadResult(const std::string& path, RunResult* r) {
  JsonValue root;
  X100IR_RETURN_IF_ERROR(ReadJsonFile(path, &root));
  const JsonValue* workload = root.Get("workload");
  const JsonValue* host = root.Get("host");
  const JsonValue* metrics = root.Get("metrics");
  if (workload == nullptr || host == nullptr || metrics == nullptr ||
      metrics->type != JsonValue::Type::kObject) {
    return InvalidArgument(
        StrFormat("%s: not an x100ir_bench result file", path.c_str()));
  }
  *r = RunResult();
  r->workload = workload->str;
  const auto number = [](const JsonValue* v) {
    return v != nullptr ? v->number : 0.0;
  };
  const auto text = [](const JsonValue* v) {
    return v != nullptr ? v->str : std::string();
  };
  const auto flag = [](const JsonValue* v) {
    return v != nullptr && v->boolean;
  };
  r->seed = static_cast<uint64_t>(number(root.Get("seed")));
  r->seconds = number(root.Get("seconds"));
  r->traced = flag(root.Get("traced"));
  r->smoke = flag(root.Get("smoke"));
  r->valid = flag(root.Get("valid"));
  r->correct = flag(root.Get("correct"));
  r->host.nproc = static_cast<uint32_t>(number(host->Get("nproc")));
  r->host.cpu = text(host->Get("cpu"));
  r->host.simd_unpack = flag(host->Get("simd_unpack"));
  r->host.force_scalar = text(host->Get("force_scalar"));
  r->host.build_type = text(host->Get("build_type"));
  r->host.scale = text(host->Get("scale"));
  r->host.commit = text(host->Get("commit"));
  for (const auto& m : metrics->members) {
    if (FindMetric(m.first) == nullptr) continue;  // from a newer benchmark
    r->metrics.emplace_back(m.first, number(m.second.Get("value")));
  }
  return OkStatus();
}

void SpanLog::Add(const Span& s) {
  std::lock_guard<std::mutex> lock(mu_);
  appended_.push_back(s);
}

Status SpanLog::Write(const std::string& path, const std::string& workload,
                      uint64_t seed, int64_t origin_ns) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return IOError(StrFormat("cannot write %s", path.c_str()));
  std::fprintf(f,
               "{\"schema\": \"x100ir_bench.spans/1\", \"workload\": %s, "
               "\"seed\": %llu, \"clock\": \"steady_clock ns since run "
               "start\",\n \"spans\": [",
               JsonQuote(workload).c_str(),
               static_cast<unsigned long long>(seed));
  bool first = true;
  const auto emit = [&](const Span& s) {
    if (s.id == 0) return;  // reserved slot never filled
    std::fprintf(f,
                 "%s\n  {\"id\": %llu, \"parent\": %llu, \"req\": %llu, "
                 "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}",
                 first ? "" : ",", static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.req), s.name,
                 static_cast<long long>(s.start_ns - origin_ns),
                 static_cast<long long>(s.end_ns - origin_ns));
    first = false;
  };
  for (const Span& s : slots_) emit(s);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : appended_) emit(s);
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) {
    return IOError(StrFormat("cannot write %s", path.c_str()));
  }
  return OkStatus();
}

}  // namespace x100ir::harness
