// x100ir_bench: the repository's benchmark. One invocation runs one
// workload in its own process and prints every metric as
//   METRIC <workload> <name> <value> <unit>
// The compare subcommand judges two sets of such runs. README.md documents
// the workloads, the metrics and their bounds.
//
// Exit codes: 0 ok; 1 usage or a run that could not be carried out;
// 2 an output failed its oracle check; 3 the run is invalid (the load
// generator, not the program, set the numbers).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "compare.h"
#include "harness.h"
#include "workloads.h"

#ifndef X100IR_BENCH_REPO_ROOT
#define X100IR_BENCH_REPO_ROOT "."
#endif

namespace x100ir::harness {
namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  x100ir_bench --workload <hot_zipf|cold_pool|ingest_rw|cluster4>\n"
      "               --seed <n> --out <result.json> [--seconds <s>]\n"
      "               [--trace <spans.json>] [--smoke] [--data-dir <dir>]\n"
      "  x100ir_bench compare <A.json...> -- <B.json...> "
      "[--spec <BENCHMARK.json>]\n");
}

bool ParseNumber(const char* s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

int Compare(int argc, char** argv) {
  std::vector<std::string> a, b;
  std::string spec = std::string(X100IR_BENCH_REPO_ROOT) + "/BENCHMARK.json";
  bool second = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--") {
      second = true;
    } else if (arg == "--spec" && i + 1 < argc) {
      spec = argv[++i];
    } else {
      (second ? b : a).push_back(arg);
    }
  }
  if (!second) {
    Usage();
    return 1;
  }
  return RunCompare(a, b, spec);
}

int Run(int argc, char** argv) {
  RunOptions o;
  o.repo_root = X100IR_BENCH_REPO_ROOT;
  o.data_dir = ".bench_build/data";
  std::string out;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    double v = 0.0;
    if (arg == "--smoke") {
      o.smoke = true;
    } else if (!has_value) {
      Usage();
      return 1;
    } else if (arg == "--workload") {
      if (!ParseWorkload(argv[++i], &o.workload)) {
        std::fprintf(stderr, "unknown workload %s\n", argv[i]);
        return 1;
      }
      have_workload = true;
    } else if (arg == "--seed" && ParseNumber(argv[i + 1], &v) && v >= 0) {
      o.seed = static_cast<uint64_t>(v);
      ++i;
    } else if (arg == "--seconds" && ParseNumber(argv[i + 1], &v) &&
               v >= 1.0 && v <= 3600.0) {
      o.seconds = v;
      ++i;
    } else if (arg == "--out") {
      out = argv[++i];
    } else if (arg == "--trace") {
      o.trace_path = argv[++i];
    } else if (arg == "--data-dir") {
      o.data_dir = argv[++i];
    } else {
      Usage();
      return 1;
    }
  }
  if (!have_workload) {
    Usage();
    return 1;
  }

  RunResult r;
  const Status s = RunWorkload(o, &r);
  if (!s.ok()) {
    std::fprintf(stderr, "x100ir_bench: %s: %s\n", WorkloadName(o.workload),
                 s.ToString().c_str());
    return 1;
  }
  PrintMetrics(r);
  const std::vector<std::string> missing = MissingMetrics(r, o.workload);
  for (const std::string& m : missing) {
    std::fprintf(stderr, "x100ir_bench: metric %s was not reported\n",
                 m.c_str());
  }
  if (!out.empty()) {
    const Status w = WriteResult(r, out);
    if (!w.ok()) {
      std::fprintf(stderr, "x100ir_bench: %s\n", w.ToString().c_str());
      return 1;
    }
  }
  if (r.traced) {
    std::printf("TRACE %s query_p50_ms untraced %.6f traced %.6f overhead %.6f "
                "ms (spans in %s)\n",
                r.workload.c_str(), *r.Find("query_p50_ms"),
                *r.Find("trace.query_p50_ms"),
                *r.Find("trace.overhead_ms_p50"), o.trace_path.c_str());
  }
  std::printf("RESULT %s valid=%d correct=%d attempted=%llu failed=%llu%s%s\n",
              r.workload.c_str(), r.valid ? 1 : 0, r.correct ? 1 : 0,
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.valid ? "" : " reason=", r.invalid_reason.c_str());
  if (!missing.empty()) return 1;
  if (!r.correct) return 2;
  if (!r.valid) return 3;
  return 0;
}

}  // namespace
}  // namespace x100ir::harness

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "compare") {
    return x100ir::harness::Compare(argc, argv);
  }
  return x100ir::harness::Run(argc, argv);
}
