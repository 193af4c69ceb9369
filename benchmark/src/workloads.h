// The four workloads of x100ir_bench (README.md has the why of each).
#ifndef X100IR_BENCHMARK_WORKLOADS_H_
#define X100IR_BENCHMARK_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "harness.h"

namespace x100ir::harness {

struct RunOptions {
  WorkloadBit workload = kHotZipf;
  uint64_t seed = 1;
  // Measured time, split 2 : 12 : 5 : 7 into warm-up, open loop, closed
  // loop and lone searches. The default is BENCHMARK.json's run_seconds.
  double seconds = 20.0;
  // Tiny corpus, 2 s in all, and no validity verdict on generator lag.
  bool smoke = false;
  std::string trace_path;  // empty = untraced run
  std::string data_dir;    // set-up and index directories go under it
  std::string repo_root;   // for the commit in the host metadata
};

// Runs one workload end to end and fills `result`. A non-OK status means
// the run could not be carried out (set-up failed, a call the benchmark
// relies on returned an error); validity and correctness verdicts land in
// `result` instead.
Status RunWorkload(const RunOptions& opts, RunResult* result);

}  // namespace x100ir::harness

#endif  // X100IR_BENCHMARK_WORKLOADS_H_
