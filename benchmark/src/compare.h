// `x100ir_bench compare <runs A...> -- <runs B...>`: per workload and
// metric, each side's median and quartiles and a verdict (README.md,
// "Comparing two sets of runs").
#ifndef X100IR_BENCHMARK_COMPARE_H_
#define X100IR_BENCHMARK_COMPARE_H_

#include <string>
#include <vector>

namespace x100ir::harness {

// `spec_path` is BENCHMARK.json (end-to-end bounds). Returns the process
// exit code: 0 when no end-to-end metric regressed, 1 when one did, 2 when
// the runs cannot be compared.
int RunCompare(const std::vector<std::string>& a_paths,
               const std::vector<std::string>& b_paths,
               const std::string& spec_path);

// Quartiles as Python's statistics.quantiles(values, n=4) gives them
// (the "exclusive" method); values need not be sorted, size >= 2.
void Quartiles(std::vector<double> values, double* q1, double* q2, double* q3);

}  // namespace x100ir::harness

#endif  // X100IR_BENCHMARK_COMPARE_H_
