#include "compare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "harness.h"
#include "json.h"

namespace x100ir::harness {
namespace {

// A change must win at least this share of the pairs to count as better
// (or worse, for a metric without a bound).
constexpr double kWinShare = 0.9;

struct Side {
  std::vector<double> values;  // in the order the runs were given
  double q1 = 0.0, median = 0.0, q3 = 0.0;
};

void Summarize(Side* s) {
  if (s->values.size() == 1) {
    s->q1 = s->median = s->q3 = s->values[0];
    return;
  }
  Quartiles(s->values, &s->q1, &s->median, &s->q3);
}

// Bounds of BENCHMARK.json's end-to-end metrics, by name.
bool LoadBounds(const std::string& path, std::map<std::string, double>* out) {
  JsonValue spec;
  const Status s = ReadJsonFile(path, &spec);
  if (!s.ok()) {
    std::fprintf(stderr, "compare: %s\n", s.ToString().c_str());
    return false;
  }
  const JsonValue* e2e = spec.Get("end_to_end");
  if (e2e == nullptr || e2e->type != JsonValue::Type::kArray) {
    std::fprintf(stderr, "compare: %s has no end_to_end list\n", path.c_str());
    return false;
  }
  for (const JsonValue& m : e2e->items) {
    const JsonValue* name = m.Get("name");
    const JsonValue* bound = m.Get("bound");
    if (name != nullptr && bound != nullptr) (*out)[name->str] = bound->number;
  }
  return true;
}

bool LoadRuns(const std::vector<std::string>& paths,
              std::vector<RunResult>* out) {
  for (const std::string& p : paths) {
    RunResult r;
    const Status s = ReadResult(p, &r);
    if (!s.ok()) {
      std::fprintf(stderr, "compare: %s\n", s.ToString().c_str());
      return false;
    }
    if (!r.valid || !r.correct) {
      std::fprintf(stderr, "compare: %s is %s; it measures nothing\n",
                   p.c_str(), r.valid ? "incorrect" : "an invalid run");
      return false;
    }
    out->push_back(std::move(r));
  }
  return true;
}

}  // namespace

void Quartiles(std::vector<double> v, double* q1, double* q2, double* q3) {
  std::sort(v.begin(), v.end());
  const long n = 4;
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  double* out[3] = {q1, q2, q3};
  for (long i = 1; i < n; ++i) {
    long j = i * m / n;
    j = std::clamp(j, 1L, ld - 1);
    const double delta = static_cast<double>(i * m - j * n);
    *out[i - 1] = (v[j - 1] * (static_cast<double>(n) - delta) + v[j] * delta) /
                  static_cast<double>(n);
  }
}

int RunCompare(const std::vector<std::string>& a_paths,
               const std::vector<std::string>& b_paths,
               const std::string& spec_path) {
  std::map<std::string, double> spec_bounds;
  std::vector<RunResult> a, b;
  if (a_paths.empty() || b_paths.empty()) {
    std::fprintf(stderr, "compare: need runs on both sides of --\n");
    return 2;
  }
  if (!LoadBounds(spec_path, &spec_bounds) || !LoadRuns(a_paths, &a) ||
      !LoadRuns(b_paths, &b)) {
    return 2;
  }
  // Runs from different hosts or builds, or with a different run shape
  // (phase lengths, corpus, tracing), measure different things.
  for (const std::vector<RunResult>* side : {&a, &b}) {
    for (const RunResult& r : *side) {
      std::string why;
      if (!SameHost(a[0].host, r.host, &why)) {
        std::fprintf(stderr, "compare: refusing, host metadata differ: %s\n",
                     why.c_str());
        return 2;
      }
      const char* differs = r.traced != a[0].traced   ? "traced"
                            : r.smoke != a[0].smoke   ? "smoke"
                            : r.seconds != a[0].seconds ? "seconds"
                                                        : nullptr;
      if (differs != nullptr) {
        std::fprintf(stderr, "compare: refusing, runs differ in '%s'\n",
                     differs);
        return 2;
      }
    }
  }

  std::map<std::string, std::pair<std::vector<const RunResult*>,
                                  std::vector<const RunResult*>>>
      by_workload;
  for (const RunResult& r : a) by_workload[r.workload].first.push_back(&r);
  for (const RunResult& r : b) by_workload[r.workload].second.push_back(&r);

  int improved = 0, regressed = 0, unresolved = 0, unchanged = 0;
  bool e2e_regressed = false;
  std::printf("%-10s %-34s %-6s %30s %30s %8s %6s  %s\n", "workload",
              "metric", "unit", "A median [q1, q3]", "B median [q1, q3]",
              "change", "B/A", "verdict");
  for (const auto& [workload, sides] : by_workload) {
    const auto& [ra, rb] = sides;
    if (ra.empty() || rb.empty()) {
      std::printf("%-10s (runs on one side only; not compared)\n",
                  workload.c_str());
      continue;
    }
    for (const MetricDef& def : Metrics()) {
      Side sa, sb;
      for (const RunResult* r : ra) {
        if (const double* v = r->Find(def.name)) sa.values.push_back(*v);
      }
      for (const RunResult* r : rb) {
        if (const double* v = r->Find(def.name)) sb.values.push_back(*v);
      }
      if (sa.values.size() != ra.size() || sb.values.size() != rb.size()) {
        continue;  // not reported by every run of this workload
      }
      Summarize(&sa);
      Summarize(&sb);
      const auto spec = spec_bounds.find(def.name);
      const double bound = spec != spec_bounds.end() ? spec->second : def.bound;
      // End-to-end metrics carry a bound; per-layer metrics are judged
      // against the parent's own spread alone.
      const bool bounded = def.end_to_end && bound >= 0.0;
      // Positive = B is worse than A.
      const double sign = def.higher_is_better ? -1.0 : 1.0;
      const double worse = sign * (sb.median - sa.median);
      const double noise = sa.q3 - sa.q1;
      const size_t pairs = std::min(sa.values.size(), sb.values.size());
      size_t wins_a = 0, wins_b = 0;
      for (size_t i = 0; i < pairs; ++i) {
        const double d = sign * (sb.values[i] - sa.values[i]);
        if (d < 0.0) ++wins_b;
        if (d > 0.0) ++wins_a;
      }
      const double need = kWinShare * static_cast<double>(pairs);
      const double scale = std::abs(sa.median);
      const auto [a_lo, a_hi] =
          std::minmax_element(sa.values.begin(), sa.values.end());
      const auto [b_lo, b_hi] =
          std::minmax_element(sb.values.begin(), sb.values.end());
      const bool b_always_better =
          def.higher_is_better ? *b_lo > *a_hi : *b_hi < *a_lo;
      const char* verdict = "unchanged";
      int* tally = &unchanged;
      if (static_cast<double>(wins_b) >= need && -worse > noise) {
        verdict = "improved";
        tally = &improved;
      } else if (bounded) {
        // A spread wider than the bound cannot show a change within it.
        if (noise > bound * scale && !b_always_better) {
          verdict = "unresolved";
          tally = &unresolved;
        } else if (worse > bound * scale) {
          verdict = "regressed";
          tally = &regressed;
          e2e_regressed = true;
        }
      } else if (static_cast<double>(wins_a) >= need && worse > noise) {
        verdict = "regressed";
        tally = &regressed;
      }
      ++*tally;
      const double change =
          scale == 0.0 ? 0.0 : 100.0 * (sb.median - sa.median) / scale;
      std::printf(
          "%-10s %-34s %-6s %12.6g [%7.4g, %7.4g] %12.6g [%7.4g, %7.4g] "
          "%+7.2f%% %2zu/%-2zu  %s%s\n",
          workload.c_str(), def.name, def.unit, sa.median, sa.q1, sa.q3,
          sb.median, sb.q1, sb.q3, change, wins_b, wins_a, verdict,
          bounded ? "" : " (no bound)");
    }
  }
  std::printf(
      "compare: %d improved, %d regressed, %d unresolved, %d unchanged "
      "(A: %zu runs, B: %zu runs)\n",
      improved, regressed, unresolved, unchanged, a.size(), b.size());
  return e2e_regressed ? 1 : 0;
}

}  // namespace x100ir::harness
