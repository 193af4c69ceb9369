// Shared setup for the paper-table reproduction benches.
//
// Every bench binary builds (or reuses) the same synthetic TREC-TB-substitute
// collection under X100IR_BENCH_DIR (default ./bench_data). Scale is chosen
// so the full bench suite completes in minutes on a laptop while preserving
// the experiments' shape; set X100IR_BENCH_SCALE=large for a bigger run.
//
// Each bench reports through one bench::Record: its "GATE <name> <value>"
// lines on stdout, and its JSON baseline (with a host block) when
// X100IR_BENCH_JSON names a file. No bench judges its own gates: the
// bounds live in bench/gates.txt and bench/check_gates.py applies them.
#ifndef X100IR_BENCH_BENCH_UTIL_H_
#define X100IR_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "compress/unpack.h"
#include "core/database.h"
#include "ir/query_gen.h"

namespace x100ir::bench {

inline std::string BenchDir() {
  const char* env = std::getenv("X100IR_BENCH_DIR");
  return env != nullptr ? std::string(env) : std::string("bench_data");
}

/// X100IR_BENCH_SCALE: "tiny" keeps CI smoke jobs under a minute, "large"
/// approaches the paper's shape more closely; default fits a laptop run.
enum class BenchScale { kTiny, kDefault, kLarge };

inline BenchScale Scale() {
  const char* env = std::getenv("X100IR_BENCH_SCALE");
  if (env == nullptr) return BenchScale::kDefault;
  const std::string s(env);
  if (s == "tiny") return BenchScale::kTiny;
  if (s == "large") return BenchScale::kLarge;
  return BenchScale::kDefault;
}

inline bool LargeScale() { return Scale() == BenchScale::kLarge; }

inline const char* ScaleName() {
  switch (Scale()) {
    case BenchScale::kTiny:
      return "tiny";
    case BenchScale::kLarge:
      return "large";
    default:
      return "default";
  }
}

/// The bench collection: a scaled-down GOV2 stand-in (DESIGN.md §3.1).
inline ir::CorpusOptions BenchCorpusOptions() {
  ir::CorpusOptions opts;
  switch (Scale()) {
    case BenchScale::kTiny:
      opts.num_docs = 4000;
      opts.vocab_size = 6000;
      break;
    case BenchScale::kDefault:
      opts.num_docs = 60000;
      opts.vocab_size = 40000;
      break;
    case BenchScale::kLarge:
      opts.num_docs = 400000;
      opts.vocab_size = 100000;
      break;
  }
  opts.zipf_s = 1.05;
  opts.doclen_mu = 5.0;  // ~150 terms/doc typical
  opts.doclen_sigma = 0.5;
  opts.num_topics = Scale() == BenchScale::kTiny ? 20 : 60;
  opts.terms_per_topic = 6;
  opts.relevant_docs_per_topic =
      Scale() == BenchScale::kLarge ? 250
      : Scale() == BenchScale::kTiny ? 40
                                     : 120;
  opts.topical_mass = 0.30;
  opts.topic_rank_min = 30;
  opts.topic_rank_max = 400;
  opts.seed = 2007;  // CIDR 2007
  return opts;
}

/// Storage-layer knobs scaled with the collection: the paper's multi-MB
/// blocks fit a 426 GB collection whose posting lists run to megabytes;
/// our stand-in's lists are ~1000x shorter, so pages shrink with them —
/// otherwise every per-term range rounds to one page and the Table 2 rows
/// (whose whole point is byte-volume differences) collapse together.
inline storage::StorageOptions BenchStorageOptions() {
  storage::StorageOptions opts;
  switch (Scale()) {
    case BenchScale::kTiny:
      opts.page_bytes = 4u << 10;
      break;
    case BenchScale::kDefault:
      opts.page_bytes = 32u << 10;
      break;
    case BenchScale::kLarge:
      opts.page_bytes = 256u << 10;
      break;
  }
  return opts;
}

inline ir::QueryGenOptions BenchQueryOptions() {
  ir::QueryGenOptions opts;
  opts.num_eval_queries = Scale() == BenchScale::kTiny ? 20 : 50;
  opts.num_efficiency_queries =
      Scale() == BenchScale::kLarge ? 5000
      : Scale() == BenchScale::kTiny ? 200
                                     : 1000;
  opts.seed = 7;
  return opts;
}

/// Opens (building if absent) the shared bench database.
inline Status OpenBenchDatabase(core::Database* db,
                                const char* subdir = "full") {
  core::DatabaseOptions opts;
  opts.dir = BenchDir() + "/" + subdir;
  opts.corpus = BenchCorpusOptions();
  opts.storage = BenchStorageOptions();
  std::fprintf(stderr,
               "[bench] collection: %u docs, %u terms (index dir %s)\n",
               opts.corpus.num_docs, opts.corpus.vocab_size,
               opts.dir.c_str());
  Status s = db->Open(opts);
  if (s.ok() && db->build_stats().num_postings > 0) {
    std::fprintf(stderr, "[bench] built index: %llu postings in %.1fs\n",
                 static_cast<unsigned long long>(
                     db->build_stats().num_postings),
                 db->build_stats().build_seconds);
  }
  return s;
}

/// Evicts exactly the columns RunType `type` scans — the per-run cold
/// reset. A global EvictAll would also chill columns the run never touches
/// (and, in the segmented index, every other segment's pages), polluting
/// cross-run comparisons with eviction work and refetches the measured run
/// doesn't cause. In-memory run types touch no storage: no-op.
inline Status EvictRunColumns(const core::Database& db, ir::RunType type) {
  if (!db.has_storage()) return OkStatus();
  const ir::IndexStorage* st = db.index()->storage();
  storage::BufferManager* pool = db.index()->buffer_manager();
  const storage::ColumnReader* docid = nullptr;
  const storage::ColumnReader* value = nullptr;
  switch (type) {
    case ir::RunType::kBm25T:
      docid = &st->docid_raw;
      value = &st->tf_raw;
      break;
    case ir::RunType::kBm25TC:
      docid = &st->docid_compressed;
      value = &st->tf_compressed;
      break;
    case ir::RunType::kBm25TCM:
      docid = &st->docid_compressed;
      value = &st->score_f32;
      break;
    case ir::RunType::kBm25TCMQ8:
      docid = &st->docid_compressed;
      value = &st->score_q8;
      break;
    default:
      return OkStatus();  // in-memory run: nothing pooled to evict
  }
  X100IR_RETURN_IF_ERROR(pool->EvictFile(docid->file_id()));
  return pool->EvictFile(value->file_id());
}

/// Aborts the bench on error (benches are not recoverable).
inline void CheckOk(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, s.ToString().c_str());
    std::exit(1);
  }
}

/// The q-quantile (0..1) of `v` by nearest rank; 0 for an empty sample.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(q * static_cast<double>(v.size()));
  return v[std::min(idx, v.size() - 1)];
}

/// Two runs timed as a pair, for a ratio between them: after one shared
/// warm pass (pass -1), `passes` timed passes run the two sides
/// interleaved item by item, so frequency and scheduler drift on a shared
/// host lands on both sides instead of on whichever ran later. run_a(i,
/// pass) and run_b(i, pass) run item i and return its cost (seconds,
/// modeled milliseconds — the caller's unit); a pass costs the sum over its
/// items. Each side keeps its fastest timed pass.
struct PairedPasses {
  double a = 0.0;  // side a's fastest timed pass
  double b = 0.0;  // side b's
};

template <typename FnA, typename FnB>
PairedPasses TimePairedPasses(size_t items, int passes, FnA&& run_a,
                              FnB&& run_b) {
  PairedPasses best;
  for (int pass = -1; pass < passes; ++pass) {
    double ta = 0.0;
    double tb = 0.0;
    for (size_t i = 0; i < items; ++i) {
      ta += run_a(i, pass);
      tb += run_b(i, pass);
    }
    if (pass < 0) continue;
    if (pass == 0 || ta < best.a) best.a = ta;
    if (pass == 0 || tb < best.b) best.b = tb;
  }
  return best;
}

/// One bench run's results. Rows are named groups of numbers; gates are
/// the values bench/gates.txt bounds (plus informational ones and the
/// arming flags such as wal_gated), printed as they are recorded. Finish()
/// writes the JSON baseline when X100IR_BENCH_JSON names a file:
///
///   {"bench", "comment", "command",
///    "host": {cores, simd, force_scalar, scale, build_type},
///    "rows": [{"name", <field>: <number>, ...}, ...],
///    "gates": {<gate>: <number>, ...}}
class Record {
 public:
  struct Row {
    std::string name;
    std::vector<std::pair<std::string, double>> fields;

    Row& Set(const std::string& key, double value) {
      fields.emplace_back(key, value);
      return *this;
    }
  };

  /// `bench` is the binary's name without its "bench_" prefix. The host
  /// block is taken here, before any experiment toggles SIMD dispatch;
  /// dispatch starts disabled only under X100IR_FORCE_SCALAR.
  Record(std::string bench, std::string comment)
      : bench_(std::move(bench)),
        comment_(std::move(comment)),
        host_(StrFormat(
            "{\"cores\": %u, \"simd\": \"%s\", \"force_scalar\": %s, "
            "\"scale\": \"%s\", \"build_type\": \"%s\"}",
            std::thread::hardware_concurrency(),
            compress::internal::SimdLevelName(
                compress::internal::ActiveSimdLevel()),
            compress::internal::SimdUnpackEnabled() ? "false" : "true",
            ScaleName(), X100IR_BUILD_TYPE)) {}

  /// Appends a row; the reference stays valid until the next AddRow.
  Row& AddRow(const std::string& name) {
    rows_.push_back(Row{name, {}});
    return rows_.back();
  }

  void Gate(const std::string& name, double value) {
    std::printf("GATE %s %s\n", name.c_str(), FormatNumber(value).c_str());
    gates_.emplace_back(name, value);
  }

  /// Writes the JSON baseline if requested; returns main's exit status.
  int Finish() const {
    const char* path = std::getenv("X100IR_BENCH_JSON");
    if (path == nullptr || path[0] == '\0') return 0;
    std::string json = "{\n  \"bench\": " + JsonString(bench_) +
                       ",\n  \"comment\": " + JsonString(comment_) +
                       ",\n  \"command\": " +
                       JsonString(std::string("X100IR_BENCH_JSON=") + path +
                                  " ./build/bench_" + bench_) +
                       ",\n  \"host\": " + host_ + ",\n  \"rows\": [";
    for (size_t r = 0; r < rows_.size(); ++r) {
      json += (r == 0 ? "\n    {\"name\": " : ",\n    {\"name\": ") +
              JsonString(rows_[r].name);
      for (const auto& [key, value] : rows_[r].fields) {
        json += ", " + JsonString(key) + ": " + FormatNumber(value);
      }
      json += "}";
    }
    json += "\n  ],\n  \"gates\": {";
    for (size_t g = 0; g < gates_.size(); ++g) {
      json += (g == 0 ? "\n    " : ",\n    ") + JsonString(gates_[g].first) +
              ": " + FormatNumber(gates_[g].second);
    }
    json += "\n  }\n}\n";
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr || std::fputs(json.c_str(), f) < 0 ||
        std::fclose(f) != 0) {
      std::fprintf(stderr, "FATAL cannot write %s\n", path);
      std::exit(1);
    }
    std::fprintf(stderr, "[bench] wrote %s\n", path);
    return 0;
  }

 private:
  std::string bench_;
  std::string comment_;
  std::string host_;
  std::vector<Row> rows_;
  std::vector<std::pair<std::string, double>> gates_;

  // A number as JSON and GATE lines print it: integers exactly, others to
  // six significant digits, non-finite values as null.
  static std::string FormatNumber(double v) {
    if (!std::isfinite(v)) return "null";
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
      return StrFormat("%.0f", v);
    }
    return StrFormat("%.6g", v);
  }

  static std::string JsonString(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  }
};

}  // namespace x100ir::bench

#endif  // X100IR_BENCH_BENCH_UTIL_H_
