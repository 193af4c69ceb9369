// Reproduces the §3.3 compression claims: "we were able to reduce the sizes
// of the docid and tf columns ... from 32 to 11.98 and 8.13 bits per tuple,
// respectively", using PFOR-DELTA (8-bit codewords) for the partially
// ordered docid column and PFOR (8-bit) for the small tf values.
//
// Also measures the whole-index footprint (the paper's distributed setup
// relied on the compressed 10GB index fitting in RAM) and a PDICT ablation.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "compress/pdict.h"
#include "ir/index_meta.h"
#include "storage/column_reader.h"

namespace x100ir {
namespace {

struct ColumnInfo {
  const char* label;
  const char* file;
  double paper_bits;  // 0 = not reported
};

int Run() {
  std::printf("=== §3.3 compression ratios (bits per tuple) ===\n\n");
  core::Database db;
  bench::CheckOk(bench::OpenBenchDatabase(&db), "open database");
  // The column files sit in the base segment's own directory.
  const std::string dir = db.Acquire()->segments[0].seg->dir();

  const ColumnInfo columns[] = {
      {"TD.docid raw", ir::kDocidRawFile, 32.0},
      {"TD.docid PFOR-DELTA(8)", ir::kDocidCompressedFile, 11.98},
      {"TD.tf raw", ir::kTfRawFile, 32.0},
      {"TD.tf PFOR(8)", ir::kTfCompressedFile, 8.13},
      {"TD.score f32 (materialized)", ir::kScoreF32File, 32.0},
      {"TD.score quantized 8-bit", ir::kScoreQ8File, 0.0},
  };

  TablePrinter table({"column", "bits/tuple", "file size", "paper"});
  storage::SimulatedDisk disk;
  storage::BufferManager bm(1ull << 30, &disk);
  uint32_t file_id = 100;
  uint64_t raw_bytes = 0, compressed_bytes = 0;
  for (const auto& info : columns) {
    storage::ColumnReader reader;
    bench::CheckOk(reader.Open(dir + "/" + std::string(info.file), file_id++,
                               &bm),
                   "open column");
    uint64_t size = 0;
    {
      storage::File f;
      bench::CheckOk(
          storage::File::OpenReadOnly(dir + "/" + std::string(info.file), &f),
          "open file");
      bench::CheckOk(f.Size(&size), "size");
    }
    double bits = 8.0 * static_cast<double>(size) /
                  static_cast<double>(reader.value_count());
    table.AddRow({info.label, StrFormat("%.2f", bits), HumanBytes(size),
                  info.paper_bits > 0 ? StrFormat("%.2f", info.paper_bits)
                                      : std::string("-")});
    if (std::string(info.file).find("raw") != std::string::npos &&
        std::string(info.label).find("score") == std::string::npos) {
      raw_bytes += size;
    }
    if (std::string(info.file).find("pfor") != std::string::npos) {
      compressed_bytes += size;
    }
  }
  table.Print();
  std::printf(
      "\nTD table I/O volume: raw %s vs compressed %s (%.2fx) — this is the "
      "ratio that shrinks the cold-run times in Table 2 and lets the "
      "distributed index stay in RAM (§3.4).\n",
      HumanBytes(raw_bytes).c_str(), HumanBytes(compressed_bytes).c_str(),
      static_cast<double>(raw_bytes) /
          static_cast<double>(compressed_bytes));

  // PDICT ablation on the tf column (frequency-skewed small integers).
  {
    storage::ColumnReader tf;
    bench::CheckOk(tf.Open(dir + "/" + std::string(ir::kTfRawFile), 999, &bm),
                   "open tf");
    uint32_t n = static_cast<uint32_t>(
        std::min<uint64_t>(tf.value_count(), 1u << 20));
    std::vector<int32_t> values(n);
    bench::CheckOk(tf.Read(0, n, values.data()), "read tf");
    std::vector<uint8_t> block;
    compress::BlockStats stats;
    bench::CheckOk(
        compress::PdictEncode(values.data(), n, {}, &block, &stats),
        "pdict encode");
    std::printf(
        "\nPDICT ablation on tf (%u values): %.2f bits/tuple at dictionary "
        "width b=%d, %u exceptions — PFOR wins on tf because the values are "
        "already tiny integers.\n",
        n, stats.BitsPerValue(), stats.bit_width, stats.n_exceptions);
  }
  return 0;
}

}  // namespace
}  // namespace x100ir

int main() { return x100ir::Run(); }
