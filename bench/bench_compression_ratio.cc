// Reproduces the §3.3 compression claims: "we were able to reduce the sizes
// of the docid and tf columns ... from 32 to 11.98 and 8.13 bits per tuple,
// respectively", using PFOR-DELTA for the partially ordered docid column and
// PFOR for the small tf values.
//
// Reports through bench::Record: bits per posting of every TD column of the
// base segment (GATE docid/tf/q8 bits per posting and the TD I/O-volume
// ratio, bounded in bench/gates.txt), the number of windows the docid and
// tf blocks store at each width, the corpus's forward store in bits per
// posting (GATE forward_bits_per_posting), the encode throughput of the
// docid and tf columns (best of kEncodeRepeats, re-encoding the raw columns
// exactly as a build does, checked byte for byte against the stored
// blocks), and a PDICT ablation on tf.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "compress/codec.h"
#include "compress/pdict.h"
#include "compress/pfor.h"
#include "compress/pfor_delta.h"
#include "ir/index_meta.h"
#include "storage/column_reader.h"

namespace x100ir {
namespace {

constexpr int kEncodeRepeats = 5;

struct ColumnInfo {
  const char* label;
  const char* file;
  double paper_bits;  // 0 = not reported
};

uint64_t FileBytes(const std::string& path) {
  storage::File f;
  bench::CheckOk(storage::File::OpenReadOnly(path, &f), "open file");
  uint64_t size = 0;
  bench::CheckOk(f.Size(&size), "size");
  return size;
}

// The raw int32 column `file` of `dir`.
std::vector<int32_t> ReadRawColumn(const std::string& dir, const char* file,
                                   storage::BufferManager* bm) {
  storage::ColumnReader reader;
  bench::CheckOk(reader.Open(dir + "/" + file, bm), "open column");
  std::vector<int32_t> values(reader.value_count());
  bench::CheckOk(reader.Read(0, static_cast<uint32_t>(values.size()),
                             values.data()),
                 "read column");
  return values;
}

// The block stored in compressed column file `file` of `dir`.
std::vector<uint8_t> ReadStoredBlock(const std::string& dir,
                                     const char* file) {
  const std::string path = dir + "/" + file;
  storage::File f;
  bench::CheckOk(storage::File::OpenReadOnly(path, &f), "open block");
  const uint64_t bytes = FileBytes(path) - sizeof(ir::ColumnFileHeader);
  std::vector<uint8_t> block(bytes);
  bench::CheckOk(f.ReadAt(sizeof(ir::ColumnFileHeader), bytes, block.data()),
                 "read block");
  return block;
}

// Records how many of `block`'s windows are stored at each width, and dense.
void RecordWindowWidths(const char* label, const std::vector<uint8_t>& block,
                        bench::Record* record) {
  compress::BlockDecoder dec;
  bench::CheckOk(dec.Init(block.data(), block.size()), "init block");
  uint32_t windows[compress::kMaxBitWidth + 1] = {0};  // [0]: dense
  for (uint32_t w = 0; w < dec.entry_count(); ++w) {
    ++windows[dec.WindowBitWidth(w)];
  }
  std::printf("%-20s windows by width:", label);
  bench::Record::Row& row =
      record->AddRow(std::string(label) + " windows by width")
          .Set("windows", dec.entry_count())
          .Set("dense", windows[0]);
  for (int b = 1; b <= compress::kMaxBitWidth; ++b) {
    if (windows[b] == 0) continue;
    std::printf(" b%d=%u", b, windows[b]);
    row.Set("b" + std::to_string(b), windows[b]);
  }
  std::printf(" dense=%u\n", windows[0]);
}

// Encodes `values` kEncodeRepeats times and records the best time; returns
// whether the block equals `stored`.
template <typename Encode>
bool TimeEncode(const char* name, const std::vector<int32_t>& values,
                const std::vector<uint8_t>& stored, Encode encode,
                bench::Record* record) {
  double best_s = 1e30;
  std::vector<uint8_t> block;
  for (int r = 0; r < kEncodeRepeats; ++r) {
    std::vector<uint8_t> out;
    WallTimer t;
    bench::CheckOk(encode(values, &out), name);
    best_s = std::min(best_s, t.ElapsedSeconds());
    block = std::move(out);
  }
  const double mvalues_s =
      static_cast<double>(values.size()) / best_s / 1e6;
  std::printf("encode %-24s %8.1f ms  %8.1f M values/s  (best of %d)\n",
              name, best_s * 1e3, mvalues_s, kEncodeRepeats);
  record->AddRow(std::string("encode ") + name)
      .Set("values", static_cast<double>(values.size()))
      .Set("best_ms", best_s * 1e3)
      .Set("mvalues_per_s", mvalues_s)
      .Set("repeats", kEncodeRepeats);
  return block == stored;
}

int Run() {
  bench::Record record(
      "compression_ratio",
      "Section 3.3 bits per posting of the base segment's TD columns and "
      "of the corpus's forward store, the docid and tf encode throughput "
      "(best of 5), and a PDICT ablation on tf");
  std::printf("=== §3.3 compression ratios (bits per tuple) ===\n\n");
  core::Database db;
  bench::CheckOk(bench::OpenBenchDatabase(&db), "open database");
  // The column files sit in the base segment's own directory.
  const auto snap = db.Acquire();
  const std::string dir = snap->segments[0].seg->dir();
  const double postings =
      static_cast<double>(snap->segments[0].seg->index().num_postings());

  const ColumnInfo columns[] = {
      {"TD.docid raw", ir::kDocidRawFile, 32.0},
      {"TD.docid PFOR-DELTA", ir::kDocidCompressedFile, 11.98},
      {"TD.tf raw", ir::kTfRawFile, 32.0},
      {"TD.tf PFOR", ir::kTfCompressedFile, 8.13},
      {"TD.score f32 (materialized)", ir::kScoreF32File, 32.0},
      {"TD.score quantized 8-bit", ir::kScoreQ8File, 0.0},
  };

  TablePrinter table({"column", "bits/tuple", "file size", "paper"});
  storage::SimulatedDisk disk;
  storage::BufferManager bm(1ull << 30, &disk);
  for (const ColumnInfo& info : columns) {
    const uint64_t size = FileBytes(dir + "/" + info.file);
    const double bits = 8.0 * static_cast<double>(size) / postings;
    table.AddRow({info.label, StrFormat("%.2f", bits), HumanBytes(size),
                  info.paper_bits > 0 ? StrFormat("%.2f", info.paper_bits)
                                      : std::string("-")});
    record.AddRow(info.label)
        .Set("bits_per_posting", bits)
        .Set("bytes", static_cast<double>(size))
        .Set("paper_bits", info.paper_bits);
  }
  table.Print();
  const auto bits_of = [&](const char* file) {
    return 8.0 * static_cast<double>(FileBytes(dir + "/" + file)) / postings;
  };
  const double raw_bytes = static_cast<double>(
      FileBytes(dir + "/" + ir::kDocidRawFile) +
      FileBytes(dir + "/" + ir::kTfRawFile));
  const double compressed_bytes = static_cast<double>(
      FileBytes(dir + "/" + ir::kDocidCompressedFile) +
      FileBytes(dir + "/" + ir::kTfCompressedFile));
  std::printf(
      "\nTD table I/O volume: raw %s vs compressed %s (%.2fx) — this is the "
      "ratio that shrinks the cold-run times in Table 2 and lets the "
      "distributed index stay in RAM (§3.4).\n\n",
      HumanBytes(static_cast<uint64_t>(raw_bytes)).c_str(),
      HumanBytes(static_cast<uint64_t>(compressed_bytes)).c_str(),
      raw_bytes / compressed_bytes);

  const std::vector<uint8_t> docid_block =
      ReadStoredBlock(dir, ir::kDocidCompressedFile);
  const std::vector<uint8_t> tf_block =
      ReadStoredBlock(dir, ir::kTfCompressedFile);
  RecordWindowWidths("TD.docid PFOR-DELTA", docid_block, &record);
  RecordWindowWidths("TD.tf PFOR", tf_block, &record);

  // The forward store (the DT table, DESIGN.md §3.1): the corpus's own
  // term and tf blocks, per posting.
  const ir::Corpus& corpus = db.corpus();
  const ir::Corpus::StoreBytes store = corpus.store_bytes();
  const double corpus_postings = static_cast<double>(corpus.num_postings());
  const double forward_term_bits =
      8.0 * static_cast<double>(store.terms) / corpus_postings;
  const double forward_tf_bits =
      8.0 * static_cast<double>(store.tfs) / corpus_postings;
  std::printf(
      "\nDT forward store: term PFOR-DELTA %.2f + tf PFOR %.2f = %.2f bits "
      "per posting (%s, raw (term, tf) pairs %s)\n",
      forward_term_bits, forward_tf_bits, forward_term_bits + forward_tf_bits,
      HumanBytes(store.terms + store.tfs).c_str(),
      HumanBytes(corpus.num_postings() * sizeof(ir::DocTerm)).c_str());
  record.AddRow("DT forward store")
      .Set("term_bits_per_posting", forward_term_bits)
      .Set("tf_bits_per_posting", forward_tf_bits)
      .Set("bits_per_posting", forward_term_bits + forward_tf_bits)
      .Set("bytes", static_cast<double>(store.terms + store.tfs));
  std::printf("\n");

  // Encode throughput over the raw columns, with the build's options.
  const std::vector<int32_t> docids =
      ReadRawColumn(dir, ir::kDocidRawFile, &bm);
  const std::vector<int32_t> tfs = ReadRawColumn(dir, ir::kTfRawFile, &bm);
  const bool docid_match = TimeEncode(
      "docid PFOR-DELTA", docids, docid_block,
      [](const std::vector<int32_t>& v, std::vector<uint8_t>* out) {
        compress::EncodeOptions opts;
        opts.force_base = true;
        return compress::PforDeltaEncode(
            v.data(), static_cast<uint32_t>(v.size()), opts, out, nullptr);
      },
      &record);
  const bool tf_match = TimeEncode(
      "tf PFOR", tfs, tf_block,
      [](const std::vector<int32_t>& v, std::vector<uint8_t>* out) {
        return compress::PforEncode(v.data(), static_cast<uint32_t>(v.size()),
                                    {}, out, nullptr);
      },
      &record);

  // PDICT ablation on the tf column (frequency-skewed small integers).
  {
    const uint32_t n = static_cast<uint32_t>(
        std::min<size_t>(tfs.size(), 1u << 20));
    std::vector<uint8_t> block;
    compress::BlockStats stats;
    bench::CheckOk(compress::PdictEncode(tfs.data(), n, {}, &block, &stats),
                   "pdict encode");
    std::printf(
        "\nPDICT ablation on tf (%u values): %.2f bits/tuple at dictionary "
        "width b=%d, %u exceptions — PFOR wins on tf because the values are "
        "already tiny integers.\n\n",
        n, stats.BitsPerValue(), stats.bit_width, stats.n_exceptions);
    record.AddRow("TD.tf PDICT ablation")
        .Set("values", n)
        .Set("bits_per_posting", stats.BitsPerValue())
        .Set("bit_width", stats.bit_width)
        .Set("exceptions", stats.n_exceptions);
  }

  record.Gate("docid_bits_per_posting", bits_of(ir::kDocidCompressedFile));
  record.Gate("tf_bits_per_posting", bits_of(ir::kTfCompressedFile));
  record.Gate("q8_bits_per_posting", bits_of(ir::kScoreQ8File));
  record.Gate("td_io_volume_ratio", raw_bytes / compressed_bytes);
  record.Gate("encoded_blocks_match_files", docid_match && tf_match ? 1 : 0);
  record.Gate("forward_bits_per_posting", forward_term_bits + forward_tf_bits);
  return record.Finish();
}

}  // namespace
}  // namespace x100ir

int main() { return x100ir::Run(); }
