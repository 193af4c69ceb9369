// Layout of the inverted index, relationally (the paper's §3 schema): one
// TD table sorted by (term, docid) stored as columns, plus per-document and
// per-term side tables.
//
//   TD.docid  — int32, ascending within each term's posting range;
//               PFOR-DELTA-compressed (term-boundary resets become
//               exceptions, §3.3's 11.98 bits/tuple column)
//   TD.tf     — int32 term frequency; PFOR-compressed (§3.3's 8.13 bits)
//   D.doclen  — int32 per-document length (BM25 normalization)
//   T         — per-term posting range [start, start + count) into TD,
//               document frequency (== count) and precomputed BM25 idf
//
// On disk each column is one file under its segment's directory
// `seg_<id>/` (named below, shared with the storage/ benches), and
// `index.meta` records the table sizes. The manifest at the database root
// lists the segments and carries the corpus fingerprint that gates reuse.
// The builder lives in index_builder.h.
#ifndef X100IR_IR_INDEX_META_H_
#define X100IR_IR_INDEX_META_H_

#include <cstdint>

namespace x100ir::ir {

// Column file names under a segment directory. "raw" files are plain int32
// arrays behind a ColumnFileHeader; "pfor*" files hold one compressed block
// (compress/codec.h) behind the same header; the score files carry the
// materialized per-posting BM25 contributions (f32, and 8-bit quantized
// with stored scale/bias) that the BM25TCM/BM25TCMQ8 runs scan instead of
// recomputing scores.
inline constexpr char kDocidRawFile[] = "td_docid_raw.col";
inline constexpr char kDocidCompressedFile[] = "td_docid_pfordelta.col";
inline constexpr char kTfRawFile[] = "td_tf_raw.col";
inline constexpr char kTfCompressedFile[] = "td_tf_pfor.col";
inline constexpr char kScoreF32File[] = "td_score_f32.col";
inline constexpr char kScoreQ8File[] = "td_score_q8.col";
inline constexpr char kIndexMetaFile[] = "index.meta";
// Side tables (v3): the T table (packed TermRecords) and the D.doclen
// column, persisted so a segment directory is self-describing — a manifest
// reopen loads them instead of recomputing from a corpus it doesn't have.
inline constexpr char kTermsFile[] = "t_terms.col";
inline constexpr char kDoclenFile[] = "d_doclen.col";
// Block-max side table (v4): one BlockMaxEntry per 128-posting window of
// the whole TD table (ceil(num_postings / kEntryPointStride) records,
// encoding kOpaque). Windows are positional — they span term boundaries,
// which only over-estimates any single term's bound and stays sound.
inline constexpr char kBlockMaxFile[] = "td_blockmax.col";
// Per-segment local→global docid map (absent for seg_0, which indexes the
// database's corpus under the identity map), and the segment-set manifest
// at the database root. The manifest is written to kManifestTmpFile and
// renamed into place — the atomic commit point of a first open and of a
// merge (DESIGN.md §10).
inline constexpr char kSegmentMetaFile[] = "segment.meta";
inline constexpr char kManifestFile[] = "MANIFEST";
inline constexpr char kManifestTmpFile[] = "MANIFEST.tmp";

// Every column file starts with this header. storage::ColumnReader (the
// buffer-pool-backed access path) consumes this same layout, so the format
// is defined once, here with the rest of the TD schema.
struct ColumnFileHeader {
  static constexpr uint32_t kMagic = 0x58434F4C;  // "XCOL"
  enum Encoding : uint32_t {
    kRawI32 = 0,           // payload: value_count * int32
    kCompressedBlock = 1,  // payload: one self-describing codec block
    kRawF32 = 2,           // payload: value_count * float (materialized
                           // BM25 score column, kScoreF32File)
    kQuantU8 = 3,          // payload: Q8Params, then value_count * uint8;
                           // value = bias + scale * q (kScoreQ8File)
    kOpaque = 4,           // payload: value_count packed records whose
                           // layout the consumer defines (kTermsFile)
  };

  uint32_t magic = kMagic;
  uint32_t encoding = kRawI32;
  uint64_t value_count = 0;
};

// Quantization parameters of a kQuantU8 column, stored at the head of its
// payload. scale/bias map the full u8 range onto [min, max] of the source
// column: q = round((v - bias) / scale), so every dequantized value is
// within scale/2 of the original — the bound the quantization tests pin.
struct Q8Params {
  float scale = 1.0f;
  float bias = 0.0f;
  uint64_t reserved = 0;
};
static_assert(sizeof(Q8Params) == 16, "packed q8 params");

// index.meta payload: the TD table's sizes, which a load cross-checks
// against the side tables and the columns.
struct IndexMetaHeader {
  static constexpr uint32_t kMagic = 0x5844584D;  // "XDXM"
  // v2: the index directory additionally carries the materialized score
  // columns (kScoreF32File/kScoreQ8File). v3: plus the persisted side
  // tables (kTermsFile/kDoclenFile), making the directory loadable without
  // the corpus — what Segment::Load needs on a manifest reopen. v4: plus
  // the block-max side table (kBlockMaxFile) behind Block-Max MaxScore.
  // v5: no corpus fingerprint (the manifest's gates reuse). v6: compressed
  // blocks carry a bit width per window (a new block magic). Bumping
  // makes every older directory fail to load, never load with files
  // missing.
  static constexpr uint32_t kVersion = 6;

  uint32_t magic = kMagic;
  uint32_t version = kVersion;
  uint64_t num_postings = 0;
  uint32_t num_docs = 0;
  uint32_t vocab_size = 0;
};

// On-disk record of one T-table entry (kTermsFile, encoding kOpaque):
// fields written packed in this order, 20 bytes per term, no padding. Kept
// separate from TermInfo so the in-memory struct can keep natural
// alignment without persisting its tail padding.
inline constexpr size_t kTermRecordBytes = 8 + 4 + 4 + 4;

// segment.meta payload: the local→global docid map of a merged segment.
// Header then num_docs packed int32 global docids (strictly increasing —
// merges preserve global docid order, which keeps cross-segment top-k
// merges a concatenation).
struct SegmentMetaHeader {
  static constexpr uint32_t kMagic = 0x4754584D;  // "MXTG"
  static constexpr uint32_t kVersion = 1;

  uint32_t magic = kMagic;
  uint32_t version = kVersion;
  uint32_t seg_id = 0;
  uint32_t num_docs = 0;
};

// MANIFEST payload: the committed segment set. Header, then per segment a
// ManifestSegment followed by its tombstone bitmap words (usually zero of
// them — a merge purges tombstones; only deletes that landed *during* the
// merge are re-applied to the new segment and persisted here). A fresh
// open writes the epoch-0 manifest, listing seg_0, before the WAL opens;
// every reopen adopts it. The manifest is the last file written (tmp +
// rename): a directory without a usable one is rebuilt from the corpus.
struct ManifestHeader {
  static constexpr uint32_t kMagic = 0x464E4D58;  // "XMNF"
  static constexpr uint32_t kVersion = 1;

  uint32_t magic = kMagic;
  uint32_t version = kVersion;
  // Fingerprint of the *base* corpus the database was opened with. A
  // reopen under different corpus options must not adopt this manifest.
  uint64_t corpus_fingerprint = 0;
  uint64_t epoch = 0;
  uint32_t num_segments = 0;
  uint32_t next_seg_id = 0;
  int32_t next_docid = 0;
  uint32_t reserved = 0;
};

struct ManifestSegment {
  uint32_t seg_id = 0;
  uint32_t num_docs = 0;
  uint32_t num_tombstone_words = 0;
  uint32_t reserved = 0;
};

// On-disk record of one 128-posting TD window (kBlockMaxFile, encoding
// kOpaque): fields packed in this order, 12 bytes per window. max_tf and
// min_doclen bound the window's postings; BM25 is increasing in tf and
// decreasing in doclen, so for any query term overlapping the window and
// any (k1, b, idf), score <= Bm25One(idf, max_tf, min_doclen), the pair
// bound the engine recomputes under live parameters. `ub` is the largest
// idf = 1 contribution of any posting in the window under the build's
// parameters (k1=1.2, b=0.75, the index's own avgdl); under the build's
// (k1, b) the engine scales it to the live idf and avgdl and takes the
// smaller of the two bounds (ir/maxscore.h's WindowBounds). A directory
// written before `ub` held that maximum stores the pair bound at build
// parameters there, looser and still sound. Deletes only shrink a window's
// true maxima, so stale bounds under tombstones stay sound.
inline constexpr size_t kBlockMaxRecordBytes = 4 + 4 + 4;

struct BlockMaxEntry {
  int32_t max_tf = 0;
  int32_t min_doclen = 0;
  float ub = 0.0f;
};

// Per-term entry of the T table.
struct TermInfo {
  uint64_t posting_start = 0;
  uint32_t doc_freq = 0;
  float idf = 0.0f;
  // Largest tf in the term's postings. BM25 is increasing in tf and
  // decreasing in doclen, so score(tf, dl) <= score(max_tf, min_doclen):
  // the per-term score upper bound MaxScore pruning needs, computable at
  // query time for any (k1, b) without touching the postings.
  int32_t max_tf = 0;
};

// What Database::Open reports about index construction (bench_util.h
// prints it).
struct BuildStats {
  uint64_t num_postings = 0;
  double build_seconds = 0.0;
  // True when Open adopted a manifest and loaded every segment it lists
  // instead of building seg_0 from the corpus.
  bool reused_files = false;
};

}  // namespace x100ir::ir

#endif  // X100IR_IR_INDEX_META_H_
