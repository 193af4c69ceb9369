// Corpus generator. Sampling is deliberately boring and fully deterministic:
// Zipf by table-guided inversion of a precomputed CDF, log-normal via
// Box-Muller on Rng draws, per-document tf counting via sort (no unordered
// containers — their iteration order is implementation-defined and would
// leak into the generated stream). Generate runs in two phases: every Rng
// draw in one sequential pass, then one job per chunk that sorts its
// documents' draws, run-length counts them into chunk-sized staging and
// encodes the chunk.
#include "ir/corpus.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/fork_join.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "compress/pfor.h"
#include "compress/pfor_delta.h"

namespace x100ir::ir {
namespace {

// Bump when the generated stream changes shape: the fingerprint guards the
// manifest and the WAL header (DESIGN.md §10.4, §13.2), so a generator
// change must invalidate the files an older stream wrote.
constexpr uint64_t kGeneratorVersion = 1;

// Zipf over term ids 0..vocab-1 (id = rank - 1, so id 0 is the most
// frequent term): P(id) ∝ 1 / (id + 1)^s, drawn by inverting the CDF.
//
// A guide table makes the inversion O(1) expected: guide_[j] is the first
// id whose CDF value exceeds j / kGuide, so a draw u in bucket
// j = floor(u * kGuide) starts there and steps forward while cdf_[i] <= u.
// That is exactly the id std::upper_bound(cdf_, u) finds (clamped to the
// last id), for every u: u is a multiple of 2^-53 and the bucket edges are
// binary fractions, so u * kGuide and j / kGuide are exact and no draw can
// land in a different bucket or compare differently.
class ZipfSampler {
 public:
  ZipfSampler(uint32_t vocab, double s) : cdf_(vocab), guide_(kGuide) {
    double total = 0.0;
    for (uint32_t i = 0; i < vocab; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (auto& c : cdf_) c /= total;
    for (uint32_t j = 0; j < kGuide; ++j) {
      const double edge = static_cast<double>(j) / kGuide;
      guide_[j] = std::min<uint32_t>(
          static_cast<uint32_t>(
              std::upper_bound(cdf_.begin(), cdf_.end(), edge) -
              cdf_.begin()),
          vocab - 1);
    }
  }

  uint32_t Draw(Rng* rng) const {
    const double u = rng->NextDouble();
    const uint32_t last = static_cast<uint32_t>(cdf_.size() - 1);
    uint32_t i = guide_[static_cast<uint32_t>(u * kGuide)];
    while (i < last && cdf_[i] <= u) ++i;
    return i;
  }

 private:
  static constexpr uint32_t kGuide = 1u << 16;
  std::vector<double> cdf_;
  std::vector<uint32_t> guide_;
};

// Standard normal via Box-Muller. u1 is shifted off zero so log(u1) is
// finite for every Rng draw.
double NextNormal(Rng* rng) {
  const double u1 =
      (static_cast<double>(rng->Next() >> 11) + 0.5) / 9007199254740992.0;
  const double u2 = rng->NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * 3.14159265358979323846 * u2);
}

// Samples `k` distinct uint32s from [lo, hi) by rejection (k << hi - lo at
// every call site), returned sorted.
std::vector<uint32_t> SampleDistinct(Rng* rng, uint32_t lo, uint32_t hi,
                                     uint32_t k) {
  std::vector<uint32_t> out;
  out.reserve(k);
  while (out.size() < k) {
    const uint32_t v = lo + static_cast<uint32_t>(rng->NextBounded(hi - lo));
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

uint64_t FnvMix(uint64_t h, uint64_t v) {
  h ^= v;
  return h * 0x100000001B3ull;
}

uint64_t FnvMixDouble(uint64_t h, double d) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d), "double must be 64-bit");
  std::memcpy(&bits, &d, sizeof(bits));
  return FnvMix(h, bits);
}

// Encodes one chunk from its staged columns: `starts` holds each
// document's first posting and the chunk's posting count last.
Status EncodeChunk(const int32_t* terms, const int32_t* tfs,
                   std::vector<uint32_t> starts,
                   std::shared_ptr<const internal::CorpusChunk>* out) {
  auto chunk = std::make_shared<internal::CorpusChunk>();
  const uint32_t n = starts.back();
  // Term ids ascend within a document, so their deltas are small
  // positives; FOR base 0 makes the one negative delta at each document
  // boundary an exception instead of dragging every window's base down,
  // as in the TD docid column.
  compress::EncodeOptions term_opts;
  term_opts.force_base = true;
  X100IR_RETURN_IF_ERROR(compress::PforDeltaEncode(
      terms, n, term_opts, &chunk->term_block, nullptr));
  X100IR_RETURN_IF_ERROR(
      compress::PforEncode(tfs, n, {}, &chunk->tf_block, nullptr));
  X100IR_RETURN_IF_ERROR(
      chunk->terms.Init(chunk->term_block.data(), chunk->term_block.size()));
  X100IR_RETURN_IF_ERROR(
      chunk->tfs.Init(chunk->tf_block.data(), chunk->tf_block.size()));
  chunk->starts = std::move(starts);
  *out = std::move(chunk);
  return OkStatus();
}

// Decodes postings [pos, pos + len) of `chunk` into out, one 128-value
// window of each column at a time.
void DecodePostings(const internal::CorpusChunk& chunk, uint32_t pos,
                    uint32_t len, DocTerm* out) {
  constexpr uint32_t kWindow = compress::kEntryPointStride;
  int32_t terms[kWindow];
  int32_t tfs[kWindow];
  while (len > 0) {
    const uint32_t piece = std::min(len, kWindow - pos % kWindow);
    chunk.terms.Decode(pos, piece, terms);
    chunk.tfs.Decode(pos, piece, tfs);
    for (uint32_t i = 0; i < piece; ++i) {
      out[i] = {static_cast<uint32_t>(terms[i]), tfs[i]};
    }
    out += piece;
    pos += piece;
    len -= piece;
  }
}

// The options a hand-built corpus carries: defaults, its own size and
// vocabulary, no topics.
CorpusOptions HandBuiltOptions(uint32_t num_docs, uint32_t vocab_size) {
  CorpusOptions opts;
  opts.num_docs = num_docs;
  opts.vocab_size = vocab_size;
  opts.num_topics = 0;
  return opts;
}

}  // namespace

void Corpus::Finalize() {
  num_postings_ = 0;
  const uint32_t n = num_docs();
  for (uint32_t d = 0; d < n;) {
    uint32_t i = 0;
    const internal::CorpusChunk& c = ChunkOf(d, &i);
    const uint32_t in_chunk = std::min<uint32_t>(
        n - d, static_cast<uint32_t>(c.starts.size() - 1) - i);
    num_postings_ += c.starts[i + in_chunk] - c.starts[i];
    d += in_chunk;
  }
  uint64_t total_len = 0;
  for (const int32_t len : doc_lens_) total_len += static_cast<uint64_t>(len);
  avg_doc_len_ = n == 0 ? 0.0
                        : static_cast<double>(total_len) /
                              static_cast<double>(n);
}

Status Corpus::Generate(const CorpusOptions& opts, Corpus* out) {
  if (out == nullptr) return InvalidArgument("null corpus output");
  if (opts.num_docs == 0 || opts.vocab_size == 0) {
    return InvalidArgument("corpus needs docs and a vocabulary");
  }
  if (opts.vocab_size > static_cast<uint32_t>(INT32_MAX)) {
    return InvalidArgument("vocabulary exceeds 2^31 terms");
  }
  if (opts.zipf_s <= 0.0) return InvalidArgument("zipf_s must be positive");
  if (opts.topical_mass < 0.0 || opts.topical_mass > 1.0) {
    return InvalidArgument("topical_mass must be in [0, 1]");
  }
  if (opts.num_topics > 0) {
    if (opts.topic_rank_min >= opts.topic_rank_max ||
        opts.topic_rank_max > opts.vocab_size) {
      return InvalidArgument("topic rank band outside the vocabulary");
    }
    if (opts.terms_per_topic == 0 ||
        opts.terms_per_topic > opts.topic_rank_max - opts.topic_rank_min) {
      return InvalidArgument("terms_per_topic exceeds the topic rank band");
    }
    const uint64_t planted = static_cast<uint64_t>(opts.num_topics) *
                             opts.relevant_docs_per_topic;
    if (planted > opts.num_docs) {
      return InvalidArgument(
          StrFormat("cannot plant %llu relevant docs in %u documents",
                    static_cast<unsigned long long>(planted), opts.num_docs));
    }
  }

  *out = Corpus();
  out->options_ = opts;
  Rng rng(opts.seed);
  const ZipfSampler zipf(opts.vocab_size, opts.zipf_s);

  // Topics: term sets from the mid-rank band, then disjoint relevant-doc
  // sets (a document argues for at most one topic, which keeps qrels
  // unambiguous).
  out->topic_terms_.resize(opts.num_topics);
  out->relevant_docs_.resize(opts.num_topics);
  std::vector<int32_t> doc_topic(opts.num_docs, -1);
  for (uint32_t t = 0; t < opts.num_topics; ++t) {
    out->topic_terms_[t] = SampleDistinct(&rng, opts.topic_rank_min,
                                          opts.topic_rank_max,
                                          opts.terms_per_topic);
    auto& rel = out->relevant_docs_[t];
    rel.reserve(opts.relevant_docs_per_topic);
    while (rel.size() < opts.relevant_docs_per_topic) {
      const uint32_t d =
          static_cast<uint32_t>(rng.NextBounded(opts.num_docs));
      if (doc_topic[d] < 0) {
        doc_topic[d] = static_cast<int32_t>(t);
        rel.push_back(static_cast<int32_t>(d));
      }
    }
    std::sort(rel.begin(), rel.end());
  }

  // Documents, phase 1: length from the log-normal, then `len` term draws —
  // from the owning topic's term set with probability topical_mass for
  // planted docs, from the global Zipf otherwise. One sequential pass makes
  // every Rng draw, in stream order, into one flat array; doc d's draws are
  // draws[start[d], start[d + 1]). A length is at most its log-normal draw
  // plus 1 (rounding, and the floor of 1), so the array is reserved at the
  // sum's mean plus six of its standard deviations, plus n: the summed
  // lengths stay below that and the array is allocated once.
  const uint32_t n = opts.num_docs;
  std::vector<uint64_t> start(n + 1, 0);
  std::vector<uint32_t> draws;
  {
    const double var_factor =
        std::exp(opts.doclen_sigma * opts.doclen_sigma);
    const double mean = std::exp(opts.doclen_mu) * std::sqrt(var_factor);
    const double sd = mean * std::sqrt(var_factor - 1.0);
    const double bound =
        n * (mean + 1.0) + 6.0 * std::sqrt(static_cast<double>(n)) * sd;
    draws.reserve(static_cast<size_t>(bound));
  }
  for (uint32_t d = 0; d < n; ++d) {
    const double raw =
        std::exp(opts.doclen_mu + opts.doclen_sigma * NextNormal(&rng));
    const uint32_t len = std::max<uint32_t>(
        1, static_cast<uint32_t>(std::lround(raw)));
    start[d] = draws.size();
    const int32_t topic = doc_topic[d];
    for (uint32_t i = 0; i < len; ++i) {
      if (topic >= 0 && rng.NextBernoulli(opts.topical_mass)) {
        const auto& terms = out->topic_terms_[static_cast<uint32_t>(topic)];
        draws.push_back(terms[rng.NextBounded(terms.size())]);
      } else {
        draws.push_back(zipf.Draw(&rng));
      }
    }
  }
  start[n] = draws.size();

  // Phase 2: one job per chunk sorts each of its documents' draws in place,
  // run-length counts them into staging sized exactly for the chunk, and
  // encodes the chunk. Draws are already made, so the split cannot change
  // the stream, and each job writes only its own chunk and doc lengths.
  const uint32_t num_chunks = (n + kCorpusChunkDocs - 1) / kCorpusChunkDocs;
  out->chunks_.resize(num_chunks);
  out->doc_lens_.resize(n);
  X100IR_RETURN_IF_ERROR(ForkJoin(num_chunks, [&](size_t c) {
    const uint32_t lo = static_cast<uint32_t>(c) * kCorpusChunkDocs;
    const uint32_t hi = std::min(n, lo + kCorpusChunkDocs);
    uint64_t postings = 0;
    for (uint32_t d = lo; d < hi; ++d) {
      uint32_t* first = draws.data() + start[d];
      uint32_t* last = draws.data() + start[d + 1];
      std::sort(first, last);
      uint32_t runs = 1;  // every document has at least one draw
      for (const uint32_t* p = first + 1; p < last; ++p) runs += p[0] != p[-1];
      postings += runs;
      out->doc_lens_[d] = static_cast<int32_t>(last - first);
    }
    if (postings > UINT32_MAX) {
      return InvalidArgument("a corpus chunk exceeds 2^32 postings");
    }
    std::vector<int32_t> terms(postings);
    std::vector<int32_t> tfs(postings);
    std::vector<uint32_t> starts(hi - lo + 1);
    uint32_t pos = 0;
    for (uint32_t d = lo; d < hi; ++d) {
      starts[d - lo] = pos;
      for (uint64_t i = start[d]; i < start[d + 1];) {
        uint64_t j = i;
        while (j < start[d + 1] && draws[j] == draws[i]) ++j;
        terms[pos] = static_cast<int32_t>(draws[i]);
        tfs[pos] = static_cast<int32_t>(j - i);
        ++pos;
        i = j;
      }
    }
    starts[hi - lo] = pos;
    return EncodeChunk(terms.data(), tfs.data(), std::move(starts),
                       &out->chunks_[c]);
  }));
  out->Finalize();
  return OkStatus();
}

Status Corpus::FromDocuments(const std::vector<std::vector<uint32_t>>& docs,
                             uint32_t vocab_size, Corpus* out) {
  if (out == nullptr) return InvalidArgument("null corpus output");
  CorpusWriter writer(vocab_size);
  std::vector<uint32_t> sorted;
  std::vector<DocTerm> doc;
  for (const std::vector<uint32_t>& occurrences : docs) {
    sorted = occurrences;
    std::sort(sorted.begin(), sorted.end());
    doc.clear();
    for (size_t i = 0; i < sorted.size();) {
      size_t j = i;
      while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
      doc.push_back({sorted[i], static_cast<int32_t>(j - i)});
      i = j;
    }
    X100IR_RETURN_IF_ERROR(
        writer.Add(doc.data(), static_cast<uint32_t>(doc.size())));
  }
  return writer.Finish(out);
}

Status Corpus::FromDocTerms(const std::vector<std::vector<DocTerm>>& docs,
                            uint32_t vocab_size, Corpus* out) {
  if (out == nullptr) return InvalidArgument("null corpus output");
  CorpusWriter writer(vocab_size);
  for (const std::vector<DocTerm>& doc : docs) {
    X100IR_RETURN_IF_ERROR(
        writer.Add(doc.data(), static_cast<uint32_t>(doc.size())));
  }
  return writer.Finish(out);
}

Status Corpus::Slice(uint32_t begin, uint32_t end, Corpus* out) const {
  if (out == nullptr) return InvalidArgument("null corpus output");
  if (begin >= end || end > num_docs()) {
    return InvalidArgument(StrFormat("slice [%u, %u) outside %u documents",
                                     begin, end, num_docs()));
  }
  Corpus part;
  part.hand_built_ = true;
  part.options_ = HandBuiltOptions(end - begin, vocab_size());
  const uint32_t p0 = first_ + begin;
  const uint32_t p1 = first_ + end;
  part.first_ = p0 % kCorpusChunkDocs;
  part.chunks_.assign(chunks_.begin() + p0 / kCorpusChunkDocs,
                      chunks_.begin() + (p1 - 1) / kCorpusChunkDocs + 1);
  part.doc_lens_.assign(doc_lens_.begin() + begin, doc_lens_.begin() + end);
  part.Finalize();
  *out = std::move(part);
  return OkStatus();
}

void Corpus::ReadDoc(uint32_t d, std::vector<DocTerm>* out) const {
  uint32_t i = 0;
  const internal::CorpusChunk& c = ChunkOf(d, &i);
  out->resize(c.starts[i + 1] - c.starts[i]);
  DecodePostings(c, c.starts[i], static_cast<uint32_t>(out->size()),
                 out->data());
}

uint32_t Corpus::DecodeRun(uint32_t d, uint32_t end,
                           std::vector<DocTerm>* slab) const {
  // 16K postings (128 KB) per run: a pass over the whole corpus keeps its
  // buffer in cache instead of staging a chunk.
  constexpr uint32_t kSlabPostings = 16384;
  uint32_t i = 0;
  const internal::CorpusChunk& c = ChunkOf(d, &i);
  const uint32_t* starts = c.starts.data();
  const uint32_t last = static_cast<uint32_t>(std::min<uint64_t>(
      uint64_t{i} + (end - d), c.starts.size() - 1));
  // The first document past the slab, but at least one document.
  const uint32_t* stop =
      std::upper_bound(starts + i + 1, starts + last + 1,
                       starts[i] + kSlabPostings) -
      1;
  if (stop == starts + i) stop = starts + i + 1;
  const uint32_t len = *stop - starts[i];
  if (slab->size() < len) slab->resize(len);
  DecodePostings(c, starts[i], len, slab->data());
  return d + static_cast<uint32_t>(stop - (starts + i));
}

Corpus::StoreBytes Corpus::store_bytes() const {
  StoreBytes bytes;
  for (const auto& chunk : chunks_) {
    bytes.terms += chunk->term_block.size();
    bytes.tfs += chunk->tf_block.size();
  }
  return bytes;
}

Status CorpusWriter::Add(const DocTerm* doc, uint32_t n) {
  const uint32_t d = num_docs();
  if (n == 0) return InvalidArgument(StrFormat("document %u is empty", d));
  if (vocab_size_ > static_cast<uint32_t>(INT32_MAX)) {
    return InvalidArgument("vocabulary exceeds 2^31 terms");
  }
  int64_t len = 0;
  for (uint32_t i = 0; i < n; ++i) {
    if (doc[i].term >= vocab_size_) {
      return InvalidArgument(StrFormat("term %u outside vocabulary of %u",
                                       doc[i].term, vocab_size_));
    }
    if (doc[i].tf <= 0 || (i > 0 && doc[i].term <= doc[i - 1].term)) {
      return InvalidArgument(StrFormat("document %u is not normalized", d));
    }
    len += doc[i].tf;
  }
  if (uint64_t{terms_.size()} + n > UINT32_MAX) {
    return InvalidArgument("a corpus chunk exceeds 2^32 postings");
  }
  for (uint32_t i = 0; i < n; ++i) {
    terms_.push_back(static_cast<int32_t>(doc[i].term));
    tfs_.push_back(doc[i].tf);
  }
  starts_.push_back(static_cast<uint32_t>(terms_.size()));
  doc_lens_.push_back(static_cast<int32_t>(len));
  return starts_.size() > kCorpusChunkDocs ? EncodeStaged() : OkStatus();
}

Status CorpusWriter::EncodeStaged() {
  chunks_.emplace_back();
  X100IR_RETURN_IF_ERROR(
      EncodeChunk(terms_.data(), tfs_.data(), starts_, &chunks_.back()));
  terms_.clear();
  tfs_.clear();
  starts_.assign(1, 0);
  return OkStatus();
}

Status CorpusWriter::Finish(Corpus* out) {
  if (out == nullptr) return InvalidArgument("null corpus output");
  if (num_docs() == 0 || vocab_size_ == 0) {
    return InvalidArgument("hand-built corpus needs docs and a vocabulary");
  }
  if (starts_.size() > 1) X100IR_RETURN_IF_ERROR(EncodeStaged());
  Corpus corpus;
  corpus.hand_built_ = true;
  corpus.options_ = HandBuiltOptions(num_docs(), vocab_size_);
  corpus.chunks_ = std::move(chunks_);
  corpus.doc_lens_ = std::move(doc_lens_);
  corpus.Finalize();
  *out = std::move(corpus);
  return OkStatus();
}

uint64_t Corpus::Fingerprint() const {
  uint64_t h = 0xCBF29CE484222325ull;
  h = FnvMix(h, kGeneratorVersion);
  h = FnvMix(h, hand_built_ ? 1 : 0);
  // Content hash over the full term stream, not just the options: it
  // distinguishes hand-built corpora the options can't, and it catches
  // generator drift (libm last-ulp differences between platforms can shift
  // a Zipf/Box-Muller draw), so a stale manifest can never
  // fingerprint-match a subtly different corpus. One decoding pass: ~33 ms
  // at default scale against ~0.35 s of generation, which is why
  // SnapshotManager hashes once per Open and keeps the value.
  h = FnvMix(h, num_postings_);
  ForEachDoc(0, num_docs(), [&h](uint32_t, const DocTerm* doc, uint32_t n) {
    h = FnvMix(h, n);
    for (uint32_t i = 0; i < n; ++i) {
      h = FnvMix(h, (static_cast<uint64_t>(doc[i].term) << 32) |
                        static_cast<uint32_t>(doc[i].tf));
    }
  });
  h = FnvMix(h, options_.num_docs);
  h = FnvMix(h, options_.vocab_size);
  h = FnvMixDouble(h, options_.zipf_s);
  h = FnvMixDouble(h, options_.doclen_mu);
  h = FnvMixDouble(h, options_.doclen_sigma);
  h = FnvMix(h, options_.num_topics);
  h = FnvMix(h, options_.terms_per_topic);
  h = FnvMix(h, options_.relevant_docs_per_topic);
  h = FnvMixDouble(h, options_.topical_mass);
  h = FnvMix(h, options_.topic_rank_min);
  h = FnvMix(h, options_.topic_rank_max);
  h = FnvMix(h, options_.seed);
  return h;
}

}  // namespace x100ir::ir
