// Corpus generator. Sampling is deliberately boring and fully deterministic:
// Zipf by table-guided inversion of a precomputed CDF, log-normal via
// Box-Muller on Rng draws, per-document tf counting via sort (no unordered
// containers — their iteration order is implementation-defined and would
// leak into the generated stream). Generate runs in three phases: every
// Rng draw in one sequential pass, the per-document sorts split over a few
// threads, and the exact-size documents filled on the calling thread.
#include "ir/corpus.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/fork_join.h"
#include "common/rng.h"
#include "common/string_util.h"

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

}  // namespace

Status Corpus::Finalize() {
  const uint32_t n = num_docs();
  doc_lens_.assign(n, 0);
  num_postings_ = 0;
  uint64_t total_len = 0;
  for (uint32_t d = 0; d < n; ++d) {
    int64_t len = 0;
    for (const DocTerm& p : docs_[d]) len += p.tf;
    doc_lens_[d] = static_cast<int32_t>(len);
    total_len += static_cast<uint64_t>(len);
    num_postings_ += docs_[d].size();
  }
  avg_doc_len_ = n == 0 ? 0.0
                        : static_cast<double>(total_len) /
                              static_cast<double>(n);
  return OkStatus();
}

Status Corpus::Generate(const CorpusOptions& opts, Corpus* out) {
  if (out == nullptr) return InvalidArgument("null corpus output");
  if (opts.num_docs == 0 || opts.vocab_size == 0) {
    return InvalidArgument("corpus needs docs and a vocabulary");
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

  // Phase 2: sort each document's draws in place and count its distinct
  // terms, contiguous document ranges on up to kSortJobs threads. Draws are
  // already made, so the split cannot change the stream.
  constexpr uint32_t kSortJobs = 4;
  std::vector<uint32_t> distinct(n, 0);
  X100IR_RETURN_IF_ERROR(ForkJoin(kSortJobs, [&](size_t job) {
    const uint32_t lo = static_cast<uint32_t>(uint64_t{n} * job / kSortJobs);
    const uint32_t hi =
        static_cast<uint32_t>(uint64_t{n} * (job + 1) / kSortJobs);
    for (uint32_t d = lo; d < hi; ++d) {
      uint32_t* first = draws.data() + start[d];
      uint32_t* last = draws.data() + start[d + 1];
      std::sort(first, last);
      uint32_t runs = 1;  // every document has at least one draw
      for (const uint32_t* p = first + 1; p < last; ++p) runs += p[0] != p[-1];
      distinct[d] = runs;
    }
    return OkStatus();
  }));

  // Phase 3: each document allocated at its exact distinct-term count, on
  // the calling thread so that the long-lived vectors come from its malloc
  // arena, then filled by run-length counting of its sorted draws.
  out->docs_.resize(n);
  for (uint32_t d = 0; d < n; ++d) {
    auto& doc = out->docs_[d];
    doc.reserve(distinct[d]);
    for (uint64_t i = start[d]; i < start[d + 1];) {
      uint64_t j = i;
      while (j < start[d + 1] && draws[j] == draws[i]) ++j;
      doc.push_back({draws[i], static_cast<int32_t>(j - i)});
      i = j;
    }
  }
  return out->Finalize();
}

Status Corpus::FromDocuments(const std::vector<std::vector<uint32_t>>& docs,
                             uint32_t vocab_size, Corpus* out) {
  if (out == nullptr) return InvalidArgument("null corpus output");
  if (docs.empty() || vocab_size == 0) {
    return InvalidArgument("hand-built corpus needs docs and a vocabulary");
  }
  *out = Corpus();
  out->hand_built_ = true;
  out->options_ = CorpusOptions{};
  out->options_.num_docs = static_cast<uint32_t>(docs.size());
  out->options_.vocab_size = vocab_size;
  out->options_.num_topics = 0;
  out->docs_.resize(docs.size());
  for (size_t d = 0; d < docs.size(); ++d) {
    if (docs[d].empty()) {
      return InvalidArgument(StrFormat("document %zu is empty", d));
    }
    std::vector<uint32_t> sorted = docs[d];
    for (uint32_t term : sorted) {
      if (term >= vocab_size) {
        return InvalidArgument(
            StrFormat("term %u outside vocabulary of %u", term, vocab_size));
      }
    }
    std::sort(sorted.begin(), sorted.end());
    auto& doc = out->docs_[d];
    for (size_t i = 0; i < sorted.size();) {
      size_t j = i;
      while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
      doc.push_back({sorted[i], static_cast<int32_t>(j - i)});
      i = j;
    }
  }
  return out->Finalize();
}

Status Corpus::FromDocTerms(std::vector<std::vector<DocTerm>> docs,
                            uint32_t vocab_size, Corpus* out) {
  if (out == nullptr) return InvalidArgument("null corpus output");
  if (docs.empty() || vocab_size == 0) {
    return InvalidArgument("hand-built corpus needs docs and a vocabulary");
  }
  for (size_t d = 0; d < docs.size(); ++d) {
    if (docs[d].empty()) {
      return InvalidArgument(StrFormat("document %zu is empty", d));
    }
    uint32_t prev = 0;
    bool first = true;
    for (const DocTerm& p : docs[d]) {
      if (p.term >= vocab_size) {
        return InvalidArgument(StrFormat("term %u outside vocabulary of %u",
                                         p.term, vocab_size));
      }
      if (p.tf <= 0 || (!first && p.term <= prev)) {
        return InvalidArgument(
            StrFormat("document %zu is not normalized", d));
      }
      prev = p.term;
      first = false;
    }
  }
  *out = Corpus();
  out->hand_built_ = true;
  out->options_ = CorpusOptions{};
  out->options_.num_docs = static_cast<uint32_t>(docs.size());
  out->options_.vocab_size = vocab_size;
  out->options_.num_topics = 0;
  out->docs_ = std::move(docs);
  return out->Finalize();
}

uint64_t Corpus::Fingerprint() const {
  uint64_t h = 0xCBF29CE484222325ull;
  h = FnvMix(h, kGeneratorVersion);
  h = FnvMix(h, hand_built_ ? 1 : 0);
  // Content hash over the full term stream, not just the options: it
  // distinguishes hand-built corpora the options can't, and it catches
  // generator drift (libm last-ulp differences between platforms can shift
  // a Zipf/Box-Muller draw), so a stale manifest can never
  // fingerprint-match a subtly different corpus. One linear pass: ~19 ms
  // at default scale against ~0.4 s of generation, which is why
  // SnapshotManager hashes once per Open and keeps the value.
  h = FnvMix(h, num_postings_);
  for (const auto& doc : docs_) {
    h = FnvMix(h, doc.size());
    for (const DocTerm& p : doc) {
      h = FnvMix(h, (static_cast<uint64_t>(p.term) << 32) |
                        static_cast<uint32_t>(p.tf));
    }
  }
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
