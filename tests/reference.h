// The one reference evaluator the agreement tests compare against: exact
// BoolAND, BoolOR and ranked BM25 over a list of live documents. It reads
// no index, cursor or engine code — it scans every document — and scores
// with the statistics a monolithic index rebuilt from exactly those
// documents carries: num_docs and df counted over the list, avg_doc_len
// as Corpus::Finalize computes it (integer total length, one double
// division), idf = Bm25Idf(num_docs, df).
//
// Bitwise contract: each BM25 contribution is written out in MapBm25's
// operation order (w = idf * (k1 + 1), c0 = k1 * (1 - b),
// c1 = k1 * b * inv_avgdl, then w * tf / ((tf + c0) + c1 * doclen)), and a
// document's contributions are summed from 0.0f in ascending term order —
// the float addition order of the score-all union plan. That plan, and
// both boolean plans, therefore match the reference bit for bit (docids,
// score bits, num_matches) on a monolithic index, a segmented snapshot
// with tombstones and a delta, and an N-way cluster. MaxScore and the
// storage runs add in other orders and are compared within a tolerance.
//
// The file also holds the generator oracle, ReferenceCorpus::Generate, the
// encoder oracle, ReferenceCodec, and the skip-cursor oracle,
// ReferenceSkipCursor (see there).
#ifndef X100IR_TESTS_REFERENCE_H_
#define X100IR_TESTS_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "compress/block_layout.h"
#include "compress/codec.h"
#include "compress/skip_cursor.h"
#include "ir/bm25.h"
#include "ir/corpus.h"
#include "ir/query_gen.h"
#include "ir/search_engine.h"

namespace x100ir {

class Reference {
 public:
  struct Doc {
    int32_t docid = 0;               // result-space (global) docid
    std::vector<ir::DocTerm> terms;  // sorted by term, distinct, tf > 0
  };

  // `docs` ascending by docid; every term id below `vocab`.
  Reference(std::vector<Doc> docs, uint32_t vocab)
      : docs_(std::move(docs)), df_(vocab, 0) {
    uint64_t total_len = 0;
    for (const Doc& d : docs_) {
      int64_t len = 0;
      for (const ir::DocTerm& p : d.terms) {
        ++df_[p.term];
        len += p.tf;
      }
      lens_.push_back(static_cast<int32_t>(len));
      total_len += static_cast<uint64_t>(len);
    }
    avg_doc_len_ = docs_.empty() ? 0.0
                                 : static_cast<double>(total_len) /
                                       static_cast<double>(docs_.size());
  }

  // Every document of `corpus`, docid = corpus docid.
  static Reference Of(const ir::Corpus& corpus) {
    std::vector<Doc> docs(corpus.num_docs());
    for (uint32_t d = 0; d < corpus.num_docs(); ++d) {
      docs[d].docid = static_cast<int32_t>(d);
      corpus.ReadDoc(d, &docs[d].terms);
    }
    return Reference(std::move(docs), corpus.vocab_size());
  }

  // Boolean runs: the first k matching docids ascending. Every ranked run
  // type: the exact BM25 top k (score desc, docid asc). num_matches counts
  // every matching document.
  ir::SearchResult Search(const ir::Query& query, ir::RunType type,
                          const ir::SearchOptions& opts) const {
    std::vector<uint32_t> terms = query.terms;
    std::sort(terms.begin(), terms.end());
    terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
    const float k1 = opts.bm25.k1;
    const float b = opts.bm25.b;
    const float inv_avgdl =
        avg_doc_len_ > 0.0 ? static_cast<float>(1.0 / avg_doc_len_) : 0.0f;
    const float c0 = k1 * (1.0f - b);
    const float c1 = k1 * b * inv_avgdl;
    const uint32_t n = static_cast<uint32_t>(docs_.size());
    std::vector<float> w(terms.size());
    for (size_t j = 0; j < terms.size(); ++j) {
      w[j] = Bm25Idf(n, df_[terms[j]]) * (k1 + 1.0f);
    }
    std::vector<std::pair<float, int32_t>> hits;  // (score, docid)
    for (uint32_t i = 0; i < n; ++i) {
      const std::vector<ir::DocTerm>& dt = docs_[i].terms;
      float score = 0.0f;
      size_t present = 0;
      for (size_t j = 0; j < terms.size(); ++j) {
        const auto it = std::lower_bound(
            dt.begin(), dt.end(), terms[j],
            [](const ir::DocTerm& p, uint32_t v) { return p.term < v; });
        if (it == dt.end() || it->term != terms[j]) continue;
        ++present;
        const float tff = static_cast<float>(it->tf);
        score += w[j] * tff / (tff + c0 + c1 * static_cast<float>(lens_[i]));
      }
      const bool match = type == ir::RunType::kBoolAnd
                             ? present == terms.size()
                             : present > 0;
      if (match) hits.push_back({score, docs_[i].docid});
    }
    const bool ranked = ir::IsRankedRun(type);
    if (ranked) {
      std::sort(hits.begin(), hits.end(), [](const auto& x, const auto& y) {
        if (x.first != y.first) return x.first > y.first;
        return x.second < y.second;
      });
    }
    ir::SearchResult r;
    r.num_matches = hits.size();
    hits.resize(std::min<size_t>(hits.size(), opts.k));
    for (const auto& [score, docid] : hits) {
      r.docids.push_back(docid);
      if (ranked) r.scores.push_back(score);
    }
    return r;
  }

 private:
  std::vector<Doc> docs_;
  std::vector<int32_t> lens_;
  std::vector<uint32_t> df_;
  double avg_doc_len_ = 0.0;
};

// The generator oracle: Corpus::Generate (generator version 1) written as
// one sequential pass. Each document's draws are made, sorted and
// run-length counted before the next document's first draw; a Zipf draw is
// a binary search over the CDF (std::upper_bound); each document grows by
// push_back. It shares no code with the generator, so Corpus::Generate
// must match it document by document, in topics and qrels, and in
// Fingerprint(), which `fingerprint` recomputes the way corpus.cc hashes.
// Options must be valid (Corpus::Generate's checks are not repeated).
struct ReferenceCorpus {
  std::vector<std::vector<ir::DocTerm>> docs;
  std::vector<std::vector<uint32_t>> topic_terms;
  std::vector<std::vector<int32_t>> relevant_docs;
  uint64_t fingerprint = 0;

  static ReferenceCorpus Generate(const ir::CorpusOptions& opts) {
    ReferenceCorpus out;
    Rng rng(opts.seed);
    std::vector<double> cdf(opts.vocab_size);
    double total = 0.0;
    for (uint32_t i = 0; i < opts.vocab_size; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), opts.zipf_s);
      cdf[i] = total;
    }
    for (double& c : cdf) c /= total;

    out.topic_terms.resize(opts.num_topics);
    out.relevant_docs.resize(opts.num_topics);
    std::vector<int32_t> doc_topic(opts.num_docs, -1);
    for (uint32_t t = 0; t < opts.num_topics; ++t) {
      std::vector<uint32_t>& terms = out.topic_terms[t];
      while (terms.size() < opts.terms_per_topic) {
        const uint32_t v =
            opts.topic_rank_min +
            static_cast<uint32_t>(rng.NextBounded(opts.topic_rank_max -
                                                  opts.topic_rank_min));
        if (std::find(terms.begin(), terms.end(), v) == terms.end()) {
          terms.push_back(v);
        }
      }
      std::sort(terms.begin(), terms.end());
      std::vector<int32_t>& rel = out.relevant_docs[t];
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

    out.docs.resize(opts.num_docs);
    std::vector<uint32_t> draws;
    for (uint32_t d = 0; d < opts.num_docs; ++d) {
      // Box-Muller, u1 shifted off zero.
      const double u1 =
          (static_cast<double>(rng.Next() >> 11) + 0.5) / 9007199254740992.0;
      const double u2 = rng.NextDouble();
      const double normal = std::sqrt(-2.0 * std::log(u1)) *
                            std::cos(2.0 * 3.14159265358979323846 * u2);
      const uint32_t len = std::max<uint32_t>(
          1, static_cast<uint32_t>(std::lround(
                 std::exp(opts.doclen_mu + opts.doclen_sigma * normal))));
      draws.clear();
      const int32_t topic = doc_topic[d];
      for (uint32_t i = 0; i < len; ++i) {
        if (topic >= 0 && rng.NextBernoulli(opts.topical_mass)) {
          const std::vector<uint32_t>& terms =
              out.topic_terms[static_cast<uint32_t>(topic)];
          draws.push_back(terms[rng.NextBounded(terms.size())]);
        } else {
          const double u = rng.NextDouble();
          const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
          draws.push_back(static_cast<uint32_t>(
              it == cdf.end() ? cdf.size() - 1 : it - cdf.begin()));
        }
      }
      std::sort(draws.begin(), draws.end());
      for (size_t i = 0; i < draws.size();) {
        size_t j = i;
        while (j < draws.size() && draws[j] == draws[i]) ++j;
        out.docs[d].push_back({draws[i], static_cast<int32_t>(j - i)});
        i = j;
      }
    }
    out.fingerprint = FingerprintOf(out.docs, opts);
    return out;
  }

 private:
  static uint64_t FingerprintOf(
      const std::vector<std::vector<ir::DocTerm>>& docs,
      const ir::CorpusOptions& o) {
    uint64_t h = 0xCBF29CE484222325ull;
    const auto mix = [&h](uint64_t v) {
      h ^= v;
      h *= 0x100000001B3ull;
    };
    const auto mix_double = [&mix](double d) {
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      mix(bits);
    };
    mix(1);  // generator version
    mix(0);  // generated, not hand-built
    uint64_t postings = 0;
    for (const auto& doc : docs) postings += doc.size();
    mix(postings);
    for (const auto& doc : docs) {
      mix(doc.size());
      for (const ir::DocTerm& p : doc) {
        mix((static_cast<uint64_t>(p.term) << 32) |
            static_cast<uint32_t>(p.tf));
      }
    }
    mix(o.num_docs);
    mix(o.vocab_size);
    mix_double(o.zipf_s);
    mix_double(o.doclen_mu);
    mix_double(o.doclen_sigma);
    mix(o.num_topics);
    mix(o.terms_per_topic);
    mix(o.relevant_docs_per_topic);
    mix_double(o.topical_mass);
    mix(o.topic_rank_min);
    mix(o.topic_rank_max);
    mix(o.seed);
    return h;
  }
};

// The encoder oracle: the array-based block builder and scheme front ends
// that the streaming ones replaced. Each front end widens its column into
// an n-sized symbol array, the builder holds an n-sized codeword array and
// grows its exception records by push_back, and the codewords are written
// by 8-byte read-modify-writes. A window's width is chosen by brute force:
// every width's exceptions are listed and its bytes counted. The encoders
// in compress/ must produce the same block bytes and BlockStats for every
// input and option, and refuse the same inputs.
struct ReferenceCodec {
  using BlockStats = compress::BlockStats;
  using EncodeOptions = compress::EncodeOptions;
  using Scheme = compress::Scheme;

  struct BlockInput {
    Scheme scheme = Scheme::kPfor;
    int bit_width = 0;  // forced on every window; 0 = per window
    int max_bit_width = compress::kMaxBitWidth;
    bool naive_layout = false;
    int32_t base = 0;
    uint32_t n = 0;
    const int64_t* syms = nullptr;
    const int32_t* payloads = nullptr;
    const int32_t* window_value_bases = nullptr;  // nullptr = all zero
    const int32_t* dict = nullptr;  // PDICT: 1 << max_bit_width entries
    uint32_t dict_count = 0;
  };

  // The exception slots of the wn symbols at syms at width b: naive, every
  // symbol outside [0, 2^b - 2]; patched, every symbol outside
  // [0, 2^b - 1] plus a compulsory slot wherever two exceptions lie more
  // than 2^b apart. *naturals counts the former.
  static std::vector<uint32_t> WindowExceptions(const int64_t* syms,
                                                uint32_t wn, int b,
                                                bool naive_layout,
                                                uint64_t* naturals) {
    const int64_t mask = (1ll << b) - 1;
    const int64_t max_normal = naive_layout ? mask - 1 : mask;
    const uint32_t max_gap = 1u << b;
    std::vector<uint32_t> exc;
    *naturals = 0;
    for (uint32_t i = 0; i < wn; ++i) {
      if (syms[i] >= 0 && syms[i] <= max_normal) continue;
      ++*naturals;
      if (!naive_layout && !exc.empty()) {
        uint32_t prev = exc.back();
        while (i - prev > max_gap) {
          prev += max_gap;
          exc.push_back(prev);
        }
      }
      exc.push_back(i);
    }
    return exc;
  }

  static Status BuildBlock(const BlockInput& in, std::vector<uint8_t>* out,
                           BlockStats* stats) {
    using namespace compress::internal;
    constexpr uint32_t kStride = compress::kEntryPointStride;
    if (out == nullptr) return InvalidArgument("null output");
    if (in.max_bit_width < 1 || in.max_bit_width > compress::kMaxBitWidth ||
        in.bit_width < 0 || in.bit_width > in.max_bit_width) {
      return InvalidArgument("bit_width must be in [0, 30]");
    }
    if (in.n > 0 && (in.syms == nullptr || in.payloads == nullptr)) {
      return InvalidArgument("null input arrays");
    }
    const uint32_t entry_count = (in.n + kStride - 1) / kStride;
    std::vector<EntryPoint> entries(entry_count);
    std::vector<uint32_t> codes(in.n, 0);
    std::vector<ExceptionRecord> exc_records;
    uint64_t n_compulsory = 0;
    uint32_t n_dense = 0;
    uint32_t payload_off = 0;
    int header_b = in.dict != nullptr ? in.max_bit_width
                   : in.bit_width > 0 ? in.bit_width
                                      : 1;
    for (uint32_t w = 0; w < entry_count; ++w) {
      const uint32_t begin = w * kStride;
      const uint32_t wn = std::min(kStride, in.n - begin);
      EntryPoint& ep = entries[w];
      ep.exc_start = static_cast<uint32_t>(exc_records.size());
      ep.first_exc = kNoException;
      ep.bit_width = 0;
      ep.reserved = 0;
      ep.value_base =
          in.window_value_bases != nullptr ? in.window_value_bases[w] : 0;
      ep.payload_off = payload_off;
      // Every width's exact stored bytes; the cheapest wins, the wider on
      // a tie.
      int b = in.bit_width;
      if (b == 0) {
        uint64_t best_bytes = ~0ull;
        for (int c = 1; c <= in.max_bit_width; ++c) {
          uint64_t naturals = 0;
          const uint64_t bytes =
              WindowBytes(wn, c) +
              sizeof(ExceptionRecord) *
                  WindowExceptions(in.syms + begin, wn, c, in.naive_layout,
                                   &naturals)
                      .size();
          if (bytes <= best_bytes) {
            best_bytes = bytes;
            b = c;
          }
        }
      }
      uint64_t naturals = 0;
      const std::vector<uint32_t> window_exc = WindowExceptions(
          in.syms + begin, wn, b, in.naive_layout, &naturals);
      if (!in.naive_layout &&
          4u * wn < WindowBytes(wn, b) +
                         sizeof(ExceptionRecord) * window_exc.size()) {
        ep.first_exc = kDenseWindow;
        payload_off += 4 * wn;
        ++n_dense;
        continue;
      }
      ep.bit_width = static_cast<uint8_t>(b);
      header_b = std::max(header_b, b);
      for (uint32_t i = 0; i < wn; ++i) {
        codes[begin + i] = static_cast<uint32_t>(in.syms[begin + i]);
      }
      n_compulsory += window_exc.size() - naturals;
      for (size_t k = 0; k < window_exc.size(); ++k) {
        const uint32_t pos = window_exc[k];
        codes[begin + pos] = in.naive_layout ? (1u << b) - 1
                             : k + 1 < window_exc.size()
                                 ? window_exc[k + 1] - pos - 1
                                 : 0;
        exc_records.push_back({in.payloads[begin + pos], begin + pos});
      }
      if (!window_exc.empty()) {
        ep.first_exc = static_cast<uint8_t>(window_exc[0]);
      }
      payload_off += WindowBytes(wn, b);
    }

    const uint32_t dict_bytes =
        in.dict != nullptr ? (4u << in.max_bit_width) : 0;
    BlockHeader hdr;
    std::memset(&hdr, 0, sizeof(hdr));
    hdr.magic = kBlockMagic;
    hdr.scheme = static_cast<uint8_t>(in.scheme);
    hdr.bit_width = static_cast<uint8_t>(header_b);
    hdr.flags = in.naive_layout ? kFlagNaiveLayout : 0;
    hdr.n = in.n;
    hdr.base = in.base;
    hdr.n_exceptions = static_cast<uint32_t>(exc_records.size());
    hdr.dict_count = in.dict_count;
    hdr.entry_count = entry_count;
    const uint32_t entries_offset = sizeof(BlockHeader);
    const uint32_t entries_bytes =
        entry_count * static_cast<uint32_t>(sizeof(EntryPoint));
    hdr.dict_offset = in.dict != nullptr ? entries_offset + entries_bytes : 0;
    hdr.code_offset = entries_offset + entries_bytes + dict_bytes;
    hdr.exc_offset = (hdr.code_offset + payload_off + 7u) & ~7u;
    const size_t total = hdr.exc_offset +
                         sizeof(ExceptionRecord) * exc_records.size() +
                         kBlockPadBytes;
    out->assign(total, 0);
    uint8_t* base_ptr = out->data();
    std::memcpy(base_ptr, &hdr, sizeof(hdr));
    if (entry_count > 0) {
      std::memcpy(base_ptr + entries_offset, entries.data(),
                  entries.size() * sizeof(EntryPoint));
    }
    if (in.dict != nullptr) {
      std::memcpy(base_ptr + hdr.dict_offset, in.dict, dict_bytes);
    }
    uint8_t* payload_ptr = base_ptr + hdr.code_offset;
    for (uint32_t w = 0; w < entry_count; ++w) {
      const uint32_t begin = w * kStride;
      const uint32_t wn = std::min(kStride, in.n - begin);
      uint8_t* wptr = payload_ptr + entries[w].payload_off;
      if (entries[w].first_exc == kDenseWindow) {
        std::memcpy(wptr, in.payloads + begin, 4ull * wn);
        continue;
      }
      const int b = entries[w].bit_width;
      for (uint32_t i = 0; i < wn; ++i) {
        // 8-byte read-modify-write: sets only this codeword's bits.
        const uint64_t bit = uint64_t{i} * static_cast<uint64_t>(b);
        uint64_t word;
        std::memcpy(&word, wptr + (bit >> 3), sizeof(word));
        word |= (static_cast<uint64_t>(codes[begin + i]) &
                 ((uint64_t{1} << b) - 1))
                << (bit & 7);
        std::memcpy(wptr + (bit >> 3), &word, sizeof(word));
      }
    }
    if (!exc_records.empty()) {
      std::memcpy(base_ptr + hdr.exc_offset, exc_records.data(),
                  exc_records.size() * sizeof(ExceptionRecord));
    }
    if (stats != nullptr) {
      stats->n = in.n;
      stats->bit_width = header_b;
      stats->n_exceptions = static_cast<uint32_t>(exc_records.size());
      stats->n_compulsory_exceptions = static_cast<uint32_t>(n_compulsory);
      stats->n_dense_windows = n_dense;
      stats->compressed_bytes = total;
    }
    return OkStatus();
  }

  static Status PforEncode(const int32_t* values, uint32_t n,
                           const EncodeOptions& opts,
                           std::vector<uint8_t>* out, BlockStats* stats) {
    if (n > 0 && values == nullptr) return InvalidArgument("null values");
    int32_t base = 0;
    if (!opts.force_base && n > 0) {
      base = *std::min_element(values, values + n);
    }
    std::vector<int64_t> syms(n);
    for (uint32_t i = 0; i < n; ++i) {
      syms[i] = static_cast<int64_t>(values[i]) - base;
    }
    BlockInput in;
    in.scheme = Scheme::kPfor;
    in.bit_width = opts.bit_width;
    in.naive_layout = opts.naive_layout;
    in.base = base;
    in.n = n;
    in.syms = syms.data();
    in.payloads = values;
    return BuildBlock(in, out, stats);
  }

  static Status PforDeltaEncode(const int32_t* values, uint32_t n,
                                const EncodeOptions& opts,
                                std::vector<uint8_t>* out, BlockStats* stats) {
    if (n > 0 && values == nullptr) return InvalidArgument("null values");
    std::vector<int32_t> deltas(n);
    int32_t prev = 0;
    for (uint32_t i = 0; i < n; ++i) {
      const int64_t d = static_cast<int64_t>(values[i]) - prev;
      if (d < INT32_MIN || d > INT32_MAX) {
        return InvalidArgument("delta exceeds 32 bits (unsorted input?)");
      }
      deltas[i] = static_cast<int32_t>(d);
      prev = values[i];
    }
    int32_t base = 0;
    if (!opts.force_base && n > 0) {
      base = *std::min_element(deltas.begin(), deltas.end());
    }
    std::vector<int64_t> syms(n);
    for (uint32_t i = 0; i < n; ++i) {
      syms[i] = static_cast<int64_t>(deltas[i]) - base;
    }
    constexpr uint32_t kStride = compress::kEntryPointStride;
    const uint32_t entry_count = (n + kStride - 1) / kStride;
    std::vector<int32_t> window_bases(entry_count);
    for (uint32_t w = 0; w < entry_count; ++w) {
      window_bases[w] = w == 0 ? 0 : values[w * kStride - 1];
    }
    BlockInput in;
    in.scheme = Scheme::kPforDelta;
    in.bit_width = opts.bit_width;
    in.naive_layout = opts.naive_layout;
    in.base = base;
    in.n = n;
    in.syms = syms.data();
    in.payloads = deltas.data();
    in.window_value_bases = window_bases.data();
    return BuildBlock(in, out, stats);
  }

  static Status PdictEncode(const int32_t* values, uint32_t n,
                            const EncodeOptions& opts,
                            std::vector<uint8_t>* out, BlockStats* stats) {
    if (n > 0 && values == nullptr) return InvalidArgument("null values");
    if (opts.naive_layout) {
      return InvalidArgument("naive layout is not supported for PDICT");
    }
    if (opts.bit_width < 0 || opts.bit_width > compress::kMaxDictBitWidth) {
      return InvalidArgument("pdict bit_width must be in [0, 20]");
    }
    std::unordered_map<int32_t, uint32_t> freq;
    for (uint32_t i = 0; i < n; ++i) ++freq[values[i]];
    std::vector<std::pair<int32_t, uint32_t>> candidates(freq.begin(),
                                                         freq.end());
    std::sort(candidates.begin(), candidates.end(),
              [](const auto& a, const auto& b) {
                return a.second != b.second ? a.second > b.second
                                            : a.first < b.first;
              });
    int b = opts.bit_width;
    if (b == 0) {
      b = 1;
      while (b < compress::kMaxDictBitWidth &&
             (1ull << b) < candidates.size()) {
        ++b;
      }
    }
    const size_t dict_count =
        std::min(candidates.size(), static_cast<size_t>(1ull << b));
    std::vector<int32_t> dict_values(dict_count);
    for (size_t i = 0; i < dict_count; ++i) {
      dict_values[i] = candidates[i].first;
    }
    std::sort(dict_values.begin(), dict_values.end());
    std::unordered_map<int32_t, uint32_t> code_of;
    for (size_t i = 0; i < dict_values.size(); ++i) {
      code_of.emplace(dict_values[i], static_cast<uint32_t>(i));
    }
    std::vector<int32_t> padded_dict(static_cast<size_t>(1ull << b), 0);
    std::copy(dict_values.begin(), dict_values.end(), padded_dict.begin());
    std::vector<int64_t> syms(n);
    for (uint32_t i = 0; i < n; ++i) {
      const auto it = code_of.find(values[i]);
      syms[i] = it != code_of.end() ? static_cast<int64_t>(it->second) : -1;
    }
    BlockInput in;
    in.scheme = Scheme::kPdict;
    in.bit_width = opts.bit_width;
    in.max_bit_width = b;
    in.n = n;
    in.syms = syms.data();
    in.payloads = values;
    in.dict = padded_dict.data();
    in.dict_count = static_cast<uint32_t>(dict_count);
    return BuildBlock(in, out, stats);
  }
};

// The skip-cursor oracle: the resident-block cursor that preceded the one
// compress::SortedCursor template, kept as it was apart from its name and
// a SkipTo call counter nothing read. It binary-searches the entry points'
// value bases over the whole candidate span. Every SortedCursor source —
// resident, pool-compressed, pool-raw — must land where it lands after
// every step, with the same RunViews and window counters.
class ReferenceSkipCursor {
 public:
  ReferenceSkipCursor() = default;

  // The decoder (and its block) must outlive the cursor. Values at
  // positions [begin, end) must be nondecreasing — the caller's contract,
  // true for any single term's slice of TD.docid.
  Status Init(const compress::BlockDecoder* dec, uint64_t begin,
              uint64_t end) {
    if (dec == nullptr) return InvalidArgument("null decoder");
    if (dec->scheme() != compress::Scheme::kPforDelta) {
      return InvalidArgument(
          "skip cursor needs window value bases (PFOR-DELTA)");
    }
    if (begin > end || end > dec->n()) {
      return InvalidArgument("cursor range out of bounds");
    }
    dec_ = dec;
    begin_ = begin;
    end_ = end;
    pos_ = begin;
    win_ = kNoWindow;
    stats_ = compress::SkipStats();
    return OkStatus();
  }

  bool AtEnd() const { return pos_ >= end_; }
  uint64_t position() const { return pos_; }
  const compress::SkipStats& stats() const { return stats_; }

  // Current value; requires !AtEnd(). Decodes the containing window on
  // first access (lazily, so a cursor that is only ever skipped past a
  // window never pays for it).
  int32_t value() {
    EnsureWindow();
    return win_vals_[pos_ - win_base_];
  }

  // Advances one position; returns false at end.
  bool Next() { return ++pos_ < end_; }

  // --- Window-granular bulk access (Block-Max MaxScore, DESIGN.md §12) ---

  // Index of the window containing the cursor; requires !AtEnd().
  uint32_t CurrentWindowIndex() const {
    return static_cast<uint32_t>(pos_ / compress::kEntryPointStride);
  }

  // Jumps past the current window without decoding it — the Block-Max
  // reject, taken when the caller's per-window score upper bound cannot
  // beat θ. Counted as blockmax-skipped unless the window is already
  // decoded (then windows_decoded already owns it; each window lands in
  // exactly one counter). Returns false when the cursor exhausts.
  bool SkipCurrentWindowBlockMax() {
    const uint32_t w = CurrentWindowIndex();
    if (win_ != w) ++stats_.windows_blockmax_skipped;
    pos_ = std::min<uint64_t>(
        end_, static_cast<uint64_t>(w + 1) * compress::kEntryPointStride);
    return pos_ < end_;
  }

  // One decoded window's in-range slice: vals[lo..hi) are the values at
  // block-absolute positions [win_base + lo, win_base + hi), all >= the
  // cursor position and < end.
  struct RunView {
    const int32_t* vals = nullptr;  // the full decoded window
    uint32_t win_index = 0;
    uint64_t win_base = 0;  // block-absolute position of vals[0]
    uint32_t win_len = 0;   // decoded values (may extend past the range)
    uint32_t lo = 0;        // first in-range slot (== pos - win_base)
    uint32_t hi = 0;        // one past the last in-range slot
  };

  // Decodes (if needed) the window containing the cursor and returns its
  // in-range slice; requires !AtEnd(). The pointer stays valid until the
  // cursor decodes another window.
  RunView CurrentRunView() {
    EnsureWindow();
    RunView rv;
    rv.vals = win_vals_;
    rv.win_index = win_;
    rv.win_base = win_base_;
    rv.win_len = win_len_;
    rv.lo = static_cast<uint32_t>(pos_ - win_base_);
    rv.hi = static_cast<uint32_t>(
        std::min<uint64_t>(end_, win_base_ + win_len_) - win_base_);
    return rv;
  }

  // Forward-only positional advance (to the end of a consumed run); moves
  // to min(pos, end) and never backwards.
  void AdvanceTo(uint64_t pos) {
    pos_ = std::max(pos_, std::min(pos, end_));
  }

  // Advances to the first position >= the current one whose value is
  // >= target; returns false (cursor at end) when no such position exists.
  // Probes must be nondecreasing across calls.
  bool SkipTo(int32_t target) {
    while (!AtEnd()) {
      constexpr uint32_t kStride = compress::kEntryPointStride;
      const uint32_t w_from = static_cast<uint32_t>(pos_ / kStride);
      const uint32_t w_last = static_cast<uint32_t>((end_ - 1) / kStride);
      // Windows x < full_end have their last value in-range AND stored in
      // the next entry point: f(x) = WindowValueBase(x + 1) is the window
      // max without decoding. The block's final window has no successor
      // entry, so it is excluded even when the range covers it exactly.
      const uint32_t full_end =
          std::min(static_cast<uint32_t>(end_ / kStride),
                   dec_->entry_count() - 1);
      uint32_t lo = w_from;
      uint32_t hi = std::max(w_from, full_end);
      while (lo < hi) {
        const uint32_t mid = lo + (hi - lo) / 2;
        if (dec_->WindowValueBase(mid + 1) >= target) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      uint32_t cand = lo;
      if (cand >= full_end) {
        // Every full-info window tops out below target. If the range ends
        // with a window whose max is unknown (partial coverage or the
        // block's final window), that window is the last candidate;
        // otherwise the range holds no value >= target.
        if (full_end > w_last) {
          // The jump to end passes windows w_from..w_last without decoding
          // them; they must still land in the skip count or the partition
          // invariant (SkipStats comment) would leak exactly this branch.
          stats_.windows_skipped +=
              w_last - w_from + 1 - (win_ == w_from ? 1 : 0);
          pos_ = end_;
          return false;
        }
        cand = w_last;
      }
      if (cand > w_from) {
        stats_.windows_skipped +=
            cand - w_from - (win_ == w_from ? 1 : 0);
        pos_ = static_cast<uint64_t>(cand) * kStride;
      }
      EnsureWindow();
      // Lower bound within the window's in-range tail [pos_, cap).
      const uint64_t cap = std::min<uint64_t>(end_, win_base_ + win_len_);
      uint32_t s = static_cast<uint32_t>(pos_ - win_base_);
      uint32_t e = static_cast<uint32_t>(cap - win_base_);
      while (s < e) {
        const uint32_t m = s + (e - s) / 2;
        if (win_vals_[m] >= target) {
          e = m;
        } else {
          s = m + 1;
        }
      }
      if (win_base_ + s < cap) {
        pos_ = win_base_ + s;
        return true;
      }
      // Only reachable when cand was the unknown-max trailing window and
      // its in-range values all fall below target: exhaust it and let the
      // loop observe AtEnd.
      pos_ = cap;
    }
    return false;
  }

 private:
  static constexpr uint32_t kNoWindow = 0xFFFFFFFFu;

  void EnsureWindow() {
    const uint32_t w =
        static_cast<uint32_t>(pos_ / compress::kEntryPointStride);
    if (w == win_) return;
    win_ = w;
    win_base_ = static_cast<uint64_t>(w) * compress::kEntryPointStride;
    win_len_ = static_cast<uint32_t>(
        std::min<uint64_t>(compress::kEntryPointStride, dec_->n() - win_base_));
    dec_->Decode(static_cast<uint32_t>(win_base_), win_len_, win_vals_);
    ++stats_.windows_decoded;
  }

  const compress::BlockDecoder* dec_ = nullptr;
  uint64_t begin_ = 0;
  uint64_t end_ = 0;
  uint64_t pos_ = 0;

  uint32_t win_ = kNoWindow;  // index of the decoded window, or kNoWindow
  uint64_t win_base_ = 0;
  uint32_t win_len_ = 0;
  int32_t win_vals_[compress::kEntryPointStride];

  compress::SkipStats stats_;
};

}  // namespace x100ir

#endif  // X100IR_TESTS_REFERENCE_H_
