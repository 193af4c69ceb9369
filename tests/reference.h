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
// The file also holds the generator oracle, ReferenceCorpus::Generate (see
// there).
#ifndef X100IR_TESTS_REFERENCE_H_
#define X100IR_TESTS_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/rng.h"
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
      docs[d].terms = corpus.doc(d);
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

}  // namespace x100ir

#endif  // X100IR_TESTS_REFERENCE_H_
