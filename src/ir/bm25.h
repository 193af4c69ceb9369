// BM25 scoring kernels. MapBm25 is the fused score map the plans run: the
// formula idf(k1+1)·tf / (tf + k1(1-b) + k1·b·doclen/avgdl) in one pass
// over a vector, constants folded, no intermediate vectors (DESIGN.md
// §4.2). Bm25One is its scalar twin for call sites that score one posting
// at a time; the two produce the same float bits for the same inputs,
// which tests/vec_test.cc pins on every element.
#ifndef X100IR_IR_BM25_H_
#define X100IR_IR_BM25_H_

#include <cmath>
#include <cstdint>

namespace x100ir::ir {

// BM25 idf, the +1 variant (always positive, so a ubiquitous term can
// never flip a document's score negative). One definition shared by the
// index builder, the snapshot layer's live collection stats, and the test
// oracles: a segmented search scoring with live (num_docs, df) must be
// bit-identical to a monolithic index rebuilt over the same live corpus.
inline float Bm25Idf(uint32_t num_docs, uint32_t df) {
  const double n = static_cast<double>(num_docs);
  const double d = static_cast<double>(df);
  return static_cast<float>(std::log(1.0 + (n - d + 0.5) / (d + 0.5)));
}

// Scalar single-posting BM25 — the same formula, constant folding, and
// operation order as MapBm25 below, for call sites that score one posting
// at a time (MaxScore upper bounds and probe completion, the custom-engine
// baselines). One definition keeps every path bit-identical: the
// cross-path agreement tests and Table 1's "identical p@20" column depend
// on no copy drifting.
inline float Bm25One(float idf, float tf, float doclen, float k1, float b,
                     float inv_avgdl) {
  return idf * (k1 + 1.0f) * tf /
         (tf + k1 * (1.0f - b) + k1 * b * inv_avgdl * doclen);
}

// out[i] = idf * (k1 + 1) * tf[i] / (tf[i] + k1*(1 - b) + k1*b*doclen[i]/avgdl)
// for i in [0, n). Takes 1/avgdl so the caller hoists the division out of
// the per-term loop.
inline void MapBm25(uint32_t n, float* out, const int32_t* tf,
                    const int32_t* doclen, float idf, float k1, float b,
                    float inv_avgdl) {
  const float w = idf * (k1 + 1.0f);
  const float c0 = k1 * (1.0f - b);
  const float c1 = k1 * b * inv_avgdl;
  for (uint32_t i = 0; i < n; ++i) {
    const float tff = static_cast<float>(tf[i]);
    out[i] = w * tff / (tff + c0 + c1 * static_cast<float>(doclen[i]));
  }
}

}  // namespace x100ir::ir

namespace x100ir {
// Surface the scoring kernels at engine scope: call sites live in other
// subsystem namespaces (vec/ operators, benches) and the kernels take only
// raw pointers, so argument-dependent lookup never finds them in ir::.
using ir::Bm25Idf;
using ir::Bm25One;
using ir::MapBm25;
}  // namespace x100ir

#endif  // X100IR_IR_BM25_H_
