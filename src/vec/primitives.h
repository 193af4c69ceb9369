// X100-style vectorized primitives (§2 of the paper): tight loops over
// cache-resident vectors, one primitive call per vector instead of one
// interpretation step per tuple.
//
// Naming follows the paper's map_<op>_<type>_col_<type>_{col,val} family,
// rendered as templates: MapColCol<AddOp, float, float, float> is
// map_add_f32_col_f32_col. Every primitive has two specialized paths:
//
//   - dense (sel == nullptr): a branch-free 0..n loop the compiler can
//     auto-vectorize;
//   - selection vector: iterate sel[0..sel_count) and write results
//     *through* the selection vector (res[sel[j]]), never compacting
//     (DESIGN.md §4.1).
//
// Select primitives emit the qualifying positions branch-free: the store
// `res[k] = i` is unconditional and only the increment of k is data-
// dependent, so there is no mispredictable branch on the comparison
// outcome (the same trick the codec's LOOP2 uses). Top-k's candidate
// filter and MaxScore's threshold select are the plan callers; their
// output stays private to the operator that asked.
//
// Primitives are deliberately NOT inlined into callers: the per-call
// overhead amortized over the vector is exactly the §2 curve
// bench_primitives plots (BM_MapAddF32 over vector sizes 8..64K).
// Inlining them into the bench loop would optimize away the thing being
// measured.
#ifndef X100IR_VEC_PRIMITIVES_H_
#define X100IR_VEC_PRIMITIVES_H_

#include <cstdint>

#include "vec/vector.h"

#if defined(__GNUC__) || defined(__clang__)
#define X100IR_NOINLINE __attribute__((noinline))
#else
#define X100IR_NOINLINE
#endif

namespace x100ir::vec {

// ---------------------------------------------------------------------------
// Op functors. Apply is templated so one functor serves every value type.
// ---------------------------------------------------------------------------

struct AddOp {
  template <typename T>
  static T Apply(T a, T b) {
    return a + b;
  }
};

struct MulOp {
  template <typename T>
  static T Apply(T a, T b) {
    return a * b;
  }
};

struct GtCmp {
  template <typename T>
  static bool Apply(T a, T b) {
    return a > b;
  }
};

struct LtCmp {
  template <typename T>
  static bool Apply(T a, T b) {
    return a < b;
  }
};

struct GeCmp {
  template <typename T>
  static bool Apply(T a, T b) {
    return a >= b;
  }
};

// ---------------------------------------------------------------------------
// Map family: res[i] = Op(a[i], b) for active positions i.
// ---------------------------------------------------------------------------

template <typename Op, typename TRes, typename TA, typename TB>
X100IR_NOINLINE void MapColCol(uint32_t n, const sel_t* sel,
                               uint32_t sel_count, TRes* res, const TA* a,
                               const TB* b) {
  if (sel == nullptr) {
    for (uint32_t i = 0; i < n; ++i) {
      res[i] = static_cast<TRes>(Op::Apply(a[i], b[i]));
    }
  } else {
    for (uint32_t j = 0; j < sel_count; ++j) {
      const sel_t i = sel[j];
      res[i] = static_cast<TRes>(Op::Apply(a[i], b[i]));
    }
  }
}

template <typename Op, typename TRes, typename TA, typename TB>
X100IR_NOINLINE void MapColVal(uint32_t n, const sel_t* sel,
                               uint32_t sel_count, TRes* res, const TA* a,
                               TB val) {
  if (sel == nullptr) {
    for (uint32_t i = 0; i < n; ++i) {
      res[i] = static_cast<TRes>(Op::Apply(a[i], val));
    }
  } else {
    for (uint32_t j = 0; j < sel_count; ++j) {
      const sel_t i = sel[j];
      res[i] = static_cast<TRes>(Op::Apply(a[i], val));
    }
  }
}

// ---------------------------------------------------------------------------
// Select family: emit qualifying active positions into res, branch-free.
// Returns the number of positions written. Emitted indices are absolute
// row indices, ascending — directly usable as the next selection vector.
// res must have room for every active position.
// ---------------------------------------------------------------------------

template <typename Cmp, typename T>
X100IR_NOINLINE uint32_t SelectColVal(uint32_t n, const sel_t* sel,
                                      uint32_t sel_count, sel_t* res,
                                      const T* a, T val) {
  uint32_t k = 0;
  if (sel == nullptr) {
    for (uint32_t i = 0; i < n; ++i) {
      res[k] = i;
      k += static_cast<uint32_t>(Cmp::Apply(a[i], val));
    }
  } else {
    for (uint32_t j = 0; j < sel_count; ++j) {
      const sel_t i = sel[j];
      res[k] = i;
      k += static_cast<uint32_t>(Cmp::Apply(a[i], val));
    }
  }
  return k;
}

// Dispatched dense float >= select (simd_select.cc): output-identical to
// SelectColVal<GeCmp, float>(n, nullptr, 0, res, a, val), but resolved to
// an AVX2 compare/movemask kernel when the host (and the SIMD toggle)
// allow it. The ranked hot path's threshold filter calls this.
uint32_t SelectGeFloatVal(uint32_t n, sel_t* res, const float* a, float val);

}  // namespace x100ir::vec

#endif  // X100IR_VEC_PRIMITIVES_H_
