// Core value types of the X100-style vectorized execution layer (§2 of the
// paper): fixed-capacity vectors and the batches operators exchange.
//
// Batches are dense (DESIGN.md §4.1): every one of a Batch's `count` rows
// is live. A selection vector (`sel_t` positions, absolute and ascending)
// is a primitive parameter and an operator's private output — top-k's
// candidate filter and MaxScore's threshold select emit one into their own
// buffer and consume it before the next batch — never part of a Batch.
#ifndef X100IR_VEC_VECTOR_H_
#define X100IR_VEC_VECTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace x100ir::vec {

// Selection-vector element: an absolute row index within a vector.
using sel_t = uint32_t;

// Every column value is 4 bytes wide: i32 docids, tfs and doclens, f32
// scores.
inline constexpr size_t kValueWidth = 4;

// A fixed-capacity, untyped-storage vector. Ownership of the buffer stays
// with the Vector; Batches reference Vectors by pointer and never own them.
// Which type a column holds is fixed by the plan's operator templates.
class Vector {
 public:
  void Reset(uint32_t capacity) {
    buf_.resize(static_cast<size_t>(capacity) * kValueWidth);
  }

  template <typename T>
  T* Data() {
    static_assert(sizeof(T) == kValueWidth, "vector element must be 4 bytes");
    return reinterpret_cast<T*>(buf_.data());
  }
  template <typename T>
  const T* Data() const {
    static_assert(sizeof(T) == kValueWidth, "vector element must be 4 bytes");
    return reinterpret_cast<const T*>(buf_.data());
  }

 private:
  std::vector<uint8_t> buf_;
};

// A horizontal slice of columns flowing between operators: `count` dense
// rows. Non-owning: the column Vectors belong to the producing operator and
// stay valid until its next Next()/Close().
struct Batch {
  uint32_t count = 0;
  std::vector<Vector*> columns;
};

}  // namespace x100ir::vec

#endif  // X100IR_VEC_VECTOR_H_
