// Core value types of the X100-style vectorized execution layer (§2 of the
// paper): fixed-capacity typed vectors, the batches operators exchange, and
// column schemas.
//
// Batches are dense (DESIGN.md §4.1): every one of a Batch's `count` rows
// is live. A selection vector (`sel_t` positions, absolute and ascending)
// is a primitive parameter and an operator's private output — top-k's
// candidate filter and MaxScore's threshold select emit one into their own
// buffer and consume it before the next batch — never part of a Batch.
#ifndef X100IR_VEC_VECTOR_H_
#define X100IR_VEC_VECTOR_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace x100ir::vec {

// Selection-vector element: an absolute row index within a vector.
using sel_t = uint32_t;

// Column value types. All 4 bytes wide, which lets type-agnostic code
// (VectorSource reads into RawData) move values as raw 32-bit words.
enum class TypeId : uint8_t {
  kI32 = 0,
  kF32 = 1,
};

inline constexpr size_t kTypeWidth = 4;  // bytes, for every TypeId

// A fixed-capacity, untyped-storage vector. Ownership of the buffer stays
// with the Vector; Batches reference Vectors by pointer and never own them.
class Vector {
 public:
  Vector() = default;
  Vector(TypeId type, uint32_t capacity) { Reset(type, capacity); }

  void Reset(TypeId type, uint32_t capacity) {
    type_ = type;
    buf_.resize(static_cast<size_t>(capacity) * kTypeWidth);
  }

  TypeId type() const { return type_; }

  template <typename T>
  T* Data() {
    static_assert(sizeof(T) == kTypeWidth, "vector element must be 4 bytes");
    return reinterpret_cast<T*>(buf_.data());
  }
  template <typename T>
  const T* Data() const {
    static_assert(sizeof(T) == kTypeWidth, "vector element must be 4 bytes");
    return reinterpret_cast<const T*>(buf_.data());
  }

  void* RawData() { return buf_.data(); }
  const void* RawData() const { return buf_.data(); }

 private:
  TypeId type_ = TypeId::kI32;
  std::vector<uint8_t> buf_;
};

// A horizontal slice of columns flowing between operators: `count` dense
// rows. Non-owning: the column Vectors belong to the producing operator and
// stay valid until its next Next()/Close().
struct Batch {
  uint32_t count = 0;
  std::vector<Vector*> columns;
};

// Ordered, named, typed column list.
class Schema {
 public:
  void Add(std::string name, TypeId type) {
    names_.push_back(std::move(name));
    types_.push_back(type);
  }

  uint32_t NumColumns() const { return static_cast<uint32_t>(names_.size()); }
  const std::string& name(uint32_t i) const { return names_[i]; }
  TypeId type(uint32_t i) const { return types_[i]; }

 private:
  std::vector<std::string> names_;
  std::vector<TypeId> types_;
};

}  // namespace x100ir::vec

#endif  // X100IR_VEC_VECTOR_H_
