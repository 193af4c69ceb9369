#include "storage/file.h"

#include <unistd.h>

#include <cerrno>
#include <utility>

#include "storage/crash_point.h"

namespace x100ir::storage {

Status WriteFile(const std::string& path, const void* head, size_t head_bytes,
                 const void* body, size_t body_bytes) {
  if (CrashedNow()) return IOError("simulated crash");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return IOError("cannot create " + path);
  bool ok = head_bytes == 0 || std::fwrite(head, head_bytes, 1, f) == 1;
  ok = ok && (body_bytes == 0 || std::fwrite(body, body_bytes, 1, f) == 1);
  ok = std::fclose(f) == 0 && ok;
  if (!ok) return IOError("short write to " + path);
  return OkStatus();
}

File& File::operator=(File&& o) noexcept {
  if (this != &o) {
    Close();
    f_ = o.f_;
    size_ = o.size_;
    o.f_ = nullptr;
  }
  return *this;
}

Status File::OpenReadOnly(const std::string& path, File* out) {
  if (out == nullptr) return InvalidArgument("null file");
  out->Close();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return NotFound("cannot open " + path);
  if (std::fseek(f, 0, SEEK_END) != 0) {
    std::fclose(f);
    return IOError("cannot seek " + path);
  }
  const long end = std::ftell(f);
  if (end < 0) {
    std::fclose(f);
    return IOError("cannot size " + path);
  }
  out->f_ = f;
  out->size_ = static_cast<uint64_t>(end);
  return OkStatus();
}

Status File::Size(uint64_t* out) const {
  if (f_ == nullptr) return Internal("file not open");
  *out = size_;
  return OkStatus();
}

Status File::ReadAt(uint64_t offset, uint64_t len, void* dst) const {
  if (f_ == nullptr) return Internal("file not open");
  if (offset + len > size_ || offset + len < offset) {
    return InvalidArgument("read past end of file");
  }
  if (len == 0) return OkStatus();
  // pread, not fseek+fread: FILE* keeps one shared cursor, which would race
  // when concurrent queries fetch different pages of the same column.
  uint8_t* out = static_cast<uint8_t*>(dst);
  uint64_t done = 0;
  while (done < len) {
    const ssize_t n = pread(fileno(f_), out + done, len - done,
                            static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return IOError("pread failed");
    }
    if (n == 0) return IOError("short read");
    done += static_cast<uint64_t>(n);
  }
  return OkStatus();
}

void File::Close() {
  if (f_ != nullptr) {
    std::fclose(f_);
    f_ = nullptr;
  }
  size_ = 0;
}

}  // namespace x100ir::storage
