#include "storage/file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "storage/crash_point.h"

namespace x100ir::storage {

FileWriter::~FileWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status FileWriter::Open(const std::string& path) {
  if (fd_ >= 0) return Internal("writer already open on " + path_);
  if (CrashedNow()) return IOError("simulated crash");
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd_ < 0) return IOError("cannot create " + path);
  path_ = path;
  return OkStatus();
}

Status FileWriter::Append(const void* data, size_t bytes) {
  if (fd_ < 0) return Internal("writer not open");
  if (CrashedNow()) return IOError("simulated crash");
  const uint8_t* p = static_cast<const uint8_t*>(data);
  while (bytes > 0) {
    const ssize_t n = ::write(fd_, p, bytes);
    if (n < 0) {
      if (errno == EINTR) continue;
      return IOError("short write to " + path_);
    }
    p += n;
    bytes -= static_cast<size_t>(n);
  }
  return OkStatus();
}

Status FileWriter::Close() {
  if (fd_ < 0) return Internal("writer not open");
  const bool closed = ::close(fd_) == 0;
  fd_ = -1;
  if (CrashedNow()) return IOError("simulated crash");
  if (!closed) return IOError("cannot close " + path_);
  return OkStatus();
}

Status WriteFile(const std::string& path, const void* head, size_t head_bytes,
                 const void* body, size_t body_bytes) {
  FileWriter writer;
  X100IR_RETURN_IF_ERROR(writer.Open(path));
  X100IR_RETURN_IF_ERROR(writer.Append(head, head_bytes));
  X100IR_RETURN_IF_ERROR(writer.Append(body, body_bytes));
  return writer.Close();
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
