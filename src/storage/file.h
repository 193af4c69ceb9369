// Thin positioned-read file wrapper — the only place storage/ touches the
// OS. Everything above it (buffer manager, column readers) deals in byte
// ranges, so the real-I/O seam stays one class wide and the simulated disk
// cost model (buffer_manager.h) can charge deterministic latencies
// independent of what the host filesystem actually does. FileWriter is the
// write side for index and segment files, and WriteFile its one-shot form.
#ifndef X100IR_STORAGE_FILE_H_
#define X100IR_STORAGE_FILE_H_

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/status.h"

namespace x100ir::storage {

// The one writer of index and segment files — column files, index.meta and
// segment.meta — for builds that stream a file out in pieces. Open creates
// (or truncates) the file; each Append goes straight to the file with
// write(2), holding no user-space buffer between calls, so after a kill
// point fires (crash_point.h) no byte appended later reaches the file.
// Open, Append and Close refuse with IOError once a kill point has fired:
// Open then creates nothing, and Close still releases the descriptor. The
// destructor closes an open file without reporting.
class FileWriter {
 public:
  FileWriter() = default;
  ~FileWriter();
  FileWriter(const FileWriter&) = delete;
  FileWriter& operator=(const FileWriter&) = delete;

  Status Open(const std::string& path);
  Status Append(const void* data, size_t bytes);
  Status Close();

 private:
  int fd_ = -1;
  std::string path_;
};

// Creates (or truncates) `path` and writes `head` then `body` (either may
// be empty): Open, two Appends and Close on a FileWriter.
Status WriteFile(const std::string& path, const void* head, size_t head_bytes,
                 const void* body, size_t body_bytes);

class File {
 public:
  File() = default;
  ~File() { Close(); }
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  File(File&& o) noexcept : f_(o.f_), size_(o.size_) { o.f_ = nullptr; }
  File& operator=(File&& o) noexcept;

  static Status OpenReadOnly(const std::string& path, File* out);

  bool is_open() const { return f_ != nullptr; }
  Status Size(uint64_t* out) const;

  // Reads exactly [offset, offset + len) into dst; a short read (EOF or
  // I/O error) is an error, never a partial fill. Thread-safe: positioned
  // pread, no shared file cursor — concurrent page fetches from different
  // buffer-pool shards may overlap freely on one File.
  Status ReadAt(uint64_t offset, uint64_t len, void* dst) const;

  void Close();

 private:
  std::FILE* f_ = nullptr;
  uint64_t size_ = 0;
};

}  // namespace x100ir::storage

#endif  // X100IR_STORAGE_FILE_H_
