#ifndef LEVA_COMMON_IO_H_
#define LEVA_COMMON_IO_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/storage.h"

namespace leva {

/// CRC32C (Castagnoli) of `data`, chainable through `seed` (pass a previous
/// return value to extend the checksum over a new chunk); the same
/// polynomial RocksDB/LevelDB frame their blocks with. Runs the SSE4.2
/// crc32 instruction where the CPU has it, software slice-by-8 elsewhere;
/// both give the same value for every input.
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);
inline uint32_t Crc32c(std::string_view s, uint32_t seed = 0) {
  return Crc32c(s.data(), s.size(), seed);
}

namespace internal {
/// The portable slice-by-8 path of Crc32c, exposed as the oracle tests
/// compare the hardware path against.
uint32_t Crc32cSliceBy8(const void* data, size_t n, uint32_t seed);
}  // namespace internal

/// An open file being written sequentially. Obtained from Env; every method
/// follows the Status idiom. Close() is idempotent; the destructor closes
/// without syncing (an abandoned temp file needs no durability).
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  /// Appends `data` at the current end of the file.
  virtual Status Append(std::string_view data) = 0;
  /// fsync(): force written data to stable storage.
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

/// Minimal filesystem abstraction, in the RocksDB Env style: all snapshot
/// I/O goes through one of these so tests can substitute a
/// FaultInjectionEnv and prove crash safety mechanically. The default
/// implementation is POSIX.
class Env {
 public:
  virtual ~Env() = default;

  /// Creates (truncating) `path` for sequential writing.
  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) = 0;

  /// Opens `path` for appending, creating it if missing and preserving any
  /// existing contents. The write-ahead-log path: records accumulate across
  /// process lifetimes and only ever grow at the end.
  virtual Result<std::unique_ptr<WritableFile>> NewAppendableFile(
      const std::string& path) = 0;

  /// Reads the whole of `path` into a string.
  virtual Result<std::string> ReadFileToString(const std::string& path) = 0;

  /// Atomically replaces `to` with `from` (rename(2) semantics).
  virtual Status RenameFile(const std::string& from, const std::string& to) = 0;

  virtual Status DeleteFile(const std::string& path) = 0;

  virtual bool FileExists(const std::string& path) = 0;

  /// fsync() on a directory, making a prior rename within it durable.
  virtual Status SyncDir(const std::string& path) = 0;

  /// Maps the whole of `path` for read-only random access. The base
  /// implementation reads the file into a heap-backed MappedRegion — correct
  /// for any Env (fault-injection wrappers inherit it) but without page
  /// sharing; PosixEnv overrides it with a real mmap(2), so loading a
  /// snapshot touches only the pages actually read and N serving processes
  /// share one physical copy of the file's page-cache pages.
  virtual Result<std::shared_ptr<const MappedRegion>> NewMmapReadableFile(
      const std::string& path);

  /// The process-wide POSIX environment.
  static Env* Default();
};

/// Writes `contents` to `path` crash-atomically: the bytes go to
/// `path + ".tmp"`, are fsync'ed, the temp file is renamed over `path`, and
/// the parent directory is fsync'ed. A crash at any step leaves either the
/// old `path` (intact) or the new one — never a partial file under the
/// final name. The stale temp file a crash can leave behind is ignored by
/// readers and overwritten by the next save.
Status AtomicWriteFile(Env* env, const std::string& path,
                       std::string_view contents);

/// AtomicWriteFile for content assembled as multiple chunks (e.g. a snapshot
/// manifest followed by page-aligned bulk arrays): every chunk is appended to
/// the same temp file in order, then fsync + rename + dir-sync as above. The
/// chunks never need to be concatenated in memory, so a multi-GB section can
/// be streamed straight out of the store that owns it.
Status AtomicWriteChunks(Env* env, const std::string& path,
                         std::span<const std::string_view> chunks);

/// Current resident set size of this process in bytes (VmRSS from
/// /proc/self/status), or 0 when unavailable. Used by the serving bench and
/// leva_cli to report the physical-memory cost of a model load.
size_t CurrentRssBytes();

/// Append-only binary serialization buffer. Fixed-width little-endian
/// integers; floating-point values are stored as their exact bit patterns,
/// so a round trip is bit-identical. Writes cannot fail (the buffer grows);
/// durability and framing are the caller's concern.
class BufferWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutU32(uint32_t v) { PutFixed(&v, sizeof v); }
  void PutU64(uint64_t v) { PutFixed(&v, sizeof v); }
  void PutDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    PutU64(bits);
  }
  /// Length-prefixed (u64) byte string.
  void PutString(std::string_view s) {
    PutU64(s.size());
    buf_.append(s.data(), s.size());
  }
  /// Raw bytes, no length prefix (caller frames them).
  void PutBytes(const void* data, size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }
  /// Appends zero bytes until size() is a multiple of `alignment` (a power
  /// of two) — how the snapshot writer pads bulk sections to page boundaries
  /// so they can be mapped directly.
  void AlignTo(size_t alignment) {
    buf_.append((alignment - buf_.size() % alignment) % alignment, '\0');
  }

  /// Sizes the buffer for `n` bytes in all, so writers that know their
  /// output size allocate once.
  void Reserve(size_t n) { buf_.reserve(n); }

  const std::string& data() const { return buf_; }
  std::string Release() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  void PutFixed(const void* v, size_t n) {
    // Little-endian hosts (everything we target) append the bytes directly.
    buf_.append(static_cast<const char*>(v), n);
  }

  std::string buf_;
};

/// Cursor over a serialized buffer. Every Get validates the remaining length
/// first, so a truncated or corrupt buffer yields a descriptive
/// kInvalidArgument instead of reading past the end — length prefixes are
/// checked against the remaining bytes before any allocation, so a
/// corrupted length cannot trigger a huge allocation.
class BufferReader {
 public:
  explicit BufferReader(std::string_view data) : data_(data) {}

  Status GetU8(uint8_t* v) {
    LEVA_RETURN_IF_ERROR(Need(1, "u8"));
    *v = static_cast<uint8_t>(data_[pos_++]);
    return Status::OK();
  }
  Status GetBool(bool* v) {
    uint8_t b;
    LEVA_RETURN_IF_ERROR(GetU8(&b));
    if (b > 1) {
      return Status::InvalidArgument("corrupt bool value " + std::to_string(b));
    }
    *v = b != 0;
    return Status::OK();
  }
  Status GetU32(uint32_t* v) { return GetFixed(v, sizeof *v, "u32"); }
  Status GetU64(uint64_t* v) { return GetFixed(v, sizeof *v, "u64"); }
  Status GetDouble(double* v) {
    uint64_t bits = 0;
    LEVA_RETURN_IF_ERROR(GetU64(&bits));
    std::memcpy(v, &bits, sizeof *v);
    return Status::OK();
  }
  Status GetString(std::string* s) {
    uint64_t n = 0;
    LEVA_RETURN_IF_ERROR(GetU64(&n));
    LEVA_RETURN_IF_ERROR(Need(n, "string body"));
    s->assign(data_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }
  /// A view of the next `n` raw bytes (no copy); invalidated with `data`.
  Status GetBytes(size_t n, std::string_view* out) {
    LEVA_RETURN_IF_ERROR(Need(n, "raw bytes"));
    *out = data_.substr(pos_, n);
    pos_ += n;
    return Status::OK();
  }

  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }

 private:
  Status Need(uint64_t n, const char* what) {
    if (n > remaining()) {
      return Status::InvalidArgument(
          "truncated buffer: need " + std::to_string(n) + " byte(s) for " +
          what + " at offset " + std::to_string(pos_) + ", have " +
          std::to_string(remaining()));
    }
    return Status::OK();
  }
  Status GetFixed(void* v, size_t n, const char* what) {
    LEVA_RETURN_IF_ERROR(Need(n, what));
    std::memcpy(v, data_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace leva

#endif  // LEVA_COMMON_IO_H_
