#include "common/io.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace leva {
namespace {

// --- CRC32C (Castagnoli, poly 0x82F63B78) -----------------------------------
//
// Slice-by-8 is the portable path and the test oracle. x86-64 CPUs with
// SSE4.2 run the crc32 instruction instead, which updates the same
// bit-reflected register as slice-by-8's inner loop (the ~seed / ~crc
// inversions stay outside), so both give the same value for every input.

constexpr uint32_t kCrc32cPoly = 0x82F63B78u;

struct Crc32cTables {
  uint32_t t[8][256];
  Crc32cTables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1) ? kCrc32cPoly : 0);
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int s = 1; s < 8; ++s) {
        t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFF];
      }
    }
  }
};

const Crc32cTables& Tables() {
  static const Crc32cTables tables;
  return tables;
}

#if defined(__x86_64__)

// a * b mod P over GF(2), both operands bit-reflected (bit 31 is x^0). Bit
// serial, as zlib's multmodp: at most 32 shift/xor steps.
constexpr uint32_t MultModP(uint32_t a, uint32_t b) {
  uint32_t m = 1u << 31, p = 0;
  for (;;) {
    if (a & m) {
      p ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    m >>= 1;
    b = (b & 1) ? (b >> 1) ^ kCrc32cPoly : b >> 1;
  }
  return p;
}

// x^(8 * bytes) mod P, reflected: the factor that advances a CRC register
// past `bytes` zero bytes.
constexpr uint32_t XPow8nModP(size_t bytes) {
  uint32_t p = 1u << 31;  // x^0
  for (size_t i = 0; i < 8 * bytes; ++i) {
    p = (p & 1) ? (p >> 1) ^ kCrc32cPoly : p >> 1;
  }
  return p;
}

// Bytes per stream of the three-stream loop. crc32q has a 3-cycle latency
// and a 1-cycle throughput, so three independent streams keep the unit busy;
// each 3 * kCrcBlock chunk costs two MultModP joins, which 4 KiB blocks
// amortise to noise.
constexpr size_t kCrcBlock = 4096;
constexpr uint32_t kCrcBlockShift = XPow8nModP(kCrcBlock);

__attribute__((target("sse4.2"))) uint64_t Crc32cU64(uint64_t crc,
                                                     const unsigned char* p) {
  uint64_t v;
  memcpy(&v, p, 8);
  return _mm_crc32_u64(crc, v);
}

__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(uint32_t crc,
                                                       const unsigned char* p,
                                                       size_t n) {
  uint64_t c0 = crc;
  while (n >= 3 * kCrcBlock) {
    // Stream 0 continues the running CRC over the first block; streams 1
    // and 2 start from zero on the next two, and linearity joins them:
    // crc(A || B) = crc(A) * x^(8|B|) + crc_0(B).
    uint64_t c1 = 0, c2 = 0;
    for (size_t i = 0; i < kCrcBlock; i += 8) {
      c0 = Crc32cU64(c0, p + i);
      c1 = Crc32cU64(c1, p + kCrcBlock + i);
      c2 = Crc32cU64(c2, p + 2 * kCrcBlock + i);
    }
    c0 = MultModP(kCrcBlockShift, static_cast<uint32_t>(c0)) ^ c1;
    c0 = MultModP(kCrcBlockShift, static_cast<uint32_t>(c0)) ^ c2;
    p += 3 * kCrcBlock;
    n -= 3 * kCrcBlock;
  }
  for (; n >= 8; p += 8, n -= 8) c0 = Crc32cU64(c0, p);
  uint32_t c = static_cast<uint32_t>(c0);
  while (n-- > 0) c = _mm_crc32_u8(c, *p++);
  return c;
}

#endif  // __x86_64__

std::string ErrnoMessage(const char* op, const std::string& path) {
  return std::string(op) + " '" + path + "': " + strerror(errno);
}

// --- POSIX Env ---------------------------------------------------------------

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(std::string_view data) override {
    const char* p = data.data();
    size_t n = data.size();
    while (n > 0) {
      const ssize_t w = ::write(fd_, p, n);
      if (w < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(ErrnoMessage("write to", path_));
      }
      p += w;
      n -= static_cast<size_t>(w);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) {
      return Status::IOError(ErrnoMessage("fsync", path_));
    }
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) {
      return Status::IOError(ErrnoMessage("close", path_));
    }
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

class PosixEnv : public Env {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
      return Status::IOError(ErrnoMessage("cannot open for writing", path));
    }
    return std::unique_ptr<WritableFile>(new PosixWritableFile(fd, path));
  }

  Result<std::unique_ptr<WritableFile>> NewAppendableFile(
      const std::string& path) override {
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0) {
      return Status::IOError(ErrnoMessage("cannot open for appending", path));
    }
    return std::unique_ptr<WritableFile>(new PosixWritableFile(fd, path));
  }

  Result<std::string> ReadFileToString(const std::string& path) override {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      return Status::IOError(ErrnoMessage("cannot open", path));
    }
    std::string out;
    struct stat st;
    if (::fstat(fd, &st) == 0 && st.st_size > 0) {
      out.reserve(static_cast<size_t>(st.st_size));
    }
    char buf[1 << 16];
    for (;;) {
      const ssize_t r = ::read(fd, buf, sizeof buf);
      if (r < 0) {
        if (errno == EINTR) continue;
        const Status s = Status::IOError(ErrnoMessage("read", path));
        ::close(fd);
        return s;
      }
      if (r == 0) break;
      out.append(buf, static_cast<size_t>(r));
    }
    ::close(fd);
    return out;
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return Status::IOError("rename '" + from + "' -> '" + to +
                             "': " + strerror(errno));
    }
    return Status::OK();
  }

  Status DeleteFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) {
      return Status::IOError(ErrnoMessage("unlink", path));
    }
    return Status::OK();
  }

  bool FileExists(const std::string& path) override {
    return ::access(path.c_str(), F_OK) == 0;
  }

  Status SyncDir(const std::string& path) override {
    const int fd = ::open(path.empty() ? "." : path.c_str(), O_RDONLY);
    if (fd < 0) {
      return Status::IOError(ErrnoMessage("cannot open directory", path));
    }
    // Some filesystems refuse fsync on directories (EINVAL); the rename is
    // then as durable as that filesystem can make it.
    if (::fsync(fd) != 0 && errno != EINVAL) {
      const Status s = Status::IOError(ErrnoMessage("fsync directory", path));
      ::close(fd);
      return s;
    }
    ::close(fd);
    return Status::OK();
  }

  Result<std::shared_ptr<const MappedRegion>> NewMmapReadableFile(
      const std::string& path) override {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      return Status::IOError(ErrnoMessage("cannot open for mapping", path));
    }
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      const Status s = Status::IOError(ErrnoMessage("fstat", path));
      ::close(fd);
      return s;
    }
    const size_t len = static_cast<size_t>(st.st_size);
    if (len == 0) {
      ::close(fd);
      return MappedRegion::FromString(std::string());
    }
    void* base = ::mmap(nullptr, len, PROT_READ, MAP_SHARED, fd, 0);
    ::close(fd);  // the mapping keeps its own reference to the file
    if (base == MAP_FAILED) {
      return Status::IOError(ErrnoMessage("mmap", path));
    }
    return MappedRegion::FromMmap(base, len);
  }
};

std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

namespace internal {

uint32_t Crc32cSliceBy8(const void* data, size_t n, uint32_t seed) {
  const auto& t = Tables();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  while (n >= 8) {
    uint64_t v;
    memcpy(&v, p, 8);
    v ^= crc;  // low 4 bytes fold in the running crc (little-endian)
    crc = t.t[7][v & 0xFF] ^ t.t[6][(v >> 8) & 0xFF] ^ t.t[5][(v >> 16) & 0xFF] ^
          t.t[4][(v >> 24) & 0xFF] ^ t.t[3][(v >> 32) & 0xFF] ^
          t.t[2][(v >> 40) & 0xFF] ^ t.t[1][(v >> 48) & 0xFF] ^
          t.t[0][(v >> 56) & 0xFF];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) crc = (crc >> 8) ^ t.t[0][(crc ^ *p++) & 0xFF];
  return ~crc;
}

}  // namespace internal

uint32_t Crc32c(const void* data, size_t n, uint32_t seed) {
#if defined(__x86_64__)
  // Chosen once per process. Not LEVA_TARGET_CLONES: its IFUNC resolver
  // crashes under TSan (see common/simd.h).
  static const bool sse42 = __builtin_cpu_supports("sse4.2");
  if (sse42) {
    return ~Crc32cSse42(~seed, static_cast<const unsigned char*>(data), n);
  }
#endif
  return internal::Crc32cSliceBy8(data, n, seed);
}

Env* Env::Default() {
  static PosixEnv env;
  return &env;
}

Result<std::shared_ptr<const MappedRegion>> Env::NewMmapReadableFile(
    const std::string& path) {
  // Portable fallback: the whole file in a heap-backed region. Subclasses
  // that wrap a base Env inherit this, so fault-injection reads stay
  // observable; PosixEnv overrides it with a real mmap.
  LEVA_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  return MappedRegion::FromString(std::move(bytes));
}

// --- MappedRegion ------------------------------------------------------------

std::shared_ptr<const MappedRegion> MappedRegion::FromString(
    std::string bytes) {
  auto region = std::shared_ptr<MappedRegion>(new MappedRegion());
  region->heap_ = std::move(bytes);
  region->data_ = region->heap_.data();
  region->size_ = region->heap_.size();
  return region;
}

std::shared_ptr<const MappedRegion> MappedRegion::FromMmap(void* base,
                                                           size_t length) {
  auto region = std::shared_ptr<MappedRegion>(new MappedRegion());
  region->map_base_ = base;
  region->map_len_ = length;
  region->data_ = static_cast<const char*>(base);
  region->size_ = length;
  return region;
}

MappedRegion::~MappedRegion() {
  if (map_base_ != nullptr) ::munmap(map_base_, map_len_);
}

size_t CurrentRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return static_cast<size_t>(std::atoll(line.c_str() + 6)) * 1024;
    }
  }
  return 0;
}

Status AtomicWriteChunks(Env* env, const std::string& path,
                         std::span<const std::string_view> chunks) {
  const std::string tmp = path + ".tmp";
  LEVA_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                        env->NewWritableFile(tmp));
  Status s = Status::OK();
  for (const std::string_view chunk : chunks) {
    s = file->Append(chunk);
    if (!s.ok()) break;
  }
  if (s.ok()) s = file->Sync();
  if (s.ok()) s = file->Close();
  if (!s.ok()) {
    // Leave no half-written temp file behind; the target is untouched.
    (void)env->DeleteFile(tmp);
    return s;
  }
  LEVA_RETURN_IF_ERROR(env->RenameFile(tmp, path));
  return env->SyncDir(ParentDir(path));
}

Status AtomicWriteFile(Env* env, const std::string& path,
                       std::string_view contents) {
  const std::string_view chunks[] = {contents};
  return AtomicWriteChunks(env, path, chunks);
}

}  // namespace leva
