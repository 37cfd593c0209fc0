#ifndef LEVA_COMMON_STORAGE_H_
#define LEVA_COMMON_STORAGE_H_

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace leva {

/// Read-only view of a contiguous array, independent of who owns the bytes.
template <typename T>
using ArrayView = std::span<const T>;

/// A refcounted read-only byte region: either a real mmap of a file (the
/// zero-copy serving path — pages live in the kernel page cache and are
/// shared across every process mapping the same snapshot) or a plain heap
/// buffer (the portable fallback, and what fault-injection tests substitute).
/// Arrays borrowed from a region via OwnedOrMapped keep it alive through a
/// shared_ptr, so a hot-swapped model's mapping is only torn down when the
/// last in-flight reader drops its reference.
class MappedRegion {
 public:
  /// Heap-backed region (no page sharing, but identical semantics).
  static std::shared_ptr<const MappedRegion> FromString(std::string bytes);

  /// Adopts an existing mmap'ed range; munmap'ed on destruction. `base` may
  /// be null only when `length` is 0.
  static std::shared_ptr<const MappedRegion> FromMmap(void* base,
                                                     size_t length);

  ~MappedRegion();

  MappedRegion(const MappedRegion&) = delete;
  MappedRegion& operator=(const MappedRegion&) = delete;

  const char* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  MappedRegion() = default;

  std::string heap_;            // backing store when heap-based
  void* map_base_ = nullptr;    // backing store when mmap-based
  size_t map_len_ = 0;
  const char* data_ = nullptr;
  size_t size_ = 0;
};

/// Storage for a big read-only-in-serving array that is either owned heap
/// memory (a std::vector — the Fit/training paths, which mutate) or a
/// borrowed span into a refcounted MappedRegion (an mmap-loaded snapshot —
/// load is O(pages touched) and N processes share one physical copy).
///
/// The read API (data/size/operator[]/span) is backing-agnostic, so hot
/// loops keep working on raw pointers either way. The mutating API
/// transparently *detaches* first: the mapped bytes are copied into a fresh
/// owned vector once, after which the array behaves exactly like a vector.
/// Serving paths are const and never detach; only explicit mutation (e.g.
/// Embedding::Put on a loaded model) pays the copy.
template <typename T>
class OwnedOrMapped {
  static_assert(std::is_trivially_copyable_v<T>,
                "mapped storage reinterprets raw file bytes");

 public:
  OwnedOrMapped() = default;
  /*implicit*/ OwnedOrMapped(std::vector<T> v) : vec_(std::move(v)) {}

  /// Borrows `count` elements starting at `data` inside `region`. The caller
  /// guarantees `data` points into the region and is suitably aligned (the
  /// snapshot layer aligns bulk sections to the page size).
  static OwnedOrMapped Mapped(std::shared_ptr<const MappedRegion> region,
                              const T* data, size_t count) {
    OwnedOrMapped s;
    s.region_ = std::move(region);
    s.map_data_ = data;
    s.map_size_ = count;
    return s;
  }

  bool mapped() const { return region_ != nullptr; }

  // --- read API (valid for both backings) -----------------------------------
  const T* data() const { return mapped() ? map_data_ : vec_.data(); }
  size_t size() const { return mapped() ? map_size_ : vec_.size(); }
  bool empty() const { return size() == 0; }
  const T& operator[](size_t i) const { return data()[i]; }
  const T& back() const { return data()[size() - 1]; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size(); }
  ArrayView<T> span() const { return {data(), size()}; }
  /// Bytes held (heap capacity when owned, mapped length otherwise).
  size_t capacity() const { return mapped() ? map_size_ : vec_.capacity(); }

  // --- mutation API (detaches mapped storage into an owned copy) ------------

  /// The owned vector, copying out of the mapped region first if needed.
  std::vector<T>& owned() {
    if (mapped()) {
      vec_.assign(map_data_, map_data_ + map_size_);
      DropRegion();
    }
    return vec_;
  }

  void assign(size_t n, const T& value) {
    DropRegion();
    vec_.assign(n, value);
  }
  template <typename It>
  void assign(It first, It last) {
    DropRegion();
    vec_.assign(first, last);
  }
  void clear() {
    DropRegion();
    vec_.clear();
  }
  void reserve(size_t n) { owned().reserve(n); }
  void resize(size_t n) { owned().resize(n); }
  void push_back(const T& value) { owned().push_back(value); }
  T& operator[](size_t i) { return owned()[i]; }
  T* begin() { return owned().data(); }
  T* end() {
    std::vector<T>& v = owned();
    return v.data() + v.size();
  }

 private:
  void DropRegion() {
    region_.reset();
    map_data_ = nullptr;
    map_size_ = 0;
  }

  std::vector<T> vec_;
  std::shared_ptr<const MappedRegion> region_;
  const T* map_data_ = nullptr;
  size_t map_size_ = 0;
};

}  // namespace leva

#endif  // LEVA_COMMON_STORAGE_H_
