// A growable array of trivially copyable elements whose storage is mapped
// straight from the operating system (anonymous private pages), never from
// the malloc arenas.
//
// It exists for scratch buffers that an engine keeps across calls — the
// signature-class DP workspace (class_explorer.cpp) retains a few MB of
// frontier rows per calling thread. Held in std::vector, that storage would
// sit in glibc's arenas: freeing and re-growing multi-MB vectors raises the
// dynamic mmap threshold, after which the arenas keep their high-water mark
// and the process RSS grows with them. Page-backed storage is accounted
// exactly (bytes() is what is mapped), is returned to the system when the
// buffer is destroyed, and leaves the allocator's heuristics alone.
//
// The interface is the subset of std::vector the engine uses, with the same
// semantics: resize() value-initializes new elements, clear() keeps the
// capacity, growth is geometric. Pages are mapped lazily: a default-built or
// cleared buffer that never grows maps nothing.
//
// AddressSanitizer builds (CSRLMRM_SANITIZE=address defines CSRLMRM_ASAN)
// mark the mapped elements past size() unaddressable, so an overread past a
// buffer's live end is reported as one past a heap block's end would be.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>

#if defined(CSRLMRM_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace csrlmrm::numeric {

namespace page_detail {

/// Maps `bytes` (a whole number of pages, see round_to_pages) of zeroed,
/// private anonymous memory. Throws std::bad_alloc when the mapping fails.
void* map_pages(std::size_t bytes);
/// Unmaps a region returned by map_pages (no-op for nullptr).
void unmap_pages(void* region, std::size_t bytes) noexcept;
/// `bytes` rounded up to a whole number of pages.
std::size_t round_to_pages(std::size_t bytes);

/// Marks `bytes` at `region` unaddressable (poison) or addressable again
/// (unpoison) for AddressSanitizer; no-ops in every other build.
inline void poison(const void* region, std::size_t bytes) {
#if defined(CSRLMRM_ASAN)
  ASAN_POISON_MEMORY_REGION(region, bytes);
#else
  (void)region;
  (void)bytes;
#endif
}

inline void unpoison(const void* region, std::size_t bytes) {
#if defined(CSRLMRM_ASAN)
  ASAN_UNPOISON_MEMORY_REGION(region, bytes);
#else
  (void)region;
  (void)bytes;
#endif
}

}  // namespace page_detail

template <class T>
class PageBuffer {
  static_assert(std::is_trivially_copyable_v<T>, "PageBuffer copies elements bytewise");

 public:
  PageBuffer() = default;
  ~PageBuffer() { release(); }

  PageBuffer(const PageBuffer&) = delete;
  PageBuffer& operator=(const PageBuffer&) = delete;

  T* data() { return data_; }
  const T* data() const { return data_; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Bytes mapped for this buffer (0 until it first grows).
  std::size_t bytes() const { return capacity_ * sizeof(T); }

  void clear() { set_size(0); }

  /// Ensures capacity for `n` elements, growing to at least twice the
  /// current capacity. Keeps the first size() elements.
  void reserve(std::size_t n) {
    if (n <= capacity_) return;
    if (n > std::numeric_limits<std::size_t>::max() / (2 * sizeof(T))) throw std::bad_alloc();
    const std::size_t bytes =
        page_detail::round_to_pages(std::max(n, 2 * capacity_) * sizeof(T));
    T* grown = static_cast<T*>(page_detail::map_pages(bytes));
    const std::size_t capacity = bytes / sizeof(T);
    if (size_ > 0) std::memcpy(grown, data_, size_ * sizeof(T));
    page_detail::poison(grown + size_, (capacity - size_) * sizeof(T));
    release();
    data_ = grown;
    capacity_ = capacity;
  }

  /// As std::vector::resize: elements past the old size are
  /// value-initialized.
  void resize(std::size_t n) {
    reserve(n);
    const std::size_t old = size_;
    set_size(n);
    if (n > old) std::fill(data_ + old, data_ + n, T{});
  }

  /// As std::vector::assign(n, value).
  void assign(std::size_t n, const T& value) {
    reserve(n);
    set_size(n);
    std::fill(data_, data_ + n, value);
  }

  void push_back(const T& value) {
    if (size_ == capacity_) reserve(size_ + 1);
    set_size(size_ + 1);
    data_[size_ - 1] = value;
  }

  /// Appends `count` elements copied from `first` (which must not point into
  /// this buffer).
  void append(const T* first, std::size_t count) {
    reserve(size_ + count);
    const std::size_t old = size_;
    set_size(size_ + count);
    if (count > 0) std::memcpy(data_ + old, first, count * sizeof(T));
  }

  void swap(PageBuffer& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(capacity_, other.capacity_);
  }

 private:
  /// Moves the live end to `n` (<= capacity), keeping the sanitizer's view
  /// of which elements are addressable in step.
  void set_size(std::size_t n) {
    if (n > size_) {
      page_detail::unpoison(data_ + size_, (n - size_) * sizeof(T));
    } else {
      page_detail::poison(data_ + n, (size_ - n) * sizeof(T));
    }
    size_ = n;
  }

  /// Unmaps the storage (making it addressable first, so a later mapping at
  /// the same address starts clean).
  void release() noexcept {
    page_detail::unpoison(data_, capacity_ * sizeof(T));
    page_detail::unmap_pages(data_, capacity_ * sizeof(T));
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace csrlmrm::numeric
