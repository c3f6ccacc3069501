#include "numeric/page_buffer.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <new>

namespace csrlmrm::numeric::page_detail {

namespace {

std::size_t page_size() {
  static const std::size_t size = static_cast<std::size_t>(::getpagesize());
  return size;
}

}  // namespace

void* map_pages(std::size_t bytes) {
  void* region =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (region == MAP_FAILED) throw std::bad_alloc();
  return region;
}

void unmap_pages(void* region, std::size_t bytes) noexcept {
  if (region != nullptr) ::munmap(region, bytes);
}

std::size_t round_to_pages(std::size_t bytes) {
  const std::size_t page = page_size();
  return (bytes + page - 1) / page * page;
}

}  // namespace csrlmrm::numeric::page_detail
