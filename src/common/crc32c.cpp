#include "common/crc32c.hpp"

#include <array>

namespace hs {

namespace detail {

using Crc32cFn = std::uint32_t (*)(const void* data, std::size_t size,
                                   std::uint32_t crc);

// Defined in crc32c_sse42.cpp: the SSE4.2 loop, or nullptr when the build
// could not compile it (not x86-64, or no -msse4.2). Only safe to call on a
// CPU that reports SSE4.2.
extern const Crc32cFn crc32c_sse42;

}  // namespace detail

namespace {

// Reflected table for the Castagnoli polynomial (0x1EDC6F41, reflected
// 0x82F63B78), built once at first use.
std::array<std::uint32_t, 256> build_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) != 0 ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

detail::Crc32cFn select() {
#if defined(__x86_64__)
  // The first probe may run before libgcc's own CPU-model constructor when
  // a static initializer checksums something; initializing is idempotent.
  __builtin_cpu_init();
  if (detail::crc32c_sse42 != nullptr && __builtin_cpu_supports("sse4.2")) {
    return detail::crc32c_sse42;
  }
#endif
  return detail::crc32c_table;
}

detail::Crc32cFn active() {
  static const detail::Crc32cFn fn = select();
  return fn;
}

}  // namespace

namespace detail {

std::uint32_t crc32c_table(const void* data, std::size_t size,
                           std::uint32_t crc) {
  static const std::array<std::uint32_t, 256> table = build_table();
  const auto* bytes = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

bool crc32c_hardware() { return active() != crc32c_table; }

}  // namespace detail

std::uint32_t crc32c(const void* data, std::size_t size, std::uint32_t crc) {
  return active()(data, size, crc);
}

}  // namespace hs
