// SSE4.2 CRC32C: the `crc32` instruction implements exactly the reflected
// Castagnoli update of the table loop in crc32c.cpp, eight bytes per step,
// so both paths return the same checksum for every input and seed.
//
// This translation unit alone is compiled with -msse4.2 (see
// CMakeLists.txt); hs::crc32c calls into it only after the CPU reports
// SSE4.2, so the rest of the library keeps its baseline ISA.
#include <cstddef>
#include <cstdint>

#if defined(__SSE4_2__) && defined(__x86_64__)
#include <nmmintrin.h>

#include <cstring>
#endif

namespace hs::detail {

using Crc32cFn = std::uint32_t (*)(const void* data, std::size_t size,
                                   std::uint32_t crc);

#if defined(__SSE4_2__) && defined(__x86_64__)

namespace {

std::uint32_t crc32c_sse42_loop(const void* data, std::size_t size,
                                std::uint32_t crc) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t state = ~crc;
  for (; size >= 8; size -= 8, bytes += 8) {
    std::uint64_t word;
    std::memcpy(&word, bytes, 8);  // unaligned load; callers pass any offset
    state = _mm_crc32_u64(state, word);
  }
  auto tail = static_cast<std::uint32_t>(state);
  for (; size > 0; --size, ++bytes) tail = _mm_crc32_u8(tail, *bytes);
  return ~tail;
}

}  // namespace

extern const Crc32cFn crc32c_sse42 = crc32c_sse42_loop;

#else  // no SSE4.2 body: hs::crc32c keeps the table loop.

extern const Crc32cFn crc32c_sse42 = nullptr;

#endif

}  // namespace hs::detail
