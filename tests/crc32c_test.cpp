// CRC32C: the published check vectors on both implementations, the
// dispatched path against the table-loop reference at every length, start
// offset and seed split that exercises the eight-byte main loop and its
// byte tail, and the run-time selection itself (a CPU with SSE4.2 must get
// the hardware loop, never a silent table fallback).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/crc32c.hpp"
#include "common/rng.hpp"

using hs::crc32c;
using hs::detail::crc32c_table;

namespace {

using Crc32cFn = std::uint32_t (*)(const void* data, std::size_t size,
                                   std::uint32_t crc);

bool cpu_has_sse42() {
#if defined(__x86_64__)
  return __builtin_cpu_supports("sse4.2");
#else
  return false;
#endif
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  hs::Rng rng(seed);
  std::vector<unsigned char> out(n);
  for (auto& b : out) b = static_cast<unsigned char>(rng.uniform_int(0, 255));
  return out;
}

/// Checks one implementation against the RFC 3720 §B.4 vectors and the
/// "123456789" check value.
void expect_rfc_vectors(Crc32cFn fn) {
  std::vector<unsigned char> bytes(32, 0x00);
  EXPECT_EQ(fn(bytes.data(), bytes.size(), 0), 0x8A9136AAu);
  bytes.assign(32, 0xFF);
  EXPECT_EQ(fn(bytes.data(), bytes.size(), 0), 0x62A8AB43u);
  for (std::size_t i = 0; i < 32; ++i) bytes[i] = static_cast<unsigned char>(i);
  EXPECT_EQ(fn(bytes.data(), bytes.size(), 0), 0x46DD794Eu);
  for (std::size_t i = 0; i < 32; ++i) {
    bytes[i] = static_cast<unsigned char>(31 - i);
  }
  EXPECT_EQ(fn(bytes.data(), bytes.size(), 0), 0x113FDB5Cu);
  const std::string check = "123456789";
  EXPECT_EQ(fn(check.data(), check.size(), 0), 0xE3069283u);
  EXPECT_EQ(fn(check.data(), 0, 0), 0u);
}

}  // namespace

TEST(Crc32cTest, TableLoopMatchesRfc3720Vectors) {
  expect_rfc_vectors(crc32c_table);
}

TEST(Crc32cTest, DispatchedPathMatchesRfc3720Vectors) {
  expect_rfc_vectors([](const void* data, std::size_t size,
                        std::uint32_t crc) { return crc32c(data, size, crc); });
}

TEST(Crc32cTest, DispatchedPathMatchesTableAtEveryLengthAndOffset) {
  // Every length 0..256 at every start offset 0..7 covers each alignment
  // of the eight-byte loop and every tail length, plus a full spectrum
  // frame's worth of bytes (260x348 complex bins).
  const std::vector<unsigned char> buffer = random_bytes(256 + 8, 7);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 256; ++length) {
      ASSERT_EQ(crc32c(buffer.data() + offset, length),
                crc32c_table(buffer.data() + offset, length))
          << "offset " << offset << " length " << length;
    }
  }
  const std::vector<unsigned char> spectrum = random_bytes(1447680, 11);
  EXPECT_EQ(crc32c(spectrum.data(), spectrum.size()),
            crc32c_table(spectrum.data(), spectrum.size()));
  EXPECT_EQ(crc32c(spectrum.data() + 3, spectrum.size() - 3, 0xDEADBEEFu),
            crc32c_table(spectrum.data() + 3, spectrum.size() - 3,
                         0xDEADBEEFu));
}

TEST(Crc32cTest, PiecewiseChainingMatchesOneShot) {
  const std::vector<unsigned char> buffer = random_bytes(100, 13);
  const std::uint32_t whole = crc32c_table(buffer.data(), buffer.size());
  ASSERT_EQ(crc32c(buffer.data(), buffer.size()), whole);
  for (std::size_t split = 0; split <= buffer.size(); ++split) {
    const std::uint32_t head = crc32c(buffer.data(), split);
    EXPECT_EQ(crc32c(buffer.data() + split, buffer.size() - split, head), whole)
        << "split at " << split;
    const std::uint32_t table_head = crc32c_table(buffer.data(), split);
    EXPECT_EQ(crc32c_table(buffer.data() + split, buffer.size() - split,
                           table_head),
              whole)
        << "table split at " << split;
  }
}

TEST(Crc32cTest, HardwareLoopIsSelectedOnSse42Cpus) {
  if (!cpu_has_sse42()) GTEST_SKIP() << "CPU lacks SSE4.2";
  // An x86-64 build compiles the SSE4.2 body; on a CPU that has the
  // instruction, dispatch must pick it (a silent table fallback costs ~20x
  // and would leave every equality test above comparing the table loop with
  // itself).
  EXPECT_TRUE(hs::detail::crc32c_hardware());
}
