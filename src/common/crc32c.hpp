// CRC32C (Castagnoli, polynomial 0x1EDC6F41) — the checksum that frames
// journal records, checkpoint files, spill frames and pair-log records,
// seals table footers and feeds tile content digests. Castagnoli rather than
// the zlib polynomial because its error-detection properties are better for
// short records and it is the checksum ext4/Btrfs journals use, so the
// on-disk format matches what filesystem tooling expects to see.
//
// Two implementations, one checksum. On x86-64 CPUs with SSE4.2 the
// `crc32` instruction folds eight bytes per step (crc32c_sse42.cpp, about
// 20x the table loop); everywhere else a portable slice-by-one table loop
// runs. The choice is made once, from the CPU, at first use. The serve path
// checksums a megabyte-scale spectrum on every spill write and every tile
// on every job, so the byte-at-a-time loop alone would cost more than the
// FFTs a spill hit saves. Both paths compute the same function, so the
// choice is invisible in every byte on disk: there is no option, no
// environment variable, and the HS_KERNEL_DISPATCH tier cap (which trades
// rounding-equivalent code paths) does not apply.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace hs {

/// CRC32C of `size` bytes starting at `data`, seeded with `crc` (pass the
/// previous call's return value to checksum a buffer in pieces; the default
/// seed starts a fresh checksum).
std::uint32_t crc32c(const void* data, std::size_t size,
                     std::uint32_t crc = 0);

inline std::uint32_t crc32c(const std::string& s, std::uint32_t crc = 0) {
  return crc32c(s.data(), s.size(), crc);
}

namespace detail {

/// The portable slice-by-one table loop: the fallback on CPUs without
/// SSE4.2 and the reference the hardware path is tested against.
std::uint32_t crc32c_table(const void* data, std::size_t size,
                           std::uint32_t crc = 0);

/// True when hs::crc32c dispatches to the SSE4.2 loop on this CPU.
bool crc32c_hardware();

}  // namespace detail

}  // namespace hs
