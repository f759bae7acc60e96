// Wisdom: persisted planner decisions, after FFTW's mechanism of the same
// name. The paper pays 4 min 20 s of patient planning for its tile size and
// amortizes it by "saving a plan and reusing it" — wisdom is how that
// survives process restarts: the measured factor ordering for each
// (size, direction) is recorded in a process-wide registry that plans
// consult before re-measuring, and the registry round-trips through a
// plain-text file.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/simd.hpp"
#include "fft/types.hpp"

namespace hs::fft {

/// A remembered planner decision: the factor ordering plus the SIMD codelet
/// tier that won the measurement. tier is a common::SimdTier value, or
/// kTierUnspecified for entries recorded before tiers existed (v1 wisdom
/// files, 3-argument wisdom_remember) — plans then use the active tier.
inline constexpr int kTierUnspecified = -1;

struct WisdomEntry {
  std::vector<int> factors;
  int tier = kTierUnspecified;
};

/// Records the winning factor ordering for (n, dir). Called automatically
/// by measured/patient planning; callable directly for tests and tools.
/// Throws InvalidArgument unless the factors multiply to n and each is a
/// radix the plan has a butterfly for: 2, 4, or odd and <= kMaxDirectRadix.
/// This overload leaves the tier unspecified.
void wisdom_remember(std::size_t n, Direction dir, std::vector<int> factors);

/// As above, also recording the codelet tier that won the measurement.
void wisdom_remember(std::size_t n, Direction dir, std::vector<int> factors,
                     common::SimdTier tier);

/// The remembered ordering, if any.
std::optional<std::vector<int>> wisdom_lookup(std::size_t n, Direction dir);

/// The remembered ordering plus tier, if any.
std::optional<WisdomEntry> wisdom_lookup_entry(std::size_t n, Direction dir);

/// Number of remembered entries.
std::size_t wisdom_size();

/// Forgets everything (test isolation).
void wisdom_clear();

/// Writes the registry as text (v2 format): one "n dir tier f1 f2 ..." line
/// per entry, where tier is -1 when unspecified.
void wisdom_save(const std::string& path);

/// Merges entries from a wisdom file into the registry. Throws IoError on
/// malformed input; entries failing validation are rejected with IoError
/// (a corrupt wisdom file must not produce silently wrong plans).
void wisdom_load(const std::string& path);

}  // namespace hs::fft
