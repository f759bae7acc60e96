// Thread-local FFT scratch (internal to hs_fft).
//
// Plans are immutable and shared across threads (PlanCache hands one const
// plan to every worker), so scratch cannot live in a plan. Each thread owns
// one arena with stack discipline: a lease bumps an offset and restores it
// on destruction, so leases nest (a 2-D column block holds one while a
// Bluestein column or a real 1-D row takes another). Growing the arena never
// moves memory an outer lease still points into; once a thread has run a
// given transform, repeating it allocates nothing.
#pragma once

#include <cstddef>

#include "fft/types.hpp"

namespace hs::fft::detail {

// Transforms per batched block (Plan1d::execute_many's lanes, the real row
// plans' rows): 8 lanes of a 260-point transform stage 8 x 260 x 16 B =
// 33 KB, which stays in L1/L2, and a column block reads 128 contiguous
// bytes of each row.
inline constexpr std::size_t kLaneBlock = 8;

class ScratchLease {
 public:
  explicit ScratchLease(std::size_t count);
  ~ScratchLease();
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  Complex* get() const { return ptr_; }

 private:
  std::size_t base_;
  Complex* ptr_;
};

}  // namespace hs::fft::detail
