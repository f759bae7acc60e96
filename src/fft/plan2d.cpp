#include "fft/plan2d.hpp"

#include "common/error.hpp"
#include "fft/scratch.hpp"

namespace hs::fft {

Plan2d::Plan2d(std::size_t height, std::size_t width, Direction dir,
               Rigor rigor)
    : h_(height),
      w_(width),
      dir_(dir),
      row_(width, dir, rigor),
      col_(height, dir, rigor) {
  HS_REQUIRE(height >= 1 && width >= 1, "2-D FFT dimensions must be positive");
}

void Plan2d::execute(const Complex* in, Complex* out) const {
  HS_ASSERT(in != out);
  row_.execute_many(h_, in, out, 1, w_);
  col_.execute_many(w_, out, out, w_, 1);
  detail::count_2d();
}

void Plan2d::execute_inplace(Complex* data) const {
  row_.execute_many(h_, data, data, 1, w_);
  col_.execute_many(w_, data, data, w_, 1);
  detail::count_2d();
}

PlanR2c2d::PlanR2c2d(std::size_t height, std::size_t width, Rigor rigor)
    : h_(height), w_(width), row_(width, rigor),
      col_(height, Direction::kForward, rigor) {
  HS_REQUIRE(height >= 1, "2-D FFT dimensions must be positive");
}

void PlanR2c2d::execute(const double* in, Complex* out) const {
  const std::size_t sw = spectrum_width();
  row_.execute_many(h_, in, w_, out, sw);
  // Full complex FFT down each of the sw retained columns.
  col_.execute_many(sw, out, out, sw, 1);
  detail::count_2d();
}

void PlanR2c2d::execute_inplace_padded(Complex* data) const {
  const std::size_t sw = spectrum_width();
  // Row r's reals start at double offset r*2*sw — the same memory its half
  // spectrum occupies; execute_many buffers each block of rows before
  // writing it, so the overlap is safe.
  const double* reals = reinterpret_cast<const double*>(data);
  row_.execute_many(h_, reals, 2 * sw, data, sw);
  col_.execute_many(sw, data, data, sw, 1);
  detail::count_2d();
}

PlanC2r2d::PlanC2r2d(std::size_t height, std::size_t width, Rigor rigor)
    : h_(height), w_(width), row_(width, rigor),
      col_(height, Direction::kInverse, rigor) {
  HS_REQUIRE(height >= 1, "2-D FFT dimensions must be positive");
}

void PlanC2r2d::execute(const Complex* in, double* out) const {
  const std::size_t sw = spectrum_width();
  // Inverse column pass first (undoing the forward order), then row c2r.
  // `in` is const and `out` is 2h doubles short of the half spectrum, so
  // the column spectra stage in a thread-local lease.
  detail::ScratchLease lease(h_ * sw);
  Complex* cols = lease.get();
  col_.execute_many(sw, in, cols, sw, 1);
  row_.execute_many(h_, cols, sw, out, w_);
  detail::count_2d();
}

void PlanC2r2d::execute_inplace_half(Complex* data) const {
  const std::size_t sw = spectrum_width();
  col_.execute_many(sw, data, data, sw, 1);
  // Pack the real rows contiguously into the front of the buffer, top row
  // first: row r's w doubles end at or before row r+1's spectrum starts
  // (r*w + w <= 2*(r+1)*sw), and execute_many buffers each block of rows
  // before writing it, so only rows already consumed are overwritten.
  double* out = reinterpret_cast<double*>(data);
  row_.execute_many(h_, data, sw, out, w_);
  detail::count_2d();
}

}  // namespace hs::fft
