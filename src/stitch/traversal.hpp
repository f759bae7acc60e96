// Grid traversal orders (paper SIV-A).
//
// The order in which tiles are visited controls how early transform memory
// can be recycled: a tile's transform is freed once all of its adjacent
// pairs are computed, so traversals that close pairs quickly keep fewer
// transforms live. The paper found the chained-diagonal order best and made
// it the default; the pool-size requirement "must exceed the smallest
// dimension of the image grid" comes from that order.
#pragma once

#include <string>
#include <vector>

#include "imgio/grid.hpp"

namespace hs::stitch {

enum class Traversal {
  kRow,
  kRowChained,       // boustrophedon rows
  kColumn,
  kColumnChained,
  kDiagonal,         // anti-diagonals
  kDiagonalChained,  // anti-diagonals, alternating direction (default)
};

/// All traversals, for parameterized tests and the traversal ablation bench.
inline constexpr Traversal kAllTraversals[] = {
    Traversal::kRow,      Traversal::kRowChained,
    Traversal::kColumn,   Traversal::kColumnChained,
    Traversal::kDiagonal, Traversal::kDiagonalChained,
};

std::string traversal_name(Traversal traversal);
Traversal parse_traversal(const std::string& name);

/// The visit order: a permutation of all tile positions.
std::vector<img::TilePos> traversal_order(const img::GridLayout& layout,
                                          Traversal traversal);

/// Natural working set of a traversal: the number of tile transforms that
/// must be live simultaneously for pairs to keep closing (row orders keep a
/// full row + 1, column orders a column + 1, diagonal orders only
/// min(rows, cols) + 1 — why the paper defaults to chained diagonal).
std::size_t traversal_working_set(const img::GridLayout& layout,
                                  Traversal traversal);

/// Transform-pool size a backend runs with: `pool_buffers` when set, else
/// the traversal's working set plus four slots of slack.
std::size_t pool_size(const img::GridLayout& layout, Traversal traversal,
                      std::size_t pool_buffers);

/// Rows [begin, end) of band `band` when `rows` grid rows are split into
/// `bands` contiguous, near-equal row bands (the multi-GPU partition).
struct RowBand {
  std::size_t begin = 0;
  std::size_t end = 0;
};
RowBand row_band(std::size_t rows, std::size_t band, std::size_t bands);

/// The tiles a row band's pairs read: its rows plus, below the grid's first
/// row, the halo row above (a pair belongs to the band of its moved tile, so
/// the north pairs of the band's first row reach one row up).
img::GridLayout band_layout(const img::GridLayout& layout, RowBand rows);

/// band_layout(layout, rows) visited in `traversal` order, in grid
/// coordinates. The whole grid's band visits exactly traversal_order().
std::vector<img::TilePos> band_visit_order(const img::GridLayout& layout,
                                           RowBand rows, Traversal traversal);

}  // namespace hs::stitch
