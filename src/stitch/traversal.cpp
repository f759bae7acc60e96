#include "stitch/traversal.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace hs::stitch {

std::string traversal_name(Traversal traversal) {
  switch (traversal) {
    case Traversal::kRow: return "row";
    case Traversal::kRowChained: return "row-chained";
    case Traversal::kColumn: return "column";
    case Traversal::kColumnChained: return "column-chained";
    case Traversal::kDiagonal: return "diagonal";
    case Traversal::kDiagonalChained: return "diagonal-chained";
  }
  return "?";
}

Traversal parse_traversal(const std::string& name) {
  for (Traversal t : kAllTraversals) {
    if (traversal_name(t) == name) return t;
  }
  throw InvalidArgument("unknown traversal: " + name);
}

std::vector<img::TilePos> traversal_order(const img::GridLayout& layout,
                                          Traversal traversal) {
  std::vector<img::TilePos> order;
  order.reserve(layout.tile_count());
  const std::size_t rows = layout.rows;
  const std::size_t cols = layout.cols;

  switch (traversal) {
    case Traversal::kRow:
    case Traversal::kRowChained:
      for (std::size_t r = 0; r < rows; ++r) {
        const bool reverse = traversal == Traversal::kRowChained && r % 2 == 1;
        for (std::size_t i = 0; i < cols; ++i) {
          order.push_back(img::TilePos{r, reverse ? cols - 1 - i : i});
        }
      }
      break;

    case Traversal::kColumn:
    case Traversal::kColumnChained:
      for (std::size_t c = 0; c < cols; ++c) {
        const bool reverse =
            traversal == Traversal::kColumnChained && c % 2 == 1;
        for (std::size_t i = 0; i < rows; ++i) {
          order.push_back(img::TilePos{reverse ? rows - 1 - i : i, c});
        }
      }
      break;

    case Traversal::kDiagonal:
    case Traversal::kDiagonalChained:
      for (std::size_t d = 0; d + 1 <= rows + cols - 1; ++d) {
        std::vector<img::TilePos> diagonal;
        // Anti-diagonal d holds tiles with row + col == d.
        const std::size_t r_lo = d >= cols ? d - cols + 1 : 0;
        const std::size_t r_hi = std::min(d, rows - 1);
        for (std::size_t r = r_lo; r <= r_hi; ++r) {
          diagonal.push_back(img::TilePos{r, d - r});
        }
        if (traversal == Traversal::kDiagonalChained && d % 2 == 1) {
          std::reverse(diagonal.begin(), diagonal.end());
        }
        order.insert(order.end(), diagonal.begin(), diagonal.end());
      }
      break;
  }
  HS_ASSERT(order.size() == layout.tile_count());
  return order;
}

std::size_t traversal_working_set(const img::GridLayout& layout,
                                  Traversal traversal) {
  switch (traversal) {
    case Traversal::kRow:
    case Traversal::kRowChained:
      return layout.cols + 1;
    case Traversal::kColumn:
    case Traversal::kColumnChained:
      return layout.rows + 1;
    case Traversal::kDiagonal:
    case Traversal::kDiagonalChained:
      return std::min(layout.rows, layout.cols) + 1;
  }
  return layout.cols + 1;
}

std::size_t pool_size(const img::GridLayout& layout, Traversal traversal,
                      std::size_t pool_buffers) {
  return pool_buffers > 0 ? pool_buffers
                          : traversal_working_set(layout, traversal) + 4;
}

RowBand row_band(std::size_t rows, std::size_t band, std::size_t bands) {
  return RowBand{band * rows / bands, (band + 1) * rows / bands};
}

img::GridLayout band_layout(const img::GridLayout& layout, RowBand rows) {
  return img::GridLayout{rows.end - rows.begin + (rows.begin > 0 ? 1 : 0),
                         layout.cols};
}

std::vector<img::TilePos> band_visit_order(const img::GridLayout& layout,
                                           RowBand rows, Traversal traversal) {
  const std::size_t first = rows.begin > 0 ? rows.begin - 1 : 0;
  std::vector<img::TilePos> order =
      traversal_order(band_layout(layout, rows), traversal);
  for (img::TilePos& pos : order) pos.row += first;
  return order;
}

}  // namespace hs::stitch
