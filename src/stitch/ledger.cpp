#include "stitch/ledger.hpp"

namespace hs::stitch {

std::size_t WarmFilter::warm_pair_count(const img::GridLayout& layout) const {
  if (warm_ == nullptr) return 0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < layout.tile_count(); ++i) {
    const img::TilePos pos = layout.pos_of(i);
    if (layout.has_west(pos) && skip_west(pos)) ++count;
    if (layout.has_north(pos) && skip_north(pos)) ++count;
  }
  return count;
}

std::vector<PairTask> band_pairs(const img::GridLayout& layout, RowBand rows,
                                 Traversal traversal, const WarmFilter& warm) {
  std::vector<PairTask> pairs;
  for (const img::TilePos pos : band_visit_order(layout, rows, traversal)) {
    if (pos.row < rows.begin) continue;  // halo: the band above owns these
    if (layout.has_west(pos) && !warm.skip_west(pos)) {
      pairs.push_back(PairTask{{pos.row, pos.col - 1}, pos, /*is_west=*/true});
    }
    if (layout.has_north(pos) && !warm.skip_north(pos)) {
      pairs.push_back(PairTask{{pos.row - 1, pos.col}, pos, /*is_west=*/false});
    }
  }
  return pairs;
}

std::vector<std::size_t> pair_refcounts(const img::GridLayout& layout,
                                        const std::vector<PairTask>& pairs) {
  std::vector<std::size_t> refs(layout.tile_count(), 0);
  for (const PairTask& pair : pairs) {
    ++refs[layout.index_of(pair.reference)];
    ++refs[layout.index_of(pair.moved)];
  }
  return refs;
}

void PairLedger::prime(const DisplacementTable& warm) {
  std::lock_guard<std::mutex> lock(mutex_);
  HS_ASSERT_MSG(warm.layout.rows == table_.layout.rows &&
                    warm.layout.cols == table_.layout.cols,
                "warm table layout mismatch");
  for (std::size_t i = 0; i < table_.layout.tile_count(); ++i) {
    const img::TilePos pos = table_.layout.pos_of(i);
    if (table_.layout.has_west(pos) &&
        warm.west[i].correlation != kNotComputed &&
        table_.west[i].correlation == kNotComputed) {
      table_.west[i] = warm.west[i];
      table_.west_status[i] = PairStatus::kDone;
      ++done_;
    }
    if (table_.layout.has_north(pos) &&
        warm.north[i].correlation != kNotComputed &&
        table_.north[i].correlation == kNotComputed) {
      table_.north[i] = warm.north[i];
      table_.north_status[i] = PairStatus::kDone;
      ++done_;
    }
  }
}

void PairLedger::record(img::TilePos moved, bool is_west,
                        const Translation& t) {
  const img::TilePos reference =
      is_west ? img::TilePos{moved.row, moved.col - 1}
              : img::TilePos{moved.row - 1, moved.col};
  const std::size_t i = table_.layout.index_of(moved);
  std::lock_guard<std::mutex> lock(mutex_);
  if (tile_quarantined_locked(moved) || tile_quarantined_locked(reference)) {
    return;
  }
  Translation& slot = is_west ? table_.west[i] : table_.north[i];
  if (slot.correlation != kNotComputed) return;  // first write wins
  slot = t;
  (is_west ? table_.west_status[i] : table_.north_status[i]) =
      PairStatus::kDone;
  ++done_;
}

void PairLedger::quarantine_tile(std::size_t index) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!quarantined_set_.insert(index).second) return;
  quarantined_.push_back(index);
  const img::TilePos pos = table_.layout.pos_of(index);
  // Fail the (up to four) pairs touching this tile, un-counting any that
  // were recorded before the quarantine landed.
  const auto fail_pair = [&](img::TilePos moved, bool is_west) {
    const std::size_t i = table_.layout.index_of(moved);
    Translation& slot = is_west ? table_.west[i] : table_.north[i];
    if (slot.correlation != kNotComputed) {
      HS_ASSERT(done_ > 0);
      --done_;
    }
    slot = Translation{};
    (is_west ? table_.west_status[i] : table_.north_status[i]) =
        PairStatus::kFailed;
  };
  if (table_.layout.has_west(pos)) fail_pair(pos, true);
  if (table_.layout.has_north(pos)) fail_pair(pos, false);
  if (table_.layout.has_east(pos)) {
    fail_pair(img::TilePos{pos.row, pos.col + 1}, true);
  }
  if (table_.layout.has_south(pos)) {
    fail_pair(img::TilePos{pos.row + 1, pos.col}, false);
  }
}

std::vector<std::size_t> PairLedger::quarantined() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return quarantined_;
}

DisplacementTable PairLedger::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return table_;
}

std::size_t PairLedger::done_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return done_;
}

}  // namespace hs::stitch
