#include "radloc/geom/grid_index.hpp"

#include <algorithm>
#include <cmath>

#include "radloc/common/math.hpp"

namespace radloc {

namespace {

// Spare capacity a layout leaves behind each cell's indices: a quarter of
// the cell's count plus a few slots, so occupied cells absorb the ebb and
// flow of resampling and empty cells take in random-replacement particles
// without a fresh layout. Total storage is bounded by
// n + n/4 + cells * kMinSlack whatever the distribution of the points.
constexpr std::uint32_t kMinSlack = 4;
std::uint32_t slack_for(std::uint32_t count) { return count / 4 + kMinSlack; }

// floor(t) clamped to [0, count - 1]. Clamping before the conversion keeps
// points far outside the bounds (and NaN) well-defined, and truncation of a
// non-negative t is floor(t) without a libm call: cell_of runs once per
// point in rebuild() and once per moved point in update().
std::int32_t axis_cell(double t, std::size_t count) {
  if (!(t >= 0.0)) return 0;
  const auto last = static_cast<std::int32_t>(count) - 1;
  if (t >= static_cast<double>(last)) return last;
  return static_cast<std::int32_t>(t);
}

}  // namespace

GridIndex::GridIndex(const AreaBounds& bounds, double cell_size)
    : bounds_(bounds), cell_size_(cell_size) {
  require(cell_size > 0.0, "grid cell size must be positive");
  require(bounds.width() > 0.0 && bounds.height() > 0.0, "grid bounds must be non-degenerate");
  nx_ = static_cast<std::size_t>(std::ceil(bounds.width() / cell_size));
  ny_ = static_cast<std::size_t>(std::ceil(bounds.height() / cell_size));
  nx_ = std::max<std::size_t>(nx_, 1);
  ny_ = std::max<std::size_t>(ny_, 1);
  const std::size_t cells = nx_ * ny_;
  cell_start_.assign(cells + 1, 0);
  spare_start_.assign(cells + 1, 0);
  cell_count_.assign(cells, 0);
  cell_gain_.assign(cells, 0);
  cell_touched_.assign(cells, 0);
  touched_.reserve(cells);
}

std::pair<std::int32_t, std::int32_t> GridIndex::cell_of(const Point2& p) const {
  return {axis_cell((p.x - bounds_.min.x) / cell_size_, nx_),
          axis_cell((p.y - bounds_.min.y) / cell_size_, ny_)};
}

std::uint32_t GridIndex::cell_id(const Point2& p) const {
  const auto [cx, cy] = cell_of(p);
  return static_cast<std::uint32_t>(static_cast<std::size_t>(cy) * nx_ +
                                    static_cast<std::size_t>(cx));
}

void GridIndex::rebuild(std::span<const Point2> points) {
  const std::size_t n = points.size();
  const std::size_t cells = cell_count_.size();

  // Counting sort into per-cell regions. Every buffer is sized from n and
  // the cell count alone (the regions to their worst-case total), so
  // rebuilds over a stable n, and the updates between them, never allocate
  // (tests/test_alloc_steady.cpp) however the points cluster.
  const std::size_t bound = n + n / 4 + cells * kMinSlack;
  items_.reserve(bound);
  spare_.reserve(bound);
  moved_.reserve(n);
  grouped_.reserve(n);
  slot_cell_.resize(n);
  std::fill(cell_count_.begin(), cell_count_.end(), 0u);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t cell = cell_id(points[i]);
    slot_cell_[i] = cell;
    ++cell_count_[cell];
  }
  lay_out(cell_count_);
  items_.resize(cell_start_[cells]);
  std::fill(cell_count_.begin(), cell_count_.end(), 0u);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t cell = slot_cell_[i];
    items_[cell_start_[cell] + cell_count_[cell]++] = static_cast<std::uint32_t>(i);
  }
}

void GridIndex::lay_out(std::span<const std::uint32_t> counts) {
  ++layouts_;
  for (std::size_t c = 0; c < counts.size(); ++c) {
    cell_start_[c + 1] = cell_start_[c] + counts[c] + slack_for(counts[c]);
  }
}

void GridIndex::update(std::span<const Point2> points, std::span<const std::uint32_t> slots) {
  if (points.size() != slot_cell_.size()) {
    rebuild(points);
    return;
  }
  // cell_touched_ flags: listed in touched_, and lost a point (only those
  // cells need compacting).
  constexpr std::uint8_t kListed = 1;
  constexpr std::uint8_t kLost = 2;
  const auto touch = [&](std::uint32_t cell, std::uint8_t flag) {
    if (cell_touched_[cell] == 0) touched_.push_back(cell);
    cell_touched_[cell] |= static_cast<std::uint8_t>(kListed | flag);
  };
  moved_.clear();
  touched_.clear();
  for (const std::uint32_t s : slots) {
    const std::uint32_t to = cell_id(points[s]);
    const std::uint32_t from = slot_cell_[s];
    if (to == from) continue;
    slot_cell_[s] = to;
    moved_.push_back(s);
    touch(from, kLost);
    touch(to, 0);
    ++cell_gain_[to];
  }
  if (moved_.empty()) return;

  // Drop the moved points from the cells they left: an order-preserving
  // compaction keeps exactly the indices still binned to the cell.
  bool full = false;
  for (const std::uint32_t cell : touched_) {
    if ((cell_touched_[cell] & kLost) != 0) {
      std::uint32_t* region = items_.data() + cell_start_[cell];
      std::uint32_t kept = 0;
      for (std::uint32_t k = 0; k < cell_count_[cell]; ++k) {
        if (slot_cell_[region[k]] == cell) region[kept++] = region[k];
      }
      cell_count_[cell] = kept;
    }
    full = full || cell_count_[cell] + cell_gain_[cell] > cell_start_[cell + 1] - cell_start_[cell];
  }

  // A cell without room for what it gains has spent the slack of the last
  // layout: lay every region out afresh around the post-update counts. The
  // live indices are copied region by region (no point is re-binned), so
  // this costs one pass over the items, not a rebuild.
  if (full) {
    const std::size_t cells = cell_count_.size();
    for (std::size_t c = 0; c < cells; ++c) cell_gain_[c] += cell_count_[c];
    cell_start_.swap(spare_start_);
    const std::vector<std::uint32_t>& old_start = spare_start_;
    lay_out(cell_gain_);
    spare_.resize(cell_start_[cells]);
    for (std::size_t c = 0; c < cells; ++c) {
      cell_gain_[c] -= cell_count_[c];
      std::copy_n(items_.data() + old_start[c], cell_count_[c], spare_.data() + cell_start_[c]);
    }
    items_.swap(spare_);
  }

  // Bucket the moved points by destination cell (a counting sort over the
  // touched cells; cell_gain_ turns into each bucket's end cursor), then
  // merge each bucket, sorted, into its cell from the back so the region
  // stays ascending.
  std::uint32_t offset = 0;
  for (const std::uint32_t cell : touched_) {
    const std::uint32_t gain = cell_gain_[cell];
    cell_gain_[cell] = offset;
    offset += gain;
  }
  grouped_.resize(moved_.size());
  for (const std::uint32_t s : moved_) grouped_[cell_gain_[slot_cell_[s]]++] = s;
  std::uint32_t begin = 0;
  for (const std::uint32_t cell : touched_) {
    const std::uint32_t end = cell_gain_[cell];
    cell_gain_[cell] = 0;
    cell_touched_[cell] = 0;
    std::uint32_t* bucket = grouped_.data() + begin;
    std::uint32_t* region = items_.data() + cell_start_[cell];
    const std::uint32_t have = cell_count_[cell];
    std::uint32_t i = have;
    std::uint32_t j = end - begin;
    std::uint32_t w = have + j;
    cell_count_[cell] = w;
    begin = end;
    std::sort(bucket, bucket + j);
    while (j > 0) {
      if (i > 0 && region[i - 1] > bucket[j - 1]) {
        region[--w] = region[--i];
      } else {
        region[--w] = bucket[--j];
      }
    }
  }
}

void GridIndex::query_radius(std::span<const Point2> points, const Point2& c, double r,
                             std::vector<std::uint32_t>& out) const {
  out.clear();
  for_each_in_radius(points, c, r, [&](std::uint32_t i) { out.push_back(i); });
}

}  // namespace radloc
