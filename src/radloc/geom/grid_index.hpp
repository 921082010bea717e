// Uniform-grid spatial index over a fixed rectangular area.
//
// The filter's hot path uses it: the fusion-range query "all particles
// within d of sensor S" (Eq. (5) of the paper), millions of radius queries
// per experiment, so the index is flat and cache-friendly: one items array
// in which every cell owns a contiguous region (CSR offsets), rebuilt in
// O(n). (Mean-shift bins its particles the same way, but copies them into
// a cell-sorted snapshot of its own once per estimate; see meanshift.hpp.)
//
// Each region holds the cell's indices in ascending order followed by some
// spare capacity, so the filter can maintain the index incrementally:
// update() moves only the points a resample rewrote from their old cells to
// their new ones. Queries visit cells in row-major order and indices in
// ascending order within a cell, whether the index was rebuilt or updated —
// callers may depend on that order (the filter's resample and mass
// reductions do).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "radloc/common/types.hpp"

namespace radloc {

class GridIndex {
 public:
  /// `bounds` is the indexable region (points outside are clamped into the
  /// border cells); `cell_size` > 0 is the grid pitch — pick it near the
  /// typical query radius.
  GridIndex(const AreaBounds& bounds, double cell_size);

  /// Rebuilds the index over `points`; item i keeps identifier i. Storage
  /// is sized from points.size() and the cell count only, so repeated
  /// rebuilds and updates over the same number of points never allocate.
  void rebuild(std::span<const Point2> points);

  /// Re-bins the points `slots` after the caller rewrote their positions;
  /// every other point must be where the last rebuild()/update() saw it.
  /// `points` is the full point set (same size as at the last rebuild;
  /// otherwise this is a rebuild). Costs O(|slots|) plus the sizes of the
  /// cells touched, except when a cell runs out of spare capacity: then all
  /// regions are laid out afresh, one copy pass over the items. Afterwards
  /// queries return exactly what a fresh rebuild(points) would, in the same
  /// order.
  void update(std::span<const Point2> points, std::span<const std::uint32_t> slots);

  /// Invokes `fn(i)` for every indexed point i with ||points[i] - c|| <= r.
  /// `points` must be the span passed to the last rebuild() or update().
  template <typename Fn>
  void for_each_in_radius(std::span<const Point2> points, const Point2& c, double r,
                          Fn&& fn) const {
    const double r2 = r * r;
    const auto [cx0, cy0] = cell_of(Point2{c.x - r, c.y - r});
    const auto [cx1, cy1] = cell_of(Point2{c.x + r, c.y + r});
    for (std::int32_t cy = cy0; cy <= cy1; ++cy) {
      for (std::int32_t cx = cx0; cx <= cx1; ++cx) {
        const std::size_t cell = static_cast<std::size_t>(cy) * nx_ + static_cast<std::size_t>(cx);
        const std::uint32_t begin = cell_start_[cell];
        const std::uint32_t end = begin + cell_count_[cell];
        for (std::uint32_t k = begin; k < end; ++k) {
          const std::uint32_t i = items_[k];
          if (distance2(points[i], c) <= r2) fn(i);
        }
      }
    }
  }

  /// Radius query collecting matching indices into `out` (cleared first).
  void query_radius(std::span<const Point2> points, const Point2& c, double r,
                    std::vector<std::uint32_t>& out) const;

  [[nodiscard]] std::size_t size() const { return slot_cell_.size(); }
  [[nodiscard]] double cell_size() const { return cell_size_; }
  /// Times the cell regions were laid out: every rebuild() plus every
  /// update() that found a cell full (diagnostics and tests).
  [[nodiscard]] std::uint64_t layouts() const { return layouts_; }

 private:
  [[nodiscard]] std::pair<std::int32_t, std::int32_t> cell_of(const Point2& p) const;
  [[nodiscard]] std::uint32_t cell_id(const Point2& p) const;
  /// Sets cell_start_ so that cell c gets counts[c] indices plus slack.
  void lay_out(std::span<const std::uint32_t> counts);

  AreaBounds bounds_;
  double cell_size_;
  std::size_t nx_ = 0;
  std::size_t ny_ = 0;
  std::uint64_t layouts_ = 0;
  std::vector<std::uint32_t> cell_start_;  // region offsets into items_, size nx*ny + 1
  std::vector<std::uint32_t> cell_count_;  // live indices at the front of each region
  std::vector<std::uint32_t> items_;       // per-cell regions, ascending indices + slack
  std::vector<std::uint32_t> slot_cell_;   // cell of every indexed point
  // update() scratch, sized at construction/rebuild so updates never allocate
  std::vector<std::uint32_t> spare_start_; // previous layout's offsets
  std::vector<std::uint32_t> spare_;       // previous layout's items
  std::vector<std::uint32_t> moved_;       // points whose cell changed
  std::vector<std::uint32_t> grouped_;     // moved_ bucketed by new cell
  std::vector<std::uint32_t> touched_;     // cells that lost or gained points
  std::vector<std::uint32_t> cell_gain_;   // per cell: points gained (0 at rest)
  std::vector<std::uint8_t> cell_touched_; // per cell: listed in touched_ (0 at rest)
};

}  // namespace radloc
