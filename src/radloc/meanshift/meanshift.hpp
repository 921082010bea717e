// Weighted mean-shift mode finding over the particle cloud — Sec. V-D.
//
// The weighted particles define a kernel density estimate
//   L_P(x) = sum_i w_i * phi_H(x - p_i),
// a mixture whose modes are the source-parameter estimates. Mean-shift
// ascends L_P from many seeds; converged points are merged into modes and
// the number of surviving modes IS the learned source count K.
//
// Feature space: (x, y, log strength). Log-strength makes the 4-1000 uCi
// range scale-free under a single bandwidth (the paper leaves the strength
// bandwidth unspecified). The kernel is a diagonal Gaussian truncated at
// 3 sigma spatially. Once per estimate() the positive-weight particles are
// copied, sorted by grid cell, into contiguous (x, y, log-strength, weight)
// arrays, so one shift step walks one contiguous span per cell row of the
// 3h box around the current point — O(local particles) instead of O(NP),
// with no per-step gather. Seeds are independent and run in parallel on the
// thread pool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "radloc/common/types.hpp"
#include "radloc/concurrency/thread_pool.hpp"
#include "radloc/simd/aligned.hpp"

namespace radloc {

/// Kernel profile for the KDE. Gaussian is the paper's choice (Eq. 6);
/// Epanechnikov (truncated parabola, zero beyond 3h) converges in fewer
/// shifts and is exposed for the kernel ablation bench.
enum class KernelType { kGaussian, kEpanechnikov };

struct MeanShiftConfig {
  KernelType kernel = KernelType::kGaussian;
  double bandwidth_xy = 5.0;        ///< spatial kernel bandwidth h (length units)
  double bandwidth_log_strength = 0.75;  ///< kernel bandwidth in log-strength
  double convergence_eps = 1e-3;    ///< stop when the shift moves less than this
  std::size_t max_iterations = 200;
  std::size_t max_seeds = 64;       ///< cap on mean-shift starting points
  double seed_separation = 5.0;     ///< min spatial distance between seeds
  double merge_radius = 6.0;        ///< modes closer than this merge (spatially)
  /// Minimum fraction of total particle weight a mode's basin must hold to
  /// be reported as a source. The particle masses of different clusters can
  /// be very uneven (clusters absorb the mass of every fusion disk that
  /// touches them), so this stays low; downstream, the localizer's
  /// detection log-LR test does the real noise filtering.
  double min_support = 0.02;
  /// Optional concentration gate: minimum fraction of a mode's basin mass
  /// lying within one spatial bandwidth of the mode. A converged source
  /// cluster (sigma ~ resampling jitter) scores ~0.7+; a locally uniform
  /// cloud scores ~ (h / basin radius)^2 ~ 0.25. Off (0) by default — kept
  /// as an ablation knob.
  double min_tightness = 0.0;
};

/// One recovered mode of L_P: a source estimate.
struct SourceEstimate {
  Point2 pos;
  double strength = 0.0;  ///< uCi (exp of the log-strength coordinate)
  double support = 0.0;   ///< fraction of total particle weight in the basin
};

/// What the last estimate() spent: ascents started (one per seed), ascents
/// that ended by basin capture, and shift steps summed over all ascents.
struct MeanShiftWork {
  std::size_t ascents = 0;
  std::size_t captured = 0;
  std::size_t shift_steps = 0;
};

class MeanShiftEstimator {
 public:
  /// Seeds ascend in fixed waves of this many, in select_seeds() order.
  static constexpr std::size_t kWaveSize = 8;
  /// A later-wave ascent that comes within bandwidth_xy / kCaptureDivisor
  /// of a mode an earlier wave converged to (in the shift test's metric)
  /// stops there and returns that mode.
  static constexpr double kCaptureDivisor = 5.0;

  /// `bounds` must cover all particle positions; `pool` is borrowed and must
  /// outlive the estimator.
  MeanShiftEstimator(const AreaBounds& bounds, MeanShiftConfig cfg, ThreadPool& pool);

  /// Finds all modes of the weighted particle KDE. Spans must have equal
  /// length; weights must be non-negative. Returns estimates sorted by
  /// descending support. Empty input or all-zero weights yield no estimates.
  [[nodiscard]] std::vector<SourceEstimate> estimate(std::span<const Point2> positions,
                                                     std::span<const double> strengths,
                                                     std::span<const double> weights);

  [[nodiscard]] const MeanShiftConfig& config() const { return cfg_; }

  /// Work counters of the last estimate() (zero before the first call and
  /// after one that ran no ascent). Identical at any thread count.
  [[nodiscard]] const MeanShiftWork& last_work() const { return work_; }

  /// The deterministic stratified seed draw estimate() starts from: particle
  /// indices sampled proportionally to weight, thinned by seed_separation,
  /// never containing a duplicate index (a duplicate would burn one of the
  /// max_seeds ascents re-climbing the same start). Exposed for tests and
  /// diagnostics; requires equal-length spans, weights clamped at >= 0.
  [[nodiscard]] std::vector<std::uint32_t> select_seeds(std::span<const Point2> positions,
                                                        std::span<const double> weights) const;

 private:
  struct Mode {
    Point2 pos;
    double log_strength = 0.0;
    double density = 0.0;
  };
  struct Ascent {
    Mode mode;
    std::size_t steps = 0;
    bool converged = false;  ///< the shift fell below convergence_eps
    bool captured = false;   ///< stopped in the basin of an earlier mode
  };

  /// Runs the mean-shift iteration x <- M(x) (Eq. 7) from one seed over
  /// the snapshot built by build_snapshot(). After each shift step the
  /// ascent is captured by the first of `basins` (modes that earlier waves
  /// converged to) within the capture radius, and returns that mode.
  [[nodiscard]] Ascent ascend(Point2 seed_pos, double seed_log_strength,
                              std::span<const Mode> basins) const;

  /// Cell (cx, cy) of a point: the grid has pitch max(bandwidth_xy, 1) over
  /// `bounds_`; points outside are clamped into the border cells.
  [[nodiscard]] std::pair<std::size_t, std::size_t> cell_of(const Point2& p) const;

  /// Counting sort of the positive-weight particles into the snapshot:
  /// cells in row-major order, particle indices ascending inside a cell.
  void build_snapshot(std::span<const Point2> positions, std::span<const double> strengths,
                      std::span<const double> weights);

  MeanShiftConfig cfg_;
  ThreadPool* pool_;
  AreaBounds bounds_;
  double cell_size_;
  std::size_t nx_ = 1;
  std::size_t ny_ = 1;

  // The cell-sorted snapshot of one estimate(); storage is reused across
  // calls. Cell c holds snapshot entries [cell_start_[c], cell_start_[c+1]).
  std::vector<std::uint32_t> cell_start_;  ///< size nx*ny + 1
  std::vector<std::uint32_t> cell_fill_;   ///< counting-sort cursors
  std::vector<std::uint32_t> slot_cell_;   ///< cell of each input particle
  simd::AVector<double> snap_x_;
  simd::AVector<double> snap_y_;
  simd::AVector<double> snap_ls_;  ///< log(strength), paid once per particle
  simd::AVector<double> snap_w_;
  MeanShiftWork work_;
};

}  // namespace radloc
