#include "radloc/meanshift/meanshift.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "radloc/common/math.hpp"
#include "radloc/simd/simd.hpp"

namespace radloc {

namespace {

// Per-thread profile buffer: ascents for different seeds run concurrently
// on the pool, and one ascent evaluates the kernel on up to max_iterations
// x (cell rows of the query box) spans — thread_local keeps it
// allocation-free at steady state without racing.
simd::AVector<double>& profile_scratch() {
  thread_local simd::AVector<double> profile;
  return profile;
}

constexpr std::uint32_t kNoCell = ~std::uint32_t{0};

}  // namespace

MeanShiftEstimator::MeanShiftEstimator(const AreaBounds& bounds, MeanShiftConfig cfg,
                                       ThreadPool& pool)
    : cfg_(cfg), pool_(&pool), bounds_(bounds), cell_size_(std::max(cfg.bandwidth_xy, 1.0)) {
  require(cfg_.bandwidth_xy > 0.0, "spatial bandwidth must be positive");
  require(cfg_.bandwidth_log_strength > 0.0, "strength bandwidth must be positive");
  require(cfg_.max_seeds > 0, "need at least one seed");
  require(cfg_.min_support >= 0.0 && cfg_.min_support <= 1.0, "min_support must be in [0,1]");
  require(bounds.width() > 0.0 && bounds.height() > 0.0, "grid bounds must be non-degenerate");
  nx_ = std::max<std::size_t>(static_cast<std::size_t>(std::ceil(bounds.width() / cell_size_)), 1);
  ny_ = std::max<std::size_t>(static_cast<std::size_t>(std::ceil(bounds.height() / cell_size_)), 1);
  cell_start_.assign(nx_ * ny_ + 1, 0);
  cell_fill_.assign(nx_ * ny_, 0);
}

std::pair<std::size_t, std::size_t> MeanShiftEstimator::cell_of(const Point2& p) const {
  return {clamped_cell((p.x - bounds_.min.x) / cell_size_, nx_),
          clamped_cell((p.y - bounds_.min.y) / cell_size_, ny_)};
}

void MeanShiftEstimator::build_snapshot(std::span<const Point2> positions,
                                        std::span<const double> strengths,
                                        std::span<const double> weights) {
  const std::size_t n = positions.size();
  const std::size_t cells = cell_fill_.size();
  slot_cell_.resize(n);
  std::fill(cell_start_.begin(), cell_start_.end(), 0u);
  for (std::size_t i = 0; i < n; ++i) {
    // `<= 0` (not `!(> 0)`): a NaN weight stays in, as it always has.
    if (weights[i] <= 0.0) {
      slot_cell_[i] = kNoCell;
      continue;
    }
    const auto [cx, cy] = cell_of(positions[i]);
    const auto cell = static_cast<std::uint32_t>(cy * nx_ + cx);
    slot_cell_[i] = cell;
    ++cell_start_[cell + 1];
  }
  for (std::size_t c = 0; c < cells; ++c) cell_start_[c + 1] += cell_start_[c];
  std::copy(cell_start_.begin(), cell_start_.end() - 1, cell_fill_.begin());

  const std::size_t m = cell_start_[cells];
  snap_x_.resize(m);
  snap_y_.resize(m);
  snap_ls_.resize(m);
  snap_w_.resize(m);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t cell = slot_cell_[i];
    if (cell == kNoCell) continue;
    const std::uint32_t k = cell_fill_[cell]++;
    snap_x_[k] = positions[i].x;
    snap_y_[k] = positions[i].y;
    // log(strength) is read for every neighbor of every shift step; pay
    // std::log once per particle here.
    snap_ls_[k] = std::log(strengths[i]);
    snap_w_[k] = weights[i];
  }
}

std::vector<std::uint32_t> MeanShiftEstimator::select_seeds(
    std::span<const Point2> positions, std::span<const double> weights) const {
  // Deterministic stratified sampling proportional to weight: draw several
  // strata per requested seed, then thin by spatial separation. Mass-heavy
  // regions receive seeds in proportion to their mass, so every cluster
  // whose basin holds >~ 1/(4*max_seeds) of the weight is seeded. (Ranking
  // particles by weight would be wrong: local resampling leaves weights
  // near-uniform and the ranking would sort floating-point noise.)
  double total = 0.0;
  for (const double w : weights) total += std::max(w, 0.0);
  if (total <= 0.0) return {};

  const std::size_t strata = std::max<std::size_t>(4 * cfg_.max_seeds, 256);
  std::vector<std::uint32_t> seeds;
  const double sep2 = square(cfg_.seed_separation);
  const double step = total / static_cast<double>(strata);

  double cumulative = 0.0;
  std::size_t i = 0;
  for (std::size_t j = 0; j < strata && seeds.size() < cfg_.max_seeds; ++j) {
    const double target = (static_cast<double>(j) + 0.5) * step;
    while (i + 1 < weights.size() && cumulative + std::max(weights[i], 0.0) < target) {
      cumulative += std::max(weights[i], 0.0);
      ++i;
    }
    bool far_enough = true;
    for (const auto s : seeds) {
      // The index check matters when seed_separation == 0: 0 < 0 is false,
      // so the distance test alone would admit the same particle once per
      // stratum and burn max_seeds duplicate ascents.
      if (s == static_cast<std::uint32_t>(i) || distance2(positions[i], positions[s]) < sep2) {
        far_enough = false;
        break;
      }
    }
    if (far_enough) seeds.push_back(static_cast<std::uint32_t>(i));
  }
  return seeds;
}

MeanShiftEstimator::Ascent MeanShiftEstimator::ascend(Point2 seed_pos, double seed_log_strength,
                                                      std::span<const Mode> basins) const {
  const double h2 = square(cfg_.bandwidth_xy);
  const double hs2 = square(cfg_.bandwidth_log_strength);
  const double radius = 3.0 * cfg_.bandwidth_xy;
  const double r2 = radius * radius;
  // Strength differences count in spatial units, as in the shift test.
  const double strength_scale = cfg_.bandwidth_xy / cfg_.bandwidth_log_strength;
  const double capture = cfg_.bandwidth_xy / kCaptureDivisor;

  Point2 x = seed_pos;
  double s = seed_log_strength;
  double density = 0.0;
  const bool gaussian = cfg_.kernel == KernelType::kGaussian;
  const simd::Kernels& ker = simd::kernels();
  simd::AVector<double>& profile = profile_scratch();
  const double* sx = snap_x_.data();
  const double* sy = snap_y_.data();
  const double* sls = snap_ls_.data();
  const double* sw = snap_w_.data();

  Ascent out;
  for (std::size_t iter = 0; iter < cfg_.max_iterations; ++iter) {
    ++out.steps;
    // The cells of the 3h box around x, row by row: each row's cells are
    // adjacent in the snapshot, so a row is one contiguous span. The kernel
    // profile k_i = w_i * phi(e_i) is +0.0 beyond the 3h disk, and zero
    // terms leave the in-order sums unchanged — the neighbours, their order
    // and the accumulation order are those of a radius query on the grid.
    const auto [cx0, cy0] = cell_of(Point2{x.x - radius, x.y - radius});
    const auto [cx1, cy1] = cell_of(Point2{x.x + radius, x.y + radius});
    Point2 num_pos{0.0, 0.0};
    double num_s = 0.0;
    double denom = 0.0;
    for (std::size_t cy = cy0; cy <= cy1; ++cy) {
      const std::uint32_t begin = cell_start_[cy * nx_ + cx0];
      const std::size_t n = cell_start_[cy * nx_ + cx1 + 1] - begin;
      if (n == 0) continue;
      if (profile.size() < n) profile.resize(n);
      // Gaussian profile exp(-e), or the Epanechnikov profile 1 - e/4.5
      // (parabola hitting zero at the same 3-sigma truncation edge).
      ker.meanshift_profile(gaussian, x.x, x.y, s, h2, hs2, r2, sx + begin, sy + begin,
                            sls + begin, sw + begin, profile.data(), n);
      for (std::size_t j = 0; j < n; ++j) {
        const double k = profile[j];
        num_pos.x += k * sx[begin + j];
        num_pos.y += k * sy[begin + j];
        num_s += k * sls[begin + j];
        denom += k;
      }
    }
    if (denom <= 0.0) {  // seed stranded in empty space
      out.mode = Mode{x, s, 0.0};
      return out;
    }

    const Point2 new_pos = (1.0 / denom) * num_pos;
    const double new_s = num_s / denom;
    const double shift = distance(new_pos, x) + strength_scale * std::abs(new_s - s);
    x = new_pos;
    s = new_s;
    density = denom;
    if (shift < cfg_.convergence_eps) {
      out.converged = true;
      break;
    }
    for (const Mode& b : basins) {
      if (distance(x, b.pos) + strength_scale * std::abs(s - b.log_strength) < capture) {
        out.mode = b;
        out.captured = true;
        return out;
      }
    }
  }
  out.mode = Mode{x, s, density};
  return out;
}

std::vector<SourceEstimate> MeanShiftEstimator::estimate(std::span<const Point2> positions,
                                                         std::span<const double> strengths,
                                                         std::span<const double> weights) {
  require(positions.size() == strengths.size() && positions.size() == weights.size(),
          "positions/strengths/weights must have equal length");
  work_ = MeanShiftWork{};
  if (positions.empty()) return {};
  const double total_weight = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total_weight <= 0.0) return {};

  build_snapshot(positions, strengths, weights);

  // Seeds ascend in fixed waves, in seed order. Most seeds sit on a hill
  // that another seed climbs too; an ascent of a later wave that reaches
  // the top of a hill an earlier wave already climbed stops there. The
  // waves depend only on the seed list, never on the thread count, so the
  // result is the same at any thread count.
  const auto seeds = select_seeds(positions, weights);
  std::vector<Mode> modes(seeds.size());
  std::vector<Ascent> wave(kWaveSize);
  std::vector<Mode> basins;  // modes converged to by finished waves
  work_.ascents = seeds.size();
  for (std::size_t first = 0; first < seeds.size(); first += kWaveSize) {
    const std::size_t count = std::min(kWaveSize, seeds.size() - first);
    pool_->for_each_index(count, [&](std::size_t k) {
      const auto i = seeds[first + k];
      wave[k] = ascend(positions[i], std::log(strengths[i]), basins);
    });
    for (std::size_t k = 0; k < count; ++k) {
      modes[first + k] = wave[k].mode;
      work_.shift_steps += wave[k].steps;
      if (wave[k].captured) {
        ++work_.captured;
      } else if (wave[k].converged) {
        basins.push_back(wave[k].mode);
      }
    }
  }

  // Merge converged points: keep the densest representative of each cluster.
  std::sort(modes.begin(), modes.end(),
            [](const Mode& a, const Mode& b) { return a.density > b.density; });
  std::vector<Mode> kept;
  const double merge2 = square(cfg_.merge_radius);
  for (const auto& m : modes) {
    if (m.density <= 0.0) continue;
    bool is_new = true;
    for (const auto& k : kept) {
      if (distance2(m.pos, k.pos) < merge2) {
        is_new = false;
        break;
      }
    }
    if (is_new) kept.push_back(m);
  }

  // Basin support: each particle contributes its weight to the nearest mode
  // within the kernel's reach (approximate basin assignment — exact basins
  // would need a full ascent per particle). The O(particles x modes) scan is
  // chunked over the pool with per-chunk accumulators merged serially; chunk
  // boundaries are fixed (not per-thread), so the merged sums are
  // bit-identical at any thread count.
  const double assign_radius2 = square(std::max(cfg_.merge_radius, 2.0 * cfg_.bandwidth_xy));
  const double core_radius2 = square(cfg_.bandwidth_xy);
  std::vector<double> support(kept.size(), 0.0);
  std::vector<double> core(kept.size(), 0.0);
  if (!kept.empty()) {
    constexpr std::size_t kChunk = 2048;
    const std::size_t num_chunks = (positions.size() + kChunk - 1) / kChunk;
    std::vector<std::vector<double>> chunk_support(num_chunks);
    std::vector<std::vector<double>> chunk_core(num_chunks);
    pool_->for_each_index(num_chunks, [&](std::size_t c) {
      auto& sup = chunk_support[c];
      auto& cor = chunk_core[c];
      sup.assign(kept.size(), 0.0);
      cor.assign(kept.size(), 0.0);
      const std::size_t begin = c * kChunk;
      const std::size_t end = std::min(positions.size(), begin + kChunk);
      for (std::size_t i = begin; i < end; ++i) {
        if (weights[i] <= 0.0) continue;
        double best_d2 = assign_radius2;
        std::size_t best = kept.size();
        for (std::size_t k = 0; k < kept.size(); ++k) {
          const double d2 = distance2(positions[i], kept[k].pos);
          if (d2 < best_d2) {
            best_d2 = d2;
            best = k;
          }
        }
        if (best < kept.size()) {
          sup[best] += weights[i];
          if (best_d2 <= core_radius2) cor[best] += weights[i];
        }
      }
    });
    for (std::size_t c = 0; c < num_chunks; ++c) {
      for (std::size_t k = 0; k < kept.size(); ++k) {
        support[k] += chunk_support[c][k];
        core[k] += chunk_core[c][k];
      }
    }
  }

  std::vector<SourceEstimate> out;
  for (std::size_t k = 0; k < kept.size(); ++k) {
    const double frac = support[k] / total_weight;
    if (frac < cfg_.min_support) continue;
    // Tightness separates a converged cluster from a patch of diffuse cloud
    // that happens to clear the mass threshold.
    const double tightness = core[k] / support[k];
    if (tightness < cfg_.min_tightness) continue;
    out.push_back(SourceEstimate{kept[k].pos, std::exp(kept[k].log_strength), frac});
  }
  std::sort(out.begin(), out.end(),
            [](const SourceEstimate& a, const SourceEstimate& b) { return a.support > b.support; });
  return out;
}

}  // namespace radloc
