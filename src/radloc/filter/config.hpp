// Tunables of the fusion-range particle filter (Sec. V).
#pragma once

#include <cstddef>

namespace radloc {

struct FilterConfig {
  /// NP — number of particles. Paper: 2000 for the 100x100 scenarios,
  /// 15000 for the 260x260 ones ("proportional to the area increase").
  std::size_t num_particles = 2000;

  /// Fusion range d_i (Eq. 5): only particles within this distance of the
  /// reporting sensor are touched by an update. Paper: 28 for sensors on a
  /// 20-unit grid ("a particle is within the fusion range of a handful of
  /// sensors").
  double fusion_range = 28.0;

  /// sigma_N — std-dev of the Gaussian position jitter added to duplicated
  /// particles at resampling. Paper: 3.0.
  double resample_noise_sigma = 3.0;

  /// Multiplicative log-normal jitter on the strength of duplicated
  /// particles: strength *= exp(N(0, sigma)). The paper jitters "the
  /// duplicated particles" without giving a strength value; a relative
  /// jitter keeps the 4-1000 uCi range scale-free.
  double strength_jitter_sigma = 0.10;

  /// Fraction of resampled slots replaced by fresh uniform particles so new
  /// sources in emptied regions are eventually found. Paper: "e.g., 5%".
  double random_replacement_frac = 0.05;

  /// Prior strength range (uCi) for particle initialization and for fresh
  /// replacement particles — the paper's dirty-bomb range, 4-1000 uCi.
  /// The floor matters: hypotheses much weaker than the weakest source of
  /// interest are indistinguishable from background noise and would form
  /// unfalsifiable ghost clusters (false positives).
  double strength_min = 4.0;
  double strength_max = 1000.0;

  /// Draw initial strengths log-uniformly (scale-free over three decades).
  /// false = uniform, the literal reading of "uniformly random particles".
  bool log_uniform_strength = true;

  /// If true the filter is told the true obstacle set and applies Eq. (3)
  /// when predicting sensor readings; if false (the paper's complex-
  /// environment mode) it assumes free space, Eq. (1).
  bool use_known_obstacles = false;

  /// Memoize per-sensor transmission fields on a uniform grid (see
  /// radiation/transmission_cache.hpp); only meaningful with
  /// use_known_obstacles. Default off: the cache trades a bounded
  /// interpolation error for speed, and with it off the likelihood numerics
  /// are exactly the seed's.
  bool use_transmission_cache = false;

  /// Grid pitch (length units) of the memoized transmission field. Smaller
  /// is more accurate; the per-sensor build cost grows as 1/cell^2.
  double transmission_cache_cell = 2.0;

  // --- Fused same-sensor updates. ---

  /// Fuse consecutive same-sensor readings in the batch ingest paths
  /// (process_all / try_process_all and the service drain) into ONE weight
  /// update: log-likelihoods add, so K readings cost one subset traversal,
  /// one exp/renormalize pass, and at most one resample instead of K. The
  /// fused posterior equals the serial one up to floating-point reordering
  /// (tolerance-pinned, DESIGN.md §5.10) and up to resample placement: the
  /// serial path may resample between the K readings, the fused path at most
  /// once after them — both are valid filter iterations over the same
  /// evidence. Requires a static movement model (per-reading prediction
  /// would be skipped otherwise; the filter falls back to serial updates
  /// when a non-static model is set). Default off: the seed path.
  bool fused_batch_updates = false;

  // --- ESS-gated resampling (adaptive/budget_controller.hpp rationale). ---

  /// Skip the local systematic resample + jitter when the fusion subset's
  /// effective sample size fraction ESS/|P'| exceeds this threshold — a
  /// near-uniform subset gains nothing from resampling, so the pass (and its
  /// RNG draws) is pure cost. Any value >= 1.0 disables the gate entirely:
  /// the default path resamples every update, bit-identical to the seed.
  double ess_resample_threshold = 1.0;

  // --- Adaptive particle budget (KLD-sampling controller; opt-in). ---

  /// Enable the budget controller: the localizer periodically resizes the
  /// particle count between min_particles/max_particles based on posterior
  /// complexity (occupied bins), ESS, and mean-shift mode stability. Off by
  /// default: the filter keeps num_particles forever, exactly the seed.
  bool adaptive_budget = false;

  /// Budget bounds. With adaptive_budget on, num_particles (the starting
  /// budget) must lie in [min_particles, max_particles].
  std::size_t min_particles = 500;
  std::size_t max_particles = 4000;

  /// KLD-sampling bound (Fox 2003): with k occupied bins the target count is
  /// (k-1)/(2*eps) * (1 - 2/(9(k-1)) + sqrt(2/(9(k-1))) * z)^3, the particle
  /// count needed to keep the K-L divergence between the sample distribution
  /// and the binned posterior below eps with confidence quantile z.
  double kld_epsilon = 0.05;
  /// Upper standard-normal quantile z_{1-delta}; 2.33 is the 99% bound.
  double kld_quantile = 2.33;

  /// Bin pitch for the occupancy count, in length units. 0 (default) derives
  /// fusion_range / 4 — finer than the particle index so a fusion disk spans
  /// several bins and occupancy tracks posterior spread, not disk count.
  double budget_bin_size = 0.0;

  /// Controller cadence: run once every this many filter iterations
  /// (readings). The default ~ two thirds of a time step of the paper's 6x6
  /// grid, frequent enough that the budget settles within a few steps.
  std::size_t budget_adapt_interval = 24;

  /// Shrinking requires this many consecutive controller runs with a stable
  /// strong-mode set (count within +/-1, displacement under
  /// budget_mode_displacement); the same number of consecutive CHURNING runs
  /// grows the budget instead — hysteresis in both directions.
  std::size_t budget_stability_window = 2;

  /// Max nearest-mode displacement (length units) between consecutive
  /// controller runs for the mode set to still count as stable.
  double budget_mode_displacement = 5.0;

  /// Degeneracy alarm: global ESS fraction below this floor grows the budget
  /// by 1.5x toward max_particles regardless of the KLD target.
  double budget_ess_floor = 0.25;
};

}  // namespace radloc
