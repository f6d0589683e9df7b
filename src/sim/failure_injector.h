// Failure injection: draws device- and sector-failure patterns for stripes
// under the §7.1.2 models (independent sector failures, or correlated bursts
// with the (b1, alpha) Pareto length distribution). Used by the cluster
// reliability simulator, the integration tests, and the examples.
#pragma once

#include <cstdint>
#include <vector>

#include "reliability/sector_models.h"
#include "util/rng.h"

namespace stair::sim {

/// Which §7.1.2 sector-failure model to draw from.
enum class SectorModel { kIndependent, kCorrelated };

/// Injection parameters; b1/alpha are used by the correlated model only.
struct InjectorParams {
  SectorModel model = SectorModel::kIndependent;
  double p_sec = 1e-6;   ///< per-sector failure probability
  double b1 = 0.98;      ///< fraction of length-1 bursts
  double alpha = 1.79;   ///< Pareto tail index for lengths >= 2
};

/// Draws erasure masks over an r x n stripe (stored index = row * n + col).
class FailureInjector {
 public:
  FailureInjector(InjectorParams params, std::uint64_t seed);

  /// Sector failures only: marks lost sectors in every chunk not listed in
  /// `failed_devices`; chunks in `failed_devices` are marked entirely lost.
  std::vector<bool> sample_stripe_mask(std::size_t n, std::size_t r,
                                       const std::vector<std::size_t>& failed_devices);

  /// Draws a burst length from the configured distribution (>= 1).
  std::size_t sample_burst_length(std::size_t r_max);

  Rng& rng() { return rng_; }

 private:
  InjectorParams params_;
  Rng rng_;
  std::vector<double> burst_cdf_;  // rebuilt when r_max changes
  std::size_t burst_cdf_rmax_ = 0;
};

}  // namespace stair::sim
