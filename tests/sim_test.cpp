// Simulator tests: failure-injection statistics matching the configured
// models, and the scrubbing model's limits. (Simulated MTTDL against the
// analytic §7 model lives in cluster_sim_test's agreement battery; byte-exact
// recovery on real stores in scrub_repair_test, cluster_sim_test's data-path
// mode and the soak's scrub sweep.)

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "reliability/sector_models.h"
#include "sim/failure_injector.h"
#include "sim/scrubber.h"

namespace stair::sim {
namespace {

/// Pearson chi-squared statistic over `observed` counts vs `expected`
/// (same total). Buckets with expected < 5 must be merged by the caller.
double chi_squared(const std::vector<double>& observed,
                   const std::vector<double>& expected) {
  double stat = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const double d = observed[i] - expected[i];
    stat += d * d / expected[i];
  }
  return stat;
}

/// Merges the histogram tail so every expected bucket has >= 5 mass;
/// returns (observed, expected) ready for chi_squared.
std::pair<std::vector<double>, std::vector<double>> merge_tail(
    const std::vector<double>& observed, const std::vector<double>& expected) {
  std::vector<double> obs, want;
  double tail_obs = 0.0, tail_want = 0.0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (tail_want > 0.0 || expected[i] < 5.0) {
      tail_obs += observed[i];
      tail_want += expected[i];
    } else {
      obs.push_back(observed[i]);
      want.push_back(expected[i]);
    }
  }
  if (tail_want >= 5.0 || obs.empty()) {
    if (tail_want > 0.0) {
      obs.push_back(tail_obs);
      want.push_back(tail_want);
    }
  } else if (tail_want > 0.0) {
    // Residual tail still under 5: fold it into the last kept bucket so no
    // expected cell is tiny (a near-empty cell makes the statistic explode
    // on a single stray observation).
    obs.back() += tail_obs;
    want.back() += tail_want;
  }
  return {obs, want};
}

/// Wilson–Hilferty upper critical value of chi-squared at p ~ 0.001
/// (z = 3.09): with the fixed seeds below the statistic is deterministic,
/// but the bound documents how much slack a reseed is entitled to.
double chi_squared_critical(std::size_t df) {
  const double d = static_cast<double>(df);
  const double t = 1.0 - 2.0 / (9.0 * d) + 3.09 * std::sqrt(2.0 / (9.0 * d));
  return d * t * t * t;
}

TEST(FailureInjector, IndependentRateMatchesConfig) {
  FailureInjector inj({SectorModel::kIndependent, 0.05}, 9);
  const std::size_t n = 8, r = 16, trials = 400;
  std::size_t losses = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    const auto mask = inj.sample_stripe_mask(n, r, {});
    for (bool b : mask) losses += b;
  }
  const double rate = static_cast<double>(losses) / (trials * n * r);
  EXPECT_NEAR(rate, 0.05, 0.01);
}

TEST(FailureInjector, DeviceFailureMarksWholeChunk) {
  FailureInjector inj({SectorModel::kIndependent, 0.0}, 10);
  const auto mask = inj.sample_stripe_mask(6, 4, {2, 5});
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 6; ++j)
      EXPECT_EQ(mask[i * 6 + j], j == 2 || j == 5);
}

TEST(FailureInjector, CorrelatedModeProducesBursts) {
  InjectorParams params{SectorModel::kCorrelated, 0.02, 0.5, 1.0};  // heavy bursts
  FailureInjector inj(params, 11);
  const std::size_t n = 4, r = 32, trials = 500;
  std::size_t adjacent_pairs = 0, losses = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    const auto mask = inj.sample_stripe_mask(n, r, {});
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < r; ++i) {
        if (!mask[i * n + j]) continue;
        ++losses;
        if (i + 1 < r && mask[(i + 1) * n + j]) ++adjacent_pairs;
      }
  }
  ASSERT_GT(losses, 0u);
  // With b1 = 0.5 and alpha = 1, a large share of lost sectors must sit in
  // vertical runs; under the independent model this ratio would be ~2%.
  EXPECT_GT(static_cast<double>(adjacent_pairs) / static_cast<double>(losses), 0.15);
}

TEST(FailureInjector, IndependentChunkHistogramMatchesPmf) {
  // Shape, not just the mean: the per-chunk failure-count histogram must
  // match Eq. 13's Binomial(r, p_sec) — a chi-squared fit, so a subtly wrong
  // sampler (right rate, wrong clustering) fails even when the marginal
  // rate test above passes.
  const double p_sec = 0.02;
  const std::size_t n = 8, r = 16, trials = 4000;
  FailureInjector inj({SectorModel::kIndependent, p_sec}, 21);

  std::vector<double> observed(r + 1, 0.0);
  for (std::size_t t = 0; t < trials; ++t) {
    const auto mask = inj.sample_stripe_mask(n, r, {});
    for (std::size_t j = 0; j < n; ++j) {
      std::size_t count = 0;
      for (std::size_t i = 0; i < r; ++i) count += mask[i * n + j];
      observed[count] += 1.0;
    }
  }

  const auto pmf = reliability::independent_chunk_pmf(p_sec, r);
  std::vector<double> expected(pmf.size());
  for (std::size_t i = 0; i < pmf.size(); ++i)
    expected[i] = pmf[i] * static_cast<double>(trials * n);

  const auto [obs, want] = merge_tail(observed, expected);
  ASSERT_GE(obs.size(), 4u);  // counts 0..3 individually resolvable
  const double stat = chi_squared(obs, want);
  EXPECT_LT(stat, chi_squared_critical(obs.size() - 1))
      << "buckets=" << obs.size();
}

TEST(FailureInjector, CorrelatedBurstLengthsMatchPareto) {
  // sample_burst_length must reproduce the fitted distribution exactly: mass
  // b1 at length 1, discrete Pareto (scale 2, index alpha) beyond, truncated
  // at r_max with the tail lumped into the last bin — i.e. the same pmf the
  // analytic correlated_chunk_pmf consumes.
  const double b1 = 0.7, alpha = 1.5;
  const std::size_t r_max = 32, draws = 20000;
  FailureInjector inj({SectorModel::kCorrelated, 0.01, b1, alpha}, 22);

  std::vector<double> observed(r_max + 1, 0.0);
  for (std::size_t d = 0; d < draws; ++d) {
    const std::size_t len = inj.sample_burst_length(r_max);
    ASSERT_GE(len, 1u);
    ASSERT_LE(len, r_max);
    observed[len] += 1.0;
  }

  const auto pmf = reliability::BurstDistribution(b1, alpha).pmf(r_max);
  std::vector<double> obs_from1(observed.begin() + 1, observed.end());
  std::vector<double> exp_from1(pmf.size() - 1);
  for (std::size_t i = 1; i < pmf.size(); ++i)
    exp_from1[i - 1] = pmf[i] * static_cast<double>(draws);

  const auto [obs, want] = merge_tail(obs_from1, exp_from1);
  ASSERT_GE(obs.size(), 8u);  // the Pareto tail is individually resolvable
  const double stat = chi_squared(obs, want);
  EXPECT_LT(stat, chi_squared_critical(obs.size() - 1))
      << "buckets=" << obs.size();
}

TEST(FailureInjector, CorrelatedMarginalRateMatchesPSec) {
  // The correlated model reshapes *where* failures land, not how many: the
  // per-sector marginal must stay p_sec (burst starts are thinned by the
  // mean burst length). r = 64 keeps boundary clipping negligible.
  const double p_sec = 0.02;
  FailureInjector inj({SectorModel::kCorrelated, p_sec, 0.7, 1.5}, 23);
  const std::size_t n = 4, r = 64, trials = 2000;
  std::size_t losses = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    const auto mask = inj.sample_stripe_mask(n, r, {});
    for (bool b : mask) losses += b;
  }
  const double rate = static_cast<double>(losses) / (trials * n * r);
  EXPECT_NEAR(rate, p_sec, 0.15 * p_sec);
}

TEST(Scrubber, LatentErrorProbabilityLimits) {
  EXPECT_DOUBLE_EQ(latent_error_probability({100.0, 0.0}), 0.0);
  // Tiny rate: p ~ rate * T / 2 (mid-period exposure).
  const double p = latent_error_probability({100.0, 1e-8});
  EXPECT_NEAR(p, 1e-8 * 100.0 / 2.0, 1e-10);
  // Huge rate: saturates towards 1.
  EXPECT_GT(latent_error_probability({1000.0, 1.0}), 0.99);
  // Longer scrub period -> more exposure.
  EXPECT_LT(scrubbed_p_sec(1e-6, 24.0), scrubbed_p_sec(1e-6, 24.0 * 30));
}

TEST(Scrubber, LatentErrorProbabilityBoundaries) {
  // Degenerate policies are exactly zero exposure, never NaN.
  EXPECT_DOUBLE_EQ(latent_error_probability({0.0, 1e-3}), 0.0);   // period 0
  EXPECT_DOUBLE_EQ(latent_error_probability({24.0, 0.0}), 0.0);   // rate 0
  EXPECT_DOUBLE_EQ(latent_error_probability({0.0, 0.0}), 0.0);

  // rate*t underflows to 0 while both factors are positive: the naive
  // expm1(-x)/x form evaluates 0/0 here.
  const double tiny = latent_error_probability({1e-200, 1e-200});
  EXPECT_FALSE(std::isnan(tiny));
  EXPECT_DOUBLE_EQ(tiny, 0.0);

  // Small-x precision: p = x/2 - x^2/6 + ... — the 1-(expm1 ratio) form
  // loses ~1e-16 absolute to cancellation, swamping the answer at x=1e-12.
  const double x = 1e-12;
  EXPECT_NEAR(latent_error_probability({1.0, x}), x / 2.0, x * 1e-6);

  // Continuity across the series/closed-form switch at x = 1e-4.
  const double below = latent_error_probability({1.0, 0.99e-4});
  const double above = latent_error_probability({1.0, 1.01e-4});
  EXPECT_LT(below, above);
  EXPECT_NEAR(above - below, (1.01e-4 - 0.99e-4) / 2.0, 1e-10);
}

TEST(Scrubber, PassRateMbpsSizesTheScrubTokenBucket) {
  // A 1 GiB store scanned once per hour: 1 GiB / 3600 s in MiB/s.
  const double bytes = 1024.0 * 1024.0 * 1024.0;
  EXPECT_NEAR(pass_rate_mbps(bytes, 1.0), 1024.0 / 3600.0, 1e-9);
  // Halving the period doubles the required rate.
  EXPECT_NEAR(pass_rate_mbps(bytes, 0.5), 2.0 * 1024.0 / 3600.0, 1e-9);
  // Degenerate inputs are 0, not inf/NaN.
  EXPECT_DOUBLE_EQ(pass_rate_mbps(0.0, 24.0), 0.0);
  EXPECT_DOUBLE_EQ(pass_rate_mbps(bytes, 0.0), 0.0);
}

TEST(Scrubber, EffectiveScrubPeriodBoundaries) {
  // 1 GiB scanned at 64 MiB/s: one pass takes 16 s.
  const double bytes = 1024.0 * 1024.0 * 1024.0;
  const double pass_hours = 16.0 / 3600.0;

  // "Scrub continuously" (period 0) means back-to-back passes, so the
  // delivered period is one pass time — not zero exposure.
  EXPECT_NEAR(effective_scrub_period(0.0, bytes, 64.0), pass_hours, 1e-12);
  // A negative period is the same request as zero.
  EXPECT_NEAR(effective_scrub_period(-5.0, bytes, 64.0), pass_hours, 1e-12);
  // Continuous scrubbing with an unbounded scanner really is instant.
  EXPECT_DOUBLE_EQ(effective_scrub_period(0.0, bytes, 0.0), 0.0);

  // A period shorter than one pass is physically undeliverable: clamped up.
  EXPECT_NEAR(effective_scrub_period(pass_hours / 2.0, bytes, 64.0), pass_hours,
              1e-12);
  // A period longer than one pass is delivered as requested.
  EXPECT_DOUBLE_EQ(effective_scrub_period(10.0, bytes, 64.0), 10.0);

  // Degenerate store or unbounded scan: the request passes through (floored
  // at 0 so downstream exposure math never sees a negative period).
  EXPECT_DOUBLE_EQ(effective_scrub_period(5.0, 0.0, 64.0), 5.0);
  EXPECT_DOUBLE_EQ(effective_scrub_period(5.0, bytes, 0.0), 5.0);
  EXPECT_DOUBLE_EQ(effective_scrub_period(-3.0, 0.0, 64.0), 0.0);

  // Round trip with pass_rate_mbps: a scanner sized for period T delivers T.
  const double rate = pass_rate_mbps(bytes, 24.0);
  EXPECT_NEAR(effective_scrub_period(0.0, bytes, rate), 24.0, 1e-9);
  EXPECT_NEAR(effective_scrub_period(24.0, bytes, rate), 24.0, 1e-9);
}

}  // namespace
}  // namespace stair::sim
