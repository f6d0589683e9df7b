// Reliability-model tests (§7, Appendix B): the general P_str enumeration
// must reproduce all six closed forms; N_arr must reproduce the paper's
// table exactly; sector models must be proper distributions; MTTDL must
// respond monotonically to its drivers.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "reliability/mttdl.h"
#include "reliability/pstr.h"
#include "reliability/sector_models.h"

namespace stair::reliability {
namespace {

constexpr double kTol = 1e-12;

std::vector<double> test_pmf(std::size_t r) {
  // A deliberately non-tiny pmf so closed-form vs enumeration differences
  // would show up loudly. Decaying geometric-ish tail, normalized via P(0).
  std::vector<double> pchk(r + 1, 0.0);
  double tail = 0.0;
  for (std::size_t i = 1; i <= r; ++i) {
    pchk[i] = 0.05 / std::pow(2.2, static_cast<double>(i));
    tail += pchk[i];
  }
  pchk[0] = 1.0 - tail;
  return pchk;
}

TEST(PstrClosedForms, GeneralEnumerationMatchesEqs19Through23) {
  const std::size_t r = 16, chunks = 7;
  const auto pchk = test_pmf(r);

  for (std::size_t s = 1; s <= 6; ++s) {
    const std::vector<std::size_t> e_s{s};
    EXPECT_NEAR(pstr_stair(pchk, chunks, e_s), pstr_stair_e_s(pchk, chunks, s), kTol)
        << "e=(s), s=" << s;
  }
  for (std::size_t s = 2; s <= 6; ++s) {
    const std::vector<std::size_t> e{1, s - 1};
    EXPECT_NEAR(pstr_stair(pchk, chunks, e), pstr_stair_e_1_s1(pchk, chunks, s), kTol)
        << "e=(1,s-1), s=" << s;
  }
  for (std::size_t s = 4; s <= 8; ++s) {
    const std::vector<std::size_t> e{2, s - 2};
    EXPECT_NEAR(pstr_stair(pchk, chunks, e), pstr_stair_e_2_s2(pchk, chunks, s), kTol)
        << "e=(2,s-2), s=" << s;
  }
  for (std::size_t s = 3; s <= 7; ++s) {
    const std::vector<std::size_t> e{1, 1, s - 2};
    EXPECT_NEAR(pstr_stair(pchk, chunks, e), pstr_stair_e_11_s2(pchk, chunks, s), kTol)
        << "e=(1,1,s-2), s=" << s;
  }
  for (std::size_t s = 1; s <= 5; ++s) {
    const std::vector<std::size_t> ones(s, 1);
    EXPECT_NEAR(pstr_stair(pchk, chunks, ones), pstr_stair_e_ones(pchk, chunks, s), kTol)
        << "e=(1...1), s=" << s;
  }
}

TEST(PstrClosedForms, GeneralSdMatchesEqs24Through26) {
  const auto pchk = test_pmf(16);
  for (std::size_t s = 1; s <= 3; ++s)
    EXPECT_NEAR(pstr_sd(pchk, 7, s), pstr_sd_closed(pchk, 7, s), kTol) << "s=" << s;
  EXPECT_THROW(pstr_sd_closed(pchk, 7, 4), std::invalid_argument);
}

TEST(PstrProperties, OrderingAcrossCodes) {
  const auto pchk = test_pmf(16);
  const std::size_t chunks = 7;
  // RS (no sector tolerance) is worst; more coverage is monotonically better;
  // SD with s dominates any STAIR e with sum s (SD covers all placements).
  const double rs = pstr_rs(pchk, chunks);
  const std::vector<std::size_t> e12{1, 2};
  const std::vector<std::size_t> e3{3};
  const double st12 = pstr_stair(pchk, chunks, e12);
  const double st3 = pstr_stair(pchk, chunks, e3);
  const double sd3 = pstr_sd(pchk, chunks, 3);
  EXPECT_GT(rs, st12);
  EXPECT_GT(rs, st3);
  EXPECT_LE(sd3, st12 + kTol);
  EXPECT_LE(sd3, st3 + kTol);

  // Wider coverage shrinks P_str: e=(1,2) covers strictly more than e=(1,1).
  const std::vector<std::size_t> e11{1, 1};
  EXPECT_LT(st12, pstr_stair(pchk, chunks, e11));
}

TEST(PstrProperties, StairEquivalencesAtTheExtremes) {
  const auto pchk = test_pmf(8);
  // e = (1) equals SD/PMDS with s = 1 (§2).
  const std::vector<std::size_t> e1{1};
  EXPECT_NEAR(pstr_stair(pchk, 6, e1), pstr_sd(pchk, 6, 1), kTol);
  // Zero-probability sector failures: everything is perfectly reliable.
  std::vector<double> clean(9, 0.0);
  clean[0] = 1.0;
  EXPECT_NEAR(pstr_stair(clean, 6, e1), 0.0, kTol);
  EXPECT_NEAR(pstr_rs(clean, 6), 0.0, kTol);
}

TEST(SectorModels, SectorFailureProbabilityMatchesEq12) {
  const double p_bit = 1e-12;
  const double p_sec = sector_failure_prob(p_bit, 512);
  EXPECT_NEAR(p_sec, 512 * 8 * p_bit, p_sec * 1e-6);  // linear regime
  EXPECT_GT(sector_failure_prob(1e-4, 512), 0.3);     // saturating regime is sane
  EXPECT_LT(sector_failure_prob(1e-4, 512), 1.0);
}

TEST(SectorModels, IndependentPmfIsBinomial) {
  const double p = 1e-3;
  const std::size_t r = 16;
  const auto pmf = independent_chunk_pmf(p, r);
  double total = 0.0;
  for (double v : pmf) total += v;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_NEAR(pmf[0], std::pow(1.0 - p, 16.0), 1e-15);
  EXPECT_NEAR(pmf[1], 16.0 * p * std::pow(1.0 - p, 15.0), 1e-15);
  EXPECT_NEAR(pmf[2], 120.0 * p * p * std::pow(1.0 - p, 14.0), 1e-15);
}

// The degenerate rates are point masses, not 0 * log(0) NaNs: p_sec = 0 is a
// device-only model's input.
TEST(SectorModels, IndependentPmfDegenerateRatesArePointMasses) {
  const std::size_t r = 8;
  std::vector<double> none(r + 1, 0.0), all(r + 1, 0.0);
  none[0] = 1.0;
  all[r] = 1.0;
  EXPECT_EQ(independent_chunk_pmf(0.0, r), none);
  EXPECT_EQ(independent_chunk_pmf(1.0, r), all);
}

TEST(SectorModels, BurstDistributionIsProper) {
  for (const auto& [b1, alpha] : std::vector<std::pair<double, double>>{
           {0.9, 1.0}, {0.98, 1.79}, {0.99, 2.0}, {0.999, 3.0}, {0.9999, 4.0}}) {
    const BurstDistribution dist(b1, alpha);
    const auto pmf = dist.pmf(16);
    double total = 0.0;
    for (double v : pmf) total += v;
    EXPECT_NEAR(total, 1.0, 1e-12) << "b1=" << b1;
    EXPECT_NEAR(pmf[1], b1, 1e-12);
    // Heavier tails (smaller alpha) -> longer mean bursts.
    EXPECT_GE(dist.mean(16), 1.0);
  }
  EXPECT_GT(BurstDistribution(0.9, 1.0).mean(16), BurstDistribution(0.9, 4.0).mean(16));
  // B is close to 1 sector for field-typical parameters (§7.1.2 quotes 1.0291).
  EXPECT_NEAR(BurstDistribution(0.98, 1.79).mean(16), 1.03, 0.08);
}

TEST(SectorModels, CorrelatedPmfConcentratesMassInBursts) {
  const double p_sec = 1e-4;
  const BurstDistribution bursts(0.9, 1.0);  // very bursty
  const auto corr = correlated_chunk_pmf(p_sec, bursts, 16);
  const auto indep = independent_chunk_pmf(p_sec, 16);
  double total = 0.0;
  for (double v : corr) total += v;
  EXPECT_NEAR(total, 1.0, 1e-12);
  // Multi-sector losses in one chunk are vastly more likely when correlated.
  EXPECT_GT(corr[3], indep[3] * 100.0);
}

TEST(Mttdl, NarrTableReproducesThePaper) {
  // §7.2: N_arr for s = 0..12 at U = 10 PB, C = 300 GB, n = 8, r = 16, m = 1.
  const SystemParams p;
  const std::vector<std::size_t> expected{4994, 5039, 5085, 5131, 5179, 5227, 5276,
                                          5327, 5378, 5430, 5483, 5538, 5593};
  for (std::size_t s = 0; s <= 12; ++s) {
    const double eff = storage_efficiency(p.n, p.r, p.m, s);
    EXPECT_EQ(num_arrays(p, eff), expected[s]) << "s=" << s;
  }
}

TEST(Mttdl, EfficiencyMatchesEq8) {
  EXPECT_DOUBLE_EQ(storage_efficiency(8, 16, 1, 0), 112.0 / 128.0);
  EXPECT_DOUBLE_EQ(storage_efficiency(8, 16, 1, 3), 109.0 / 128.0);
  EXPECT_DOUBLE_EQ(storage_efficiency(8, 4, 2, 4), (24.0 - 4.0) / 32.0);
}

TEST(Mttdl, RespondsMonotonicallyToDrivers) {
  const SystemParams p;
  // Smaller P_str -> larger MTTDL.
  EXPECT_GT(mttdl_system(p, 1, 1e-15), mttdl_system(p, 1, 1e-12));
  // With identical P_str, more parity sectors only cost arrays (denominator).
  EXPECT_GT(mttdl_system(p, 0, 1e-13), mttdl_system(p, 12, 1e-13));
  // Zero P_str: bounded by the pure double-failure MTTDL.
  const double perfect = mttdl_system(p, 0, 0.0);
  EXPECT_GT(perfect, mttdl_system(p, 0, 1e-16));
}

TEST(Mttdl, EndToEndRsVsStairGapAtDatasheetPbit) {
  // Figure 17(a)'s headline: at P_bit = 1e-14 under the independent model,
  // STAIR/SD with s = 1 beat RS by more than two orders of magnitude.
  const SystemParams p;
  const double p_sec = sector_failure_prob(1e-14, 512);
  const auto pchk = independent_chunk_pmf(p_sec, p.r);
  const std::size_t chunks = p.n - p.m;

  const double rs = mttdl_system(p, 0, pstr_rs(pchk, chunks));
  const std::vector<std::size_t> e1{1};
  const double st1 = mttdl_system(p, 1, pstr_stair(pchk, chunks, e1));
  EXPECT_GT(st1, rs * 100.0);
}

TEST(Mttdl, MarkovModelGuardsItsAssumptions) {
  SystemParams p;
  p.m = 2;
  EXPECT_THROW(mttdl_array(p, 1e-6), std::invalid_argument);
}

}  // namespace
}  // namespace stair::reliability
