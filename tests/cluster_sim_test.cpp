// ClusterSim battery: analytic-vs-simulated agreement with an explicit
// Poisson band for three sector-loss configs and a device-only one (the
// §7.1.1 second-failure race alone), seeded determinism (bit-identical
// event traces, single-loss replay from the recorded child seed), the
// cluster-wide repair-bandwidth cap under a trace-driven concurrent-failure
// storm (processor sharing stretches completions to k x solo), and the
// data-path validation harness that replays drawn masks — including
// correlated bursts — onto a real on-disk StripeStore through the
// production Scrubber and per-sector checksum path.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "reliability/prediction.h"
#include "sim/cluster_sim.h"
#include "sim/scrubber.h"

namespace stair::sim {
namespace {

// Small arrays + inflated rates: enough loss events for a tight band while
// the whole run stays well under a second.
ClusterConfig agreement_config(StairConfig code, double fixed_p_sec,
                               std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.code = std::move(code);
  cfg.arrays = 32;
  cfg.stripes_per_array = 64;
  cfg.device_bytes = 32.0 * 1024 * 1024;
  cfg.mttf_hours = 500.0;
  cfg.repair_mbps_per_array = 128.0;  // solo rebuild ~0.25 s: tiny vs mttf
  cfg.scrub_period_hours = -1.0;      // fixed-p_sec mode: scrubbing is moot
  cfg.fixed_p_sec = fixed_p_sec;
  cfg.seed = seed;
  cfg.record_trace = false;  // agreement runs are long; skip the strings
  return cfg;
}

// Sizes sim_hours for ~`target` expected loss events, so the Poisson band is
// meaningful without hand-tuning per config.
double hours_for_expected_events(const ClusterConfig& cfg, double target) {
  ClusterSim sim(cfg);
  const auto prediction = reliability::predict_reliability(sim.prediction_query());
  EXPECT_TRUE(std::isfinite(prediction.mttdl_renewal_hours));
  // Per critical episode, not p_arr: a device-only config loses data only
  // through the second-failure race.
  EXPECT_GT(prediction.loss_per_episode, 1e-3) << "config too reliable for a cheap test";
  return target * prediction.mttdl_renewal_hours / static_cast<double>(cfg.arrays);
}

void expect_agreement(ClusterConfig cfg, const char* label) {
  cfg.sim_hours = hours_for_expected_events(cfg, 120.0);
  ClusterSim sim(cfg);
  const auto report = sim.run();
  EXPECT_GT(report.loss_events, 0u) << label;
  EXPECT_TRUE(report.within_band)
      << label << ": observed " << report.loss_events << " losses vs band ["
      << report.band.lo << ", " << report.band.hi << "] (expected "
      << report.band.expected << ", z = " << report.band.z << ")";
  // Roll-up sanity: exposure and the headline unit are populated, and the
  // measured repair amplification is the n-chunk rebuild fan-in. A rebuild
  // cut short by a second failure moves bytes but re-protects none, so
  // overflow losses can only push it above n.
  EXPECT_GT(report.user_pb_years, 0.0);
  EXPECT_GT(report.losses_per_pb_year, 0.0);
  EXPECT_GT(report.rebuilds_completed, 0u);
  const double fan_in = static_cast<double>(cfg.code.n);
  if (report.device_overflow_losses == 0)
    EXPECT_NEAR(report.repair_amplification, fan_in, 0.05) << label;
  else
    EXPECT_GT(report.repair_amplification, fan_in) << label;
}

TEST(ClusterSimAgreement, StairE1WithinBand) {
  expect_agreement(
      agreement_config({.n = 4, .r = 4, .m = 1, .e = {1}, .w = 8}, 0.01, 11), "e={1}");
}

TEST(ClusterSimAgreement, StairE12WithinBand) {
  expect_agreement(
      agreement_config({.n = 6, .r = 4, .m = 1, .e = {1, 2}, .w = 8}, 0.02, 12),
      "e={1,2}");
}

// Latent sectors at an inflated p_sec with second-device losses negligible:
// the wide-stripe STAIR(8,16,1,(1,2)) code.
TEST(ClusterSimAgreement, StairR16E12WithinBand) {
  expect_agreement(
      agreement_config({.n = 8, .r = 16, .m = 1, .e = {1, 2}, .w = 8}, 2e-3, 17),
      "(8,16,1,(1,2))");
}

// Sector failures off: every loss is a second device failing mid-rebuild,
// made common by a 50-hour rebuild against a 1000-hour MTTF.
TEST(ClusterSimAgreement, DeviceOnlyWithinBand) {
  auto cfg = agreement_config({.n = 8, .r = 8, .m = 1, .e = {1}, .w = 8}, 0.0, 5);
  cfg.mttf_hours = 1000.0;
  cfg.repair_mbps_per_array = cfg.device_bytes / (1024.0 * 1024.0) / (50.0 * 3600.0);
  expect_agreement(cfg, "device-only");
}

TEST(ClusterSimAgreement, PredictionQueryInvertsStripeGeometry) {
  const auto cfg = agreement_config({.n = 4, .r = 4, .m = 1, .e = {1}, .w = 8}, 0.01, 1);
  const auto q = ClusterSim(cfg).prediction_query();
  // Eq. 11's stripes-per-array, C / (S * r), must land exactly on the
  // simulated count — that is what makes p_arr comparable.
  EXPECT_EQ(static_cast<std::size_t>(
                std::floor(q.system.device_bytes /
                           (q.system.sector_bytes * static_cast<double>(q.system.r)))),
            cfg.stripes_per_array);
  const double solo_hours =
      cfg.device_bytes / (cfg.repair_mbps_per_array * 1024.0 * 1024.0 * 3600.0);
  EXPECT_NEAR(q.system.rebuild_hours, solo_hours, 1e-12);
}

// --- seeded determinism -----------------------------------------------------

TEST(ClusterSimReplay, TracesAreBitIdenticalForAFixedSeed) {
  auto cfg = agreement_config({.n = 4, .r = 4, .m = 1, .e = {1}, .w = 8}, 0.02, 42);
  cfg.record_trace = true;
  cfg.sim_hours = 400.0;
  const auto a = ClusterSim(cfg).run();
  const auto b = ClusterSim(cfg).run();
  ASSERT_GT(a.trace.size(), 0u);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i)
    ASSERT_EQ(a.trace[i], b.trace[i]) << "trace diverges at event " << i;
  ASSERT_EQ(a.losses.size(), b.losses.size());
  for (std::size_t i = 0; i < a.losses.size(); ++i) {
    EXPECT_EQ(a.losses[i].time_hours, b.losses[i].time_hours);
    EXPECT_EQ(a.losses[i].episode_seed, b.losses[i].episode_seed);
    EXPECT_EQ(a.losses[i].mask, b.losses[i].mask);
  }
}

TEST(ClusterSimReplay, LossEventsReplayFromChildSeedAlone) {
  auto cfg = agreement_config({.n = 4, .r = 4, .m = 1, .e = {1}, .w = 8}, 0.02, 7);
  cfg.sim_hours = 600.0;
  ClusterSim sim(cfg);
  const auto report = sim.run();
  std::size_t replayed = 0;
  for (const auto& ev : report.losses) {
    if (ev.kind != LossKind::kSectorLoss) continue;
    const auto again = sim.replay_loss(ev);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->stripe, ev.stripe);
    EXPECT_EQ(again->mask, ev.mask);
    if (++replayed == 5) break;
  }
  EXPECT_GT(replayed, 0u) << "run produced no sector-loss events to replay";
}

// --- repair-bandwidth cap ---------------------------------------------------

TEST(ClusterSimRepairCap, ConcurrentRebuildsShareTheCap) {
  ClusterConfig cfg;
  cfg.code = {.n = 4, .r = 4, .m = 1, .e = {1}, .w = 8};
  cfg.arrays = 8;
  cfg.stripes_per_array = 16;
  cfg.device_bytes = 8.0 * 1024 * 1024;
  cfg.mttf_hours = 1e12;  // no natural failures: the trace drives everything
  cfg.repair_mbps_per_array = 256.0;
  cfg.repair_cap_mbps = 256.0;  // three rebuilds -> each gets a third
  cfg.scrub_period_hours = -1.0;
  cfg.sim_hours = 1.0;
  cfg.seed = 3;
  const double t0 = 0.001;
  for (std::size_t a = 0; a < 3; ++a)
    cfg.injected_failures.push_back({t0, a, 0});

  const auto report = ClusterSim(cfg).run();
  EXPECT_EQ(report.device_failures, 3u);
  EXPECT_EQ(report.rebuilds_completed, 3u);
  EXPECT_EQ(report.max_concurrent_rebuilds, 3u);
  EXPECT_LE(report.max_aggregate_repair_mbps, cfg.repair_cap_mbps * 1.0001);
  EXPECT_EQ(report.loss_events, 0u);

  // Fair sharing: all three finish together at t0 + 3 x solo rebuild time.
  const double solo_hours =
      cfg.device_bytes / (cfg.repair_mbps_per_array * 1024.0 * 1024.0 * 3600.0);
  std::vector<double> done_at;
  for (const auto& line : report.trace) {
    if (line.find("rebuilt") == std::string::npos) continue;
    done_at.push_back(std::strtod(line.c_str() + 2, nullptr));  // "t=..."
  }
  // Tolerance = the trace's %.9f timestamp resolution.
  ASSERT_EQ(done_at.size(), 3u) << "expected three rebuilt trace lines";
  for (double t : done_at) EXPECT_NEAR(t, t0 + 3.0 * solo_hours, 1e-9);

  // Control: uncapped, the same storm rebuilds at full per-array speed.
  cfg.repair_cap_mbps = 0.0;
  const auto solo = ClusterSim(cfg).run();
  EXPECT_NEAR(solo.max_aggregate_repair_mbps, 3.0 * cfg.repair_mbps_per_array, 1e-6);
  std::vector<double> solo_done;
  for (const auto& line : solo.trace)
    if (line.find("rebuilt") != std::string::npos)
      solo_done.push_back(std::strtod(line.c_str() + 2, nullptr));
  ASSERT_EQ(solo_done.size(), 3u);
  for (double t : solo_done) EXPECT_NEAR(t, t0 + solo_hours, 1e-9);
}

TEST(ClusterSimRepairCap, OverflowWhenSecondInjectedFailureLandsMidRebuild) {
  ClusterConfig cfg;
  cfg.code = {.n = 4, .r = 4, .m = 1, .e = {1}, .w = 8};
  cfg.arrays = 2;
  cfg.stripes_per_array = 16;
  cfg.device_bytes = 64.0 * 1024 * 1024;
  cfg.mttf_hours = 1e12;
  cfg.repair_mbps_per_array = 1.0;  // rebuild takes ~0.018 h: room to overlap
  cfg.scrub_period_hours = -1.0;
  cfg.sim_hours = 1.0;
  cfg.seed = 4;
  cfg.injected_failures.push_back({0.001, 0, 0});
  cfg.injected_failures.push_back({0.002, 0, 2});  // same array, mid-rebuild

  const auto report = ClusterSim(cfg).run();
  ASSERT_EQ(report.loss_events, 1u);
  EXPECT_EQ(report.device_overflow_losses, 1u);
  EXPECT_EQ(report.losses[0].kind, LossKind::kDeviceOverflow);
  EXPECT_EQ(report.losses[0].failed_devices, (std::vector<std::size_t>{0, 2}));
  EXPECT_NEAR(report.losses[0].time_hours, 0.002, 1e-9);
}

// --- data-path validation ---------------------------------------------------

LossEvent craft_loss_event(const ClusterConfig& cfg) {
  const StairCode code(cfg.code);
  InjectorParams sector;
  sector.model = cfg.sector_model;
  sector.p_sec = 0.25;
  sector.b1 = cfg.b1;
  sector.alpha = cfg.alpha;
  for (std::uint64_t seed = 1; seed < 200; ++seed) {
    auto loss = ClusterSim::sample_critical_loss(code, cfg.stripes_per_array,
                                                 sector, {1}, seed);
    if (!loss) continue;
    LossEvent ev;
    ev.time_hours = 1.0;
    ev.array = 0;
    ev.kind = LossKind::kSectorLoss;
    ev.failed_devices = {1};
    ev.episode_seed = seed;
    ev.p_latent = sector.p_sec;
    ev.stripe = loss->stripe;
    ev.mask = loss->mask;
    return ev;
  }
  ADD_FAILURE() << "no seed in [1, 200) produced a loss at p_sec = 0.25";
  return {};
}

TEST(ClusterSimDataPath, CorrelatedBurstLossAgreesWithRealScrubPath) {
  ClusterConfig cfg;
  cfg.code = {.n = 4, .r = 4, .m = 1, .e = {1}, .w = 8};
  cfg.stripes_per_array = 4;
  cfg.sector_model = SectorModel::kCorrelated;  // bursts, end to end
  cfg.validation_stripes = 4;
  cfg.validation_symbol_bytes = 1024;
  cfg.seed = 9;
  const LossEvent ev = craft_loss_event(cfg);
  ASSERT_FALSE(ev.mask.empty());

  ClusterSim sim(cfg);
  // The drawn burst mask replays bit-exactly from its child seed first.
  const auto again = sim.replay_loss(ev);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->mask, ev.mask);

  ValidationStats stats;
  sim.validate_on_data_path(ev, stats);
  stats.finalize();
  EXPECT_TRUE(stats.error.empty()) << stats.error;
  EXPECT_EQ(stats.events_checked, 1u);
  EXPECT_EQ(stats.mismatches, 0u)
      << "production repair path disagreed with the coverage verdict";
  EXPECT_GT(stats.sectors_repaired, 0u);
  EXPECT_GT(stats.calm_samples, 0u);
  EXPECT_GT(stats.storm_samples, 0u);
  EXPECT_GT(stats.rebuild_mbps, 0.0);
}

TEST(ClusterSimDataPath, FullRunValidatesItsOwnLossEvents) {
  ClusterConfig cfg;
  cfg.code = {.n = 4, .r = 4, .m = 1, .e = {1}, .w = 8};
  cfg.arrays = 8;
  cfg.stripes_per_array = 8;
  cfg.device_bytes = 4.0 * 1024 * 1024;
  cfg.mttf_hours = 200.0;
  cfg.repair_mbps_per_array = 128.0;
  cfg.scrub_period_hours = -1.0;
  cfg.fixed_p_sec = 0.05;
  cfg.sim_hours = 2000.0;
  cfg.seed = 21;
  cfg.validation = ValidationMode::kDataPath;
  cfg.max_validated_events = 1;
  cfg.validation_stripes = 4;
  cfg.validation_symbol_bytes = 1024;

  const auto report = ClusterSim(cfg).run();
  ASSERT_GT(report.sector_losses, 0u) << "sim too short to draw a sector loss";
  EXPECT_EQ(report.validation.events_checked, 1u);
  EXPECT_TRUE(report.validation.error.empty()) << report.validation.error;
  EXPECT_EQ(report.validation.mismatches, 0u);
  EXPECT_GT(report.validation.calm_samples, 0u);
}

}  // namespace
}  // namespace stair::sim
