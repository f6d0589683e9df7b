// Autotuner decision logic under an injected (deterministic) probe table:
// layout crossover, slice-threshold scaling and clamping, fallback paths
// (disabled, unmeasured, forced layout), profile JSON round-trips, the tune
// file save/load cycle, and the measured cache-budget hook into
// gf::region_cache_budget. No probing runs here — every profile is faked via
// set_profile_for_testing, so the assertions are exact arithmetic.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>

#include "gf/kernel.h"
#include "gf/region.h"
#include "stair/autotune.h"

namespace stair {
namespace {

// Restores every global the tests poke: tuner profile/override, installed
// cache budget, layout pin.
struct TunerGuard {
  ~TunerGuard() {
    Autotune::instance().reset_for_testing();
    gf::set_region_cache_budget(0);
    gf::reset_layout();
  }
};

TuneCell cell(gf::Backend b, gf::RegionLayout l, int w, std::size_t bytes, double mbps) {
  return TuneCell{static_cast<int>(b), static_cast<int>(l), w, bytes, mbps};
}

// A fully deterministic profile for the currently active backend:
//   w=16: standard 1000 MB/s, altmap 8000 MB/s, convert 500 MB/s
//   w=8:  standard 50000 MB/s (exercises the slice-threshold upper clamp)
//   w=32: left unmeasured (exercises the fallback)
//   dispatch overhead 2000 ns
// Layout crossover at w=16: cost_std = ops/1000, cost_alt = ops/8000 + 2/500
// — equal at ops = (2/500) / (1/1000 - 1/8000) ≈ 4.57.
TuneProfile fake_profile() {
  const gf::Backend bk = gf::active_backend();
  TuneProfile p;
  p.measured = true;
  p.fingerprint = "fake";
  p.dispatch_overhead_ns = 2000.0;
  p.cells.push_back(cell(bk, gf::RegionLayout::kStandard, 16, 65536, 1000.0));
  p.cells.push_back(cell(bk, gf::RegionLayout::kAltmap, 16, 65536, 8000.0));
  p.cells.push_back(cell(bk, gf::RegionLayout::kStandard, 8, 65536, 50000.0));
  p.convert_cells.push_back(cell(bk, gf::RegionLayout::kAltmap, 16, 65536, 500.0));
  return p;
}

bool layout_env_pinned() { return std::getenv("STAIR_GF_LAYOUT") != nullptr; }

TEST(AutotuneDecisionTest, LayoutCrossoverFollowsMeasuredCosts) {
  if (layout_env_pinned()) GTEST_SKIP() << "STAIR_GF_LAYOUT pins the layout";
  TunerGuard guard;
  auto& tuner = Autotune::instance();
  tuner.set_enabled_for_testing(1);
  tuner.set_profile_for_testing(fake_profile());

  // Below the measured crossover (~4.57 ops/region) the conversion round
  // trip costs more than the altmap speedup recovers.
  EXPECT_EQ(tuner.choose_layout(16, 1.0, 65536), gf::RegionLayout::kStandard);
  EXPECT_EQ(tuner.choose_layout(16, 4.0, 65536), gf::RegionLayout::kStandard);
  // Above it, altmap wins.
  EXPECT_EQ(tuner.choose_layout(16, 5.0, 65536), gf::RegionLayout::kAltmap);
  EXPECT_EQ(tuner.choose_layout(16, 100.0, 65536), gf::RegionLayout::kAltmap);
}

TEST(AutotuneDecisionTest, TinyRegionsNeverConvert) {
  if (layout_env_pinned()) GTEST_SKIP() << "STAIR_GF_LAYOUT pins the layout";
  TunerGuard guard;
  auto& tuner = Autotune::instance();
  tuner.set_enabled_for_testing(1);
  tuner.set_profile_for_testing(fake_profile());

  // Shorter than one altmap block: conversion is pure overhead regardless
  // of the measured gap.
  EXPECT_EQ(tuner.choose_layout(16, 1000.0, gf::kAltmapBlockBytes - 1),
            gf::RegionLayout::kStandard);
  EXPECT_EQ(tuner.choose_layout(16, 1000.0, gf::kAltmapBlockBytes),
            gf::RegionLayout::kAltmap);
}

TEST(AutotuneDecisionTest, FallbacksDeferToFixedHeuristics) {
  if (layout_env_pinned()) GTEST_SKIP() << "STAIR_GF_LAYOUT pins the layout";
  TunerGuard guard;
  auto& tuner = Autotune::instance();
  tuner.set_enabled_for_testing(1);
  tuner.set_profile_for_testing(fake_profile());

  // Byte-linear widths never consult the table (layouts coincide).
  EXPECT_EQ(tuner.choose_layout(8, 100.0, 65536), gf::RegionLayout::kStandard);
  // w=32 cells are unmeasured in the fake profile -> preferred_layout.
  EXPECT_EQ(tuner.choose_layout(32, 100.0, 65536), gf::preferred_layout(32));

  // Disabled -> preferred_layout and the fixed 4096 threshold, even with a
  // profile installed and whatever the job's size.
  tuner.set_enabled_for_testing(0);
  EXPECT_EQ(tuner.choose_layout(16, 1.0, 65536), gf::preferred_layout(16));
  EXPECT_EQ(tuner.min_slice_bytes(16, gf::RegionLayout::kAltmap), 4096u);
  EXPECT_EQ(tuner.min_slice_bytes(16, gf::RegionLayout::kAltmap, 224), 4096u);
  tuner.set_enabled_for_testing(1);

  // A forced layout always wins over the measured decision.
  gf::force_layout(gf::RegionLayout::kAltmap);
  EXPECT_EQ(tuner.choose_layout(16, 1.0, 65536), gf::RegionLayout::kAltmap);
  gf::force_layout(gf::RegionLayout::kStandard);
  EXPECT_EQ(tuner.choose_layout(16, 100.0, 65536), gf::RegionLayout::kStandard);
  gf::reset_layout();
}

// Every off spelling of STAIR_AUTOTUNE disables the tuner, unset or empty
// leaves it on, and a typo throws instead of leaving it on in silence: the
// parse STAIR_IO_DIRECT, STAIR_IO_SQPOLL and STAIR_NODE_SCRUB share.
TEST(AutotuneDecisionTest, EnvSwitchParsesStrictly) {
  TunerGuard guard;
  auto& tuner = Autotune::instance();
  const char* prev = std::getenv("STAIR_AUTOTUNE");
  const std::optional<std::string> saved = prev ? std::optional<std::string>(prev) : std::nullopt;
  for (const char* off : {"0", "false", "no", "off"}) {
    ::setenv("STAIR_AUTOTUNE", off, 1);
    EXPECT_FALSE(tuner.enabled()) << off;
  }
  for (const char* on : {"1", "true", "yes", "on", ""}) {
    ::setenv("STAIR_AUTOTUNE", on, 1);
    EXPECT_TRUE(tuner.enabled()) << "'" << on << "'";
  }
  for (const char* typo : {"flase", "OFF", "0 ", "disable"}) {
    ::setenv("STAIR_AUTOTUNE", typo, 1);
    EXPECT_THROW(tuner.enabled(), std::runtime_error) << typo;
  }
  ::unsetenv("STAIR_AUTOTUNE");
  EXPECT_TRUE(tuner.enabled());
  if (saved) ::setenv("STAIR_AUTOTUNE", saved->c_str(), 1);
}

TEST(AutotuneDecisionTest, SliceThresholdScalesWithMeasuredRates) {
  TunerGuard guard;
  auto& tuner = Autotune::instance();
  tuner.set_enabled_for_testing(1);
  tuner.set_profile_for_testing(fake_profile());

  // bytes = 8 * overhead_ns * (mbps / 1000) / mult_xors: faster kernels
  // need bigger slices to amortize the same dispatch overhead. The
  // two-argument form sizes a slice for one Mult_XOR.
  EXPECT_EQ(tuner.min_slice_bytes(16, gf::RegionLayout::kStandard),
            std::size_t{16000});  // 8 * 2000 * 1.0
  EXPECT_EQ(tuner.min_slice_bytes(16, gf::RegionLayout::kAltmap),
            std::size_t{128000});  // 8 * 2000 * 8.0
  // w=8 standard at 50 GB/s hits the 256 KiB upper clamp for one pass.
  EXPECT_EQ(tuner.min_slice_bytes(8, gf::RegionLayout::kStandard),
            std::size_t{256 * 1024});

  // A slice replays the whole job, so the floor divides by its Mult_XOR
  // count before the clamp (rounded up to 64-byte granularity).
  EXPECT_EQ(tuner.min_slice_bytes(16, gf::RegionLayout::kStandard, 1), std::size_t{16000});
  EXPECT_EQ(tuner.min_slice_bytes(16, gf::RegionLayout::kStandard, 3),
            std::size_t{5376});  // 16000 / 3 = 5333
  EXPECT_EQ(tuner.min_slice_bytes(16, gf::RegionLayout::kAltmap, 8),
            std::size_t{16000});  // 128000 / 8
  // 800000 / 4 = 200000: below the upper clamp once the job's passes count.
  EXPECT_EQ(tuner.min_slice_bytes(8, gf::RegionLayout::kStandard, 4), std::size_t{200000});
  // The measurement only ever raises the fixed 4096 floor: 16000 / 8 = 2000
  // and 800000 / 952 = 840 both clamp up to it.
  EXPECT_EQ(tuner.min_slice_bytes(16, gf::RegionLayout::kStandard, 8), std::size_t{4096});
  EXPECT_EQ(tuner.min_slice_bytes(8, gf::RegionLayout::kStandard, 952), std::size_t{4096});
  // 0 passes counts as one.
  EXPECT_EQ(tuner.min_slice_bytes(16, gf::RegionLayout::kStandard, 0), std::size_t{16000});
  // Unmeasured (w=32) -> fixed fallback, whatever the job.
  EXPECT_EQ(tuner.min_slice_bytes(32, gf::RegionLayout::kStandard), 4096u);
  EXPECT_EQ(tuner.min_slice_bytes(32, gf::RegionLayout::kStandard, 952), 4096u);

  // A glacial kernel hits the lower clamp, the fixed floor.
  TuneProfile slow = fake_profile();
  slow.cells.push_back(
      cell(gf::active_backend(), gf::RegionLayout::kStandard, 32, 65536, 0.001));
  tuner.set_profile_for_testing(slow);
  EXPECT_EQ(tuner.min_slice_bytes(32, gf::RegionLayout::kStandard), 4096u);
}

TEST(AutotuneProfileTest, CellLookupPicksClosestSize) {
  const gf::Backend bk = gf::active_backend();
  TuneProfile p;
  p.measured = true;
  p.cells.push_back(cell(bk, gf::RegionLayout::kStandard, 16, 64 * 1024, 111.0));
  p.cells.push_back(cell(bk, gf::RegionLayout::kStandard, 16, 256 * 1024, 222.0));

  EXPECT_DOUBLE_EQ(p.mult_xor_mbps(bk, gf::RegionLayout::kStandard, 16, 70000), 111.0);
  EXPECT_DOUBLE_EQ(p.mult_xor_mbps(bk, gf::RegionLayout::kStandard, 16, 1 << 20), 222.0);
  // 0 = "the largest measured size".
  EXPECT_DOUBLE_EQ(p.mult_xor_mbps(bk, gf::RegionLayout::kStandard, 16, 0), 222.0);
  // Unmeasured coordinates return 0.
  EXPECT_DOUBLE_EQ(p.mult_xor_mbps(bk, gf::RegionLayout::kAltmap, 16, 0), 0.0);
  EXPECT_DOUBLE_EQ(p.convert_mbps(bk, 16), 0.0);
}

TEST(AutotuneProfileTest, JsonRoundTripPreservesEveryField) {
  TuneProfile p = fake_profile();
  p.memcpy_mbps = 12345.5;
  p.xor_mbps = 9876.25;
  p.cache_budget_bytes = 1536 * 1024;
  p.fingerprint = "Fake CPU \"quoted\" [scalar+avx2]";  // escaping must survive

  TuneProfile q;
  ASSERT_TRUE(TuneProfile::from_json(p.to_json(), &q));
  EXPECT_EQ(q.version, p.version);
  EXPECT_EQ(q.fingerprint, p.fingerprint);
  EXPECT_EQ(q.measured, p.measured);
  EXPECT_DOUBLE_EQ(q.memcpy_mbps, p.memcpy_mbps);
  EXPECT_DOUBLE_EQ(q.xor_mbps, p.xor_mbps);
  EXPECT_DOUBLE_EQ(q.dispatch_overhead_ns, p.dispatch_overhead_ns);
  EXPECT_EQ(q.cache_budget_bytes, p.cache_budget_bytes);
  ASSERT_EQ(q.cells.size(), p.cells.size());
  for (std::size_t i = 0; i < p.cells.size(); ++i) {
    EXPECT_EQ(q.cells[i].backend, p.cells[i].backend);
    EXPECT_EQ(q.cells[i].layout, p.cells[i].layout);
    EXPECT_EQ(q.cells[i].w, p.cells[i].w);
    EXPECT_EQ(q.cells[i].region_bytes, p.cells[i].region_bytes);
    EXPECT_DOUBLE_EQ(q.cells[i].mbps, p.cells[i].mbps);
  }
  ASSERT_EQ(q.convert_cells.size(), p.convert_cells.size());
  EXPECT_DOUBLE_EQ(q.convert_cells[0].mbps, p.convert_cells[0].mbps);
}

// A number its field cannot represent is malformed too: the parse fails
// (so ensure() re-probes) instead of casting it. Integer fields take finite,
// integral, in-range values; rates take finite, non-negative ones.
TEST(AutotuneProfileTest, MalformedJsonIsRejected) {
  for (const char* doc : {
           "",
           "not json at all",
           R"({"version": )",
           R"({"version": 1e300})",
           R"({"version": 1.5})",
           R"({"cache_budget_bytes": -1})",
           R"({"cache_budget_bytes": 1e20})",
           R"({"memcpy_mbps": inf})",
           R"({"xor_mbps": nan})",
           R"({"dispatch_overhead_ns": -3})",
           R"({"cells": [{"backend": 1e99}]})",
           R"({"cells": [{"region_bytes": -4096}]})",
           R"({"convert": [{"w": 16.5}]})",
           R"({"convert": [{"mbps": -inf}]})",
       }) {
    TuneProfile q;
    q.memcpy_mbps = 42.0;  // sentinel: must stay untouched on failure
    EXPECT_FALSE(TuneProfile::from_json(doc, &q)) << doc;
    EXPECT_DOUBLE_EQ(q.memcpy_mbps, 42.0) << doc;
  }

  // The representable extremes still parse, exactly.
  TuneProfile q;
  ASSERT_TRUE(TuneProfile::from_json(
      R"({"version": -2147483648, "cache_budget_bytes": 18446744073709549568,)"
      R"( "xor_mbps": 0, "cells": [{"backend": 2147483647, "mbps": 0}]})",
      &q));
  EXPECT_EQ(q.version, -2147483647 - 1);
  EXPECT_EQ(q.cache_budget_bytes, 18446744073709549568u);  // 2^64 - 2048
  EXPECT_DOUBLE_EQ(q.xor_mbps, 0.0);
  ASSERT_EQ(q.cells.size(), 1u);
  EXPECT_EQ(q.cells[0].backend, 2147483647);
}

TEST(AutotuneProfileTest, TuneFileSaveLoadRoundTrips) {
  const std::string path = ::testing::TempDir() + "stair_autotune_test.json";
  std::remove(path.c_str());

  TuneProfile p = fake_profile();
  p.cache_budget_bytes = 2048 * 1024;
  ASSERT_TRUE(Autotune::save_profile(p, path));

  TuneProfile q;
  ASSERT_TRUE(Autotune::load_profile(path, &q));
  EXPECT_EQ(q.fingerprint, p.fingerprint);
  EXPECT_EQ(q.cache_budget_bytes, p.cache_budget_bytes);
  ASSERT_EQ(q.cells.size(), p.cells.size());
  EXPECT_DOUBLE_EQ(q.cells[1].mbps, p.cells[1].mbps);

  EXPECT_FALSE(Autotune::load_profile(path + ".missing", &q));
  std::remove(path.c_str());
}

TEST(AutotuneProfileTest, SaveProfileCreatesNestedParentDirs) {
  // XDG-style tune paths are several levels deep under a cache dir that may
  // not exist yet; save_profile must create the whole chain, not one level.
  const std::string base = ::testing::TempDir() + "stair_autotune_nest";
  const std::string path = base + "/a/b/c/tune.json";
  std::filesystem::remove_all(base);

  TuneProfile p = fake_profile();
  ASSERT_TRUE(Autotune::save_profile(p, path));

  TuneProfile q;
  ASSERT_TRUE(Autotune::load_profile(path, &q));
  EXPECT_EQ(q.fingerprint, p.fingerprint);
  std::filesystem::remove_all(base);
}

TEST(AutotuneProfileTest, SaveProfileSurfacesUnwritablePath) {
  // A regular file sitting where a parent dir should be: save must report
  // failure instead of silently dropping the profile.
  const std::string base = ::testing::TempDir() + "stair_autotune_blocker";
  std::filesystem::remove_all(base);
  {
    std::ofstream blocker(base);
    blocker << "not a directory\n";
  }
  EXPECT_FALSE(Autotune::save_profile(fake_profile(), base + "/sub/tune.json"));
  std::filesystem::remove_all(base);
}

TEST(AutotuneCacheBudgetTest, InstalledBudgetDrivesRegionCacheBudget) {
  TunerGuard guard;

  const std::size_t detected = gf::region_cache_budget();
  EXPECT_GE(detected, 128u * 1024);

  gf::set_region_cache_budget(512 * 1024);
  EXPECT_EQ(gf::region_cache_budget(), 512u * 1024);

  // The budget feeds straight into slice sizing: a tighter budget can only
  // shrink (never grow) the cache-aware slice for the same workload.
  const std::size_t tight = gf::cache_aware_slice_bytes(1 << 20, 4, 8);
  gf::set_region_cache_budget(4 * 1024 * 1024);
  const std::size_t roomy = gf::cache_aware_slice_bytes(1 << 20, 4, 8);
  EXPECT_LE(tight, roomy);

  // 0 reverts to detection.
  gf::set_region_cache_budget(0);
  EXPECT_EQ(gf::region_cache_budget(), detected);
}

TEST(AutotuneFingerprintTest, FingerprintIsStableAndNamesBackends) {
  const std::string fp1 = Autotune::cpu_fingerprint();
  const std::string fp2 = Autotune::cpu_fingerprint();
  EXPECT_EQ(fp1, fp2);
  EXPECT_FALSE(fp1.empty());
  // The supported-backend set rides in brackets; scalar is always there.
  EXPECT_NE(fp1.find("scalar"), std::string::npos);
}

}  // namespace
}  // namespace stair
