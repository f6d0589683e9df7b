// Tests for the features layered on the core construction: degraded reads
// (schedule slicing) and the decode-plan cache.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "stair/plan_cache.h"
#include "stair/stair_code.h"
#include "util/rng.h"

namespace stair {
namespace {

// ---------------------------------------------------------------------------
// Degraded reads
// ---------------------------------------------------------------------------

TEST(DegradedRead, RecoversOnlyTheWantedSymbolCheaply) {
  const StairConfig cfg{.n = 16, .r = 16, .m = 2, .e = {1, 1, 2}};
  const StairCode code(cfg);
  StripeBuffer stripe(code, 64);
  std::vector<std::uint8_t> data(stripe.data_size());
  Rng rng(21);
  rng.fill(data);
  stripe.set_data(data);
  code.encode(stripe.view());

  std::vector<std::uint8_t> golden;
  for (const auto& r : stripe.view().stored) golden.insert(golden.end(), r.begin(), r.end());

  // One dead device; read one of its sectors.
  std::vector<bool> lost(cfg.n * cfg.r, false);
  for (std::size_t i = 0; i < cfg.r; ++i) lost[i * cfg.n + 3] = true;
  Rng garbage(5);
  for (std::size_t idx = 0; idx < lost.size(); ++idx)
    if (lost[idx]) garbage.fill(stripe.view().stored[idx]);

  const std::size_t wanted = 9 * cfg.n + 3;
  auto degraded = code.build_degraded_read_schedule(lost, {wanted});
  ASSERT_TRUE(degraded.has_value());
  auto full = code.build_decode_schedule(lost);
  ASSERT_TRUE(full.has_value());
  EXPECT_LT(degraded->mult_xor_count(), full->mult_xor_count() / 4)
      << "reading one sector must cost far less than repairing the device";

  code.execute(*degraded, stripe.view());
  EXPECT_EQ(0, std::memcmp(stripe.view().stored[wanted].data(),
                           golden.data() + wanted * 64, 64));
  // Another lost sector of the same device stays unrepaired (still garbage).
  const std::size_t untouched = 2 * cfg.n + 3;
  EXPECT_NE(0, std::memcmp(stripe.view().stored[untouched].data(),
                           golden.data() + untouched * 64, 64));
}

TEST(DegradedRead, WorksThroughTheGlobalPath) {
  // The wanted symbol sits in a chunk that needs the upstairs pass.
  const StairConfig cfg{.n = 8, .r = 8, .m = 2, .e = {1, 2}};
  const StairCode code(cfg);
  StripeBuffer stripe(code, 32);
  std::vector<std::uint8_t> data(stripe.data_size());
  Rng rng(22);
  rng.fill(data);
  stripe.set_data(data);
  code.encode(stripe.view());
  std::vector<std::uint8_t> golden;
  for (const auto& r : stripe.view().stored) golden.insert(golden.end(), r.begin(), r.end());

  // Three sectors lost in one row (> m): global path. Want the middle one.
  std::vector<bool> lost(cfg.n * cfg.r, false);
  for (std::size_t j : {1, 3, 5}) lost[7 * cfg.n + j] = true;
  Rng garbage(6);
  for (std::size_t idx = 0; idx < lost.size(); ++idx)
    if (lost[idx]) garbage.fill(stripe.view().stored[idx]);

  const std::size_t wanted = 7 * cfg.n + 3;
  auto degraded = code.build_degraded_read_schedule(lost, {wanted});
  ASSERT_TRUE(degraded.has_value());
  code.execute(*degraded, stripe.view());
  EXPECT_EQ(0, std::memcmp(stripe.view().stored[wanted].data(),
                           golden.data() + wanted * 32, 32));
}

TEST(DegradedRead, OutsideCoverageStillRejected) {
  const StairCode code({.n = 6, .r = 4, .m = 1, .e = {1}});
  std::vector<bool> lost(24, false);
  for (std::size_t i = 0; i < 4; ++i) {
    lost[i * 6 + 0] = true;
    lost[i * 6 + 1] = true;
  }
  EXPECT_FALSE(code.build_degraded_read_schedule(lost, {0}).has_value());
  EXPECT_THROW(code.build_degraded_read_schedule(std::vector<bool>(24, false), {999}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Decode-plan cache
// ---------------------------------------------------------------------------

TEST(PlanCache, HitsReturnTheSamePlan) {
  const StairCode code({.n = 8, .r = 4, .m = 2, .e = {1, 2}});
  DecodePlanCache cache(code, 4);

  std::vector<bool> mask(32, false);
  for (std::size_t i = 0; i < 4; ++i) mask[i * 8 + 2] = true;
  const auto first = cache.plan(mask);
  ASSERT_NE(first, nullptr);
  const auto second = cache.plan(mask);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(PlanCache, NegativeResultsAreCached) {
  const StairCode code({.n = 6, .r = 4, .m = 1, .e = {1}});
  DecodePlanCache cache(code, 4);
  std::vector<bool> bad(24, false);
  for (std::size_t i = 0; i < 4; ++i) {
    bad[i * 6 + 0] = true;
    bad[i * 6 + 1] = true;
  }
  EXPECT_EQ(cache.plan(bad), nullptr);
  EXPECT_EQ(cache.plan(bad), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(PlanCache, EvictsLeastRecentlyUsed) {
  const StairCode code({.n = 8, .r = 4, .m = 2, .e = {1, 2}});
  DecodePlanCache cache(code, 2);

  auto mask_for = [&](std::size_t col) {
    std::vector<bool> mask(32, false);
    for (std::size_t i = 0; i < 4; ++i) mask[i * 8 + col] = true;
    return mask;
  };
  cache.plan(mask_for(0));  // miss
  cache.plan(mask_for(1));  // miss
  cache.plan(mask_for(0));  // hit, refreshes 0
  cache.plan(mask_for(2));  // miss, evicts 1
  cache.plan(mask_for(1));  // miss again (was evicted)
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(PlanCache, CachedPlansDecodeCorrectly) {
  const StairConfig cfg{.n = 8, .r = 4, .m = 2, .e = {1, 2}};
  const StairCode code(cfg);
  DecodePlanCache cache(code, 8);
  StripeBuffer stripe(code, 16);
  std::vector<std::uint8_t> data(stripe.data_size());
  Rng rng(30);
  rng.fill(data);
  stripe.set_data(data);
  code.encode(stripe.view());

  std::vector<bool> mask(32, false);
  for (std::size_t i = 0; i < 4; ++i) mask[i * 8 + 1] = true;
  mask[3 * 8 + 4] = true;
  Rng garbage(31);
  for (std::size_t idx = 0; idx < mask.size(); ++idx)
    if (mask[idx]) garbage.fill(stripe.view().stored[idx]);

  const auto plan = cache.plan(mask);
  ASSERT_NE(plan, nullptr);
  code.execute(*plan, stripe.view());
  std::vector<std::uint8_t> out(stripe.data_size());
  stripe.get_data(out);
  EXPECT_EQ(out, data);
}

TEST(PlanCache, ZeroCapacityRejected) {
  const StairCode code({.n = 6, .r = 4, .m = 1, .e = {1}});
  EXPECT_THROW(DecodePlanCache(code, 0), std::invalid_argument);
}

}  // namespace
}  // namespace stair
