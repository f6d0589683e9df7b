// Codec session-pipeline battery: batch results through submit_encode /
// submit_decode must be byte-identical to serial per-stripe calls across
// configs x batch sizes x pool widths, including ragged final slices and
// pools with more lanes than a symbol has bytes; the tuned slice floor must
// spread a lone costly stripe over the pool; plan-cache and workspace-pool
// amortization must hold across batches; the workspace cross-code reuse
// hazard must stay fixed. Also runs under the TSan CI job.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "gf/kernel.h"
#include "gf/region.h"
#include "stair/autotune.h"
#include "stair/codec.h"
#include "stair/stair_code.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/workspace_pool.h"

namespace stair {
namespace {

// Force a multi-worker default pool even on single-vCPU hosts (overwrite=0
// keeps an explicit user STAIR_THREADS), so submits really run on workers
// everywhere this suite runs. Must precede the first default_pool() use.
const std::size_t g_pool_width = [] {
  ::setenv("STAIR_THREADS", "4", /*overwrite=*/0);
  return ThreadPool::default_pool().concurrency();
}();

std::vector<std::uint8_t> all_bytes(const StripeView& view) {
  std::vector<std::uint8_t> out;
  for (const auto& r : view.stored) out.insert(out.end(), r.begin(), r.end());
  for (const auto& r : view.outside_globals) out.insert(out.end(), r.begin(), r.end());
  return out;
}

struct ConfigCase {
  StairConfig cfg;
  GlobalParityMode mode;
};

std::vector<ConfigCase> config_matrix() {
  return {
      {{.n = 8, .r = 8, .m = 2, .e = {1, 2}}, GlobalParityMode::kInside},
      {{.n = 6, .r = 4, .m = 1, .e = {1, 1}}, GlobalParityMode::kInside},
      {{.n = 8, .r = 6, .m = 2, .e = {2}}, GlobalParityMode::kOutside},
  };
}

// Batch of stripes with per-stripe random data, serially encoded reference.
struct Batch {
  std::vector<StripeBuffer> stripes;
  std::vector<std::vector<std::uint8_t>> data;
  std::vector<std::vector<std::uint8_t>> encoded;  // expected bytes

  Batch(const StairCode& code, std::size_t count, std::size_t symbol, std::uint64_t seed) {
    Workspace ws;
    for (std::size_t i = 0; i < count; ++i) {
      stripes.emplace_back(code, symbol);
      data.emplace_back(stripes[i].data_size());
      Rng rng(seed + i);
      rng.fill(data[i]);
      stripes[i].set_data(data[i]);
      StripeBuffer reference(code, symbol);
      reference.set_data(data[i]);
      code.encode(reference.view(), EncodingMethod::kAuto, &ws);
      encoded.push_back(all_bytes(reference.view()));
    }
  }
};

// Tasks `pool` has run, read once every worker sits between tasks: the stat
// is bumped after a task body returns, so first park each worker on a fence
// task (fences count only after they are released).
std::uint64_t quiesced_tasks_run(ThreadPool& pool) {
  std::atomic<std::size_t> parked{0}, running{pool.size()};
  std::atomic<bool> release{false};
  for (std::size_t i = 0; i < pool.size(); ++i)
    pool.submit([&] {
      parked.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
      running.fetch_sub(1);  // the fence's last touch of this frame
    });
  while (parked.load() < pool.size()) std::this_thread::yield();
  const std::uint64_t ran = pool.tasks_run();
  release.store(true);
  while (running.load() != 0) std::this_thread::yield();
  return ran;
}

TEST(CodecPipeline, EncodeBatchMatchesSerialAcrossMatrix) {
  // min_slice_bytes=256 so mid-size symbols exercise the range-sliced path
  // (batch smaller than the pool) as well as the stripe-per-task path; 9999
  // leaves a ragged final slice.
  for (const auto& c : config_matrix()) {
    const StairCode code(c.cfg, c.mode);
    Codec codec(code, {.min_slice_bytes = 256});
    for (std::size_t symbol :
         {std::size_t{72}, std::size_t{1000}, std::size_t{4096 + 64}, std::size_t{9999}}) {
      for (std::size_t count : {std::size_t{1}, std::size_t{3}, std::size_t{8}, std::size_t{17}}) {
        Batch batch(code, count, symbol, 1000 + symbol + count);
        std::vector<Codec::Handle> handles;
        for (auto& stripe : batch.stripes)
          handles.push_back(codec.submit_encode(stripe.view()));
        for (std::size_t i = 0; i < count; ++i) {
          EXPECT_TRUE(handles[i].ok());
          ASSERT_EQ(all_bytes(batch.stripes[i].view()), batch.encoded[i])
              << c.cfg.to_string() << " symbol=" << symbol << " batch=" << count
              << " stripe=" << i;
        }
      }
    }
    codec.wait_all();
    EXPECT_EQ(codec.jobs_in_flight(), 0u);
  }
}

// The submit pipeline replaying in altmap (the default on SIMD backends for
// the wide widths) must be byte-identical to the standard-layout serial
// path — encode and cached-plan decode, across the sliced and
// stripe-per-task regimes — and must hand user buffers back in standard
// layout (the byte comparison proves both at once). Symbol size includes a
// partial trailing altmap block.
TEST(CodecPipeline, WideWidthAltmapPipelineMatchesStandardSerial) {
  struct LayoutGuard {
    ~LayoutGuard() { gf::reset_layout(); }
  } layout_guard;

  for (int w : {16, 32}) {
    const StairConfig cfg{.n = 8, .r = 6, .m = 2, .e = {1, 2}, .w = w};
    const StairCode code(cfg);
    const std::size_t symbol = 4096 + 72;  // 65 blocks + 8-byte standard tail
    const std::size_t count = 6;

    gf::force_layout(gf::RegionLayout::kStandard);
    Batch batch(code, count, symbol, 9000 + w);  // reference built standard
    gf::force_layout(gf::RegionLayout::kAltmap);

    Codec codec(code, {.min_slice_bytes = 256});
    std::vector<Codec::Handle> handles;
    for (auto& stripe : batch.stripes) handles.push_back(codec.submit_encode(stripe.view()));
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_TRUE(handles[i].ok());
      ASSERT_EQ(all_bytes(batch.stripes[i].view()), batch.encoded[i])
          << "encode w=" << w << " stripe=" << i;
    }

    // Failure epoch decoded through the session plan cache, still altmap.
    std::vector<bool> mask(cfg.n * cfg.r, false);
    for (std::size_t i = 0; i < cfg.r; ++i) mask[i * cfg.n + 3] = true;
    mask[2 * cfg.n + 5] = true;
    ASSERT_TRUE(code.is_recoverable(mask));
    Rng garbage(31 + w);
    handles.clear();
    for (auto& stripe : batch.stripes) {
      for (std::size_t idx = 0; idx < mask.size(); ++idx)
        if (mask[idx]) garbage.fill(stripe.view().stored[idx]);
      handles.push_back(codec.submit_decode(stripe.view(), mask));
    }
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_TRUE(handles[i].ok());
      ASSERT_EQ(all_bytes(batch.stripes[i].view()), batch.encoded[i])
          << "decode w=" << w << " stripe=" << i;
    }
    gf::reset_layout();
  }
}

TEST(CodecPipeline, EncodeBatchMatchesSerialAcrossPoolWidths) {
  const StairConfig cfg{.n = 8, .r = 8, .m = 2, .e = {1, 2}};
  const StairCode code(cfg);
  // The last pair gives the pool more lanes than a symbol has bytes.
  const std::pair<std::size_t, std::size_t> cases[] = {
      {1, 4096 + 64}, {2, 4096 + 64}, {4, 4096 + 64}, {8, 4096 + 64}, {64, 16}};
  for (const auto& [width, symbol] : cases) {
    ThreadPool pool(width);
    Codec codec(code, {.pool = &pool, .min_slice_bytes = 256});
    Batch batch(code, 6, symbol, 77 + width);
    std::vector<Codec::Handle> handles;
    for (auto& stripe : batch.stripes) handles.push_back(codec.submit_encode(stripe.view()));
    codec.wait_all();
    for (std::size_t i = 0; i < batch.stripes.size(); ++i) {
      EXPECT_TRUE(handles[i].done());
      ASSERT_EQ(all_bytes(batch.stripes[i].view()), batch.encoded[i])
          << "width=" << width << " symbol=" << symbol << " stripe=" << i;
    }
  }
}

// The slice decision under a measured profile (8 us dispatch, 26 GB/s at
// w=8): a slice replays the whole plan, so the tuned floor divides by the
// plan's Mult_XOR count. A lone 16 KiB-symbol stripe of the bench code's
// 952-op encode then spreads over an idle 4-wide pool, while a
// 256-byte-symbol stripe of the same code still runs as one task.
TEST(CodecPipeline, TunedFloorSlicesALoneStripeByItsPlanCost) {
  struct TunerGuard {
    ~TunerGuard() { Autotune::instance().reset_for_testing(); }
  } tuner_guard;
  TuneProfile profile;
  profile.measured = true;
  profile.fingerprint = "fake";
  profile.dispatch_overhead_ns = 8000.0;
  profile.cells.push_back({static_cast<int>(gf::active_backend()),
                           static_cast<int>(gf::RegionLayout::kStandard), 8, 65536, 26000.0});
  Autotune::instance().set_enabled_for_testing(1);
  Autotune::instance().set_profile_for_testing(profile);

  const StairCode code({.n = 16, .r = 16, .m = 2, .e = {1, 1, 2}});
  ASSERT_EQ(code.compiled_encoding_schedule(code.select_method()).mult_xor_count(), 952u);
  const auto tasks_for = [&](std::size_t symbol) {
    ThreadPool pool(4);
    Codec codec(code, {.pool = &pool});
    Batch batch(code, 1, symbol, 4242 + symbol);
    EXPECT_TRUE(codec.submit_encode(batch.stripes[0].view()).ok());
    EXPECT_EQ(all_bytes(batch.stripes[0].view()), batch.encoded[0]) << "symbol=" << symbol;
    return quiesced_tasks_run(pool);
  };
  EXPECT_GT(tasks_for(16 * 1024), 1u);
  EXPECT_EQ(tasks_for(256), 1u);
}

TEST(CodecPipeline, DecodeBatchRecoversAndSharesPlans) {
  for (const auto& c : config_matrix()) {
    const StairCode code(c.cfg, c.mode);
    Codec codec(code, {.min_slice_bytes = 256});
    const std::size_t symbol = 1000, count = 12;
    Batch batch(code, count, symbol, 500);

    // Two distinct failure-epoch masks alternating across the batch: one
    // whole chunk, and one chunk plus an extra sector.
    std::vector<std::vector<bool>> masks(2, std::vector<bool>(c.cfg.n * c.cfg.r, false));
    for (std::size_t i = 0; i < c.cfg.r; ++i) masks[0][i * c.cfg.n + 0] = true;
    for (std::size_t i = 0; i < c.cfg.r; ++i) masks[1][i * c.cfg.n + 1] = true;
    masks[1][(c.cfg.r - 1) * c.cfg.n + 3] = true;

    Rng garbage(9);
    for (std::size_t i = 0; i < count; ++i) {
      code.encode(batch.stripes[i].view());
      const auto& mask = masks[i % 2];
      for (std::size_t idx = 0; idx < mask.size(); ++idx)
        if (mask[idx]) garbage.fill(batch.stripes[i].view().stored[idx]);
    }

    std::vector<Codec::Handle> handles;
    for (std::size_t i = 0; i < count; ++i)
      handles.push_back(codec.submit_decode(batch.stripes[i].view(), masks[i % 2]));
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_TRUE(handles[i].ok()) << c.cfg.to_string() << " stripe=" << i;
      std::vector<std::uint8_t> out(batch.stripes[i].data_size());
      batch.stripes[i].get_data(out);
      ASSERT_EQ(out, batch.data[i]) << c.cfg.to_string() << " stripe=" << i;
    }
    // Epoch amortization: each distinct mask inverted and compiled once.
    EXPECT_EQ(codec.plan_cache().misses(), 2u) << c.cfg.to_string();
    EXPECT_EQ(codec.plan_cache().hits(), count - 2) << c.cfg.to_string();
  }
}

TEST(CodecPipeline, UnrecoverableMaskCompletesNotOk) {
  const StairConfig cfg{.n = 8, .r = 8, .m = 2, .e = {1, 2}};
  Codec codec(cfg);
  const StairCode& code = codec.code();
  StripeBuffer stripe(code, 512);
  std::vector<std::uint8_t> data(stripe.data_size());
  Rng rng(3);
  rng.fill(data);
  stripe.set_data(data);
  code.encode(stripe.view());
  const auto before = all_bytes(stripe.view());

  // m + m' + 1 = 5 whole chunks: outside any STAIR coverage.
  std::vector<bool> mask(cfg.n * cfg.r, false);
  for (std::size_t j = 0; j < 5; ++j)
    for (std::size_t i = 0; i < cfg.r; ++i) mask[i * cfg.n + j] = true;

  Codec::Handle handle = codec.submit_decode(stripe.view(), mask);
  EXPECT_TRUE(handle.done());
  EXPECT_FALSE(handle.ok());
  EXPECT_EQ(all_bytes(stripe.view()), before);  // stripe untouched

  // The session keeps serving recoverable work afterwards.
  std::vector<bool> small(cfg.n * cfg.r, false);
  small[0] = true;
  Rng garbage(4);
  garbage.fill(stripe.view().stored[0]);
  EXPECT_TRUE(codec.submit_decode(stripe.view(), small).ok());
  std::vector<std::uint8_t> out(stripe.data_size());
  stripe.get_data(out);
  EXPECT_EQ(out, data);
}

TEST(CodecPipeline, MixedPipelineRoundTrips) {
  const StairConfig cfg{.n = 8, .r = 8, .m = 2, .e = {1, 2}};
  Codec codec(cfg, {.min_slice_bytes = 256});
  const StairCode& code = codec.code();
  const std::size_t symbol = 1000, count = 9;
  Batch batch(code, count, symbol, 314);

  std::vector<Codec::Handle> encodes;
  for (auto& stripe : batch.stripes) encodes.push_back(codec.submit_encode(stripe.view()));
  for (auto& h : encodes) h.wait();

  std::vector<bool> mask(cfg.n * cfg.r, false);
  for (std::size_t i = 0; i < cfg.r; ++i) mask[i * cfg.n + 2] = true;
  Rng garbage(13);
  for (auto& stripe : batch.stripes)
    for (std::size_t idx = 0; idx < mask.size(); ++idx)
      if (mask[idx]) garbage.fill(stripe.view().stored[idx]);

  std::vector<Codec::Handle> decodes;
  for (auto& stripe : batch.stripes) decodes.push_back(codec.submit_decode(stripe.view(), mask));
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_TRUE(decodes[i].ok());
    std::vector<std::uint8_t> out(batch.stripes[i].data_size());
    batch.stripes[i].get_data(out);
    ASSERT_EQ(out, batch.data[i]) << "stripe=" << i;
  }
  EXPECT_EQ(codec.jobs_submitted(), 2u * count);
  EXPECT_EQ(codec.jobs_completed(), 2u * count);
}

TEST(CodecPipeline, WorkspacesSettleAtHighWaterMark) {
  const StairConfig cfg{.n = 8, .r = 8, .m = 2, .e = {1, 2}};
  // min_slice_bytes=256 so a lone 512-byte stripe is range-sliced.
  Codec codec(cfg, {.min_slice_bytes = 256});
  const StairCode& code = codec.code();
  const std::size_t symbol = 512, count = 6, waves = 5;
  Batch batch(code, count, symbol, 2718);

  for (std::size_t wave = 0; wave < waves; ++wave) {
    // Even waves run the whole batch stripe-per-task; odd waves run one
    // stripe at a time, sliced over the idle pool — the leased workspaces
    // carry over between the regimes and must be re-mapped, never stale.
    std::vector<Codec::Handle> handles;
    for (auto& stripe : batch.stripes) {
      handles.push_back(codec.submit_encode(stripe.view()));
      if (wave % 2 == 1) handles.back().wait();
    }
    codec.wait_all();
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_TRUE(handles[i].ok());
      ASSERT_EQ(all_bytes(batch.stripes[i].view()), batch.encoded[i])
          << "wave=" << wave << " stripe=" << i;
    }
  }
  // Millions of stripes must not mean millions of workspaces: slots grow only
  // to the concurrent high-water mark, later waves lease released ones.
  EXPECT_LE(codec.workspaces_created(), count);
  EXPECT_GE(codec.workspaces_created(), 1u);
}

TEST(CodecPipeline, SubmitValidatesOnCallerThread) {
  const StairConfig cfg{.n = 8, .r = 8, .m = 2, .e = {1, 2}};
  Codec codec(cfg);
  StripeBuffer stripe(codec.code(), 512);
  StripeView bad = stripe.view();
  bad.stored.pop_back();
  EXPECT_THROW(codec.submit_encode(bad), std::invalid_argument);
  EXPECT_THROW(codec.submit_decode(bad, std::vector<bool>(cfg.n * cfg.r, false)),
               std::invalid_argument);
  codec.wait_all();
}

TEST(CodecPipeline, HandleSemantics) {
  Codec::Handle invalid;
  EXPECT_FALSE(invalid.valid());
  EXPECT_TRUE(invalid.done());
  invalid.wait();  // no-op
  EXPECT_TRUE(invalid.ok());

  const StairConfig cfg{.n = 6, .r = 4, .m = 1, .e = {1, 1}};
  Codec codec(cfg);
  StripeBuffer stripe(codec.code(), 256);
  std::vector<std::uint8_t> data(stripe.data_size());
  Rng rng(1);
  rng.fill(data);
  stripe.set_data(data);
  Codec::Handle h = codec.submit_encode(stripe.view());
  EXPECT_TRUE(h.valid());
  h.wait();
  h.wait();  // idempotent
  EXPECT_TRUE(h.done());
  EXPECT_TRUE(h.ok());
  Codec::Handle copy = h;  // handles are shareable
  EXPECT_TRUE(copy.done());
}

// Regression for the workspace-reuse hazard: a Workspace carried from one
// StairCode to another with the *same* scratch footprint must not leak the
// first code's written intermediates into regions the second code requires
// to be structurally zero. Before the owner check, same-size reuse skipped
// re-establishing the zeroed scratch and produced wrong parities.
TEST(CodecPipeline, WorkspaceReuseAcrossCodesRegression) {
  // This exact pair reproduced the bug (one of dozens found by sweeping all
  // equal-footprint config pairs): A's upstairs encode leaves written
  // intermediates on scratch cells B's upstairs schedule requires to be
  // structurally zero.
  const StairCode a({.n = 6, .r = 6, .m = 1, .e = {1, 1}});
  const StairCode b({.n = 6, .r = 6, .m = 1, .e = {2}});
  // The hazard requires identical footprints (otherwise the size check
  // already reallocates).
  ASSERT_EQ(a.layout().total_symbols() - a.layout().stored_count(),
            b.layout().total_symbols() - b.layout().stored_count());

  const std::size_t symbol = 256;
  StripeBuffer sa(a, symbol), sb(b, symbol), sb_fresh(b, symbol);
  std::vector<std::uint8_t> da(sa.data_size()), db(sb.data_size());
  Rng rng(21);
  rng.fill(da);
  rng.fill(db);
  sa.set_data(da);
  sb.set_data(db);
  sb_fresh.set_data(db);

  Workspace shared, fresh;
  a.encode(sa.view(), EncodingMethod::kUpstairs, &shared);  // dirties the scratch
  b.encode(sb.view(), EncodingMethod::kUpstairs, &shared);  // reused across codes
  b.encode(sb_fresh.view(), EncodingMethod::kUpstairs, &fresh);
  EXPECT_EQ(all_bytes(sb.view()), all_bytes(sb_fresh.view()));

  // And decode through the re-dirtied workspace round-trips too.
  std::vector<bool> mask(6 * 6, false);
  for (std::size_t i = 0; i < 6; ++i) mask[i * 6 + 1] = true;
  Rng garbage(5);
  for (std::size_t idx = 0; idx < mask.size(); ++idx)
    if (mask[idx]) garbage.fill(sb.view().stored[idx]);
  a.encode(sa.view(), EncodingMethod::kUpstairs, &shared);
  ASSERT_TRUE(b.decode(sb.view(), mask, &shared));
  std::vector<std::uint8_t> out(sb.data_size());
  sb.get_data(out);
  EXPECT_EQ(out, db);
}

// The ABA variant of the hazard above: successive codes constructed in the
// same storage (stack reuse, optional re-emplace) must not be mistaken for
// the previous owner — reuse is keyed on a generation id, not the address.
TEST(CodecPipeline, WorkspaceReuseAcrossSameAddressCodesRegression) {
  const std::size_t symbol = 256;
  Workspace shared;
  std::optional<StairCode> code;

  code.emplace(StairConfig{.n = 6, .r = 6, .m = 1, .e = {1, 1}});
  StripeBuffer sa(*code, symbol);
  std::vector<std::uint8_t> da(sa.data_size());
  Rng rng(33);
  rng.fill(da);
  sa.set_data(da);
  code->encode(sa.view(), EncodingMethod::kUpstairs, &shared);  // dirty scratch

  code.emplace(StairConfig{.n = 6, .r = 6, .m = 1, .e = {2}});  // same address
  StripeBuffer sb(*code, symbol), sb_fresh(*code, symbol);
  std::vector<std::uint8_t> db(sb.data_size());
  rng.fill(db);
  sb.set_data(db);
  sb_fresh.set_data(db);
  Workspace fresh;
  code->encode(sb.view(), EncodingMethod::kUpstairs, &shared);
  code->encode(sb_fresh.view(), EncodingMethod::kUpstairs, &fresh);
  EXPECT_EQ(all_bytes(sb.view()), all_bytes(sb_fresh.view()));
}

TEST(CodecPipeline, WorkspacePoolLeaseLifecycle) {
  WorkspacePool<int> pool;
  EXPECT_EQ(pool.created(), 0u);
  {
    auto a = pool.acquire();
    auto b = pool.acquire();
    *a = 7;
    *b = 9;
    EXPECT_EQ(pool.created(), 2u);
    EXPECT_EQ(pool.in_use(), 2u);
  }
  EXPECT_EQ(pool.in_use(), 0u);
  // Most-recently-released first (scope exit destroys b, then a), intact.
  auto c = pool.acquire();
  EXPECT_EQ(pool.created(), 2u);
  EXPECT_EQ(*c, 7);
  EXPECT_EQ(pool.reused(), 1u);
  // Lease copies share the slot; the last copy releases it.
  auto d = c;
  c.reset();
  EXPECT_EQ(pool.in_use(), 1u);
  d.reset();
  EXPECT_EQ(pool.in_use(), 0u);
}


// jobs_in_flight() is the scrubber's idle-slot gate and the service layer's
// pressure signal, read from arbitrary threads while submits and completions
// race. A relaxed-ordering bug here once let an observer see a completion
// before its submission, underflowing submitted - completed to ~2^64 — which
// reads as "codec saturated" and would wedge every gate built on it. Hammer
// the counter from concurrent submitters + observers: it must never exceed
// what was actually submitted, never underflow, and must return to zero.
TEST(CodecPipeline, JobsInFlightNeverUnderflowsUnderConcurrency) {
  const StairConfig cfg{.n = 6, .r = 4, .m = 1, .e = {1, 2}};
  Codec codec(cfg);
  constexpr std::size_t kSubmitters = 4;
  constexpr std::size_t kJobsEach = 200;
  constexpr std::size_t kTotal = kSubmitters * kJobsEach;

  std::atomic<bool> go{false}, done{false};
  std::atomic<std::uint64_t> underflows{0}, observations{0};

  // Observers: spin on the gate exactly like the scrubber does.
  std::vector<std::thread> observers;
  for (int o = 0; o < 3; ++o) {
    observers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        const std::size_t in_flight = codec.jobs_in_flight();
        observations.fetch_add(1, std::memory_order_relaxed);
        // An underflow shows up as a number vastly beyond anything
        // submittable; a correct reading is bounded by the total workload.
        if (in_flight > kTotal) underflows.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      // A ring of stripes, each slot's previous job waited before the buffer
      // is resubmitted: many jobs in flight per submitter, but never two
      // writing the same parity bytes.
      constexpr std::size_t kSlots = 8;
      std::vector<StripeBuffer> stripes;
      std::vector<Codec::Handle> pending(kSlots);
      Rng rng(1000 + t);
      for (std::size_t s = 0; s < kSlots; ++s) {
        stripes.emplace_back(codec.code(), 64);
        std::vector<std::uint8_t> data(stripes[s].data_size());
        rng.fill(data);
        stripes[s].set_data(data);
      }
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::size_t i = 0; i < kJobsEach; ++i) {
        // Mix eagerly-waited and ring-deferred submissions so completions
        // land both on pool workers and via the helping wait path.
        const std::size_t slot = i % kSlots;
        if (pending[slot].valid()) pending[slot].wait();
        Codec::Handle h = codec.submit_encode(stripes[slot].view());
        if (i % 3 == 0) {
          h.wait();
        } else {
          pending[slot] = std::move(h);
        }
      }
      codec.wait_all();
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : submitters) t.join();
  codec.wait_all();
  done.store(true, std::memory_order_relaxed);
  for (auto& t : observers) t.join();

  EXPECT_EQ(underflows.load(), 0u);
  EXPECT_GT(observations.load(), 0u);
  EXPECT_EQ(codec.jobs_in_flight(), 0u);
  EXPECT_EQ(codec.jobs_submitted(), kTotal);
  EXPECT_EQ(codec.jobs_completed(), kTotal);
}

}  // namespace
}  // namespace stair
