// Randomized soak: seeded sweeps of config x erasure-pattern x batch-size x
// pool-width driving the Codec session end-to-end (encode -> corrupt ->
// decode), asserting byte-exactness against the serial reference path on
// every iteration.
//
// ctest-labeled `soak`: CI runs it PR-short and can run it nightly-long.
// Iteration count and base seed come from the environment:
//
//   STAIR_SOAK_ITERS=<n>     iterations (default 6; nightly uses 64+)
//   STAIR_SOAK_SEED=<seed>   base seed (default 0xC0FFEE)
//
// Every iteration logs its own derived seed. To reproduce iteration k's
// failure directly, run STAIR_SOAK_SEED=<logged seed> STAIR_SOAK_ITERS=1 —
// the first iteration of that seed regenerates the identical config,
// stripes and erasure patterns, regardless of which k it was.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "stair/codec.h"
#include "stair/io_pipeline.h"
#include "stair/scrub_repair.h"
#include "stair/stair_code.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace stair {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  return std::strtoull(v, nullptr, 0);
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

StairConfig random_config(Rng& rng) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    StairConfig cfg;
    cfg.n = 4 + rng.next_below(7);   // 4..10
    cfg.r = 2 + rng.next_below(7);   // 2..8
    cfg.m = rng.next_below(std::min<std::size_t>(cfg.n - 2, 2) + 1);  // 0..2
    const std::size_t mp = 1 + rng.next_below(std::min<std::size_t>(cfg.n - cfg.m - 1, 3));
    cfg.e.clear();
    for (std::size_t l = 0; l < mp; ++l)
      cfg.e.push_back(1 + rng.next_below(std::min<std::size_t>(cfg.r, 3)));
    std::sort(cfg.e.begin(), cfg.e.end());
    cfg.w = rng.chance(0.2) ? 16 : 8;
    if (cfg.minimum_w() > cfg.w) cfg.w = cfg.minimum_w();
    try {
      cfg.validate();
      return cfg;
    } catch (...) {
    }
  }
  return {.n = 6, .r = 4, .m = 1, .e = {1, 2}, .w = 8};  // always valid
}

/// A random erasure pattern inside the guaranteed coverage: up to m whole
/// chunks plus sector errors fitting e (chunk k gets <= e[k] errors, which
/// sorted still fits e element-wise).
std::vector<bool> random_recoverable_mask(const StairConfig& cfg, Rng& rng) {
  std::vector<bool> mask(cfg.r * cfg.n, false);
  std::vector<std::size_t> devices(cfg.n);
  for (std::size_t j = 0; j < cfg.n; ++j) devices[j] = j;
  for (std::size_t j = cfg.n; j > 1; --j)
    std::swap(devices[j - 1], devices[rng.next_below(j)]);

  std::size_t pick = 0;
  const std::size_t full = rng.next_below(cfg.m + 1);
  for (std::size_t f = 0; f < full; ++f) {
    const std::size_t dev = devices[pick++];
    for (std::size_t i = 0; i < cfg.r; ++i) mask[i * cfg.n + dev] = true;
  }
  for (std::size_t k = 0; k < cfg.e.size() && pick < cfg.n; ++k) {
    if (rng.chance(0.3)) continue;  // not every e slot used every time
    const std::size_t dev = devices[pick++];
    const std::size_t errors = 1 + rng.next_below(cfg.e[k]);
    for (std::size_t t = 0; t < errors; ++t)
      mask[rng.next_below(cfg.r) * cfg.n + dev] = true;  // dup rows collapse
  }
  return mask;
}

std::vector<std::uint8_t> stripe_bytes(const StripeBuffer& stripe) {
  std::vector<std::uint8_t> bytes;
  for (const auto& region : stripe.view().stored)
    bytes.insert(bytes.end(), region.begin(), region.end());
  return bytes;
}

TEST(StairSoak, SessionEndToEndSweep) {
  const std::uint64_t iters = env_u64("STAIR_SOAK_ITERS", 6);
  const std::uint64_t base_seed = env_u64("STAIR_SOAK_SEED", 0xC0FFEE);

  for (std::uint64_t iter = 0; iter < iters; ++iter) {
    const std::uint64_t seed = iter == 0 ? base_seed : splitmix64(base_seed + iter);
    SCOPED_TRACE("iteration " + std::to_string(iter) + " seed 0x" +
                 [&] { char b[32]; std::snprintf(b, sizeof b, "%llx",
                                                 (unsigned long long)seed); return std::string(b); }());
    Rng rng(seed);

    const StairConfig cfg = random_config(rng);
    const std::size_t word = static_cast<std::size_t>(cfg.w) / 8;
    std::size_t symbol = (1 + rng.next_below(7)) * 64 + word * rng.next_below(4);
    // A quarter of iterations use symbols past twice the session's pinned
    // 1 KiB slice floor so the intra-stripe range-slicing path (small
    // batch, idle pool lanes) soaks too, not just the stripe-per-task path,
    // whatever floor the tuner would have measured on this host.
    if (rng.chance(0.25)) symbol = 4096 + 64 * rng.next_below(65);
    const std::size_t batch = 1 + rng.next_below(8);
    const std::size_t width = std::size_t{1} << rng.next_below(3);  // 1/2/4
    SCOPED_TRACE(cfg.to_string() + " symbol=" + std::to_string(symbol) + " batch=" +
                 std::to_string(batch) + " pool=" + std::to_string(width));

    const StairCode code(cfg);
    ThreadPool pool(width);
    Codec codec(code, {.pool = &pool, .min_slice_bytes = 1024});

    // --- encode the batch through the session; reference-encode serially ---
    std::vector<StripeBuffer> stripes;
    std::vector<StripeBuffer> reference;
    std::vector<std::vector<std::uint8_t>> data(batch);
    for (std::size_t b = 0; b < batch; ++b) {
      stripes.emplace_back(code, symbol);
      reference.emplace_back(code, symbol);
      data[b].resize(stripes[b].data_size());
      rng.fill(data[b]);
      stripes[b].set_data(data[b]);
      reference[b].set_data(data[b]);
      code.encode(reference[b].view());  // serial reference path
    }
    {
      std::vector<Codec::Handle> handles;
      for (auto& s : stripes) handles.push_back(codec.submit_encode(s.view()));
      for (auto& h : handles) {
        h.wait();
        ASSERT_TRUE(h.ok());
      }
    }
    for (std::size_t b = 0; b < batch; ++b)
      ASSERT_EQ(stripe_bytes(stripes[b]), stripe_bytes(reference[b]))
          << "batch encode diverged from serial at stripe " << b;

    // --- erase per-stripe random coverage patterns, decode the batch -------
    std::vector<std::vector<bool>> masks;
    for (std::size_t b = 0; b < batch; ++b) {
      masks.push_back(random_recoverable_mask(cfg, rng));
      ASSERT_TRUE(code.is_recoverable(masks[b]));
      for (std::size_t idx = 0; idx < masks[b].size(); ++idx)
        if (masks[b][idx]) rng.fill(stripes[b].view().stored[idx]);
    }
    {
      std::vector<Codec::Handle> handles;
      for (std::size_t b = 0; b < batch; ++b)
        handles.push_back(codec.submit_decode(stripes[b].view(), masks[b]));
      for (auto& h : handles) ASSERT_TRUE(h.ok());
    }
    for (std::size_t b = 0; b < batch; ++b)
      ASSERT_EQ(stripe_bytes(stripes[b]), stripe_bytes(reference[b]))
          << "decode diverged at stripe " << b;

    codec.wait_all();
  }
}

// Scrub-on dimension: random config x store geometry x random in-coverage
// corruption, through the on-disk path — encode a store, damage it, let a
// Scrubber pass detect + repair, then prove the repair with a second pass
// (zero hits) and a byte-identical decode. Same seed discipline as above.
TEST(StairSoak, ScrubRepairSweep) {
  namespace fs = std::filesystem;
  const std::uint64_t iters = env_u64("STAIR_SOAK_ITERS", 6);
  const std::uint64_t base_seed = env_u64("STAIR_SOAK_SEED", 0xC0FFEE);

  const fs::path root = fs::temp_directory_path() /
                        ("stair_soak_scrub_" + std::to_string(::getpid()));
  fs::remove_all(root);
  fs::create_directories(root);

  for (std::uint64_t iter = 0; iter < iters; ++iter) {
    const std::uint64_t seed = iter == 0 ? base_seed : splitmix64(base_seed + iter);
    SCOPED_TRACE("iteration " + std::to_string(iter) + " seed 0x" +
                 [&] { char b[32]; std::snprintf(b, sizeof b, "%llx",
                                                 (unsigned long long)seed); return std::string(b); }());
    Rng rng(seed);

    const StairConfig cfg = random_config(rng);
    const std::size_t symbol = (1 + rng.next_below(4)) * 64;
    const StairCode code(cfg);
    const std::size_t data_bytes = code.layout().data_ids().size() * symbol;
    const std::size_t stripes = 2 + rng.next_below(4);
    // Shave a partial symbol off the end so the padded tail stripe soaks too.
    const std::size_t bytes = stripes * data_bytes - rng.next_below(symbol);
    SCOPED_TRACE(cfg.to_string() + " symbol=" + std::to_string(symbol) +
                 " stripes=" + std::to_string(stripes));

    const fs::path dir = root / ("iter_" + std::to_string(iter));
    fs::create_directories(dir);
    std::vector<std::uint8_t> data(bytes);
    rng.fill(data);
    {
      std::ofstream out(dir / "input.bin", std::ios::binary);
      out.write(reinterpret_cast<const char*>(data.data()),
                static_cast<std::streamsize>(data.size()));
    }

    Codec codec(cfg);
    IoPipeline pipeline(codec, {.symbol_bytes = symbol});
    const auto enc = pipeline.encode_file((dir / "input.bin").string(),
                                          (dir / "store").string());
    ASSERT_TRUE(enc.ok) << enc.error;

    // Per-stripe random in-coverage damage, applied straight to the device
    // files (mask index row * n + device == the stored sector at that row).
    // Offsets come from the loaded manifest, not r * symbol arithmetic:
    // under STAIR_IO_DIRECT=1 the chunk rows are block-padded.
    std::size_t damaged = 0;
    const auto store = StripeStore::load((dir / "store").string());
    for (std::size_t s = 0; s < stripes; ++s) {
      const auto mask = random_recoverable_mask(cfg, rng);
      ASSERT_TRUE(code.is_recoverable(mask));
      for (std::size_t i = 0; i < cfg.r; ++i)
        for (std::size_t j = 0; j < cfg.n; ++j) {
          if (!mask[i * cfg.n + j]) continue;
          const auto path = StripeStore::device_path((dir / "store").string(), j);
          std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
          ASSERT_TRUE(f) << path;
          const std::streamoff at =
              static_cast<std::streamoff>(store.chunk_offset(s) + i * symbol);
          char buf[16];
          f.seekg(at).read(buf, sizeof buf);
          for (char& ch : buf) ch = static_cast<char>(ch ^ 0xA5);
          f.seekp(at).write(buf, sizeof buf);
          ++damaged;
        }
    }

    Scrubber scrubber(codec, {.stripes_in_flight = 1 + rng.next_below(3)});
    const ScrubReport rep = scrubber.scrub((dir / "store").string());
    ASSERT_TRUE(rep.ok) << rep.error;
    EXPECT_EQ(rep.sectors_corrupt, damaged);
    EXPECT_EQ(rep.sectors_repaired, damaged);
    EXPECT_EQ(rep.stripes_unrecoverable, 0u);

    const ScrubReport again = scrubber.scrub((dir / "store").string());
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_EQ(again.sectors_corrupt, 0u);
    EXPECT_EQ(again.chunks_missing, 0u);
    EXPECT_EQ(again.stripes_degraded, 0u);

    const auto dec = pipeline.decode_file((dir / "store").string(),
                                          (dir / "output.bin").string());
    ASSERT_TRUE(dec.ok) << dec.error;
    std::ifstream in(dir / "output.bin", std::ios::binary);
    const std::vector<std::uint8_t> out(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    ASSERT_EQ(out, data) << "post-repair decode diverged";
    EXPECT_EQ(dec.degraded_stripes, 0u) << "repair left residual damage";

    fs::remove_all(dir);
  }
  fs::remove_all(root);
}

}  // namespace
}  // namespace stair
