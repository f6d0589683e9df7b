// throughput_demo: measure encode and worst-case decode throughput for a
// user-supplied configuration, the way §6.2 evaluates codes.
//
//   $ ./throughput_demo [n=16] [r=16] [m=2] [e=1,2] [stripe_mb=32]
//
// Prints the Mult_XOR cost of all three encoding methods, which one the code
// auto-selects, and measured MB/s for encode and for the worst-case erasure
// pattern decode. A malformed argument, or one that makes no valid code,
// prints usage and exits 2.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "stair/codec.h"
#include "stair/cost_model.h"
#include "stair/stair_code.h"
#include "stair/stripe_store.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

#include "cli_args.h"

using namespace stair;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [n=16] [r=16] [m=2] [e=1,2] [stripe_mb=32, 1..1024]\n",
               argv0);
  return 2;
}

double measure(const std::function<void()>& fn, std::size_t bytes) {
  fn();  // warm up, build schedules
  Stopwatch watch;
  int iters = 0;
  do {
    fn();
    ++iters;
  } while (iters < 3 || watch.elapsed_seconds() < 0.3);
  return bytes * static_cast<double>(iters) / watch.elapsed_seconds() / (1024 * 1024);
}

}  // namespace

int main(int argc, char** argv) {
  StairConfig cfg{.n = 16, .r = 16, .m = 2, .e = {1, 2}};
  std::size_t stripe_mb = 32;
  if (argc > 6 || !read_arg(argc, argv, 1, &cfg.n) || !read_arg(argc, argv, 2, &cfg.r) ||
      !read_arg(argc, argv, 3, &cfg.m) || !read_arg(argc, argv, 5, &stripe_mb) ||
      stripe_mb < 1 || stripe_mb > 1024)
    return usage(argv[0]);
  try {
    if (argc > 4) cfg.e = parse_coverage_list(argv[4]);
    cfg.w = std::max(cfg.minimum_w(), 8);
    cfg.validate();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage(argv[0]);
  }

  // All measurement runs through one codec session: schedules, decode plans,
  // and workspaces are session-amortized exactly as a serving system would.
  Codec codec(cfg);
  const StairCode& code = codec.code();
  std::printf("%s over GF(2^%d)\n", cfg.to_string().c_str(), cfg.w);
  std::printf("storage efficiency %.2f%%, %.3f devices saved vs traditional codes\n\n",
              100 * cfg.storage_efficiency(), cfg.devices_saved());

  const EncodingCosts costs = analyze_costs(code);
  std::printf("Mult_XORs/stripe: standard=%zu upstairs=%zu downstairs=%zu -> auto picks %s\n",
              costs.standard, costs.upstairs, costs.downstairs,
              costs.best == EncodingMethod::kUpstairs     ? "upstairs"
              : costs.best == EncodingMethod::kDownstairs ? "downstairs"
                                                          : "standard");

  std::size_t symbol = (stripe_mb << 20) / (cfg.n * cfg.r);
  symbol -= symbol % 16;
  if (symbol < 16) symbol = 16;
  const std::size_t stripe_bytes = symbol * cfg.n * cfg.r;
  StripeBuffer stripe(code, symbol);
  std::vector<std::uint8_t> data(stripe.data_size());
  Rng rng(7);
  rng.fill(data);
  stripe.set_data(data);
  Workspace ws;

  std::printf("stripe: %zu x %zu symbols of %zu bytes (%.1f MB)\n\n", cfg.r, cfg.n, symbol,
              stripe_bytes / 1048576.0);

  for (const auto& [label, method] :
       std::vector<std::pair<const char*, EncodingMethod>>{
           {"encode (auto)      ", EncodingMethod::kAuto},
           {"encode (standard)  ", EncodingMethod::kStandard},
           {"encode (upstairs)  ", EncodingMethod::kUpstairs},
           {"encode (downstairs)", EncodingMethod::kDownstairs}}) {
    const double mbps =
        measure([&] { code.encode(stripe.view(), method, &ws); }, stripe_bytes);
    std::printf("%s %8.0f MB/s\n", label, mbps);
  }

  // Worst-case decode: m leftmost chunks + the full stair at the bottom.
  // Replayed through the session's plan cache — compiled once on the first
  // call, pure region work on every call after (the failure-epoch path).
  std::vector<bool> mask(cfg.n * cfg.r, false);
  for (std::size_t d = 0; d < cfg.m; ++d)
    for (std::size_t i = 0; i < cfg.r; ++i) mask[i * cfg.n + d] = true;
  for (std::size_t l = 0; l < cfg.m_prime(); ++l)
    for (std::size_t q = 0; q < cfg.e[l]; ++q)
      mask[(cfg.r - 1 - q) * cfg.n + cfg.m + l] = true;
  auto schedule = code.build_decode_schedule(mask);
  if (schedule) {
    const double mbps = measure(
        [&] { code.decode(stripe.view(), mask, &ws, &codec.plan_cache()); }, stripe_bytes);
    std::printf("decode (worst case)  %8.0f MB/s  (%zu lost symbols, %zu Mult_XORs)\n",
                mbps, std::count(mask.begin(), mask.end(), true),
                schedule->mult_xor_count());
  }

  // Stripe-batch pipeline: N stripes in flight through the session — the
  // serving regime — against one stripe, which the session range-slices
  // across the idle pool.
  const std::size_t batch =
      std::min<std::size_t>(4, std::max<std::size_t>(1, codec.pool().concurrency()));
  std::printf("\nbatch pipeline, %zu stripes in flight (pool width %zu):\n", batch,
              codec.pool().concurrency());
  const double single = measure([&] { codec.submit_encode(stripe.view()).wait(); }, stripe_bytes);
  std::printf("encode 1-stripe batch %8.0f MB/s\n", single);

  std::vector<StripeBuffer> stripes;
  for (std::size_t i = 0; i < batch; ++i) {
    stripes.emplace_back(code, symbol);
    rng.fill(data);
    stripes[i].set_data(data);
  }
  const double batched = measure(
      [&] {
        std::vector<Codec::Handle> handles;
        for (auto& s : stripes) handles.push_back(codec.submit_encode(s.view()));
        codec.wait_all();
      },
      stripe_bytes * batch);
  std::printf("encode %zu-stripe batch %8.0f MB/s aggregate (%.2fx one stripe)\n", batch,
              batched, batched / single);
  return 0;
}
