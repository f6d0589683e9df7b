// Stripe-batch pipeline throughput: aggregate MB/s with N stripes in flight
// through a Codec session — the serving-path regime (millions of users means
// many stripes concurrently, not one big stripe sliced ever thinner).
//
//   batch=1  — the session range-slices the lone stripe across the idle
//              pool: the library's single-stripe parallel number;
//   batch>=pool width — one stripe per task, workers never idle between
//              stripes, no intra-stripe synchronization at all.
//
// Sweeps stripes-in-flight for encode and for cached-plan decode (one
// failure-epoch mask shared by the whole batch). Every cell is measured
// twice, interleaved in time — autotuned decisions vs the fixed heuristics
// (STAIR_AUTOTUNE=0 behavior, toggled in-process so host drift between
// separate runs cannot masquerade as a tuner effect) — and both land in
// BENCH_batch_throughput.json; the CI gate asserts the tuned half keeps up
// with the fixed constants on every cell. STAIR_BENCH_SMOKE=1 (or --smoke) runs smaller stripes — the CI
// smoke configuration (which also redirects the JSON to the repo root; see
// bench::json_output_path).
//
// Expected shape: MB/s non-decreasing with batch up to the pool width, then
// flat — on a single-vCPU host all cells are flat by construction.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "gf/kernel.h"
#include "stair/autotune.h"
#include "stair/codec.h"

using namespace stair;
using namespace stair::bench;

namespace {

struct Cell {
  std::string op;  // "encode" | "decode"
  std::size_t batch;
  bool autotune;   // measured with tuner decisions (true) or fixed heuristics
  double mbps;
  double speedup;  // vs the same op at batch=1 (same autotune half)
};

// Switches the process between tuner-driven and fixed-heuristic execution:
// the decision entry points consult Autotune::enabled() per submit, and the
// measured cache budget is installed/uninstalled to match.
void set_tuned(bool tuned) {
  auto& tuner = stair::Autotune::instance();
  tuner.set_enabled_for_testing(tuned ? 1 : 0);
  if (tuned) {
    const auto& p = tuner.profile();  // ensure()s; probes on first need
    if (p.measured && p.cache_budget_bytes) gf::set_region_cache_budget(p.cache_budget_bytes);
  } else {
    gf::set_region_cache_budget(0);  // back to sysfs/CPUID detection
  }
}

}  // namespace

int main(int argc, char** argv) {
  const BenchEnv env = parse_env(argc, argv);
  const StairConfig cfg{.n = 16, .r = 16, .m = 2, .e = {1, 1, 2}};
  const std::size_t symbol = env.smoke ? (16u * 1024) : (64u * 1024);
  const std::size_t stripe_bytes = symbol * cfg.n * cfg.r;

  std::vector<std::size_t> batches{1, 2, 4, 8, 16};
  if (env.pool_width() > 16) batches.push_back(env.pool_width());
  const std::size_t max_batch = batches.back();

  const StairCode code(cfg);
  Codec codec(code);
  // The process-default tuner state (env), recorded before the interleaved
  // sweep overrides it per half.
  const bool autotune_default = Autotune::instance().enabled();

  std::cout << "=== Stripe-batch pipeline: stripes-in-flight sweep (Codec sessions) ===\n"
            << cfg.to_string() << ", " << (stripe_bytes >> 20) << " MB stripes, pool width "
            << env.pool_width() << ", " << env.hardware_threads << " hardware threads"
            << (env.smoke ? "  [smoke]" : "") << "\n\n";

  // One stripe set, sized for the largest batch; encoded so decode has
  // consistent parities to start from.
  std::vector<StripeBuffer> stripes;
  for (std::size_t i = 0; i < max_batch; ++i)
    stripes.push_back(make_encoded_stripe(code, symbol, 42 + i));

  // Failure-epoch mask: one whole chunk lost, replayed through the session
  // plan cache by every decode.
  std::vector<bool> mask(cfg.n * cfg.r, false);
  for (std::size_t i = 0; i < cfg.r; ++i) mask[i * cfg.n + 2] = true;

  std::vector<Cell> cells;
  TablePrinter table("aggregate throughput (MB/s) vs stripes in flight, tuned/untuned");
  table.set_header({"batch", "encode MB/s", "enc x", "enc tuned/fix", "decode MB/s", "dec x",
                    "dec tuned/fix"});
  double encode_base[2] = {0.0, 0.0}, decode_base[2] = {0.0, 0.0};
  for (std::size_t batch : batches) {
    // Both halves of each cell measured interleaved in time (t, f, t, f),
    // keeping the best of two rounds per half: adjacency cancels slow host
    // drift out of the tuned/fixed ratio, and the max discards one-off
    // interference dips (noise only ever lowers a sample).
    double enc[2] = {0.0, 0.0}, dec[2] = {0.0, 0.0};
    for (int round = 0; round < 2; ++round) {
      for (int tuned = 1; tuned >= 0; --tuned) {
        set_tuned(tuned != 0);
        enc[tuned] = std::max(
            enc[tuned],
            measure_mbps(
                [&] {
                  std::vector<Codec::Handle> handles;
                  handles.reserve(batch);
                  for (std::size_t i = 0; i < batch; ++i)
                    handles.push_back(codec.submit_encode(stripes[i].view()));
                  codec.wait_all();
                },
                stripe_bytes * batch));
        dec[tuned] = std::max(
            dec[tuned],
            measure_mbps(
                [&] {
                  std::vector<Codec::Handle> handles;
                  handles.reserve(batch);
                  for (std::size_t i = 0; i < batch; ++i)
                    handles.push_back(codec.submit_decode(stripes[i].view(), mask));
                  codec.wait_all();
                },
                stripe_bytes * batch));
      }
    }
    for (int tuned = 1; tuned >= 0; --tuned) {
      if (batch == 1) {
        encode_base[tuned] = enc[tuned];
        decode_base[tuned] = dec[tuned];
      }
      cells.push_back({"encode", batch, tuned != 0, enc[tuned], enc[tuned] / encode_base[tuned]});
      cells.push_back({"decode", batch, tuned != 0, dec[tuned], dec[tuned] / decode_base[tuned]});
    }
    table.add_row({std::to_string(batch), format_sig(enc[1], 4),
                   format_sig(enc[1] / encode_base[1], 3) + "x",
                   format_sig(enc[1] / enc[0], 3) + "x", format_sig(dec[1], 4),
                   format_sig(dec[1] / decode_base[1], 3) + "x",
                   format_sig(dec[1] / dec[0], 3) + "x"});
  }
  set_tuned(true);  // leave the process in the default state
  table.print(std::cout);

  const std::string path = json_output_path("BENCH_batch_throughput.json", env.smoke);
  {
    std::ofstream out(path);
    out << "{\n  \"bench\": \"batch_throughput\",\n"
        << "  \"backend\": \"" << gf::backend_name(gf::active_backend()) << "\",\n"
        << "  \"smoke\": " << (env.smoke ? "true" : "false") << ",\n"
        << "  \"autotune\": " << (autotune_default ? "true" : "false") << ",\n"
        << "  \"hardware_threads\": " << env.hardware_threads << ",\n"
        << "  \"pool_width\": " << env.pool_width() << ",\n"
        << "  \"stripe_bytes\": " << stripe_bytes << ",\n  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      out << "    {\"op\": \"" << c.op << "\", \"batch\": " << c.batch
          << ", \"autotune\": " << (c.autotune ? "true" : "false")
          << ", \"mbps\": " << c.mbps << ", \"speedup\": " << c.speedup << "}"
          << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
  }
  std::cout << "\nWrote " << cells.size() << " cells to " << path << "\n";

  std::cout << "Shape check: MB/s non-decreasing with batch up to the pool width\n"
               "(flat on a single-vCPU host); tuned/fixed ~ 1.0x or better on every\n"
               "cell (the tuner's decisions never regress the fixed heuristics).\n";
  return 0;
}
