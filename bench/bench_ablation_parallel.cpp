// Ablation A5 (§6.2.1): "encoding operations can also be parallelized with
// modern multi-core CPUs". Thread-scaling sweep of encode throughput, 1..N
// threads, comparing two mechanisms on the same compiled schedule:
//
//   spawn — the seed's approach: std::threads created and joined on every
//           call, each replaying a per-call sliced copy of the stripe view;
//   pool  — one stripe (batch=1) through a Codec session on a private
//           ThreadPool(t): workers parked once, the stripe cut into
//           cache-aware byte slices of the shared symbol table.
//
// Expected: pool >= spawn at every thread count (the gap is the per-call
// spawn overhead), near-linear scaling up to the physical core count. On a
// single-vCPU machine both curves are flat — the mechanism is what's tested
// here; the speedup depends on the host.
//
// Every measured cell is appended to BENCH_parallel_scaling.json for the
// perf trajectory the CI tracks. STAIR_BENCH_SMOKE=1 (or --smoke) shrinks
// the stripe — the CI smoke configuration.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "gf/kernel.h"
#include "stair/codec.h"
#include "util/thread_pool.h"

using namespace stair;
using namespace stair::bench;

namespace {

bool g_smoke = false;
// 128 MB stripes full-size; 32 MB in smoke so CI still sees memory-bound
// scaling without the runtime.
std::size_t symbol_bytes() { return g_smoke ? (128u * 1024) : (512u * 1024); }

struct Cell {
  std::size_t threads;
  std::string mode;  // "spawn" | "pool"
  double mbps;
  double speedup;  // vs the same mode at 1 thread
};
std::vector<Cell> g_cells;

StripeView slice_view(const StripeView& v, std::size_t offset, std::size_t len) {
  StripeView s;
  s.symbol_size = len;
  s.stored.reserve(v.stored.size());
  for (const auto& r : v.stored) s.stored.push_back(r.subspan(offset, len));
  for (const auto& r : v.outside_globals)
    s.outside_globals.push_back(r.subspan(offset, len));
  return s;
}

// The seed's per-call mechanism: spawn `threads` std::threads, each slicing
// the stripe view from scratch and replaying its slice (per-thread Workspace
// so scratch at least is warm — generous to the baseline).
void encode_spawning(const StairCode& code, const CompiledSchedule& plan,
                     const StripeView& stripe, std::size_t threads,
                     std::vector<Workspace>& ws) {
  const std::size_t size = stripe.symbol_size;
  std::size_t chunk = (size + threads - 1) / threads;
  chunk = (chunk + 63) / 64 * 64;
  std::vector<std::thread> workers;
  std::size_t t = 0;
  for (std::size_t offset = 0; offset < size; offset += chunk, ++t) {
    const std::size_t len = std::min(chunk, size - offset);
    workers.emplace_back([&, offset, len, t] {
      const StripeView sliced = slice_view(stripe, offset, len);
      code.execute(plan, sliced, &ws[t]);
    });
  }
  for (auto& th : workers) th.join();
}

}  // namespace

int main(int argc, char** argv) {
  const BenchEnv env = parse_env(argc, argv);
  g_smoke = env.smoke;

  const StairConfig cfg{.n = 16, .r = 16, .m = 2, .e = {1, 1, 2}};
  const StairCode code(cfg);
  const std::size_t symbol = symbol_bytes();
  const std::size_t stripe_bytes = symbol * cfg.n * cfg.r;
  const std::size_t hw = env.hardware_threads;

  std::cout << "=== Ablation: multi-threaded encoding (§6.2.1), spawn vs pool ===\n"
            << cfg.to_string() << ", " << (stripe_bytes >> 20) << " MB stripes, " << hw
            << " hardware threads, pool concurrency " << env.pool_width()
            << (g_smoke ? "  [smoke]" : "") << "\n\n";

  StripeBuffer stripe = make_encoded_stripe(code, symbol);
  const EncodingMethod method = code.select_method();
  const CompiledSchedule& plan = code.compiled_encoding_schedule(method);

  // 1..N sweep: every count to 4, then powers of two, then the hardware
  // width — the shape (knee at physical cores) needs the low counts.
  const std::vector<std::size_t> counts = thread_sweep(hw);

  TablePrinter table("encode throughput (MB/s), spawn-per-call vs persistent pool");
  table.set_header({"threads", "spawn MB/s", "spawn x", "pool MB/s", "pool x", "pool/spawn"});
  double spawn_base = 0.0, pool_base = 0.0;
  std::vector<Workspace> spawn_ws(std::max<std::size_t>(64, counts.back() + 1));
  for (std::size_t threads : counts) {
    const double spawn = measure_mbps(
        [&] { encode_spawning(code, plan, stripe.view(), threads, spawn_ws); }, stripe_bytes);
    ThreadPool workers(threads);
    Codec codec(code, {.pool = &workers});
    const double pool = measure_mbps(
        [&] { codec.submit_encode(stripe.view(), method).wait(); }, stripe_bytes);
    if (threads == 1) {
      spawn_base = spawn;
      pool_base = pool;
    }
    g_cells.push_back({threads, "spawn", spawn, spawn / spawn_base});
    g_cells.push_back({threads, "pool", pool, pool / pool_base});
    table.add_row({std::to_string(threads), format_sig(spawn, 4),
                   format_sig(spawn / spawn_base, 3) + "x", format_sig(pool, 4),
                   format_sig(pool / pool_base, 3) + "x", format_sig(pool / spawn, 3)});
  }
  table.print(std::cout);

  {
    const std::string path = json_output_path("BENCH_parallel_scaling.json", g_smoke);
    std::ofstream out(path);
    out << "{\n  \"bench\": \"ablation_parallel_scaling\",\n"
        << "  \"backend\": \"" << gf::backend_name(gf::active_backend()) << "\",\n"
        << "  \"smoke\": " << (g_smoke ? "true" : "false") << ",\n"
        << "  \"hardware_threads\": " << hw << ",\n"
        << "  \"pool_concurrency\": " << env.pool_width() << ",\n"
        << "  \"stripe_bytes\": " << stripe_bytes << ",\n  \"cells\": [\n";
    for (std::size_t i = 0; i < g_cells.size(); ++i) {
      const Cell& c = g_cells[i];
      out << "    {\"threads\": " << c.threads << ", \"mode\": \"" << c.mode
          << "\", \"mbps\": " << c.mbps << ", \"speedup\": " << c.speedup << "}"
          << (i + 1 < g_cells.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "\nWrote " << g_cells.size() << " cells to " << path << "\n";
  }

  std::cout << "Shape check: pool >= spawn at every thread count; MB/s monotone\n"
               "non-decreasing with threads, approaching linear speedup up to the\n"
               "machine's physical core count (flat on a single-vCPU host).\n";
  return 0;
}
