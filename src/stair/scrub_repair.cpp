#include "stair/scrub_repair.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.h"

namespace stair {

SharedBandwidth::SharedBandwidth(double rate_mbps, double burst_bytes)
    : rate_mbps_(rate_mbps), burst_bytes_(burst_bytes) {}

bool SharedBandwidth::acquire(std::size_t bytes, const std::function<bool()>& cancel) {
  granted_.fetch_add(bytes, std::memory_order_relaxed);
  if (!(rate_mbps_ > 0.0)) return false;
  using clock = std::chrono::steady_clock;
  const double rate = rate_mbps_ * 1024.0 * 1024.0;
  const double burst = std::max(burst_bytes_, static_cast<double>(bytes));
  bool waited = false;
  while (!(cancel && cancel())) {
    double deficit_s = 0.0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto now = clock::now();
      if (refill_ == clock::time_point{}) refill_ = now;
      tokens_ = std::min(
          burst, tokens_ + std::chrono::duration<double>(now - refill_).count() * rate);
      refill_ = now;
      if (tokens_ >= static_cast<double>(bytes)) {
        tokens_ -= static_cast<double>(bytes);
        return waited;
      }
      deficit_s = (static_cast<double>(bytes) - tokens_) / rate;
    }
    waited = true;
    std::this_thread::sleep_for(std::chrono::duration<double>(std::min(deficit_s, 0.01)));
  }
  return waited;
}

void ScrubReport::accumulate(const ScrubReport& p) {
  ok = ok && p.ok;
  completed = completed && p.completed;
  if (error.empty()) error = p.error;
  stripes = p.stripes;
  stripes_scanned += p.stripes_scanned;
  stripes_degraded += p.stripes_degraded;
  stripes_unrecoverable += p.stripes_unrecoverable;
  chunks_missing += p.chunks_missing;
  sectors_corrupt += p.sectors_corrupt;
  sectors_repaired += p.sectors_repaired;
  repair_failures += p.repair_failures;
  throttle_stalls += p.throttle_stalls;
  bytes_read += p.bytes_read;
  bytes_written += p.bytes_written;
}

/// Per-pass state; lives on the run_pass stack. The ring is declared last,
/// so it drains before the state its callbacks use goes away.
struct Scrubber::Pass {
  Pass(OpenStore& s, std::size_t depth) : store(s), ring(s.slots(), depth) {}

  OpenStore& store;
  std::atomic<std::size_t> repaired{0}, repair_failed{0};
  StripeRing ring;
};

Scrubber::Scrubber(Codec& codec, ScrubOptions options)
    : codec_(codec),
      options_(std::move(options)),
      engine_(io::engine_or_create(options_.engine, owned_engine_)),
      bucket_(options_.rate_mbps, options_.burst_bytes) {
  if (options_.stripes_in_flight == 0) options_.stripes_in_flight = 1;
  background_report_.ok = background_report_.completed = true;
}

Scrubber::~Scrubber() { stop(); }

ScrubReport Scrubber::scrub(const std::string& store_dir) {
  return run_pass(store_dir, std::nullopt);
}

ScrubReport Scrubber::rebuild_device(const std::string& store_dir, std::size_t device) {
  return run_pass(store_dir, device);
}

ScrubReport Scrubber::rebuild_device(OpenStore& store, std::size_t device) {
  return run_pass(store, device);
}

bool Scrubber::pace(std::size_t bytes, const StripeReader& reader) {
  using clock = std::chrono::steady_clock;
  bool stalled = false;
  // Idle-slot gate: foreground pressure is Codec jobs beyond the store
  // reader's in-flight decodes. Bounded: a node that is never idle still
  // gets scrubbed, just never at full tilt.
  auto gated = [&] {
    if (options_.hold) return options_.hold();
    if (!options_.yield_to_foreground) return false;
    return codec_.jobs_in_flight() > reader.decodes_in_flight();
  };
  const auto gate_deadline = clock::now() + options_.max_stall;
  while (!stop_.load(std::memory_order_relaxed) && gated() && clock::now() < gate_deadline) {
    stalled = true;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  // Own bucket first, cluster-wide cap last: an array throttled by its own
  // bucket should not hold shared tokens it cannot spend yet.
  const auto stopping = [this] { return stop_.load(std::memory_order_relaxed); };
  if (bucket_.acquire(bytes, stopping)) stalled = true;
  if (options_.shared_bandwidth && options_.shared_bandwidth->acquire(bytes, stopping))
    stalled = true;
  return stalled;
}

ScrubReport Scrubber::run_pass(const std::string& store_dir,
                               std::optional<std::size_t> rebuild) {
  std::unique_ptr<OpenStore> store;
  try {
    // A detect-only pass opens read-only: it cannot write even by mistake.
    const auto access = rebuild || options_.repair ? OpenStore::Access::kUpdate
                                                   : OpenStore::Access::kRead;
    store = std::make_unique<OpenStore>(codec_, *engine_, store_dir, access,
                                        options_.stripes_in_flight);
  } catch (const std::exception& e) {
    ScrubReport rep;
    rep.error = e.what();
    return rep;
  }
  return run_pass(*store, rebuild);
}

ScrubReport Scrubber::run_pass(OpenStore& open, std::optional<std::size_t> rebuild) {
  ScrubReport rep;
  const StripeStore& store = open.store();
  if (rebuild && *rebuild >= store.cfg.n) {
    rep.error = "rebuild device out of range";
    return rep;
  }

  Pass pass(open, options_.stripes_in_flight);
  if (rebuild) {
    // The target starts empty: every chunk is about to be reconstructed and
    // written back in stripe order. An already empty file is left alone
    // (ext4 flushes a file truncated to zero when it is closed).
    const int fd = open.fds()[*rebuild];
    if (fd < 0 || (open.engine().file_size(fd) > 0 && open.engine().truncate(fd, 0) != 0))
      pass.ring.fail("cannot truncate device " + std::to_string(*rebuild) + " for rebuild");
  }

  const StripeReader::Plan plan{.erase = rebuild, .decode = rebuild || options_.repair};
  std::size_t scanned = 0, stalls = 0;
  for (std::size_t s = 0; s < store.stripes; ++s) {
    if (stop_.load(std::memory_order_relaxed) || pass.ring.failed()) break;
    if (pace(store.cfg.n * store.padded_chunk_bytes(), open.reader())) ++stalls;
    if (stop_.load(std::memory_order_relaxed)) break;
    // Shared-locked here, on the walk thread, until the stripe leaves the
    // ring: its reads, verify, decode and repair all see one version.
    StripeRing::Lease slot = open.hold_shared(pass.ring.acquire(), s);
    ++scanned;
    io::PhaseScope phase(rebuild ? io::IoPhase::kRebuild : io::IoPhase::kScrub);
    open.reader().read(pass.ring, std::move(slot), s, plan,
                       [this, &pass, s, rebuild](StripeRing::Lease slot) {
                         // Clean stripes, detect-only passes, damage outside
                         // coverage and reconstructions the manifest refutes
                         // (both counted by the reader) write nothing.
                         if (slot->recovered && (slot->damaged || rebuild))
                           repair_stripe(pass, std::move(slot), s);
                       });
  }
  // No engine flush: every transfer this pass submitted has retired through
  // its slot lease, and flushing would also wait out unrelated foreground IO
  // on a shared engine.
  pass.ring.drain();
  slots_created_.store(open.slots().created(), std::memory_order_relaxed);

  rep.stripes = store.stripes;
  rep.stripes_scanned = scanned;
  rep.stripes_degraded = pass.ring.degraded.load();
  rep.stripes_unrecoverable = pass.ring.unrecoverable.load();
  rep.chunks_missing = pass.ring.missing.load();
  rep.sectors_corrupt = pass.ring.corrupt.load();
  rep.sectors_repaired = pass.repaired.load();
  rep.repair_failures = pass.repair_failed.load();
  rep.throttle_stalls = stalls;
  rep.bytes_read = pass.ring.bytes_read.load();
  rep.bytes_written = pass.ring.bytes_written.load();
  rep.error = pass.ring.error();
  rep.ok = rep.error.empty();
  rep.completed = rep.ok && rep.stripes_scanned == rep.stripes;
  return rep;
}

void Scrubber::repair_stripe(Pass& pass, StripeRing::Lease slot, std::size_t stripe) {
  const StripeStore& store = pass.store.store();
  const std::size_t n = store.cfg.n, r = store.cfg.r;
  const std::vector<bool>& mask = slot->mask;
  // The reader proved every reconstructed sector against its manifest
  // checksum. Every device with an erased sector gets its whole padded
  // chunk rewritten through the writer, on the store's own fds. The writes
  // hold the lease, so the stripe leaves the ring once the last one retires.
  io::PhaseScope phase(io::IoPhase::kRepair);
  std::vector<int> fds(n, -1);
  std::size_t sectors = 0;
  for (std::size_t j = 0; j < n; ++j) {
    std::size_t masked = 0;
    for (std::size_t i = 0; i < r; ++i) masked += mask[i * n + j];
    if (masked == 0) continue;
    fds[j] = pass.store.fds()[j];
    if (fds[j] < 0)
      pass.repair_failed.fetch_add(1, std::memory_order_relaxed);
    else
      sectors += masked;
  }
  if (sectors > 0)
    pass.store.writer().write(pass.ring, std::move(slot), fds, stripe, {},
                              [&pass, sectors](int err) {
                                if (err)
                                  pass.repair_failed.fetch_add(1, std::memory_order_relaxed);
                                else
                                  pass.repaired.fetch_add(sectors, std::memory_order_relaxed);
                              });
}

void Scrubber::start(const std::string& store_dir, std::chrono::milliseconds pass_gap) {
  start_loop([this, store_dir] { return run_pass(store_dir, std::nullopt); }, pass_gap);
}

void Scrubber::start(OpenStore& store, std::chrono::milliseconds pass_gap) {
  start_loop([this, &store] { return run_pass(store, std::nullopt); }, pass_gap);
}

void Scrubber::start_loop(std::function<ScrubReport()> pass,
                          std::chrono::milliseconds pass_gap) {
  if (loop_.joinable()) return;
  stop_.store(false);
  loop_ = std::thread([this, pass = std::move(pass), pass_gap] {
    while (!stop_.load()) {
      ScrubReport rep = pass();
      {
        std::lock_guard<std::mutex> lock(report_mu_);
        background_report_.accumulate(rep);
      }
      if (rep.completed) passes_completed_.fetch_add(1, std::memory_order_relaxed);
      const auto deadline = std::chrono::steady_clock::now() + pass_gap;
      while (!stop_.load() && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
}

ScrubReport Scrubber::stop() {
  stop_.store(true);
  if (loop_.joinable()) loop_.join();
  stop_.store(false);
  std::lock_guard<std::mutex> lock(report_mu_);
  ScrubReport rep = background_report_;
  background_report_ = ScrubReport{};
  background_report_.ok = background_report_.completed = true;
  return rep;
}

ScrubReport Scrubber::background_report() const {
  std::lock_guard<std::mutex> lock(report_mu_);
  return background_report_;
}

}  // namespace stair
