#include "stair/scrub_repair.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
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
  Pass(const StripeStore& s, const std::string& d, std::optional<std::size_t> r,
       WorkspacePool<StripeSlot>& slots, std::size_t depth)
      : store(s), dir(d), rebuild(r), ring(slots, depth) {}

  const StripeStore& store;
  const std::string& dir;
  std::optional<std::size_t> rebuild;  // device being rebuilt, if any
  std::vector<int> read_fds;           // -1: missing/skip (rebuild target)
  std::vector<int> write_fds;          // -2: not opened yet; guarded by fd_mu
  std::mutex fd_mu;
  std::atomic<std::size_t> repaired{0}, repair_failed{0};
  StripeRing ring;
};

Scrubber::Scrubber(Codec& codec, ScrubOptions options)
    : codec_(codec),
      options_(std::move(options)),
      engine_(io::engine_or_create(options_.engine, owned_engine_)),
      staging_(*engine_, false),
      reader_(codec_, *engine_, staging_),
      writer_(staging_),
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

bool Scrubber::pace(std::size_t bytes) {
  using clock = std::chrono::steady_clock;
  bool stalled = false;
  // Idle-slot gate: foreground pressure is Codec jobs beyond this
  // Scrubber's own in-flight decodes. Bounded: a node that is never idle
  // still gets scrubbed, just never at full tilt.
  auto gated = [&] {
    if (options_.hold) return options_.hold();
    if (!options_.yield_to_foreground) return false;
    return codec_.jobs_in_flight() > reader_.decodes_in_flight();
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
  ScrubReport rep;
  StripeStore store;
  try {
    store = StripeStore::load(store_dir);
  } catch (const std::exception& e) {
    rep.error = e.what();
    return rep;
  }
  rep.error = store.config_mismatch(codec_.code().config());
  if (!rep.error.empty()) return rep;
  if (rebuild && *rebuild >= store.cfg.n) {
    rep.error = "rebuild device out of range";
    return rep;
  }

  // One pass runs at a time per Scrubber, so re-sizing the staging at pass
  // start is safe (outstanding leases pin the old backing store).
  staging_.reserve(store, options_.stripes_in_flight * store.cfg.n);
  Pass pass(store, store_dir, rebuild, slots_, options_.stripes_in_flight);
  // Chunk reads and the rebuild target take whole aligned transfers only,
  // so they open in the layout's mode; sector-patch fds stay buffered.
  const io::OpenMode mode = store.open_mode();
  pass.read_fds.assign(store.cfg.n, -1);
  pass.write_fds.assign(store.cfg.n, -2);
  for (std::size_t j = 0; j < store.cfg.n; ++j) {
    if (rebuild && *rebuild == j) continue;  // target column is re-derived
    pass.read_fds[j] = engine_->open_read(StripeStore::device_path(store_dir, j), mode);
  }
  if (rebuild) {
    // The target file is recreated from scratch (truncate): every chunk is
    // about to be reconstructed and written back in stripe order.
    pass.write_fds[*rebuild] =
        engine_->open_write(StripeStore::device_path(store_dir, *rebuild), mode);
    if (pass.write_fds[*rebuild] < 0)
      pass.ring.fail("cannot recreate " + StripeStore::device_path(store_dir, *rebuild));
  }

  const StripeReader::Plan plan{.erase = rebuild, .decode = rebuild || options_.repair};
  std::size_t scanned = 0, stalls = 0;
  for (std::size_t s = 0; s < store.stripes; ++s) {
    if (stop_.load(std::memory_order_relaxed) || pass.ring.failed()) break;
    if (pace(store.cfg.n * store.padded_chunk_bytes())) ++stalls;
    if (stop_.load(std::memory_order_relaxed)) break;
    StripeRing::Lease slot = pass.ring.acquire();
    ++scanned;
    io::PhaseScope phase(rebuild ? io::IoPhase::kRebuild : io::IoPhase::kScrub);
    reader_.read(pass.ring, std::move(slot), store, pass.read_fds, s, plan,
                 [this, &pass, s](StripeRing::Lease slot) {
                   // Clean stripes, detect-only passes and damage outside
                   // coverage (counted by the reader) write nothing.
                   if (slot->recovered && (slot->damaged || pass.rebuild))
                     repair_stripe(pass, std::move(slot), s);
                 });
  }
  // No engine flush: every transfer this pass submitted has retired through
  // its slot lease, and flushing would also wait out unrelated foreground IO
  // on a shared engine.
  pass.ring.drain();
  for (int fd : pass.read_fds) engine_->close(fd);
  for (int fd : pass.write_fds)
    if (fd >= 0) engine_->close(fd);

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
  if (rep.error.empty() && rep.sectors_repaired > 0) {
    // Repair rewrote store content to its manifest-proven state; re-saving
    // refreshes the recovery point canonically (atomic temp + rename).
    try {
      store.save(store_dir);
    } catch (const std::exception& e) {
      rep.error = e.what();
    }
  }
  rep.ok = rep.error.empty();
  rep.completed = rep.ok && rep.stripes_scanned == rep.stripes;
  return rep;
}

void Scrubber::repair_stripe(Pass& pass, StripeRing::Lease slot, std::size_t stripe) {
  const StripeStore& store = pass.store;
  const std::size_t n = store.cfg.n, r = store.cfg.r, symbol = store.symbol_bytes;
  const StripeView& view = slot->view;
  const std::vector<bool>& mask = slot->mask;
  // Re-verify before rewrite: every reconstructed sector must match its
  // manifest checksum, or the repair writes nothing — a scrubber must never
  // "repair" a store with bytes it cannot prove.
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < r; ++i)
      if (mask[i * n + j] &&
          content_hash64(view.stored[i * n + j]) != store.sector_checksum(stripe, j, i)) {
        pass.repair_failed.fetch_add(1, std::memory_order_relaxed);
        return;
      }

  // The write set per device: a fully-erased column is rewritten as one
  // padded chunk through the writer, scattered sector hits are patched in
  // place straight from the reconstruction. Every write holds the lease, so
  // the stripe leaves the ring once the last one retires.
  io::PhaseScope phase(io::IoPhase::kRepair);
  std::vector<int> whole(n, -1);
  std::size_t whole_sectors = 0;
  for (std::size_t j = 0; j < n; ++j) {
    std::size_t masked = 0;
    for (std::size_t i = 0; i < r; ++i) masked += mask[i * n + j];
    if (masked == 0) continue;
    int fd;
    {
      std::lock_guard<std::mutex> lock(pass.fd_mu);
      if (pass.write_fds[j] == -2)
        pass.write_fds[j] = engine_->open_update(StripeStore::device_path(pass.dir, j));
      fd = pass.write_fds[j];
    }
    if (fd < 0) {
      pass.repair_failed.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (masked == r) {
      whole[j] = fd;
      whole_sectors += r;
      continue;
    }
    for (std::size_t i = 0; i < r; ++i) {
      if (!mask[i * n + j]) continue;
      engine_->write(fd, store.chunk_offset(stripe) + i * symbol, view.stored[i * n + j],
                     [&pass, slot, symbol](const io::Result& res) {
                       pass.ring.bytes_written.fetch_add(res.bytes, std::memory_order_relaxed);
                       if (!res.ok() || res.bytes < symbol)
                         pass.repair_failed.fetch_add(1, std::memory_order_relaxed);
                       else
                         pass.repaired.fetch_add(1, std::memory_order_relaxed);
                     });
    }
  }
  if (whole_sectors > 0)
    writer_.write(pass.ring, slot, store, view, whole, stripe, {},
                  [&pass, whole_sectors](int err) {
                    if (err)
                      pass.repair_failed.fetch_add(1, std::memory_order_relaxed);
                    else
                      pass.repaired.fetch_add(whole_sectors, std::memory_order_relaxed);
                  });
}

void Scrubber::start(const std::string& store_dir, std::chrono::milliseconds pass_gap) {
  if (loop_.joinable()) return;
  stop_.store(false);
  loop_ = std::thread([this, store_dir, pass_gap] {
    while (!stop_.load()) {
      ScrubReport rep = run_pass(store_dir, std::nullopt);
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
