#include "stair/stripe_engine.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "stair/open_store.h"
#include "util/thread_pool.h"

namespace stair {

// ---------------------------------------------------------------------------
// StripeRing
// ---------------------------------------------------------------------------

StripeRing::StripeRing(WorkspacePool<StripeSlot>& slots, std::size_t depth)
    : slots_(slots), depth_(std::max<std::size_t>(depth, 1)) {}

StripeRing::~StripeRing() { drain(); }

StripeRing::Lease StripeRing::acquire() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return in_flight_ < depth_; });
    ++in_flight_;
  }
  // The slot returns to the pool before the ring counts the stripe out, so
  // the pool settles at the depth high-water mark.
  WorkspacePool<StripeSlot>::Lease inner = slots_.acquire();
  StripeSlot* raw = inner.get();
  return Lease(raw, [this, inner = std::move(inner)](StripeSlot*) mutable {
    inner.reset();
    retire();
  });
}

void StripeRing::retire() {
  // Notify under the lock: once in_flight_ hits 0 a racing drain() returns
  // and the ring, on its operation's stack, is destroyed. Only the two
  // transitions anyone waits for notify — a free place for acquire(), an
  // empty ring for drain() — so a ring used as a completion wait does not
  // wake its waiter once per transfer.
  std::lock_guard<std::mutex> lock(mu_);
  --in_flight_;
  if (in_flight_ == 0 || in_flight_ + 1 == depth_) cv_.notify_all();
}

void StripeRing::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return in_flight_ == 0; });
}

void StripeRing::fail(std::string message) {
  std::lock_guard<std::mutex> lock(mu_);
  if (error_.empty()) error_ = std::move(message);
}

std::string StripeRing::error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_;
}

void StripeRing::tally(IoStats& st) const {
  st.degraded_stripes = degraded.load();
  st.failed_stripes = unrecoverable.load();
  st.chunks_missing = missing.load();
  st.sectors_corrupt = corrupt.load();
  st.bytes_read = bytes_read.load();
  st.bytes_written = bytes_written.load();
  st.error = error();
}

// ---------------------------------------------------------------------------
// ChunkStaging
// ---------------------------------------------------------------------------

ChunkStaging::ChunkStaging(io::Engine& engine, const StripeStore& store,
                           std::size_t capacity)
    : engine_(engine),
      pool_(store.padded_chunk_bytes(), store.staging_alignment(), capacity) {
  // ENOTSUP (thread backend), EBUSY (another store's set is live) or ENOMEM
  // just mean the plain path: the buffers stay aligned and valid either way.
  const auto regions = pool_.regions();
  registered_ = capacity && engine_.register_buffers({regions.data(), regions.size()}) == 0;
}

ChunkStaging::~ChunkStaging() {
  // Unpin before the pool (and, for owned engines, the ring) goes away.
  if (registered_) engine_.unregister_buffers();
}

void ChunkStaging::lease_chunks(StripeSlot& slot, std::size_t devices) {
  slot.chunks.resize(devices);
  for (auto& lease : slot.chunks)
    if (!lease) lease = pool_.acquire();
}

void ChunkStaging::read(int fd, std::uint64_t offset, IoBuffer& chunk, std::size_t bytes,
                        io::Callback cb) {
  const std::span<std::uint8_t> buf(chunk.data, bytes);
  if (registered_)
    engine_.read_fixed(fd, offset, buf, chunk.index, std::move(cb));
  else
    engine_.read(fd, offset, buf, std::move(cb));
}

void ChunkStaging::write(int fd, std::uint64_t offset, const IoBuffer& chunk,
                         std::size_t bytes, io::Callback cb) {
  const std::span<const std::uint8_t> buf(chunk.data, bytes);
  if (registered_)
    engine_.write_fixed(fd, offset, buf, chunk.index, std::move(cb));
  else
    engine_.write(fd, offset, buf, std::move(cb));
}

// ---------------------------------------------------------------------------
// StripeReader
// ---------------------------------------------------------------------------

/// One stripe read in flight, shared by its n chunk completions; the last
/// verifier hands the lease on to assembly.
struct StripeReader::Job {
  StripeRing& ring;
  StripeRing::Lease slot;
  std::size_t stripe;
  Plan plan;
  Done done;
};

void StripeReader::read(StripeRing& ring, StripeRing::Lease slot, std::size_t stripe,
                        Plan plan, Done done) {
  const StripeStore& store = open_.store();
  const StairConfig& cfg = store.cfg;
  if (!slot->buf) slot->buf.emplace(codec_.code(), store.symbol_bytes);
  open_.staging().lease_chunks(*slot, cfg.n);
  slot->results.assign(cfg.n, io::Result{});
  slot->sector_bad.assign(cfg.r * cfg.n, 0);
  slot->pending.store(cfg.n, std::memory_order_relaxed);

  auto job = std::make_shared<Job>(Job{ring, std::move(slot), stripe, plan, std::move(done)});
  for (std::size_t j = 0; j < cfg.n; ++j) {
    auto complete = [this, job, j](const io::Result& r) {
      job->slot->results[j] = r;  // devices are disjoint; the countdown publishes
      // Verify (r sector hashes) is real work: bounce it onto the codec pool
      // so engine threads keep completing IO. Per chunk, not per stripe —
      // the bytes are hashed while still warm. (One whole-stripe verify after
      // all n reads re-touches the chunks cold, and at depth > 1 rebuild
      // throughput then drops as stripes in flight rise.)
      codec_.pool().submit([this, job, j] { verify_chunk(*job, j); });
    };
    const int fd = open_.fds()[j];
    if (fd < 0 || plan.erase == j)
      complete(io::Result{ENOENT, 0});
    else
      open_.staging().read(fd, store.chunk_offset(stripe), *job->slot->chunks[j],
                           store.padded_chunk_bytes(), std::move(complete));
  }
}

void StripeReader::verify_chunk(Job& job, std::size_t device) {
  StripeSlot& sl = *job.slot;
  const StripeStore& store = open_.store();
  const std::size_t symbol = store.symbol_bytes;
  const io::Result& r = sl.results[device];
  if (job.plan.erase != device && r.ok() && r.bytes == store.padded_chunk_bytes()) {
    const std::uint8_t* data = sl.chunks[device]->data;
    for (std::size_t i = 0; i < store.cfg.r; ++i) {
      const std::span<const std::uint8_t> sector(data + i * symbol, symbol);
      const bool bad = content_hash64(sector) != store.sector_checksum(job.stripe, device, i);
      sl.sector_bad[i * store.cfg.n + device] = bad ? 1 : 0;
      // Odd symbol sizes cannot decode zero-copy over the staging (kernels
      // and altmap regions want 64-byte alignment): stage verified sectors
      // into the stripe buffer here, while they are warm.
      if (!bad && symbol % 64 != 0)
        std::memcpy(sl.buf->symbol(i, device).data(), sector.data(), symbol);
    }
  }
  if (sl.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) assemble(job);
}

void StripeReader::assemble(Job& job) {
  StripeRing& ring = job.ring;
  StripeSlot& sl = *job.slot;
  const StripeStore& store = open_.store();
  const std::size_t n = store.cfg.n, symbol = store.symbol_bytes;
  try {
    sl.mask.assign(store.cfg.r * n, false);
    sl.view = sl.buf->view();
    sl.damaged = false;
    for (std::size_t j = 0; j < n; ++j) {
      const bool erased = job.plan.erase == j;
      const io::Result& r = sl.results[j];
      if (!erased) ring.bytes_read.fetch_add(r.bytes, std::memory_order_relaxed);
      if (erased || !r.ok() || r.bytes != store.padded_chunk_bytes()) {
        // The transfer failed (missing device, EIO, short chunk): nothing in
        // this chunk can be trusted — erase the whole column.
        for (std::size_t i = 0; i < store.cfg.r; ++i) sl.mask[i * n + j] = true;
        if (!erased) {
          ring.missing.fetch_add(1, std::memory_order_relaxed);
          sl.damaged = true;
        }
        continue;
      }
      // The transfer succeeded: erase exactly the sectors whose content lies
      // (torn write, bit rot) — a sector failure for the code's e coverage
      // instead of one of its m device credits. Verified symbols are used
      // straight from the staging where alignment allows.
      for (std::size_t i = 0; i < store.cfg.r; ++i) {
        if (sl.sector_bad[i * n + j]) {
          ring.corrupt.fetch_add(1, std::memory_order_relaxed);
          sl.mask[i * n + j] = true;
          sl.damaged = true;
        } else if (symbol % 64 == 0) {
          sl.view.stored[i * n + j] = std::span(sl.chunks[j]->data + i * symbol, symbol);
        }
      }
    }
    if (sl.damaged) ring.degraded.fetch_add(1, std::memory_order_relaxed);
    const bool erasures = sl.damaged || job.plan.erase.has_value();
    sl.recovered = !erasures;
    if (!erasures || !job.plan.decode) {
      if (erasures && !codec_.code().is_recoverable(sl.mask))
        ring.unrecoverable.fetch_add(1, std::memory_order_relaxed);
      finish(ring, std::move(job.slot), job.done);
      return;
    }
    // The mask resolves through the session plan cache: every stripe of a
    // failure epoch (a lost device, a rebuild) replays one compiled plan.
    decoding_.fetch_add(1, std::memory_order_relaxed);
    StripeSlot* raw = &sl;
    try {
      codec_.submit_decode(
          raw->view, raw->mask,
          [this, &ring, slot = std::move(job.slot), done = std::move(job.done)](bool ok) mutable {
            decoding_.fetch_sub(1, std::memory_order_relaxed);
            // Outside the code's coverage: counted, never thrown.
            if (!ok) ring.unrecoverable.fetch_add(1, std::memory_order_relaxed);
            slot->recovered = ok;
            finish(ring, std::move(slot), done);
          });
    } catch (...) {
      decoding_.fetch_sub(1, std::memory_order_relaxed);
      throw;
    }
  } catch (const std::exception& e) {
    ring.fail(std::string("stripe assembly failed: ") + e.what());
  }
}

void StripeReader::finish(StripeRing& ring, StripeRing::Lease slot, const Done& done) {
  // Callbacks run on pool and codec completion threads, which must not see
  // an exception: a throwing client stage is the operation's fatal error.
  try {
    done(std::move(slot));
  } catch (const std::exception& e) {
    ring.fail(std::string("stripe read stage failed: ") + e.what());
  }
}

namespace {

/// Per-stripe completion gate for the sector reads of a ranged read: waits
/// for exactly this stripe's transfers, unlike Engine::flush() which would
/// also wait out unrelated in-flight IO (a background scrub pass sharing
/// the engine, rebuild traffic) and so couple foreground latency to it.
struct CompletionLatch {
  explicit CompletionLatch(std::size_t n) : remaining(n) {}
  void done() {
    std::lock_guard<std::mutex> lock(mu);
    if (--remaining == 0) cv.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return remaining == 0; });
  }
  std::mutex mu;
  std::condition_variable cv;
  std::size_t remaining;
};

}  // namespace

IoStats StripeReader::read_range(std::uint64_t offset, std::span<std::uint8_t> out) {
  const StripeStore& store = open_.store();
  IoStats st;
  if (out.empty()) {
    st.ok = true;
    return st;
  }
  if (offset > store.file_size || out.size() > store.file_size - offset) {
    st.error = "range exceeds file size " + std::to_string(store.file_size);
    return st;
  }

  const std::size_t n = store.cfg.n;
  const std::size_t symbol = store.symbol_bytes;
  const std::size_t padded = store.padded_chunk_bytes();
  const std::size_t block = store.block_bytes;
  // Aligned mode: O_DIRECT chunk fds accept only block-aligned transfers,
  // so sector reads widen to the enclosing block window inside the padded
  // chunk (read into an aligned lease, copy out the wanted span). An
  // unpadded store keeps exact positioned reads.
  const bool aligned = store.open_mode() == io::OpenMode::kDirect;
  const std::span<const StripeStore::Position> positions = open_.positions();
  const std::size_t stripe_data = positions.size() * symbol;

  std::vector<std::uint8_t> sectors;  // wanted-sector staging, happy path
  const std::size_t first_stripe = offset / stripe_data;
  const std::size_t last_stripe = (offset + out.size() - 1) / stripe_data;
  for (std::size_t s = first_stripe; s <= last_stripe && st.error.empty(); ++s) {
    ++st.stripes;
    const std::uint64_t base = std::uint64_t{s} * stripe_data;
    const std::size_t lo = static_cast<std::size_t>(std::max(offset, base) - base);
    const std::size_t hi = static_cast<std::size_t>(
        std::min<std::uint64_t>(offset + out.size(), base + stripe_data) - base);
    const std::size_t d_lo = lo / symbol;
    const std::size_t d_hi = (hi - 1) / symbol;
    const std::size_t count = d_hi - d_lo + 1;

    // Happy path: positioned reads of exactly the sectors the range needs
    // (widened to block windows in aligned mode), each verified against the
    // manifest before a byte is copied out.
    sectors.assign(count * symbol, 0);
    std::vector<io::Result> results(count);
    std::vector<IoBufferPool::Lease> window_leases;
    std::vector<std::pair<std::size_t, std::size_t>> windows;  // {start, len} per k
    if (aligned) {
      window_leases.resize(count);
      windows.resize(count);
    }
    {
      CompletionLatch latch(count);
      for (std::size_t k = 0; k < count; ++k) {
        const auto [row, dev] = positions[d_lo + k];
        const int fd = open_.fds()[dev];
        if (fd < 0) {
          results[k] = io::Result{ENOENT, 0};
          latch.done();
          continue;
        }
        const std::size_t sec_off = row * symbol;
        auto done = [&results, &latch, k](const io::Result& r) {
          results[k] = r;
          latch.done();
        };
        if (aligned) {
          const std::size_t wlo = sec_off / block * block;
          const std::size_t whi =
              std::min(padded, (sec_off + symbol + block - 1) / block * block);
          windows[k] = {wlo, whi - wlo};
          window_leases[k] = open_.staging().acquire();
          open_.engine().read(fd, store.chunk_offset(s) + wlo,
                       std::span(window_leases[k]->data, whi - wlo), std::move(done));
        } else {
          open_.engine().read(fd, store.chunk_offset(s) + sec_off,
                       std::span(sectors.data() + k * symbol, symbol), std::move(done));
        }
      }
      latch.wait();
    }
    bool clean = true;
    for (std::size_t k = 0; k < count; ++k) {
      const auto [row, dev] = positions[d_lo + k];
      st.bytes_read += results[k].bytes;
      const std::size_t expected = aligned ? windows[k].second : symbol;
      const bool got = results[k].ok() && results[k].bytes == expected;
      if (got && aligned)
        std::memcpy(sectors.data() + k * symbol,
                    window_leases[k]->data + (row * symbol - windows[k].first), symbol);
      clean = clean && got &&
              content_hash64(std::span<const std::uint8_t>(sectors.data() + k * symbol,
                                                           symbol)) ==
                  store.sector_checksum(s, dev, row);
    }
    if (clean) {
      std::memcpy(out.data() + (base + lo - offset), sectors.data() + (lo - d_lo * symbol),
                  hi - lo);
      continue;
    }

    // Degraded: something the range needs is missing or lying. The stripe
    // takes the one read path — n chunk reads, per-sector verify, the true
    // erasure mask, a decode through the session plan cache — and every
    // reconstructed symbol the range needs must match its manifest checksum
    // before its bytes are served (read ones were verified on arrival).
    ++st.degraded_stripes;
    std::string error;
    StripeRing ring(open_.slots(), 1);
    read(ring, ring.acquire(), s, {}, [&](StripeRing::Lease slot) {
      if (!slot->recovered) {
        error = "stripe " + std::to_string(s) + " unrecoverable for ranged read";
        return;
      }
      for (std::size_t k = 0; k < count; ++k) {
        const auto [row, dev] = positions[d_lo + k];
        if (slot->mask[row * n + dev] &&
            content_hash64(slot->view.stored[row * n + dev]) !=
                store.sector_checksum(s, dev, row)) {
          error = "stripe " + std::to_string(s) + " reconstruction failed verification";
          return;
        }
        const std::size_t sym_lo = std::max(lo, (d_lo + k) * symbol);
        const std::size_t sym_hi = std::min(hi, (d_lo + k + 1) * symbol);
        std::memcpy(out.data() + (base + sym_lo - offset),
                    slot->view.stored[row * n + dev].data() + (sym_lo - (d_lo + k) * symbol),
                    sym_hi - sym_lo);
      }
    });
    ring.drain();
    st.bytes_read += ring.bytes_read.load();
    st.chunks_missing += ring.missing.load();
    st.sectors_corrupt += ring.corrupt.load();
    if (ring.failed()) error = "ranged degraded read failed: " + ring.error();
    if (!error.empty()) {
      ++st.failed_stripes;
      st.error = std::move(error);
    }
  }
  st.ok = st.error.empty();
  return st;
}

// ---------------------------------------------------------------------------
// StripeWriter
// ---------------------------------------------------------------------------

void StripeWriter::write(StripeRing& ring, StripeRing::Lease slot, const StripeView& stripe,
                         std::span<const int> fds, std::size_t index,
                         std::span<std::uint64_t> checksums, Done done) {
  const StripeStore& store = open_.store();
  ChunkStaging& staging = open_.staging();
  const StairConfig& cfg = store.cfg;
  const std::size_t symbol = store.symbol_bytes;
  const std::size_t chunk_bytes = store.chunk_bytes();
  const std::size_t padded = store.padded_chunk_bytes();
  staging.lease_chunks(*slot, cfg.n);
  std::size_t writes = 0;
  for (std::size_t j = 0; j < cfg.n; ++j) {
    if (fds[j] < 0) continue;
    ++writes;
    std::uint8_t* chunk = slot->chunks[j]->data;
    // Gather the device's r symbols (stripe-contiguous on disk), hashing
    // each while it is warm from the copy.
    for (std::size_t i = 0; i < cfg.r; ++i) {
      const std::span<const std::uint8_t> sym = stripe.stored[i * cfg.n + j];
      if (sym.data() != chunk + i * symbol) std::memcpy(chunk + i * symbol, sym.data(), symbol);
      if (!checksums.empty()) checksums[j * cfg.r + i] = content_hash64(sym);
    }
    // Pad bytes are written (zeroed) rather than skipped: the whole padded
    // row transfers in one aligned write.
    if (padded > chunk_bytes) std::memset(chunk + chunk_bytes, 0, padded - chunk_bytes);
  }
  if (writes == 0) {
    done(0);
    return;
  }
  slot->write_error.store(0, std::memory_order_relaxed);
  slot->pending.store(writes, std::memory_order_relaxed);
  auto finish = std::make_shared<Done>(std::move(done));
  for (std::size_t j = 0; j < cfg.n; ++j) {
    if (fds[j] < 0) continue;
    staging.write(fds[j], store.chunk_offset(index), *slot->chunks[j], padded,
                  [&ring, slot, finish, padded](const io::Result& r) {
                    ring.bytes_written.fetch_add(r.bytes, std::memory_order_relaxed);
                    if (!r.ok() || r.bytes < padded) {
                      int none = 0;
                      slot->write_error.compare_exchange_strong(none, r.error ? r.error : EIO);
                    }
                    if (slot->pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
                      (*finish)(slot->write_error.load(std::memory_order_relaxed));
                  });
  }
}

}  // namespace stair
