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

StripeRing::StripeRing(WorkspacePool<StripeSlot>& slots, std::size_t depth, Stages stages)
    : slots_(slots), depth_(std::max<std::size_t>(depth, 1)), stages_(stages) {}

StripeRing::~StripeRing() { drain(); }

StripeRing::Lease StripeRing::acquire() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    wait(lock, [&] { return in_flight_ < depth_; });
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
  wait(lock, [&] { return in_flight_ == 0; });
}

template <typename Ready>
void StripeRing::wait(std::unique_lock<std::mutex>& lock, Ready ready) {
  for (;;) {
    cv_.wait(lock, [&] { return ready() || !staged_.empty(); });
    if (staged_.empty()) return;
    std::function<void()> work = std::move(staged_.front());
    staged_.pop_front();
    lock.unlock();
    work();
    work = nullptr;  // may hold the stripe's last lease, whose retire() locks mu_
    lock.lock();
  }
}

void StripeRing::stage(ThreadPool& pool, std::function<void()> work) {
  // A kWaiter ring is its caller's completion wait: that thread is blocked
  // in acquire() or drain() until the stripe retires, so it runs the stage
  // itself instead of handing it to a parked pool worker.
  if (stages_ == Stages::kPool) return pool.submit(std::move(work));
  std::lock_guard<std::mutex> lock(mu_);
  staged_.push_back(std::move(work));
  cv_.notify_all();
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
      pool_(store.padded_chunk_bytes(), store.staging_alignment(), capacity),
      devices_(store.cfg.n),
      rows_(store.cfg.r),
      symbol_(store.symbol_bytes) {
  // ENOTSUP (thread backend), EBUSY (another store's set is live) or ENOMEM
  // just mean the plain path: the buffers stay aligned and valid either way.
  const auto regions = pool_.regions();
  registered_ = capacity && engine_.register_buffers({regions.data(), regions.size()}) == 0;
}

ChunkStaging::~ChunkStaging() {
  // Unpin before the pool (and, for owned engines, the ring) goes away.
  if (registered_) engine_.unregister_buffers();
}

void ChunkStaging::lease(StripeSlot& slot) {
  // Once, on a fresh slot's first use: later calls must not move the leases
  // that completions of the same stripe are reading.
  if (!slot.chunks.empty()) return;
  std::vector<IoBufferPool::Lease> chunks(devices_);
  for (IoBufferPool::Lease& chunk : chunks) chunk = pool_.acquire();
  slot.view.symbol_size = symbol_;
  slot.view.stored.resize(rows_ * devices_);
  for (std::size_t k = 0; k < rows_ * devices_; ++k)  // (i, j) at k = i * n + j
    slot.view.stored[k] = {chunks[k % devices_]->data + k / devices_ * symbol_, symbol_};
  slot.chunks = std::move(chunks);
}

void ChunkStaging::read(int fd, std::uint64_t offset, IoBuffer& chunk, std::size_t lo,
                        std::size_t hi, io::Callback cb) {
  const std::span<std::uint8_t> buf(chunk.data + lo, hi - lo);
  if (registered_)
    engine_.read_fixed(fd, offset + lo, buf, chunk.index, std::move(cb));
  else
    engine_.read(fd, offset + lo, buf, std::move(cb));
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

/// One stripe read in flight, shared by its transfers' completions; the last
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
  const std::size_t symbol = store.symbol_bytes;
  open_.staging().lease(*slot);
  // Rows each device must deliver: all of them, or those holding the wanted
  // data symbols. Data symbols lie row-major, so a device's wanted rows are
  // contiguous and one transfer covers them.
  slot->rows.assign(cfg.n, {0, plan.ranged ? 0 : cfg.r});
  if (plan.ranged)
    for (std::size_t d = plan.offset / symbol; d * symbol < plan.offset + plan.out.size(); ++d) {
      const auto [row, dev] = open_.positions()[d];
      auto& [first, last] = slot->rows[dev];
      if (first == last) first = row;
      first = std::min(first, row);
      last = std::max(last, row + 1);
    }
  const std::size_t reads = static_cast<std::size_t>(std::count_if(
      slot->rows.begin(), slot->rows.end(), [](const auto& w) { return w.first < w.second; }));
  slot->results.assign(cfg.n, io::Result{});
  slot->sector_bad.assign(cfg.r * cfg.n, 0);
  slot->pending.store(reads, std::memory_order_relaxed);

  auto job = std::make_shared<Job>(Job{ring, std::move(slot), stripe, plan, std::move(done)});
  // Stop at the last transfer: its completion may assemble the stripe and
  // hand the slot on before this loop would move to the next device.
  for (std::size_t j = 0, issued = 0; issued < reads; ++j) {
    const auto [first, last] = job->slot->rows[j];
    if (first == last) continue;
    ++issued;
    auto complete = [this, job, j](const io::Result& r) {
      job->slot->results[j] = r;  // devices are disjoint; the countdown publishes
      // Verify (a hash per sector) is real work: hand it off so engine
      // threads keep completing IO. Per device, not per stripe — the bytes
      // are hashed while still warm. (One whole-stripe verify after all n
      // reads re-touches the chunks cold, and at depth > 1 rebuild
      // throughput then drops as stripes in flight rise.)
      job->ring.stage(codec_.pool(), [this, job, j] { verify_chunk(*job, j); });
    };
    const int fd = open_.fds()[j];
    if (fd < 0 || plan.erase == j) {
      complete(io::Result{ENOENT, 0});
    } else {
      const auto [lo, hi] = store.row_window(first, last);
      open_.staging().read(fd, store.chunk_offset(stripe), *job->slot->chunks[j], lo, hi,
                           std::move(complete));
    }
  }
}

void StripeReader::verify_chunk(Job& job, std::size_t device) {
  StripeSlot& sl = *job.slot;
  const StripeStore& store = open_.store();
  const std::size_t n = store.cfg.n;
  const auto [first, last] = sl.rows[device];
  const auto [lo, hi] = store.row_window(first, last);
  const io::Result& r = sl.results[device];
  if (job.plan.erase != device && r.ok() && r.bytes == hi - lo) {
    for (std::size_t i = first; i < last; ++i) {
      const bool bad = content_hash64(sl.view.stored[i * n + device]) !=
                       store.sector_checksum(job.stripe, device, i);
      sl.sector_bad[i * n + device] = bad ? 1 : 0;
    }
  }
  if (sl.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) assemble(job);
}

void StripeReader::assemble(Job& job) {
  StripeRing& ring = job.ring;
  StripeSlot& sl = *job.slot;
  const StripeStore& store = open_.store();
  const std::size_t n = store.cfg.n;
  try {
    sl.mask.assign(store.cfg.r * n, false);
    std::size_t missing = 0, corrupt = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const auto [first, last] = sl.rows[j];
      if (first == last) continue;  // a ranged read needs nothing here
      const auto [lo, hi] = store.row_window(first, last);
      const bool erased = job.plan.erase == j;
      const io::Result& r = sl.results[j];
      if (!erased) ring.bytes_read.fetch_add(r.bytes, std::memory_order_relaxed);
      if (erased || !r.ok() || r.bytes != hi - lo) {
        // The transfer failed (missing device, EIO, short chunk): nothing it
        // covered can be trusted — erase those rows of the column.
        for (std::size_t i = first; i < last; ++i) sl.mask[i * n + j] = true;
        missing += !erased;
        continue;
      }
      // The transfer succeeded: erase exactly the sectors whose content lies
      // (torn write, bit rot) — a sector failure for the code's e coverage
      // instead of one of its m device credits.
      for (std::size_t i = first; i < last; ++i) {
        if (sl.sector_bad[i * n + j]) {
          ++corrupt;
          sl.mask[i * n + j] = true;
        }
      }
    }
    const bool erasures = std::find(sl.mask.begin(), sl.mask.end(), true) != sl.mask.end();
    if (erasures && job.plan.ranged) {
      // A wanted sector is missing or lying: widen, in this same call, to the
      // whole-stripe read — every chunk, the true erasure mask, a decode
      // through the plan cache — so no ranged read recovers less than it.
      // It wants the same bytes; its verdicts are the ones tallied.
      Plan whole = job.plan;
      whole.ranged = false;
      read(ring, std::move(job.slot), job.stripe, whole, std::move(job.done));
      return;
    }
    ring.missing.fetch_add(missing, std::memory_order_relaxed);
    ring.corrupt.fetch_add(corrupt, std::memory_order_relaxed);
    sl.damaged = missing + corrupt > 0;
    if (sl.damaged) ring.degraded.fetch_add(1, std::memory_order_relaxed);
    if (!erasures || !job.plan.decode) {
      if (erasures && !codec_.code().is_recoverable(sl.mask))
        ring.unrecoverable.fetch_add(1, std::memory_order_relaxed);
      finish(job, !erasures);
      return;
    }
    // The mask resolves through the session plan cache: every stripe of a
    // failure epoch (a lost device, a rebuild) replays one compiled plan.
    decoding_.fetch_add(1, std::memory_order_relaxed);
    StripeSlot* raw = &sl;
    try {
      codec_.submit_decode(raw->view, raw->mask, [this, job = std::move(job)](bool ok) mutable {
        decoding_.fetch_sub(1, std::memory_order_relaxed);
        // Outside the code's coverage: counted, never thrown.
        if (!ok) job.ring.unrecoverable.fetch_add(1, std::memory_order_relaxed);
        finish(job, ok);
      });
    } catch (...) {
      decoding_.fetch_sub(1, std::memory_order_relaxed);
      throw;
    }
  } catch (const std::exception& e) {
    ring.fail(std::string("stripe assembly failed: ") + e.what());
  }
}

bool StripeReader::deliver(const Job& job) const {
  const StripeStore& store = open_.store();
  const StripeSlot& sl = *job.slot;
  const Plan& plan = job.plan;
  const std::size_t n = store.cfg.n, symbol = store.symbol_bytes;
  // Proves and copies out the plan's bytes. Read sectors were verified on
  // arrival; a rebuilt one is used only once it matches its manifest
  // checksum too, so no caller is handed bytes the manifest refutes.
  auto proven = [&](std::size_t row, std::size_t dev) {
    return !sl.mask[row * n + dev] || content_hash64(sl.view.stored[row * n + dev]) ==
                                          store.sector_checksum(job.stripe, dev, row);
  };
  if (plan.out.empty()) {
    for (std::size_t k = 0; k < sl.mask.size(); ++k)
      if (!proven(k / n, k % n)) return false;
    return true;
  }
  const std::size_t end = plan.offset + plan.out.size();
  for (std::size_t d = plan.offset / symbol; d * symbol < end; ++d) {
    const auto [row, dev] = open_.positions()[d];
    if (!proven(row, dev)) return false;
    const std::size_t lo = std::max(plan.offset, d * symbol), hi = std::min(end, (d + 1) * symbol);
    std::memcpy(plan.out.data() + (lo - plan.offset),
                sl.view.stored[row * n + dev].data() + (lo - d * symbol), hi - lo);
  }
  return true;
}

void StripeReader::finish(Job& job, bool recovered) {
  // Callbacks run on pool and codec completion threads, which must not see
  // an exception: a throwing client stage is the operation's fatal error.
  try {
    // A reconstruction the manifest refutes counts as damage outside coverage.
    job.slot->recovered = recovered && deliver(job);
    if (recovered && !job.slot->recovered)
      job.ring.unrecoverable.fetch_add(1, std::memory_order_relaxed);
    job.done(std::move(job.slot));
  } catch (const std::exception& e) {
    job.ring.fail(std::string("stripe read stage failed: ") + e.what());
  }
}

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

  const std::size_t stripe_data = open_.positions().size() * store.symbol_bytes;
  const std::size_t first_stripe = offset / stripe_data;
  const std::size_t last_stripe = (offset + out.size() - 1) / stripe_data;
  StripeRing ring(open_.slots(), 1, StripeRing::Stages::kWaiter);
  for (std::size_t s = first_stripe; s <= last_stripe; ++s) {
    StripeRing::Lease slot = ring.acquire();  // the previous stripe is served
    if (ring.failed()) break;
    ++st.stripes;
    const std::uint64_t base = std::uint64_t{s} * stripe_data;
    const std::uint64_t lo = std::max(offset, base);
    const std::uint64_t hi = std::min<std::uint64_t>(offset + out.size(), base + stripe_data);
    const Plan plan{.offset = static_cast<std::size_t>(lo - base),
                    .out = out.subspan(static_cast<std::size_t>(lo - offset),
                                       static_cast<std::size_t>(hi - lo)),
                    .ranged = true};
    read(ring, std::move(slot), s, plan, [&ring, s](StripeRing::Lease slot) {
      if (!slot->recovered)
        ring.fail("stripe " + std::to_string(s) + " unrecoverable for ranged read");
    });
  }
  ring.drain();
  ring.tally(st);
  st.ok = st.error.empty();
  return st;
}

// ---------------------------------------------------------------------------
// StripeWriter
// ---------------------------------------------------------------------------

void StripeWriter::write(StripeRing& ring, StripeRing::Lease slot, std::span<const int> fds,
                         std::size_t index, std::span<std::uint64_t> checksums, Done done) {
  const StripeStore& store = open_.store();
  ChunkStaging& staging = open_.staging();
  const StairConfig& cfg = store.cfg;
  const std::size_t chunk_bytes = store.chunk_bytes();
  const std::size_t padded = store.padded_chunk_bytes();
  std::size_t writes = 0;
  for (std::size_t j = 0; j < cfg.n; ++j) {
    if (fds[j] < 0) continue;
    ++writes;
    if (!checksums.empty())
      for (std::size_t i = 0; i < cfg.r; ++i)
        checksums[j * cfg.r + i] = content_hash64(slot->view.stored[i * cfg.n + j]);
    // Pad bytes are written (zeroed) rather than skipped: the whole padded
    // row transfers in one aligned write.
    std::memset(slot->chunks[j]->data + chunk_bytes, 0, padded - chunk_bytes);
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
