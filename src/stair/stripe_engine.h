// Stripe engine — the one way to read-verify-decode a stored stripe and the
// one way to write one.
//
// Every layer above a StripeStore — file decode, ranged reads, scrub,
// rebuild and repair, file encode, node writes — does one of two things to
// a stripe, and each is written exactly once here:
//
//   StripeReader: one transfer per device, over every row or, for a ranged
//     read, the rows holding its wanted bytes (block-widened on a padded
//     store) ─▶ each device's rows verified sector by sector on its own
//     completion (hashed while still warm) ─▶ one sector-granular erasure
//     mask (a failed or short transfer erases its rows, a checksum mismatch
//     only its sector; optionally one column pre-erased for rebuild); a
//     ranged read with a wanted sector erased widens here to the whole
//     stripe ─▶ when asked, a decode in place through the session
//     DecodePlanCache ─▶ each rebuilt sector the plan uses proven against
//     its manifest checksum ─▶ the wanted bytes copied out ─▶ callback. No
//     caller checks a sector.
//   StripeWriter: the slot's chunks as they are, pad tails zeroed ─▶ hash
//     every sector ─▶ the positioned chunk writes under one countdown ─▶
//     callback. Manifest updates stay with the caller.
//
// A slot's chunk staging is its only stripe buffer: symbol (i, j) is row i
// of device j's chunk. Encodes lay data into it and run in place, as do the
// reader's verify and decode, and the writer writes the chunks as they are.
//
// Each live store has one staging pool, reader and writer, built by its
// OpenStore (stair/open_store.h).
//
// Both run inside a StripeRing: the bounded set of stripes one operation has
// in flight. A ring leases slots (chunk staging and the reader's
// verdicts) up to its depth, keeps the operation's first fatal
// error and its tallies, and drain() waits until every slot is back. A
// stripe leaves the ring when the last copy of its lease is released, so no
// stage retires a stripe by hand. Synchronous callers (ranged reads, node
// writes) use a ring of depth 1 as their completion wait.
//
// Stage work (verify and assembly) never runs on an IO completion
// thread: the single uring reaper in particular must stay free to complete
// transfers. It runs on the codec pool, except in read_range's ring, whose
// caller does nothing but wait for each stripe: there the thread waiting in
// acquire() or drain() runs it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "stair/codec.h"
#include "stair/stripe_store.h"
#include "util/stripe_io.h"
#include "util/workspace_pool.h"

namespace stair {

class OpenStore;

/// Outcome + counters of one store operation (IoPipeline::Stats). `ok` is
/// the everything-checks-out bit: no fatal IO error, no unrecoverable
/// stripe, and (decode) the manifest's checksums folding to its data hash.
struct IoStats {
  bool ok = false;
  std::string error;                 // first fatal error (empty when ok)
  std::size_t stripes = 0;
  std::size_t degraded_stripes = 0;  // reconstructed through the plan cache
  std::size_t failed_stripes = 0;    // outside coverage, or rebuilt bytes the manifest refutes
  std::size_t chunks_missing = 0;    // open/read failure or short chunk
  std::size_t sectors_corrupt = 0;   // read fine, sector checksum mismatch
  std::size_t manifest_errors = 0;   // manifest missing/truncated/garbled
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
};

/// One stripe in flight, reused warm through its store's WorkspacePool:
/// buffers and staging leases stick to the slot.
struct StripeSlot {
  std::vector<std::uint8_t> data;           // flat stripe data (file side)
  std::vector<IoBufferPool::Lease> chunks;  // per-device aligned staging
  std::vector<std::pair<std::size_t, std::size_t>> rows;  // reader: [first, last) per device
  std::vector<io::Result> results;          // reader: per-device transfer outcome
  /// Reader: per-sector verdicts at [i * n + j]. Bytes, not vector<bool>:
  /// concurrent verifiers write disjoint columns, which packed bits cannot
  /// do safely. Published to the assembling thread by `pending`.
  std::vector<std::uint8_t> sector_bad;
  std::vector<bool> mask;  // reader: erased symbols, pre-erased column included
  /// The stripe over `chunks`: symbol (i, j) is row i of chunks[j]. After a
  /// ranged read that did not widen, only its wanted symbols are current.
  StripeView view;
  bool damaged = false;  // reader: damage beyond the pre-erased column
  /// Reader: every sector the plan uses is proven (verified, or rebuilt and
  /// matching the manifest) and its bytes are copied out.
  bool recovered = false;
  std::atomic<std::size_t> pending{0};  // stage countdown (acq_rel)
  std::atomic<int> write_error{0};      // writer: first failed write's errno
};

/// The bounded in-flight ring of one store operation; see the file comment.
/// Lives on the operation's stack and drains on destruction, so no
/// callback outlives it.
class StripeRing {
 public:
  using Lease = std::shared_ptr<StripeSlot>;

  /// Where stage work runs: on the pool handed to stage(), or on the thread
  /// blocked in acquire() or drain(). kWaiter is for a ring of depth 1 whose
  /// caller only waits for each stripe in turn; a caller that does other
  /// work between stripes (a paced scrub) would leave its stripe unretired.
  enum class Stages { kPool, kWaiter };

  /// At most `depth` stripes in flight, leasing from `slots` (the store's).
  StripeRing(WorkspacePool<StripeSlot>& slots, std::size_t depth,
             Stages stages = Stages::kPool);
  ~StripeRing();

  StripeRing(const StripeRing&) = delete;
  StripeRing& operator=(const StripeRing&) = delete;

  /// Blocks while `depth` stripes are in flight, then leases a slot.
  Lease acquire();
  /// Blocks until every leased stripe has left the ring.
  void drain();
  /// Records the operation's first fatal error; later ones are dropped.
  void fail(std::string message);
  std::string error() const;
  bool failed() const { return !error().empty(); }
  /// Copies the tallies and the first error into `st`.
  void tally(IoStats& st) const;
  /// Runs stage work of one of this ring's stripes where `Stages` says.
  void stage(ThreadPool& pool, std::function<void()> work);

  // Tallies, bumped from any thread.
  std::atomic<std::size_t> degraded{0};       // stripes with damage
  std::atomic<std::size_t> unrecoverable{0};  // outside coverage, or refuted
  std::atomic<std::size_t> missing{0};        // failed or short chunk reads
  std::atomic<std::size_t> corrupt{0};        // sectors failing their checksum
  std::atomic<std::uint64_t> bytes_read{0}, bytes_written{0};

 private:
  void retire();
  template <typename Ready>  // waits until ready(), running staged work meanwhile
  void wait(std::unique_lock<std::mutex>& lock, Ready ready);

  WorkspacePool<StripeSlot>& slots_;
  const std::size_t depth_;
  const Stages stages_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::size_t in_flight_ = 0;                  // guarded by mu_
  std::string error_;                          // guarded by mu_
  std::deque<std::function<void()>> staged_;  // guarded by mu_; kWaiter only
};

/// A store's aligned chunk staging: an IoBufferPool sized to its padded
/// chunks, registered with the engine when it accepts (uring READ_FIXED /
/// WRITE_FIXED). An engine refuses a second set (EBUSY), so every store may
/// ask; a refused one keeps plain transfers on the same aligned buffers.
class ChunkStaging {
 public:
  /// `capacity` registrable buffers of `store`'s chunk size (0: on demand).
  ChunkStaging(io::Engine& engine, const StripeStore& store, std::size_t capacity);
  ~ChunkStaging();

  ChunkStaging(const ChunkStaging&) = delete;
  ChunkStaging& operator=(const ChunkStaging&) = delete;

  /// Leases `slot`'s n chunks on its first use (slots keep theirs) and
  /// points its view at them.
  void lease(StripeSlot& slot);

  /// Transfers between a lease and the chunk at `offset` of a device file
  /// (fixed when registered): bytes [lo, hi) of both, or the first `bytes`.
  void read(int fd, std::uint64_t offset, IoBuffer& chunk, std::size_t lo, std::size_t hi,
            io::Callback cb);
  void write(int fd, std::uint64_t offset, const IoBuffer& chunk, std::size_t bytes,
             io::Callback cb);

 private:
  io::Engine& engine_;
  IoBufferPool pool_;
  const std::size_t devices_, rows_, symbol_;
  bool registered_ = false;
};

class StripeReader {
 public:
  /// Runs once the stripe is read, verified and (when asked) decoded, where
  /// the ring runs stage work or on the codec thread that finished the
  /// decode. The lease keeps the stripe in its ring until released.
  using Done = std::function<void(StripeRing::Lease)>;

  struct Plan {
    /// Column treated as erased without being read (the rebuild target).
    std::optional<std::size_t> erase = std::nullopt;
    /// Reconstruct a stripe with erasures. false: verify and tally only
    /// (detect-only scrub; coverage is still checked).
    bool decode = true;
    /// Wanted data bytes [offset, offset + out.size()) of the stripe (data
    /// order), copied into `out` once proven; a stripe not recovered leaves
    /// `out` partly written. Empty: no bytes, and every reconstructed sector
    /// is proven instead (a repair rewrites them all).
    std::size_t offset = 0;
    std::span<std::uint8_t> out = {};
    /// Read only the rows holding `out`'s bytes; a wanted sector missing or
    /// lying widens the read to the whole stripe, for the same bytes.
    bool ranged = false;
  };

  /// The reader of `store`'s stripes, built by the store itself.
  StripeReader(Codec& codec, OpenStore& store) : codec_(codec), open_(store) {}

  /// Reads what `plan` asks of stripe `stripe`, proves and copies out its
  /// bytes, and runs `done`: the only code that issues a stripe's read
  /// transfers or checks a reconstruction. Tallies land on `ring`; the
  /// slot's view/mask/damaged/recovered carry the verdict. Damage outside
  /// coverage or refuted by the manifest is counted, not thrown.
  void read(StripeRing& ring, StripeRing::Lease slot, std::size_t stripe, Plan plan,
            Done done);

  /// Serves original-file bytes [offset, offset + out.size()) from the
  /// store without touching stripes outside it: one ranged read() per
  /// stripe, whose plan copies that stripe's share of the range into `out`.
  /// Runs on the store's own fds, so a call opens nothing. Thread-safe.
  IoStats read_range(std::uint64_t offset, std::span<std::uint8_t> out);

  /// Decode jobs this reader has in flight (what the Scrubber's idle gate
  /// subtracts from Codec::jobs_in_flight() to see foreground pressure).
  std::size_t decodes_in_flight() const {
    return decoding_.load(std::memory_order_relaxed);
  }

 private:
  struct Job;

  void verify_chunk(Job& job, std::size_t device);
  void assemble(Job& job);
  bool deliver(const Job& job) const;
  void finish(Job& job, bool recovered);

  Codec& codec_;
  OpenStore& open_;
  std::atomic<std::size_t> decoding_{0};
};

class StripeWriter {
 public:
  /// Runs once every chunk write of the stripe has retired, with 0 or the
  /// errno of the first failed write (EIO for a short one).
  using Done = std::function<void(int error)>;

  /// The writer of `store`'s stripes, built by the store itself.
  explicit StripeWriter(OpenStore& store) : open_(store) {}

  /// Writes the stripe in `slot`'s chunk staging: each chunk j with
  /// fds[j] >= 0 gets its pad tail zeroed (so stores stay byte-identical
  /// whether or not O_DIRECT engaged), its sectors hashed into
  /// checksums[j * r + i] when `checksums` is non-empty (filled before this
  /// returns), and is written whole at chunk_offset(index). Bytes written
  /// are tallied on `ring`.
  void write(StripeRing& ring, StripeRing::Lease slot, std::span<const int> fds,
             std::size_t index, std::span<std::uint64_t> checksums, Done done);

 private:
  OpenStore& open_;
};

}  // namespace stair
