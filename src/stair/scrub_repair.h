// Scrubber — online scrub + rolling repair over a StripeStore.
//
// sim/scrubber.h models *when* latent sector errors should be hunted; this
// is the loop that hunts them. A Scrubber walks a StripeStore through the
// one stripe reader every read path uses (stair/stripe_engine.h) —
// per-sector manifest checksums surface latent errors (bit rot, torn
// writes, vanished chunks) — and escalates every hit into a targeted repair:
//
//   scrub:   StripeReader (n chunks, verify each warm, erasure mask)
//              ├─ clean: retire
//              └─ hit:  decode via the session DecodePlanCache, every
//                       reconstructed sector proven against the manifest
//                         ─▶ rewrite the damaged devices' chunks in place
//   rebuild: the same walk with one device's column pre-erased and its file
//            truncated — a bounded-concurrency stream of degraded reads +
//            whole-chunk writes through the StripeWriter, paced like scrub.
//
// Pacing, because scrub is a guest on a serving node: a token bucket on
// scanned bytes (rate_mbps / burst — a private SharedBandwidth) bounds
// sustained disk traffic, an idle-slot gate holds the next stripe while the
// Codec is busy with foreground jobs (bounded by max_stall so scrub always
// makes progress), and stripes_in_flight bounds the StripeRing exactly like
// IoPipeline's queue_depth. sim::pass_rate_mbps converts a ScrubPolicy
// period into the rate knob.
//
// Every pass runs over one OpenStore (stair/open_store.h): its fds, its
// stripe engine, its live checksums. The walk thread takes each stripe's
// shared lock before the stripe's reads and holds it until the stripe
// leaves the ring, so a pass never sees a write half done; it never blocks
// on a lock inside an IO or codec-pool callback, whose threads may hold
// stripe locks themselves.
//
// Repair is checked: the reader hands a repair its stripe only once every
// reconstructed sector matches its manifest checksum (else the stripe is
// unrecoverable). Each device with a damaged sector then has its whole
// padded chunk rewritten by the StripeWriter in one aligned transfer,
// straight from the slot's chunk staging: the reader verified the sectors it
// read there and decoded the others in place, so a rebuild copies nothing. A
// repair writes bytes the manifest already describes, so a pass never saves
// the manifest.
//
// scrub(dir), rebuild_device(dir) and start(dir) open a store per pass
// (read-only for a detect-only scrub). Such a pass coordinates with no one,
// so it must not run on a directory a StorageNode serves: a pass over a
// served store borrows the node's (start(store), rebuild_device(store, ...)).
//
// Submissions are phase-tagged (io::PhaseScope): scrub reads carry kScrub,
// rebuild reads kRebuild, repair writes kRepair — which is what lets the
// fault decorator aim a fault plan at background maintenance while
// foreground traffic on the same files stays healthy, and what a future
// admission layer can prioritize on.
//
// start()/stop() run passes on a background thread for continuous
// scrubbing. One pass at a time per Scrubber.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "stair/codec.h"
#include "stair/open_store.h"
#include "util/stripe_io.h"

namespace stair {

/// Cluster-wide repair-bandwidth governor: one token bucket shared by many
/// Scrubbers (one per array / store), so N concurrently-rebuilding arrays
/// split one cap instead of each running at full tilt — the knob the cluster
/// simulator's repair-bandwidth model corresponds to on the real data path.
/// acquire() is called from the scrub/rebuild walk before each stripe's
/// reads; it blocks until the bytes are covered or `cancel` returns true.
class SharedBandwidth {
 public:
  explicit SharedBandwidth(double rate_mbps, double burst_bytes = 8.0 * 1024 * 1024);

  /// Draws `bytes` tokens, sleeping off any deficit in short slices so a
  /// stopping Scrubber stays responsive. Returns true when the caller had to
  /// wait (a throttle stall), false when tokens were immediately available
  /// or the rate is unpaced. `cancel` (optional) aborts the wait.
  bool acquire(std::size_t bytes, const std::function<bool()>& cancel = {});

  double rate_mbps() const { return rate_mbps_; }
  /// Total bytes granted — what a test divides by wall time to prove the
  /// aggregate across all sharing Scrubbers stayed under the cap.
  std::uint64_t bytes_granted() const {
    return granted_.load(std::memory_order_relaxed);
  }

 private:
  const double rate_mbps_;
  const double burst_bytes_;
  std::mutex mu_;
  double tokens_ = 0.0;
  std::chrono::steady_clock::time_point refill_{};
  std::atomic<std::uint64_t> granted_{0};
};

struct ScrubOptions {
  /// Stripes in flight at once (the bounded ring; same meaning as
  /// IoPipeline::Options::queue_depth). Also the rebuild concurrency bound.
  std::size_t stripes_in_flight = 2;
  /// Token bucket on scanned store bytes: sustained MB/s (0 = unpaced) and
  /// the burst the bucket may accumulate while scrub is idle or gated.
  double rate_mbps = 0.0;
  double burst_bytes = 8.0 * 1024 * 1024;
  /// Idle-slot gate: before each stripe, hold while the Codec has more jobs
  /// in flight than this Scrubber's own — i.e. while foreground traffic is
  /// active. Bounded by max_stall so a saturated node still gets scrubbed.
  bool yield_to_foreground = true;
  std::chrono::milliseconds max_stall{5};
  /// Custom gate (wins over yield_to_foreground when set): scrub holds
  /// while it returns true. Wire it to an admission queue's depth.
  std::function<bool()> hold;
  /// Cluster-wide repair-bandwidth cap (borrowed, may be shared by many
  /// Scrubbers; must outlive them). Drawn *in addition to* this Scrubber's
  /// own token bucket: rate_mbps bounds one array's scan, the shared
  /// governor bounds the fleet's aggregate repair traffic.
  SharedBandwidth* shared_bandwidth = nullptr;
  /// When false, scrub only detects and counts — no repair writes.
  bool repair = true;
  /// IO engine for the stores a pass opens itself (borrowed — share the
  /// pipeline's to test phase-scoped fault plans); nullptr: the Scrubber
  /// creates and owns one through io::Engine::create(), which reads
  /// STAIR_IO_BACKEND and STAIR_IO_SQPOLL.
  io::Engine* engine = nullptr;
};

/// One pass's outcome. `ok` means no fatal error; `completed` additionally
/// means the pass was not cut short by stop().
struct ScrubReport {
  bool ok = false;
  bool completed = false;
  std::string error;                      // first fatal error (empty when ok)
  std::size_t stripes = 0;                // stripes in the store
  std::size_t stripes_scanned = 0;        // stripes actually walked
  std::size_t stripes_degraded = 0;       // at least one bad sector/chunk
  std::size_t stripes_unrecoverable = 0;  // outside coverage, or refuted by the manifest
  std::size_t chunks_missing = 0;         // open/read failure or short chunk
  std::size_t sectors_corrupt = 0;        // checksum mismatches found
  std::size_t sectors_repaired = 0;       // reconstructed, verified, rewritten
  std::size_t repair_failures = 0;        // repair writes that failed
  std::size_t throttle_stalls = 0;        // times pacing/gating held the walk
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;

  /// Fold `p` into this report (background passes aggregate).
  void accumulate(const ScrubReport& p);
};

class Scrubber {
 public:
  explicit Scrubber(Codec& codec, ScrubOptions options = {});
  /// Stops the background loop, if running.
  ~Scrubber();

  Scrubber(const Scrubber&) = delete;
  Scrubber& operator=(const Scrubber&) = delete;

  /// One full scrub pass over the store in `store_dir`: verify every sector
  /// of every stripe, repair what the options allow. Blocks until the pass
  /// drains (internally async: stripes_in_flight stripes overlap).
  ScrubReport scrub(const std::string& store_dir);

  /// Whole-device rebuild: device `device`'s file is truncated and every
  /// stripe's column reconstructed through the plan cache as a bounded
  /// stream (stripes_in_flight degraded reads + re-encodes in flight).
  /// Damaged sectors found on surviving devices are repaired on the way.
  ScrubReport rebuild_device(const std::string& store_dir, std::size_t device);
  /// The same rebuild over a store someone else holds open — a
  /// StorageNode's (StorageNode::open_store()), while it serves.
  ScrubReport rebuild_device(OpenStore& store, std::size_t device);

  /// Starts a background thread running scrub passes over `store_dir`
  /// every `pass_gap` (gap measured end-to-start). No-op if running.
  void start(const std::string& store_dir,
             std::chrono::milliseconds pass_gap = std::chrono::milliseconds(0));
  /// The background loop over a borrowed store (the node's own scrubber).
  /// `store` must outlive stop().
  void start(OpenStore& store,
             std::chrono::milliseconds pass_gap = std::chrono::milliseconds(0));
  /// Stops the background loop (current pass winds down at the next stripe
  /// boundary) and returns the aggregate of every pass it ran.
  ScrubReport stop();

  std::uint64_t passes_completed() const {
    return passes_completed_.load(std::memory_order_relaxed);
  }
  /// Aggregate of background passes so far (also returned by stop()).
  ScrubReport background_report() const;

  io::Engine& engine() { return *engine_; }
  /// Slot-pool high-water mark of the last pass's store — for a store of
  /// its own, proof the ring kept within stripes_in_flight.
  std::size_t slots_created() const {
    return slots_created_.load(std::memory_order_relaxed);
  }

 private:
  struct Pass;

  ScrubReport run_pass(const std::string& store_dir,
                       std::optional<std::size_t> rebuild_device);
  ScrubReport run_pass(OpenStore& store, std::optional<std::size_t> rebuild_device);
  void start_loop(std::function<ScrubReport()> pass, std::chrono::milliseconds pass_gap);
  void repair_stripe(Pass& pass, StripeRing::Lease slot, std::size_t stripe);
  /// Idle-slot gate, then this Scrubber's token bucket, then the shared
  /// cap; true when any of them held the walk (a throttle stall).
  bool pace(std::size_t bytes, const StripeReader& reader);

  Codec& codec_;
  ScrubOptions options_;
  std::unique_ptr<io::Engine> owned_engine_;
  io::Engine* engine_;
  /// Token bucket on scanned bytes (rate_mbps / burst_bytes).
  SharedBandwidth bucket_;
  std::atomic<std::size_t> slots_created_{0};

  // Background loop.
  std::thread loop_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> passes_completed_{0};
  mutable std::mutex report_mu_;
  ScrubReport background_report_;  // guarded by report_mu_
};

}  // namespace stair
