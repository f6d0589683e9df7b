// StorageNode — the served system over the fast data path.
//
// A StorageNode turns the data path into a long-running service where
// competing clients and background maintenance contend under explicit
// policy, and where the headline number is tail latency vs offered load:
//
//   * Admission: per-tenant bounded queues. A submit against a full queue
//     (or a draining node) is rejected immediately — reject-with-backpressure,
//     never unbounded memory, never a blocked client thread. Rejects are
//     counted per tenant.
//   * Priority: foreground reads ahead of writes ahead of scans; background
//     scrub/repair runs below all of them, held off by the same policy — the
//     node wires the Scrubber's `hold` gate to its own foreground pressure
//     (queued + in-service requests), composing with the Scrubber's existing
//     Codec idle-slot gate and io::PhaseScope tagging into one policy.
//   * Fairness: within each priority class, tenants are served round-robin,
//     so one tenant flooding its queue cannot starve another's reads — the
//     flooder is bounded by its own queue, the victim by its own round.
//   * Batching: when read queues back up, small reads landing in the same
//     stripe span are coalesced into one shared stripe submission (one
//     read_range serving many requesters) — queue pressure buys IO merging
//     instead of queue-depth collapse.
//   * Metrics: per-tenant queue depth / rejects / completions, degraded-read
//     and failure counters, and mergeable log-bucketed latency histograms
//     (util/latency.h) per request class — p50/p99/p999, not averages.
//   * Lifecycle: start() opens the store and spawns the service; drain()
//     stops admitting, finishes everything in flight, and re-saves the
//     manifest (the store's recovery point); stop() drains and shuts down.
//     A new StorageNode on the same directory resumes byte-identically.
//
// Requests are in-process (submit(Request) -> Future): the node is the
// scheduling and accounting layer a network frontend would sit on, kept
// transport-free so tests and benches drive it at memory speed.
//
// start() opens the node's one OpenStore (stair/open_store.h) on the
// node's engine; workers and the background scrubber borrow it. Reads are
// served by its StripeReader::read_range on the worker itself — degraded
// ones (a device mid-rebuild) decode through the session plan cache. A write
// copies its payload once, into the data symbols of a slot's chunk staging,
// encodes the stripe there in place, rewrites all n chunks from it through
// the StripeWriter, and installs the new checksums and re-saves the
// manifest before the ack.
// Stripe locks order it all: reads shared, writes exclusive, and the
// scrubber shared from a stripe's reads until its repairs retire, so scrub
// verifies against the live checksums and never sees a write half done. A
// repair writes bytes the manifest already describes and saves nothing.
//
// Thread-safety: submit()/stats() from any thread; Future::wait() blocks the
// caller only. Request buffers (out/data spans) must stay valid until the
// future completes. drain()/stop() may be called once, from one thread.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "stair/codec.h"
#include "stair/open_store.h"
#include "stair/scrub_repair.h"
#include "util/latency.h"

namespace stair {

/// Request classes in strict priority order (lower value = served first).
/// Scan is the bulk tier: same read path as kRead, scheduled below writes so
/// background-ish table scans cannot inflate point-read tails.
enum class RequestType : std::uint8_t { kRead = 0, kWrite = 1, kScan = 2 };
constexpr std::size_t kRequestClasses = 3;

struct Request {
  RequestType type = RequestType::kRead;
  /// Admission queue this request charges against (< Options::tenants).
  std::size_t tenant = 0;

  // Read / scan: serve original-file bytes [offset, offset + out.size()).
  std::uint64_t offset = 0;
  std::span<std::uint8_t> out;

  // Write: replace stripe `stripe`'s data with `data` (exactly the stripe's
  // data bytes — min(stripe_data, file_size - stripe * stripe_data)).
  std::size_t stripe = 0;
  std::span<const std::uint8_t> data;
};

struct Response {
  bool ok = false;
  /// True when admission refused the request (full tenant queue or draining
  /// node). Rejected requests never entered a queue; `error` says why.
  bool rejected = false;
  std::string error;
  std::size_t degraded_stripes = 0;  // stripes served through the plan cache
  std::uint64_t bytes = 0;           // payload bytes served / persisted
  double queue_seconds = 0.0;        // admission -> dispatch
  double service_seconds = 0.0;      // dispatch -> completion
};

namespace detail {
struct RequestState;
}

class StorageNode {
 public:
  struct Options {
    /// Admission queues (tenants are dense indices 0..tenants-1).
    std::size_t tenants = 4;
    /// Per-tenant bound on queued requests, all classes together — the
    /// admission controller's memory bound. A submit finding the queue at
    /// capacity is rejected, never blocked.
    std::size_t queue_capacity = 64;
    /// Service worker threads (each drives one request — or one read batch —
    /// at a time through the pipeline). 0 picks min(4, max(2, pool width)).
    std::size_t workers = 0;
    /// Read batching: a popped read may carry along up to batch_limit - 1
    /// queued reads whose ranges fall inside its stripe span, served by one
    /// shared read_range. 1 disables coalescing.
    std::size_t batch_limit = 8;
    /// Coalesce only when at least this many reads are queued after the pop
    /// — batching is a backlog response, not a happy-path detour.
    std::size_t batch_min_backlog = 2;
    /// Run a background Scrubber over the store while serving (its `hold`
    /// gate is wired to this node's foreground pressure unless the caller
    /// supplies one).
    bool scrub = false;
    ScrubOptions scrub_options;
    /// The store's IO. `io.engine` (borrowed) carries every transfer of
    /// the node's store, the scrubber's included — the fault-injection
    /// seam; nullptr lets the node create one (io::Engine::create()). The
    /// store's layout decides O_DIRECT, and the store's staging registers
    /// with the engine whenever the engine accepts.
    struct Io {
      io::Engine* engine = nullptr;
    } io;
  };

  struct TenantStats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    /// Requests that rode another request's stripe submission.
    std::uint64_t batched = 0;
    std::size_t queue_depth = 0;  // queued right now
  };

  struct Stats {
    std::vector<TenantStats> tenants;
    std::uint64_t reads = 0, writes = 0, scans = 0;
    std::uint64_t degraded_reads = 0;   // read/scan requests with >= 1 degraded stripe
    std::uint64_t failed_requests = 0;  // completed with ok == false
    std::uint64_t batched_reads = 0;    // total riders across all tenants
    std::size_t queue_depth = 0;        // queued right now, all tenants
    std::size_t in_service = 0;         // popped, not yet completed
    /// Aggregate of background scrub passes (zero-valued when scrub is off).
    ScrubReport scrub;
    /// The node's IO engine counters (transfers, fixed/direct fallbacks,
    /// ring high-water marks) — the per-node surface a cluster harness
    /// aggregates, and what the direct-IO CI leg gates on
    /// (direct_fallbacks == 0 proves O_DIRECT actually engaged).
    io::Engine::Stats io;
    /// End-to-end (admission -> completion) latency per request class.
    LatencyHistogram read_latency, write_latency, scan_latency;
  };

  /// Completion handle. Cheap to copy; default-constructed handles are
  /// invalid. The Response reference stays valid while any Future copy lives.
  class Future {
   public:
    Future() = default;
    bool valid() const { return state_ != nullptr; }
    bool done() const;
    /// Blocks until the request completes; immediate for rejected submits.
    const Response& wait() const;

   private:
    friend class StorageNode;
    explicit Future(std::shared_ptr<detail::RequestState> state)
        : state_(std::move(state)) {}
    std::shared_ptr<detail::RequestState> state_;
  };

  /// Node over an existing StripeStore in `store_dir`, served through
  /// `codec` (borrowed; its config must match the store's). start() opens
  /// the store and spawns the service.
  StorageNode(Codec& codec, std::string store_dir);
  StorageNode(Codec& codec, std::string store_dir, Options options);
  /// Destruction stops the node (drain + shutdown) if still running.
  ~StorageNode();

  StorageNode(const StorageNode&) = delete;
  StorageNode& operator=(const StorageNode&) = delete;

  /// Opens the store (manifest, long-lived device fds, stripe engine),
  /// spawns workers (and the background scrubber when configured). Throws
  /// on a missing/garbled manifest or a codec/store config mismatch.
  void start();

  /// Admission: bounds-checks the request, charges the tenant's queue, and
  /// returns a Future. A full queue or a draining node yields an
  /// immediately-completed Future with rejected == true — submit never
  /// blocks on service progress. Throws only on malformed requests
  /// (tenant out of range, write with no started node).
  Future submit(Request request);

  /// Stops admitting (rejects from now on), serves everything already
  /// queued, stops the background scrubber, and re-saves the manifest.
  /// Idempotent; blocks until quiescent.
  void drain();

  /// drain(), then joins the workers and closes the store. The node cannot
  /// be restarted — construct a new one on the same directory.
  void stop();

  Stats stats() const;

  bool started() const { return started_; }
  io::Engine& engine() { return *engine_; }
  /// The in-memory manifest (started node). Stable geometry; sector checksums
  /// mutate under write traffic, so read them only on a drained node.
  const StripeStore& store() const { return open_store_->store(); }
  /// The node's open store, for maintenance that must run while it serves
  /// (Scrubber::rebuild_device(OpenStore&, device)). Valid until stop().
  OpenStore& open_store() { return *open_store_; }
  std::size_t stripe_data_bytes() const { return stripe_data_; }

 private:
  struct Queues;  // per-tenant class deques (service.cpp)

  using StatePtr = std::shared_ptr<detail::RequestState>;

  void worker_loop();
  /// Blocks for the next unit of work: the highest-priority, round-robin
  /// tenant pick, plus any same-span read riders. Empty batch = shut down.
  std::vector<StatePtr> next_batch();
  void serve_reads(std::vector<StatePtr>& batch);
  void serve_write(const StatePtr& state);
  void complete(const StatePtr& state, Response response);
  bool foreground_pressure() const;

  Codec& codec_;
  std::string store_dir_;
  Options options_;

  std::unique_ptr<io::Engine> owned_engine_;
  io::Engine* engine_ = nullptr;
  std::unique_ptr<OpenStore> open_store_;  // workers and scrubber borrow it
  std::size_t stripe_data_ = 0;

  // Scheduler (guarded by sched_mu_).
  mutable std::mutex sched_mu_;
  std::condition_variable sched_cv_;   // workers wait for work
  std::condition_variable drain_cv_;   // drain waits for quiescence
  std::unique_ptr<Queues> queues_;
  /// Mutated under sched_mu_; atomic so the scrubber's hold gate (and the
  /// drain predicate) can read foreground pressure without taking the
  /// scheduler lock from another thread.
  std::atomic<std::size_t> queued_total_{0};
  std::atomic<std::size_t> in_service_{0};
  std::array<std::size_t, kRequestClasses> rr_cursor_{};
  bool draining_ = false;
  bool stopping_ = false;

  // Metrics.
  struct TenantCounters {
    std::atomic<std::uint64_t> submitted{0}, completed{0}, rejected{0}, batched{0};
  };
  std::vector<std::unique_ptr<TenantCounters>> tenant_counters_;
  std::atomic<std::uint64_t> reads_{0}, writes_{0}, scans_{0};
  std::atomic<std::uint64_t> degraded_reads_{0}, failed_requests_{0}, batched_reads_{0};
  ConcurrentHistogram read_latency_, write_latency_, scan_latency_;

  // Background maintenance.
  std::unique_ptr<Scrubber> scrubber_;
  ScrubReport scrub_final_;  // aggregate captured at drain

  std::vector<std::thread> workers_;
  std::atomic<bool> started_{false};
  bool stopped_ = false;
};

/// `base` with the STAIR_NODE_* environment overrides applied:
/// STAIR_NODE_TENANTS, STAIR_NODE_QUEUE (per-tenant capacity),
/// STAIR_NODE_WORKERS, STAIR_NODE_BATCH (batch_limit), STAIR_NODE_SCRUB
/// (truthy). Malformed values, and tenants or workers above 1024, throw — a
/// typo'd knob must not silently serve the wrong configuration.
StorageNode::Options node_options_from_env(StorageNode::Options base = {});

}  // namespace stair
