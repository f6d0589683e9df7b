// Codec — the session layer: one execution path from a single call to many
// stripes in flight.
//
// The paper's speed numbers (§6.2) are per-stripe, but a serving system sees
// millions of stripes, not one: the way to keep a multi-core machine busy is
// N whole stripes in flight — one stripe per pool task — not one stripe
// sliced ever thinner across workers. A Codec is a session that owns
// everything a stream of coding operations amortizes:
//
//   * the StairCode (schedules compile once per session),
//   * a DecodePlanCache (failure-epoch masks invert once per session),
//   * a WorkspacePool of reusable scratch (allocations settle at the
//     in-flight high-water mark),
//   * a handle to the persistent ThreadPool (threads park once per process).
//
// submit_encode / submit_decode enqueue one stripe's work and return a
// completion Handle immediately; Handle::wait() blocks (and rethrows) for
// that stripe only, wait_all() drains the session. When a submission arrives
// while the pool has idle lanes — a batch too small to fill the machine —
// the stripe is internally range-sliced across the idle width, and a deep
// batch runs stripe-per-task: the same execution path, saturating in both
// regimes. This is the library's only intra-stripe parallelism (§6.2.1):
// StairCode runs on the calling thread, and every Codec job replays one of
// its compiled encode or decode plans, adding no coding logic of its own.
// Slices average at least the floor Autotune::min_slice_bytes sets for the
// job's Mult_XOR count, so small stripes and cheap plans run as one task.
//
// Usage sketch:
//   Codec codec({.n = 8, .r = 16, .m = 2, .e = {1, 2}});
//   std::vector<Codec::Handle> h;
//   for (auto& stripe : stripes) h.push_back(codec.submit_encode(stripe.view()));
//   codec.wait_all();                        // or h[i].wait() individually
//
// Thread-safety: submits and waits may come from any thread. The stripe
// regions must stay valid and untouched until the handle completes;
// concurrent jobs must target disjoint stripes.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "gf/region.h"
#include "stair/plan_cache.h"
#include "stair/stair_code.h"
#include "util/workspace_pool.h"

namespace stair {

class ThreadPool;
struct CodecJob;  // internal job state (codec.cpp)

class Codec {
 public:
  struct Options {
    /// Pool to run on; nullptr = the process-wide ThreadPool::default_pool().
    ThreadPool* pool = nullptr;
    /// Range slices average at least this size (slicing overhead would
    /// dominate), so symbols under twice this size run as one task. 0 (the
    /// default) delegates the floor to the measured autotuner
    /// (stair/autotune.h) — a slice's compute time over the job's whole
    /// plan must clear the measured pool dispatch overhead — with the
    /// classic 4096 as the fallback when tuning is off or unmeasured. A
    /// nonzero value pins the floor.
    std::size_t min_slice_bytes = 0;
  };

  /// One submitted job's completion handle. Cheap to copy; default-constructed
  /// handles are invalid. Handles may outlive neither the Codec nor the
  /// stripe they reference.
  class Handle {
   public:
    Handle() = default;

    bool valid() const { return job_ != nullptr; }
    /// True once every subtask of the job has retired (non-blocking poll).
    bool done() const;
    /// Blocks until the job completes; rethrows the first subtask exception.
    void wait() const;
    /// wait(), then the job's outcome: false only for a decode whose mask is
    /// outside the code's coverage (encode always true).
    bool ok() const;

   private:
    friend class Codec;
    explicit Handle(std::shared_ptr<CodecJob> job) : job_(std::move(job)) {}
    std::shared_ptr<CodecJob> job_;
  };

  /// Session over a code built from `cfg` (owned by the session).
  explicit Codec(StairConfig cfg);
  Codec(StairConfig cfg, Options options);
  /// Session over an existing code (not owned; must outlive the session).
  explicit Codec(const StairCode& code);
  Codec(const StairCode& code, Options options);

  /// Destruction drains the session (wait_all).
  ~Codec();

  Codec(const Codec&) = delete;
  Codec& operator=(const Codec&) = delete;

  const StairCode& code() const { return *code_; }
  ThreadPool& pool() const { return *pool_; }
  DecodePlanCache& plan_cache() { return plan_cache_; }
  const DecodePlanCache& plan_cache() const { return plan_cache_; }

  // --- submission -----------------------------------------------------------

  /// Optional continuation attached to a submit: runs exactly once when the
  /// job completes, with `ok` false for a failed decode or a job that threw
  /// (Handle::wait still rethrows). It fires on the worker that retires the
  /// job's last subtask — before the job is counted complete by wait_all(),
  /// though an individual Handle::wait may return concurrently — and must
  /// not throw or block on this Codec's completions. This is the hook the
  /// IO pipeline chains disk writes onto, so compute completions flow back
  /// into IO without a blocked thread in between. For an immediately-done
  /// submission (unrecoverable decode mask) it runs inline on the submitter.
  using Completion = std::function<void(bool ok)>;

  /// Enqueues one stripe encode. Malformed views throw here, not in the job.
  Handle submit_encode(const StripeView& stripe,
                       EncodingMethod method = EncodingMethod::kAuto,
                       Completion then = nullptr);

  /// Enqueues one stripe decode through the session plan cache. The mask is
  /// resolved to a compiled plan at submit time (cache hit: O(1); miss: one
  /// inversion+compile, shared with every later stripe of the epoch). An
  /// unrecoverable mask yields an immediately-done handle with ok() false.
  Handle submit_decode(const StripeView& stripe, const std::vector<bool>& erased,
                       Completion then = nullptr);

  /// Blocks until every job submitted so far has completed. Does NOT rethrow
  /// job exceptions (those surface through each Handle::wait / ok).
  void wait_all();

  // --- introspection --------------------------------------------------------

  /// Jobs submitted / completed over the session lifetime.
  std::uint64_t jobs_submitted() const { return jobs_submitted_.load(std::memory_order_relaxed); }
  std::uint64_t jobs_completed() const { return jobs_completed_.load(std::memory_order_relaxed); }
  /// Jobs not yet completed.
  std::size_t jobs_in_flight() const;
  /// Workspace slots the session ever allocated (== in-flight high-water mark).
  std::size_t workspaces_created() const { return workspaces_.created(); }

 private:
  /// The one path both submits take: lease and prepare a workspace, pick
  /// the replay layout and slicing for `plan`, and launch. `keepalive` pins
  /// a decode plan across cache evictions (null for encode plans, which the
  /// StairCode owns).
  Handle submit_plan(const StripeView& stripe, const CompiledSchedule& plan,
                     std::shared_ptr<const CompiledSchedule> keepalive, Completion then);
  std::size_t decide_subtasks(std::size_t symbol_size, std::size_t touched,
                              std::size_t mult_xors, gf::RegionLayout layout,
                              std::size_t* slice_bytes) const;
  Handle launch(const std::shared_ptr<CodecJob>& job, std::size_t subtasks);

  std::unique_ptr<const StairCode> owned_code_;  // cfg constructor only
  const StairCode* code_;
  ThreadPool* pool_;
  Options options_;
  DecodePlanCache plan_cache_;
  WorkspacePool<Workspace> workspaces_;

  std::atomic<std::uint64_t> jobs_submitted_{0}, jobs_completed_{0};
  std::atomic<std::size_t> subtasks_in_flight_{0};  // slicing decisions read this

  std::mutex jobs_mu_;
  std::condition_variable jobs_cv_;
  std::size_t jobs_open_ = 0;  // guarded by jobs_mu_; wait_all watches it
};

}  // namespace stair
