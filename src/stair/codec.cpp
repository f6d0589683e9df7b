#include "stair/codec.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "gf/region.h"
#include "stair/autotune.h"
#include "util/thread_pool.h"

namespace stair {

// One submitted job: its inputs, its leased scratch, and its completion
// state. Subtasks share the job read-only except for the completion fields
// (guarded by mu) and the disjoint byte ranges they each own.
struct CodecJob {
  // Set at launch; lets a blocked Handle::wait() help drain this pool
  // (null on immediately-done jobs).
  ThreadPool* pool = nullptr;
  std::size_t symbol_size = 0;
  // slice_bytes == 0 means one subtask running the whole range (the
  // full-batch regime: stripe per task); nonzero means range-sliced.
  std::size_t slice_bytes = 0;

  // The compiled plan to replay over the prepared workspace's symbol table.
  // `plan_keepalive` pins decode plans across cache evictions; encode plans
  // are owned by the StairCode's lazy cache (session-lived).
  const CompiledSchedule* plan = nullptr;
  std::shared_ptr<const CompiledSchedule> plan_keepalive;
  WorkspacePool<Workspace>::Lease ws;
  // Region layout the plan replays in (resolved once at submit). With
  // kAltmap, each subtask converts the plan-referenced stripe regions of its
  // byte range in, replays, and converts back — ranges are disjoint and
  // altmap blocks 64-byte-aligned, so each stripe byte converts exactly once
  // per job, at the submit/complete boundary of its range, never inside the
  // strip-mined replay loop. Leased workspace scratch stays altmap forever.
  gf::RegionLayout layout = gf::RegionLayout::kStandard;

  // Completion state. `done` is atomic so Handle::done() can poll without
  // the lock; it is still written under mu (the cv wait predicate reads it).
  std::mutex mu;
  std::condition_variable cv;
  std::size_t remaining = 0;  // guarded by mu
  std::atomic<bool> done{false};
  bool ok = true;                  // immutable after submit
  std::exception_ptr error;        // guarded by mu; first failure wins
  Codec::Completion then;          // immutable after submit; run by the last
                                   // subtask (see Codec::Completion contract)

  void replay(std::size_t offset, std::size_t length) const {
    plan->execute_range_converted(ws->symbols_, ws->caller_owned_, layout, offset, length);
  }
};

namespace {

// Subtask body: run the owned byte range, capture the first exception, and
// retire. The last subtask to retire releases the leased scratch (back to
// the session pool) before waking waiters.
void run_subtask(const std::shared_ptr<CodecJob>& job, std::size_t index) {
  try {
    if (job->slice_bytes == 0) {
      job->replay(0, job->symbol_size);  // full replay keeps the strip-mined path
    } else {
      const std::size_t offset = index * job->slice_bytes;
      if (offset < job->symbol_size)
        job->replay(offset, std::min(job->slice_bytes, job->symbol_size - offset));
    }
  } catch (...) {
    std::lock_guard<std::mutex> lock(job->mu);
    if (!job->error) job->error = std::current_exception();
  }
}

}  // namespace

Codec::Codec(StairConfig cfg) : Codec(std::move(cfg), Options{}) {}

Codec::Codec(const StairCode& code) : Codec(code, Options{}) {}

Codec::Codec(StairConfig cfg, Options options)
    : owned_code_(std::make_unique<StairCode>(std::move(cfg))),
      code_(owned_code_.get()),
      pool_(options.pool ? options.pool : &ThreadPool::default_pool()),
      options_(options),
      plan_cache_(*code_) {
  // First construction in the process runs (or loads) the measured probe;
  // afterwards this is a cheap flag check.
  Autotune::instance().ensure();
}

Codec::Codec(const StairCode& code, Options options)
    : code_(&code),
      pool_(options.pool ? options.pool : &ThreadPool::default_pool()),
      options_(options),
      plan_cache_(code) {
  Autotune::instance().ensure();
}

Codec::~Codec() { wait_all(); }

std::size_t Codec::decide_subtasks(std::size_t symbol_size, std::size_t touched,
                                   std::size_t mult_xors, gf::RegionLayout layout,
                                   std::size_t* slice_bytes) const {
  *slice_bytes = 0;
  // Width counts the workers plus one waiting caller: Handle::wait/wait_all
  // help drain the queue (try_run_one).
  const std::size_t width = pool_->concurrency();
  if (width <= 1) return 1;
  // Range-slice only when the batch is too small to fill the pool: claimed
  // lanes run whole stripes; idle lanes are filled with slices of this one.
  const std::size_t busy = subtasks_in_flight_.load(std::memory_order_relaxed);
  if (busy + 1 >= width) return 1;
  // The slice floor: 0 delegates to the measured tuner (a slice replaying
  // the whole job must out-compute the pool's submit overhead), a nonzero
  // option pins it.
  const std::size_t min_slice =
      options_.min_slice_bytes
          ? options_.min_slice_bytes
          : Autotune::instance().min_slice_bytes(code_->field().w(), layout, mult_xors);
  const std::size_t floor_count = symbol_size / min_slice;  // slices >= floor
  if (floor_count <= 1) return 1;
  // As many slices as load balance and the cache fit ask for, but no more
  // than floor_count, and in whole rounds over the idle lanes: a partial
  // last round leaves lanes idle while the job's tail runs. Then cut
  // evenly, on the 64-byte granularity every layout and width requires.
  const std::size_t idle = width - busy;
  const std::size_t cache_slice = gf::cache_aware_slice_bytes(symbol_size, idle, touched);
  std::size_t subtasks = std::min((symbol_size + cache_slice - 1) / cache_slice, floor_count);
  if (subtasks > idle) subtasks -= subtasks % idle;
  if (subtasks <= 1) return 1;
  const std::size_t slice = ((symbol_size + subtasks - 1) / subtasks + 63) & ~std::size_t{63};
  subtasks = (symbol_size + slice - 1) / slice;
  if (subtasks <= 1) return 1;
  *slice_bytes = slice;
  return subtasks;
}

Codec::Handle Codec::launch(const std::shared_ptr<CodecJob>& job, std::size_t subtasks) {
  job->pool = pool_;
  job->remaining = subtasks;
  jobs_submitted_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    ++jobs_open_;
  }
  subtasks_in_flight_.fetch_add(subtasks, std::memory_order_relaxed);
  for (std::size_t i = 0; i < subtasks; ++i) {
    pool_->submit([this, job, i] {
      run_subtask(job, i);
      subtasks_in_flight_.fetch_sub(1, std::memory_order_relaxed);
      bool last;
      {
        std::lock_guard<std::mutex> lock(job->mu);
        last = --job->remaining == 0;
        if (last) {
          // Return the leased scratch before signalling completion, so a
          // caller chaining the next submit off wait() reuses it warm.
          job->ws.reset();
          job->done.store(true, std::memory_order_release);
        }
      }
      if (!last) return;
      job->cv.notify_all();  // job outlives this: the lambda owns a shared_ptr
      // After `done` is visible, `error` has its final value (no more
      // subtask writers), so the continuation's ok is stable. Runs before
      // the jobs_open_ decrement: wait_all() returning implies every
      // continuation has finished.
      if (job->then) job->then(job->ok && !job->error);
      // Release pairs with the acquire load in jobs_in_flight(): observers
      // that see this completion also see the submission it retires.
      jobs_completed_.fetch_add(1, std::memory_order_release);
      {
        // Notify under the lock: once jobs_open_ hits 0 a waiter may return
        // from wait_all and destroy the Codec, so the cv access must be
        // ordered before the waiter can re-acquire jobs_mu_.
        std::lock_guard<std::mutex> lock(jobs_mu_);
        --jobs_open_;
        jobs_cv_.notify_all();
      }
    });
  }
  return Handle(job);
}

Codec::Handle Codec::submit_encode(const StripeView& stripe, EncodingMethod method,
                                   Completion then) {
  if (method == EncodingMethod::kAuto) method = code_->select_method();
  return submit_plan(stripe, code_->compiled_encoding_schedule(method), nullptr,
                     std::move(then));
}

Codec::Handle Codec::submit_decode(const StripeView& stripe, const std::vector<bool>& erased,
                                   Completion then) {
  auto plan = plan_cache_.plan(erased);
  if (!plan) {
    // Outside the coverage: complete immediately (stripe untouched) so the
    // caller sees the same contract as StairCode::decode returning false.
    auto job = std::make_shared<CodecJob>();
    job->ok = false;
    job->done.store(true, std::memory_order_release);
    jobs_submitted_.fetch_add(1, std::memory_order_relaxed);
    jobs_completed_.fetch_add(1, std::memory_order_release);
    if (then) then(false);
    return Handle(job);
  }
  const CompiledSchedule& compiled = *plan;
  return submit_plan(stripe, compiled, std::move(plan), std::move(then));
}

Codec::Handle Codec::submit_plan(const StripeView& stripe, const CompiledSchedule& plan,
                                 std::shared_ptr<const CompiledSchedule> keepalive,
                                 Completion then) {
  auto job = std::make_shared<CodecJob>();
  job->then = std::move(then);
  job->symbol_size = stripe.symbol_size;
  job->plan = &plan;
  job->plan_keepalive = std::move(keepalive);
  // Tuned layout: altmap only when the measured throughput gap beats the
  // boundary conversion at this plan's ops-per-region and stripe size.
  job->layout = Autotune::instance().choose_layout(
      code_->field().w(),
      static_cast<double>(plan.mult_xor_count()) / std::max<std::size_t>(1, plan.touched_symbols()),
      stripe.symbol_size);
  job->ws = workspaces_.acquire();
  code_->prepare_workspace(stripe, *job->ws);  // validates the view; throws here

  std::size_t slice = 0;
  const std::size_t subtasks = decide_subtasks(stripe.symbol_size, plan.touched_symbols(),
                                               plan.mult_xor_count(), job->layout, &slice);
  job->slice_bytes = slice;
  return launch(job, subtasks);
}

void Codec::wait_all() {
  // A waiting caller is an idle core: help drain the pool queue (our own
  // subtasks are in it) before parking. This is what keeps batch submits at
  // the pool's full concurrency — workers plus the waiting caller.
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(jobs_mu_);
      if (jobs_open_ == 0) return;
    }
    if (!pool_->try_run_one()) break;  // nothing queued: subtasks are running
  }
  std::unique_lock<std::mutex> lock(jobs_mu_);
  jobs_cv_.wait(lock, [this] { return jobs_open_ == 0; });
}

std::size_t Codec::jobs_in_flight() const {
  // Load order matters: every completed increment (release) is preceded —
  // through the pool-queue handoff — by its job's submitted increment, so an
  // acquire load of `completed` guarantees the subsequent `submitted` read
  // covers at least those jobs. Reading submitted first (or both relaxed)
  // lets a racing observer see a completion before its submission and the
  // difference transiently underflow to a huge value — which the scrubber's
  // idle-slot gate would misread as unbounded foreground pressure.
  const std::uint64_t completed = jobs_completed_.load(std::memory_order_acquire);
  const std::uint64_t submitted = jobs_submitted_.load(std::memory_order_relaxed);
  return static_cast<std::size_t>(submitted - completed);
}

// --- Handle -----------------------------------------------------------------

bool Codec::Handle::done() const {
  return !job_ || job_->done.load(std::memory_order_acquire);
}

void Codec::Handle::wait() const {
  if (!job_) return;
  // Help drain the pool while this job is unfinished (see Codec::wait_all);
  // fall through to the cv once the queue is empty — the remaining subtasks
  // are running on other threads.
  while (!job_->done.load(std::memory_order_acquire)) {
    if (!job_->pool || !job_->pool->try_run_one()) break;
  }
  std::unique_lock<std::mutex> lock(job_->mu);
  job_->cv.wait(lock, [this] { return job_->done.load(std::memory_order_relaxed); });
  if (job_->error) std::rethrow_exception(job_->error);
}

bool Codec::Handle::ok() const {
  wait();
  return !job_ || job_->ok;
}

}  // namespace stair
