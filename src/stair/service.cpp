#include "stair/service.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/env.h"
#include "util/thread_pool.h"

namespace stair {

namespace detail {

/// One submitted request's lifetime: queue bookkeeping while queued, the
/// completion rendezvous afterwards. Futures share it; the scheduler holds
/// one reference while the request is queued or in service.
struct RequestState {
  Request req;
  Response response;

  std::chrono::steady_clock::time_point admitted{};
  std::chrono::steady_clock::time_point dispatched{};

  mutable std::mutex mu;
  mutable std::condition_variable cv;
  std::atomic<bool> done{false};
};

}  // namespace detail

using detail::RequestState;

bool StorageNode::Future::done() const {
  return state_ && state_->done.load(std::memory_order_acquire);
}

const Response& StorageNode::Future::wait() const {
  if (!state_) throw std::runtime_error("StorageNode::Future: invalid handle");
  if (!state_->done.load(std::memory_order_acquire)) {
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock,
                    [&] { return state_->done.load(std::memory_order_acquire); });
  }
  return state_->response;
}

// ---------------------------------------------------------------------------
// Scheduler storage
// ---------------------------------------------------------------------------

struct StorageNode::Queues {
  /// q[tenant][class] — bounded per tenant across classes, FIFO per class.
  std::vector<std::array<std::deque<StatePtr>, kRequestClasses>> q;

  std::size_t tenant_depth(std::size_t t) const {
    std::size_t total = 0;
    for (const auto& d : q[t]) total += d.size();
    return total;
  }
};

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

StorageNode::StorageNode(Codec& codec, std::string store_dir)
    : StorageNode(codec, std::move(store_dir), Options{}) {}

StorageNode::StorageNode(Codec& codec, std::string store_dir, Options options)
    : codec_(codec), store_dir_(std::move(store_dir)), options_(options) {
  if (options_.tenants == 0) throw std::runtime_error("StorageNode: tenants must be >= 1");
  if (options_.queue_capacity == 0)
    throw std::runtime_error("StorageNode: queue_capacity must be >= 1");
  if (options_.batch_limit == 0) options_.batch_limit = 1;
}

StorageNode::~StorageNode() {
  try {
    stop();
  } catch (...) {
    // Destruction must not throw; a failed final manifest save leaves the
    // previous manifest intact (atomic rename), so the store stays loadable.
  }
}

void StorageNode::start() {
  if (started_) throw std::runtime_error("StorageNode: already started");
  engine_ = io::engine_or_create(options_.io.engine, owned_engine_);
  std::size_t workers = options_.workers;
  if (workers == 0)
    workers = std::min<std::size_t>(4, std::max<std::size_t>(2, codec_.pool().concurrency()));
  // Staging for one stripe per worker plus the scrubber's ring.
  const std::size_t depth =
      workers + (options_.scrub ? options_.scrub_options.stripes_in_flight : 0);
  open_store_ = std::make_unique<OpenStore>(codec_, *engine_, store_dir_,
                                            OpenStore::Access::kUpdate, depth);
  stripe_data_ = codec_.code().data_symbol_count() * open_store_->store().symbol_bytes;

  queues_ = std::make_unique<Queues>();
  queues_->q.resize(options_.tenants);
  tenant_counters_.clear();
  for (std::size_t t = 0; t < options_.tenants; ++t)
    tenant_counters_.push_back(std::make_unique<TenantCounters>());
  queued_total_.store(0, std::memory_order_relaxed);
  in_service_.store(0, std::memory_order_relaxed);
  rr_cursor_.fill(0);
  draining_ = false;
  stopping_ = false;
  stopped_ = false;

  started_ = true;  // before worker/scrubber spawn: both read node state

  workers_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w)
    workers_.emplace_back([this] { worker_loop(); });

  if (options_.scrub) {
    ScrubOptions sopt = options_.scrub_options;
    if (!sopt.engine) sopt.engine = engine_;
    if (!sopt.hold) {
      // One priority policy: scrub holds while the node has foreground work
      // queued or in service, composing with the Scrubber's own Codec
      // idle-slot gate (and bounded by its max_stall, so a saturated node
      // still gets scrubbed eventually).
      sopt.hold = [this] { return foreground_pressure(); };
    }
    scrubber_ = std::make_unique<Scrubber>(codec_, sopt);
    scrubber_->start(*open_store_);
  }
}

bool StorageNode::foreground_pressure() const {
  return queued_total_.load(std::memory_order_relaxed) > 0 ||
         in_service_.load(std::memory_order_relaxed) > 0;
}

void StorageNode::drain() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    draining_ = true;  // a second drainer just waits for quiescence below
  }
  // Stop background maintenance first — the remaining queue drains faster
  // with the codec to itself, and the scrubber's hold gate dies with it.
  if (scrubber_) {
    scrub_final_.accumulate(scrubber_->stop());
  }
  {
    std::unique_lock<std::mutex> lock(sched_mu_);
    drain_cv_.wait(lock, [&] {
      return queued_total_.load(std::memory_order_relaxed) == 0 &&
             in_service_.load(std::memory_order_relaxed) == 0;
    });
  }
  // Every acknowledged write saved already; this retries a failed save.
  open_store_->save();
}

void StorageNode::stop() {
  if (!started_ || stopped_) return;
  drain();
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    stopping_ = true;
  }
  sched_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  scrubber_.reset();
  open_store_.reset();
  stopped_ = true;
  started_ = false;
}

// ---------------------------------------------------------------------------
// Admission
// ---------------------------------------------------------------------------

StorageNode::Future StorageNode::submit(Request request) {
  if (!started_) throw std::runtime_error("StorageNode: not started");
  if (request.tenant >= options_.tenants)
    throw std::runtime_error("StorageNode: tenant " + std::to_string(request.tenant) +
                             " out of range (tenants=" + std::to_string(options_.tenants) + ")");

  auto state = std::make_shared<RequestState>();
  state->req = request;
  state->admitted = std::chrono::steady_clock::now();

  TenantCounters& tc = *tenant_counters_[request.tenant];
  tc.submitted.fetch_add(1, std::memory_order_relaxed);

  // Shape checks complete immediately (ok=false), they don't reject: the
  // request was understood and refused on its merits, not on queue pressure.
  const StripeStore& store = open_store_->store();
  std::string shape_error;
  if (request.type == RequestType::kWrite) {
    if (request.stripe >= store.stripes) {
      shape_error = "write stripe out of range";
    } else {
      const std::size_t expected =
          std::min(stripe_data_, store.file_size - request.stripe * stripe_data_);
      if (request.data.size() != expected)
        shape_error = "write payload is " + std::to_string(request.data.size()) +
                      " bytes, stripe holds " + std::to_string(expected);
    }
  } else {
    // Subtraction form: offset + size can wrap past 2^64 and sneak a huge
    // offset through (the span arithmetic downstream would then index
    // stripes that do not exist).
    if (request.offset > store.file_size ||
        request.out.size() > store.file_size - request.offset)
      shape_error = "read past end of file";
  }
  if (!shape_error.empty()) {
    Response r;
    r.ok = false;
    r.error = std::move(shape_error);
    complete(state, std::move(r));
    return Future(state);
  }
  if (request.type != RequestType::kWrite && request.out.empty()) {
    Response r;
    r.ok = true;
    complete(state, std::move(r));
    return Future(state);
  }

  bool was_draining = false;
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    was_draining = draining_;
    if (!draining_ && queues_->tenant_depth(request.tenant) < options_.queue_capacity) {
      queues_->q[request.tenant][static_cast<std::size_t>(request.type)].push_back(state);
      queued_total_.fetch_add(1, std::memory_order_relaxed);
      sched_cv_.notify_one();
      return Future(state);
    }
  }

  // Reject-with-backpressure: full tenant queue or draining node. The caller
  // learns immediately; no queue ever grows past its bound.
  tc.rejected.fetch_add(1, std::memory_order_relaxed);
  Response r;
  r.ok = false;
  r.rejected = true;
  r.error = was_draining ? "node draining" : "tenant queue full";
  complete(state, std::move(r));
  return Future(state);
}

// ---------------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------------

std::vector<StorageNode::StatePtr> StorageNode::next_batch() {
  std::unique_lock<std::mutex> lock(sched_mu_);
  sched_cv_.wait(lock, [&] {
    return stopping_ || queued_total_.load(std::memory_order_relaxed) > 0;
  });
  if (queued_total_.load(std::memory_order_relaxed) == 0) return {};  // stopping

  // Strict priority across classes, round-robin across tenants within one.
  std::vector<StatePtr> batch;
  batch.reserve(1);
  std::size_t cls = 0, leader_tenant = 0;
  for (; cls < kRequestClasses; ++cls) {
    for (std::size_t i = 0; i < options_.tenants; ++i) {
      const std::size_t t = (rr_cursor_[cls] + i) % options_.tenants;
      auto& dq = queues_->q[t][cls];
      if (dq.empty()) continue;
      batch.push_back(std::move(dq.front()));
      dq.pop_front();
      leader_tenant = t;
      rr_cursor_[cls] = (t + 1) % options_.tenants;
      break;
    }
    if (!batch.empty()) break;
  }
  if (batch.empty()) return {};
  std::size_t taken = 1;

  // Backlogged reads coalesce: riders whose whole range lies inside the
  // leader's stripe span share its read_range submission. Riders are pulled
  // round-robin from the leader's successor so coalescing never becomes a
  // side door around fairness.
  if (cls == static_cast<std::size_t>(RequestType::kRead) && options_.batch_limit > 1 &&
      queued_total_.load(std::memory_order_relaxed) - taken >= options_.batch_min_backlog) {
    const Request& lead = batch[0]->req;
    const std::size_t s0 = static_cast<std::size_t>(lead.offset / stripe_data_);
    const std::size_t s1 =
        static_cast<std::size_t>((lead.offset + lead.out.size() - 1) / stripe_data_);
    const std::uint64_t span_lo = std::uint64_t{s0} * stripe_data_;
    const std::uint64_t span_hi = std::min<std::uint64_t>(std::uint64_t{s1 + 1} * stripe_data_,
                                                          open_store_->store().file_size);
    for (std::size_t i = 0; i < options_.tenants && batch.size() < options_.batch_limit; ++i) {
      const std::size_t t = (leader_tenant + 1 + i) % options_.tenants;
      auto& dq = queues_->q[t][cls];
      for (auto it = dq.begin(); it != dq.end() && batch.size() < options_.batch_limit;) {
        const Request& r = (*it)->req;
        if (r.offset >= span_lo && r.offset + r.out.size() <= span_hi) {
          batch.push_back(std::move(*it));
          it = dq.erase(it);
          ++taken;
        } else {
          ++it;
        }
      }
    }
  }

  queued_total_.fetch_sub(taken, std::memory_order_relaxed);
  in_service_.fetch_add(batch.size(), std::memory_order_relaxed);
  return batch;
}

void StorageNode::worker_loop() {
  for (;;) {
    std::vector<StatePtr> batch = next_batch();
    if (batch.empty()) return;

    const auto now = std::chrono::steady_clock::now();
    for (const StatePtr& s : batch) s->dispatched = now;

    if (batch[0]->req.type == RequestType::kWrite) {
      serve_write(batch[0]);
    } else {
      serve_reads(batch);
    }

    {
      std::lock_guard<std::mutex> lock(sched_mu_);
      in_service_.fetch_sub(batch.size(), std::memory_order_relaxed);
    }
    drain_cv_.notify_all();
  }
}

// ---------------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------------

void StorageNode::serve_reads(std::vector<StatePtr>& batch) {
  OpenStore& store = *open_store_;
  // The union span is the leader's stripe span (riders were chosen inside
  // it); lock it shared so a concurrent stripe write cannot tear the bytes.
  std::uint64_t lo = ~std::uint64_t{0}, hi = 0;
  for (const StatePtr& s : batch) {
    lo = std::min(lo, s->req.offset);
    hi = std::max(hi, s->req.offset + s->req.out.size());
  }
  const std::size_t s0 = static_cast<std::size_t>(lo / stripe_data_);
  const std::size_t s1 = static_cast<std::size_t>((hi - 1) / stripe_data_);
  store.lock(s0, s1, /*exclusive=*/false);

  IoStats st;
  if (batch.size() == 1) {
    st = store.reader().read_range(batch[0]->req.offset, batch[0]->req.out);
  } else {
    // One shared submission serves the whole batch: read the union span into
    // leased staging, then scatter each member's sub-range.
    const WorkspacePool<StripeSlot>::Lease span = store.slots().acquire();
    const std::uint64_t span_lo = std::uint64_t{s0} * stripe_data_;
    const std::uint64_t span_hi =
        std::min<std::uint64_t>(std::uint64_t{s1 + 1} * stripe_data_, store.store().file_size);
    span->data.resize(static_cast<std::size_t>(span_hi - span_lo));
    st = store.reader().read_range(span_lo, span->data);
    if (st.ok) {
      for (const StatePtr& s : batch) {
        std::memcpy(s->req.out.data(), span->data.data() + (s->req.offset - span_lo),
                    s->req.out.size());
      }
    }
  }

  store.unlock(s0, s1);

  for (std::size_t i = 0; i < batch.size(); ++i) {
    const StatePtr& s = batch[i];
    Response r;
    r.ok = st.ok;
    r.error = st.error;
    r.degraded_stripes = st.degraded_stripes;
    r.bytes = st.ok ? s->req.out.size() : 0;
    if (i > 0) {
      tenant_counters_[s->req.tenant]->batched.fetch_add(1, std::memory_order_relaxed);
      batched_reads_.fetch_add(1, std::memory_order_relaxed);
    }
    complete(s, std::move(r));
  }
}

void StorageNode::serve_write(const StatePtr& state) {
  OpenStore& store = *open_store_;
  const Request& req = state->req;
  const StairConfig& cfg = store.store().cfg;
  std::vector<std::uint64_t> new_checksums(cfg.n * cfg.r);
  std::string error;

  StripeRing ring(store.slots(), 1);
  {
    StripeRing::Lease slot = ring.acquire();
    // Lay the payload into the slot's staging (a tail stripe encodes
    // zero-padded, exactly as encode_file laid it down).
    store.lay_data(*slot, req.data);

    store.lock(req.stripe, req.stripe, /*exclusive=*/true);
    try {
      codec_.submit_encode(slot->view).wait();
      // Rewrite all n chunks in place through the store's fds; the writer
      // hashes the new sectors on the way.
      store.writer().write(ring, std::move(slot), store.fds(), req.stripe, new_checksums,
                           [&error](int err) {
                             if (err)
                               error = std::string("chunk write failed: ") + std::strerror(err);
                           });
    } catch (const std::exception& e) {
      error = e.what();
    }
  }
  ring.drain();

  const bool ok = error.empty();
  if (ok) {
    // The store's new truth, then the manifest on disk, before the ack: the
    // recovery point never trails an acknowledged write. A failed save
    // leaves the chunks on disk and the store consistent in memory; drain()
    // retries it.
    store.set_stripe(req.stripe, new_checksums);
    try {
      store.save();
    } catch (const std::exception& e) {
      error = e.what();
    }
  }

  store.unlock(req.stripe, req.stripe);

  Response resp;
  resp.ok = ok;
  resp.error = std::move(error);
  resp.bytes = ok ? req.data.size() : 0;
  complete(state, std::move(resp));
}

void StorageNode::complete(const StatePtr& state, Response response) {
  const auto now = std::chrono::steady_clock::now();
  const bool dispatched = state->dispatched.time_since_epoch().count() != 0;
  response.queue_seconds =
      std::chrono::duration<double>((dispatched ? state->dispatched : now) - state->admitted)
          .count();
  response.service_seconds =
      dispatched ? std::chrono::duration<double>(now - state->dispatched).count() : 0.0;
  const std::uint64_t total_nanos = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - state->admitted).count());

  if (!response.rejected) {
    switch (state->req.type) {
      case RequestType::kRead:
        reads_.fetch_add(1, std::memory_order_relaxed);
        read_latency_.record(total_nanos);
        break;
      case RequestType::kWrite:
        writes_.fetch_add(1, std::memory_order_relaxed);
        write_latency_.record(total_nanos);
        break;
      case RequestType::kScan:
        scans_.fetch_add(1, std::memory_order_relaxed);
        scan_latency_.record(total_nanos);
        break;
    }
    if (response.degraded_stripes > 0)
      degraded_reads_.fetch_add(1, std::memory_order_relaxed);
    if (!response.ok) failed_requests_.fetch_add(1, std::memory_order_relaxed);
    tenant_counters_[state->req.tenant]->completed.fetch_add(1, std::memory_order_relaxed);
  }

  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->response = std::move(response);
    state->done.store(true, std::memory_order_release);
  }
  state->cv.notify_all();
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

StorageNode::Stats StorageNode::stats() const {
  Stats s;
  s.tenants.resize(options_.tenants);
  for (std::size_t t = 0; t < tenant_counters_.size(); ++t) {
    const TenantCounters& tc = *tenant_counters_[t];
    s.tenants[t].submitted = tc.submitted.load(std::memory_order_relaxed);
    s.tenants[t].completed = tc.completed.load(std::memory_order_relaxed);
    s.tenants[t].rejected = tc.rejected.load(std::memory_order_relaxed);
    s.tenants[t].batched = tc.batched.load(std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    if (queues_) {
      for (std::size_t t = 0; t < options_.tenants; ++t)
        s.tenants[t].queue_depth = queues_->tenant_depth(t);
    }
    s.queue_depth = queued_total_.load(std::memory_order_relaxed);
    s.in_service = in_service_.load(std::memory_order_relaxed);
  }
  s.reads = reads_.load(std::memory_order_relaxed);
  s.writes = writes_.load(std::memory_order_relaxed);
  s.scans = scans_.load(std::memory_order_relaxed);
  s.degraded_reads = degraded_reads_.load(std::memory_order_relaxed);
  s.failed_requests = failed_requests_.load(std::memory_order_relaxed);
  s.batched_reads = batched_reads_.load(std::memory_order_relaxed);
  s.scrub = scrubber_ ? scrubber_->background_report() : ScrubReport{};
  s.scrub.accumulate(scrub_final_);
  if (engine_) s.io = engine_->stats();
  s.read_latency = read_latency_.snapshot();
  s.write_latency = write_latency_.snapshot();
  s.scan_latency = scan_latency_.snapshot();
  return s;
}

// ---------------------------------------------------------------------------
// Environment knobs
// ---------------------------------------------------------------------------

namespace {

std::size_t env_size(const char* name, std::size_t fallback,
                     std::size_t max = std::numeric_limits<std::size_t>::max()) {
  const char* raw = std::getenv(name);
  if (!raw || !*raw) return fallback;
  // Digits only: strtoull would take a sign or leading space, and "-1"
  // would wrap to 2^64 - 1.
  const char* end = raw + std::strlen(raw);
  std::size_t v = 0;
  const auto [stop, err] = std::from_chars(raw, end, v);
  if (err != std::errc{} || stop != end || v > max)
    throw std::runtime_error(std::string(name) + ": invalid value '" + raw + "'");
  return v;
}

// Counts start() allocates per unit (a thread and a stripe's staging per
// worker): capped like STAIR_THREADS, so a typo cannot ask for 100,000.
constexpr std::size_t kMaxCount = 1024;

}  // namespace

StorageNode::Options node_options_from_env(StorageNode::Options base) {
  base.tenants = env_size("STAIR_NODE_TENANTS", base.tenants, kMaxCount);
  base.queue_capacity = env_size("STAIR_NODE_QUEUE", base.queue_capacity);
  base.workers = env_size("STAIR_NODE_WORKERS", base.workers, kMaxCount);
  base.batch_limit = env_size("STAIR_NODE_BATCH", base.batch_limit);
  base.scrub = env_flag("STAIR_NODE_SCRUB", base.scrub);
  if (base.tenants == 0) throw std::runtime_error("STAIR_NODE_TENANTS: must be >= 1");
  if (base.queue_capacity == 0) throw std::runtime_error("STAIR_NODE_QUEUE: must be >= 1");
  return base;
}

}  // namespace stair
