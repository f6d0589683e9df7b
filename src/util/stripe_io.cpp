#include "util/stripe_io.h"

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <string_view>
#include <thread>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#if defined(__linux__) && __has_include(<linux/io_uring.h>)
#define STAIR_HAVE_URING_SYSCALLS 1
#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#endif

#include "util/env.h"

namespace stair::io {

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kAuto: return "auto";
    case Backend::kThreads: return "threads";
    case Backend::kUring: return "uring";
  }
  return "?";
}

Backend backend_from_env() {
  const char* v = std::getenv("STAIR_IO_BACKEND");
  if (!v || !*v) return Backend::kAuto;
  const std::string_view s(v);
  if (s == "auto") return Backend::kAuto;
  if (s == "threads") return Backend::kThreads;
  if (s == "uring") return Backend::kUring;
  throw std::runtime_error("STAIR_IO_BACKEND: unknown value \"" + std::string(s) +
                           "\" (expected auto | threads | uring)");
}

namespace {

IoPhase& phase_slot() {
  thread_local IoPhase phase = IoPhase::kForeground;
  return phase;
}

std::uint64_t load_relaxed(const std::atomic<std::uint64_t>& a) {
  return a.load(std::memory_order_relaxed);
}

void bump(std::atomic<std::uint64_t>& a, std::uint64_t n = 1) {
  a.fetch_add(n, std::memory_order_relaxed);
}

/// Raises `hw` to at least `v` (relaxed CAS max — contended only by stats).
void raise_high_water(std::atomic<std::uint64_t>& hw, std::uint64_t v) {
  std::uint64_t cur = hw.load(std::memory_order_relaxed);
  while (cur < v && !hw.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// open(2) honoring OpenMode: a kDirect request first tries O_DIRECT and
/// falls back to a plain open when the filesystem refuses — tmpfs/procfs
/// style EINVAL — counting both outcomes so benches and tests can see which
/// mode actually engaged.
int open_with_mode(const char* path, int flags, OpenMode mode,
                   std::atomic<std::uint64_t>& direct_opens,
                   std::atomic<std::uint64_t>& direct_fallbacks) {
#ifdef O_DIRECT
  if (mode == OpenMode::kDirect) {
    const int fd = ::open(path, flags | O_DIRECT, 0644);
    if (fd >= 0) {
      bump(direct_opens);
      return fd;
    }
    bump(direct_fallbacks);
  }
#else
  (void)mode;
  (void)direct_opens;
  (void)direct_fallbacks;
#endif
  return ::open(path, flags, 0644);
}

}  // namespace

bool direct_from_env() { return env_flag("STAIR_IO_DIRECT", false); }

bool sqpoll_from_env() { return env_flag("STAIR_IO_SQPOLL", false); }

IoPhase current_phase() { return phase_slot(); }

PhaseScope::PhaseScope(IoPhase phase) : prev_(phase_slot()) { phase_slot() = phase; }

PhaseScope::~PhaseScope() { phase_slot() = prev_; }

int Engine::open_read(const std::string& path, OpenMode mode) {
  return open_with_mode(path.c_str(), O_RDONLY | O_CLOEXEC, mode, counters_.direct_opens,
                        counters_.direct_fallbacks);
}

int Engine::open_write(const std::string& path, OpenMode mode) {
  return open_with_mode(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, mode,
                        counters_.direct_opens, counters_.direct_fallbacks);
}

int Engine::open_update(const std::string& path, OpenMode mode) {
  return open_with_mode(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, mode,
                        counters_.direct_opens, counters_.direct_fallbacks);
}

void Engine::close(int fd) {
  if (fd >= 0) ::close(fd);
}

std::uint64_t Engine::file_size(int fd) const {
  struct stat st;
  if (::fstat(fd, &st) != 0) return 0;
  return static_cast<std::uint64_t>(st.st_size);
}

int Engine::truncate(int fd, std::uint64_t size) {
  return ::ftruncate(fd, static_cast<off_t>(size)) == 0 ? 0 : errno;
}

void Engine::read_fixed(int fd, std::uint64_t offset, std::span<std::uint8_t> buf,
                        int buf_index, Callback cb) {
  // Base path: no registration support, every fixed request degrades.
  (void)buf_index;
  bump(counters_.fixed_fallbacks);
  read(fd, offset, buf, std::move(cb));
}

void Engine::write_fixed(int fd, std::uint64_t offset,
                         std::span<const std::uint8_t> buf, int buf_index,
                         Callback cb) {
  (void)buf_index;
  bump(counters_.fixed_fallbacks);
  write(fd, offset, buf, std::move(cb));
}

int Engine::register_buffers(std::span<const std::span<std::uint8_t>> regions) {
  (void)regions;
  return ENOTSUP;
}

void Engine::unregister_buffers() {}

int Engine::register_files(std::span<const int> fds) {
  (void)fds;
  return ENOTSUP;
}

void Engine::unregister_files() {}

Engine::Stats Engine::stats() const {
  Stats s;
  s.reads = load_relaxed(counters_.reads);
  s.writes = load_relaxed(counters_.writes);
  s.fixed_reads = load_relaxed(counters_.fixed_reads);
  s.fixed_writes = load_relaxed(counters_.fixed_writes);
  s.fixed_fallbacks = load_relaxed(counters_.fixed_fallbacks);
  s.direct_opens = load_relaxed(counters_.direct_opens);
  s.direct_fallbacks = load_relaxed(counters_.direct_fallbacks);
  return s;
}

namespace {

/// Full-transfer pread loop: retries short reads, stops at EOF or error.
Result read_full(int fd, std::uint64_t offset, std::span<std::uint8_t> buf) {
  std::size_t done = 0;
  while (done < buf.size()) {
    const ssize_t n = ::pread(fd, buf.data() + done, buf.size() - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return {errno, done};
    }
    if (n == 0) break;  // EOF
    done += static_cast<std::size_t>(n);
  }
  return {0, done};
}

/// Full-transfer pwrite loop.
Result write_full(int fd, std::uint64_t offset, std::span<const std::uint8_t> buf) {
  std::size_t done = 0;
  while (done < buf.size()) {
    const ssize_t n = ::pwrite(fd, buf.data() + done, buf.size() - done,
                               static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return {errno, done};
    }
    done += static_cast<std::size_t>(n);
  }
  return {0, done};
}

// ---------------------------------------------------------------------------
// Thread backend: a small pool of pread/pwrite workers draining a queue.
// ---------------------------------------------------------------------------

class ThreadEngine : public Engine {
 public:
  explicit ThreadEngine(const Options& options) {
    const std::size_t n = options.threads ? options.threads : 1;
    workers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  }

  ~ThreadEngine() override {
    flush();
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  Backend backend() const override { return Backend::kThreads; }

  void read(int fd, std::uint64_t offset, std::span<std::uint8_t> buf,
            Callback cb) override {
    bump(counters_.reads);
    enqueue({false, fd, offset, buf.data(), nullptr, buf.size(), std::move(cb)});
  }

  void write(int fd, std::uint64_t offset, std::span<const std::uint8_t> buf,
             Callback cb) override {
    bump(counters_.writes);
    enqueue({true, fd, offset, nullptr, buf.data(), buf.size(), std::move(cb)});
  }

  void flush() override {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  }

 private:
  struct Op {
    bool is_write;
    int fd;
    std::uint64_t offset;
    std::uint8_t* rbuf;
    const std::uint8_t* wbuf;
    std::size_t len;
    Callback cb;
  };

  void enqueue(Op op) {
    // Notify under the lock: an unlocked notify can touch the cv after a
    // racing completion let flush() return and the destructor tear it down.
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(op));
    cv_.notify_one();
  }

  void worker_loop() {
    for (;;) {
      Op op;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stop_ && drained
        op = std::move(queue_.front());
        queue_.pop_front();
        ++active_;
      }
      const Result r = op.is_write ? write_full(op.fd, op.offset, {op.wbuf, op.len})
                                   : read_full(op.fd, op.offset, {op.rbuf, op.len});
      op.cb(r);
      {
        // Notify under the lock (see enqueue): after --active_ reaches the
        // flush predicate, the engine may be destroyed.
        std::lock_guard<std::mutex> lock(mu_);
        --active_;
        idle_cv_.notify_all();
      }
    }
  }

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_, idle_cv_;
  std::deque<Op> queue_;   // guarded by mu_
  std::size_t active_ = 0; // guarded by mu_
  bool stop_ = false;      // guarded by mu_
};

// ---------------------------------------------------------------------------
// io_uring backend, through raw syscalls (no liburing). One submission mutex,
// one completion-reaper thread dispatching callbacks; short transfers are
// continued from the reaper so callers always see whole-or-nothing results.
//
// Raw-device additions: fixed buffers (IORING_REGISTER_BUFFERS +
// READ_FIXED/WRITE_FIXED), fixed files (IORING_REGISTER_FILES +
// IOSQE_FIXED_FILE), and opt-in SQPOLL. Each degrades independently: an
// invalid buffer index takes the plain opcode, an unregistered fd submits by
// number, and a kernel that refuses IORING_SETUP_SQPOLL gets a normal ring.
// ---------------------------------------------------------------------------

#ifdef STAIR_HAVE_URING_SYSCALLS

int sys_io_uring_setup(unsigned entries, io_uring_params* p) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, p));
}

int sys_io_uring_enter(int fd, unsigned to_submit, unsigned min_complete, unsigned flags) {
  return static_cast<int>(
      ::syscall(__NR_io_uring_enter, fd, to_submit, min_complete, flags, nullptr, 0));
}

int sys_io_uring_register(int fd, unsigned opcode, void* arg, unsigned nr_args) {
  return static_cast<int>(::syscall(__NR_io_uring_register, fd, opcode, arg, nr_args));
}

class UringEngine : public Engine {
 public:
  /// Throws std::runtime_error when the ring cannot be set up (caller falls
  /// back to the thread backend).
  explicit UringEngine(const Options& options) {
    unsigned entries = 8;
    while (entries < options.queue_depth && entries < 4096) entries *= 2;
    std::memset(&params_, 0, sizeof params_);
    if (options.sqpoll) {
      // Ask for a kernel submission poller; if this kernel (or sandbox)
      // refuses, retry as a normal ring — SQPOLL is a perf mode, never a
      // functional requirement.
      params_.flags = IORING_SETUP_SQPOLL;
      params_.sq_thread_idle = 100;  // ms before the poller naps
      ring_fd_ = sys_io_uring_setup(entries, &params_);
      if (ring_fd_ >= 0) {
        sqpoll_active_ = true;
      } else {
        std::memset(&params_, 0, sizeof params_);
      }
    }
    if (ring_fd_ < 0) ring_fd_ = sys_io_uring_setup(entries, &params_);
    if (ring_fd_ < 0) throw std::runtime_error("io_uring_setup failed");

    sq_ring_bytes_ = params_.sq_off.array + params_.sq_entries * sizeof(unsigned);
    cq_ring_bytes_ = params_.cq_off.cqes + params_.cq_entries * sizeof(io_uring_cqe);
    const bool single_mmap = params_.features & IORING_FEAT_SINGLE_MMAP;
    if (single_mmap) sq_ring_bytes_ = cq_ring_bytes_ = std::max(sq_ring_bytes_, cq_ring_bytes_);

    sq_ring_ = ::mmap(nullptr, sq_ring_bytes_, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQ_RING);
    cq_ring_ = single_mmap
                   ? sq_ring_
                   : ::mmap(nullptr, cq_ring_bytes_, PROT_READ | PROT_WRITE,
                            MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_CQ_RING);
    sqes_ = static_cast<io_uring_sqe*>(
        ::mmap(nullptr, params_.sq_entries * sizeof(io_uring_sqe), PROT_READ | PROT_WRITE,
               MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQES));
    if (sq_ring_ == MAP_FAILED || cq_ring_ == MAP_FAILED ||
        sqes_ == static_cast<void*>(MAP_FAILED)) {
      teardown();
      throw std::runtime_error("io_uring ring mmap failed");
    }

    auto* sq = static_cast<std::uint8_t*>(sq_ring_);
    sq_head_ = reinterpret_cast<unsigned*>(sq + params_.sq_off.head);
    sq_tail_ = reinterpret_cast<unsigned*>(sq + params_.sq_off.tail);
    sq_mask_ = *reinterpret_cast<unsigned*>(sq + params_.sq_off.ring_mask);
    sq_array_ = reinterpret_cast<unsigned*>(sq + params_.sq_off.array);
    sq_flags_ = reinterpret_cast<unsigned*>(sq + params_.sq_off.flags);
    auto* cq = static_cast<std::uint8_t*>(cq_ring_);
    cq_head_ = reinterpret_cast<unsigned*>(cq + params_.cq_off.head);
    cq_tail_ = reinterpret_cast<unsigned*>(cq + params_.cq_off.tail);
    cq_mask_ = *reinterpret_cast<unsigned*>(cq + params_.cq_off.ring_mask);
    cqes_ = reinterpret_cast<io_uring_cqe*>(cq + params_.cq_off.cqes);

    // The cq holds 2x sq_entries; capping in-flight below it means a cqe slot
    // always exists, so completions can never be dropped on overflow.
    max_in_flight_ = params_.cq_entries - 1;
    reaper_ = std::thread([this] { reaper_loop(); });
  }

  ~UringEngine() override {
    flush();
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
      push_sqe_locked(IORING_OP_NOP, -1, 0, nullptr, 0, nullptr, -1, 0);  // wake the reaper
    }
    reaper_.join();
    teardown();
  }

  Backend backend() const override { return Backend::kUring; }

  void read(int fd, std::uint64_t offset, std::span<std::uint8_t> buf,
            Callback cb) override {
    submit(false, fd, offset, buf.data(), buf.size(), -1, false, std::move(cb));
  }

  void write(int fd, std::uint64_t offset, std::span<const std::uint8_t> buf,
             Callback cb) override {
    submit(true, fd, offset, const_cast<std::uint8_t*>(buf.data()), buf.size(), -1,
           false, std::move(cb));
  }

  void read_fixed(int fd, std::uint64_t offset, std::span<std::uint8_t> buf,
                  int buf_index, Callback cb) override {
    submit(false, fd, offset, buf.data(), buf.size(), buf_index, true, std::move(cb));
  }

  void write_fixed(int fd, std::uint64_t offset, std::span<const std::uint8_t> buf,
                   int buf_index, Callback cb) override {
    submit(true, fd, offset, const_cast<std::uint8_t*>(buf.data()), buf.size(),
           buf_index, true, std::move(cb));
  }

  void flush() override {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
  }

  int register_buffers(std::span<const std::span<std::uint8_t>> regions) override {
    std::lock_guard<std::mutex> lock(mu_);
    // One set at a time: replacing a live one would re-index transfers its
    // owner still has in flight.
    if (!regions_.empty()) return EBUSY;
    if (regions.empty()) return 0;
    std::vector<iovec> iov(regions.size());
    for (std::size_t i = 0; i < regions.size(); ++i)
      iov[i] = {regions[i].data(), regions[i].size()};
    if (sys_io_uring_register(ring_fd_, IORING_REGISTER_BUFFERS, iov.data(),
                              static_cast<unsigned>(iov.size())) != 0)
      return errno;  // EBUSY/ENOMEM/...: caller proceeds unregistered
    regions_.assign(regions.begin(), regions.end());
    n_registered_buffers_.store(regions.size(), std::memory_order_relaxed);
    return 0;
  }

  void unregister_buffers() override {
    std::lock_guard<std::mutex> lock(mu_);
    if (regions_.empty()) return;
    sys_io_uring_register(ring_fd_, IORING_UNREGISTER_BUFFERS, nullptr, 0);
    regions_.clear();
    n_registered_buffers_.store(0, std::memory_order_relaxed);
  }

  int register_files(std::span<const int> fds) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (!fd_index_.empty()) return EBUSY;  // one set at a time, as for buffers
    if (fds.empty()) return 0;
    std::vector<std::int32_t> raw(fds.begin(), fds.end());
    if (sys_io_uring_register(ring_fd_, IORING_REGISTER_FILES, raw.data(),
                              static_cast<unsigned>(raw.size())) != 0)
      return errno;
    fd_index_.reserve(fds.size());
    for (std::size_t i = 0; i < fds.size(); ++i)
      fd_index_.emplace_back(fds[i], static_cast<int>(i));
    n_registered_files_.store(fds.size(), std::memory_order_relaxed);
    return 0;
  }

  void unregister_files() override {
    std::lock_guard<std::mutex> lock(mu_);
    if (fd_index_.empty()) return;
    sys_io_uring_register(ring_fd_, IORING_UNREGISTER_FILES, nullptr, 0);
    fd_index_.clear();
    n_registered_files_.store(0, std::memory_order_relaxed);
  }

  Stats stats() const override {
    Stats s = Engine::stats();
    s.sq_depth_high_water = load_relaxed(sq_depth_hw_);
    s.cq_backlog_high_water = load_relaxed(cq_backlog_hw_);
    s.enters = load_relaxed(enters_);
    s.sqpoll_wakeups = load_relaxed(sqpoll_wakeups_);
    s.registered_buffers = n_registered_buffers_.load(std::memory_order_relaxed);
    s.registered_files = n_registered_files_.load(std::memory_order_relaxed);
    s.sqpoll_active = sqpoll_active_;
    return s;
  }

 private:
  // One logical transfer; lives on the heap until fully retired. `done`
  // tracks bytes from completed sqes so short transfers continue where they
  // stopped. buf_index/file_index are the RESOLVED registrations (-1 =
  // plain), reused verbatim by short-transfer continuations.
  struct Op {
    bool is_write;
    int fd;
    std::uint64_t offset;
    std::uint8_t* buf;
    std::size_t len;
    std::size_t done = 0;
    int buf_index = -1;
    int file_index = -1;
    Callback cb;
  };

  void teardown() {
    if (sqes_ && sqes_ != static_cast<void*>(MAP_FAILED))
      ::munmap(sqes_, params_.sq_entries * sizeof(io_uring_sqe));
    if (cq_ring_ && cq_ring_ != MAP_FAILED && cq_ring_ != sq_ring_)
      ::munmap(cq_ring_, cq_ring_bytes_);
    if (sq_ring_ && sq_ring_ != MAP_FAILED) ::munmap(sq_ring_, sq_ring_bytes_);
    if (ring_fd_ >= 0) ::close(ring_fd_);
  }

  // Fills one sqe and submits it to the kernel. Caller holds mu_.
  //
  // Normal ring: the enter() consumes the sqe immediately, so the sq ring
  // cannot fill up under the lock and pushes from the reaper (continuations)
  // can never block. SQPOLL ring: the kernel poller consumes sqes on its
  // own clock, so this waits for sq space (kernel progress does not depend
  // on any of our threads, so spinning under mu_ is deadlock-free), then
  // publishes the sqe with no syscall at all unless the poller napped and
  // needs an IORING_ENTER_SQ_WAKEUP kick.
  //
  // Returns 0 or the errno the submission ultimately failed with — a
  // dropped submission must not be silent (its op would never complete and
  // flush() would hang on in_flight_ forever).
  int push_sqe_locked(unsigned op, int fd, std::uint64_t offset, void* addr,
                      std::size_t len, Op* user, int buf_index, unsigned sqe_flags) {
    const unsigned tail = *sq_tail_;
    if (sqpoll_active_) {
      while (tail - __atomic_load_n(sq_head_, __ATOMIC_ACQUIRE) >= params_.sq_entries)
        std::this_thread::yield();
    }
    const unsigned idx = tail & sq_mask_;
    io_uring_sqe& sqe = sqes_[idx];
    std::memset(&sqe, 0, sizeof sqe);
    sqe.opcode = static_cast<std::uint8_t>(op);
    sqe.flags = static_cast<std::uint8_t>(sqe_flags);
    sqe.fd = fd;
    sqe.off = offset;
    sqe.addr = reinterpret_cast<std::uint64_t>(addr);
    sqe.len = static_cast<unsigned>(len);
    if (buf_index >= 0) sqe.buf_index = static_cast<std::uint16_t>(buf_index);
    sqe.user_data = reinterpret_cast<std::uint64_t>(user);
    sq_array_[idx] = idx;
    __atomic_store_n(sq_tail_, tail + 1, __ATOMIC_RELEASE);
    if (sqpoll_active_) {
      // Submission errors surface as cqes in this mode; the only syscall is
      // the occasional poller wakeup.
      if (__atomic_load_n(sq_flags_, __ATOMIC_ACQUIRE) & IORING_SQ_NEED_WAKEUP) {
        bump(enters_);
        bump(sqpoll_wakeups_);
        for (;;) {
          if (sys_io_uring_enter(ring_fd_, 1, 0, IORING_ENTER_SQ_WAKEUP) >= 0) break;
          if (errno == EINTR || errno == EBUSY || errno == EAGAIN) continue;
          return errno;
        }
      }
      return 0;
    }
    for (;;) {
      bump(enters_);
      if (sys_io_uring_enter(ring_fd_, 1, 0, 0) >= 0) return 0;
      // EBUSY/EAGAIN: the kernel wants completions reaped (cq backlog) or
      // memory freed first — the reaper drains concurrently, so yield and
      // retry. Anything else is a hard failure the caller must surface.
      if (errno == EINTR) continue;
      if (errno == EBUSY || errno == EAGAIN) {
        std::this_thread::yield();
        continue;
      }
      return errno;
    }
  }

  // push_sqe_locked for a transfer op. Returns the submission errno (0 on
  // success); on failure the CALLER must finish(op, ...) after releasing
  // mu_ — finishing takes the lock and runs the callback.
  int push_op_locked(Op* op, std::uint64_t offset, std::uint8_t* buf, std::size_t len) {
    unsigned opcode;
    if (op->buf_index >= 0)
      opcode = op->is_write ? IORING_OP_WRITE_FIXED : IORING_OP_READ_FIXED;
    else
      opcode = op->is_write ? IORING_OP_WRITE : IORING_OP_READ;
    const int fd = op->file_index >= 0 ? op->file_index : op->fd;
    const unsigned flags = op->file_index >= 0 ? IOSQE_FIXED_FILE : 0;
    return push_sqe_locked(opcode, fd, offset, buf, len, op, op->buf_index, flags);
  }

  void submit(bool is_write, int fd, std::uint64_t offset, std::uint8_t* buf,
              std::size_t len, int want_buf_index, bool fixed_call, Callback cb) {
    bump(is_write ? counters_.writes : counters_.reads);
    auto* op = new Op{is_write, fd, offset, buf, len, 0, -1, -1, std::move(cb)};
    int err;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Keep a free cqe slot per transfer (see max_in_flight_) — but never
      // block the reaper thread itself: callbacks run there and may chain new
      // submissions, and a parked reaper retires nothing. Completion-driven
      // overshoot is absorbed by the kernel's no-drop overflow queue.
      if (std::this_thread::get_id() != reaper_.get_id())
        idle_cv_.wait(lock, [this] { return in_flight_ < max_in_flight_; });
      ++in_flight_;
      raise_high_water(sq_depth_hw_, in_flight_);
      // Resolve registrations under mu_ (register_* mutate under it too).
      // An index that is out of range or whose span does not contain the
      // transfer degrades to the plain opcode — counted, never an error.
      if (want_buf_index >= 0 &&
          static_cast<std::size_t>(want_buf_index) < regions_.size()) {
        const auto& region = regions_[static_cast<std::size_t>(want_buf_index)];
        if (buf >= region.data() && buf + len <= region.data() + region.size())
          op->buf_index = want_buf_index;
      }
      if (fixed_call) {
        if (op->buf_index >= 0)
          bump(is_write ? counters_.fixed_writes : counters_.fixed_reads);
        else
          bump(counters_.fixed_fallbacks);
      }
      for (const auto& [f, idx] : fd_index_)
        if (f == fd) {
          op->file_index = idx;
          break;
        }
      if (broken_) {
        err = EIO;  // the reaper found the ring dead; nothing will complete
      } else {
        live_.push_back(op);
        err = push_op_locked(op, offset, buf, len);
      }
    }
    if (err != 0) finish(op, {err, 0});
  }

  void reaper_loop() {
    for (;;) {
      unsigned head = *cq_head_;
      const unsigned tail = __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE);
      if (head == tail) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          if (stop_ && in_flight_ == 0) return;
        }
        const int rc = sys_io_uring_enter(ring_fd_, 0, 1, IORING_ENTER_GETEVENTS);
        if (rc < 0 && errno != EINTR && errno != EAGAIN && errno != EBUSY) {
          // The ring is broken (ENOMEM, EBADF, ...): no more cqes will ever
          // arrive, so fail every live op out — leaving them would hang the
          // caller's flush()/drain forever instead of surfacing an error.
          fail_all_live(errno);
          return;
        }
        continue;
      }
      raise_high_water(cq_backlog_hw_, tail - head);
      const io_uring_cqe cqe = cqes_[head & cq_mask_];
      __atomic_store_n(cq_head_, head + 1, __ATOMIC_RELEASE);
      Op* op = reinterpret_cast<Op*>(cqe.user_data);
      if (!op) continue;  // stop NOP: not a transfer, nothing to retire
      // The op's fields were written by the submitter under mu_ and handed
      // over through the kernel ring, whose ordering the memory model (and
      // TSan) cannot see. Taking mu_ once per completion recreates the
      // submit-unlock -> here edge explicitly before the fields are read.
      { std::lock_guard<std::mutex> lock(mu_); }
      if (cqe.res < 0) {
        finish(op, {-cqe.res, op->done});
      } else {
        op->done += static_cast<std::size_t>(cqe.res);
        if (cqe.res == 0 || op->done >= op->len) {
          finish(op, {0, op->done});  // EOF or complete
        } else {
          // Short transfer: continue the remainder in-place (same in-flight
          // slot, so this never waits).
          int err;
          {
            std::lock_guard<std::mutex> lock(mu_);
            err = push_op_locked(op, op->offset + op->done, op->buf + op->done,
                                 op->len - op->done);
          }
          if (err != 0) finish(op, {err, op->done});
        }
      }
    }
  }

  void finish(Op* op, const Result& r) {
    op->cb(r);
    delete op;
    // Notify under the lock: once in_flight_ hits the flush predicate the
    // engine may be destroyed, so the cv must not be touched after unlock.
    std::lock_guard<std::mutex> lock(mu_);
    std::erase(live_, op);
    --in_flight_;
    idle_cv_.notify_all();
  }

  void fail_all_live(int err) {
    std::vector<Op*> doomed;
    {
      std::lock_guard<std::mutex> lock(mu_);
      broken_ = true;  // later submits fail fast instead of being orphaned
      doomed.swap(live_);
    }
    for (Op* op : doomed) finish(op, {err, op->done});
  }

  io_uring_params params_{};
  int ring_fd_ = -1;
  void* sq_ring_ = nullptr;
  void* cq_ring_ = nullptr;
  io_uring_sqe* sqes_ = nullptr;
  std::size_t sq_ring_bytes_ = 0, cq_ring_bytes_ = 0;
  unsigned *sq_head_ = nullptr, *sq_tail_ = nullptr, *sq_array_ = nullptr;
  unsigned* sq_flags_ = nullptr;
  unsigned *cq_head_ = nullptr, *cq_tail_ = nullptr;
  unsigned sq_mask_ = 0, cq_mask_ = 0;
  io_uring_cqe* cqes_ = nullptr;
  bool sqpoll_active_ = false;  // set in ctor, immutable after

  std::mutex mu_;
  std::condition_variable idle_cv_;
  std::size_t in_flight_ = 0;  // guarded by mu_
  std::vector<Op*> live_;      // guarded by mu_; ops awaiting completion
  std::vector<std::span<std::uint8_t>> regions_;     // guarded by mu_
  std::vector<std::pair<int, int>> fd_index_;        // guarded by mu_; fd -> index
  std::size_t max_in_flight_ = 0;
  bool stop_ = false;    // guarded by mu_
  bool broken_ = false;  // guarded by mu_; reaper hit a hard ring error
  std::thread reaper_;

  std::atomic<std::uint64_t> sq_depth_hw_{0}, cq_backlog_hw_{0};
  std::atomic<std::uint64_t> enters_{0}, sqpoll_wakeups_{0};
  std::atomic<std::size_t> n_registered_buffers_{0}, n_registered_files_{0};
};

#endif  // STAIR_HAVE_URING_SYSCALLS

}  // namespace

bool Engine::uring_supported() {
#if defined(STAIR_HAVE_URING_SYSCALLS) && defined(IORING_REGISTER_PROBE)
  static const bool supported = [] {
    io_uring_params p;
    std::memset(&p, 0, sizeof p);
    const int fd = sys_io_uring_setup(4, &p);
    if (fd < 0) return false;
    // setup succeeding is not enough: the engine needs IORING_OP_READ/WRITE
    // (5.6+), so probe the opcodes. Kernels too old for the probe (also
    // 5.6+) lack the opcodes too and correctly fall back to threads. The
    // *_FIXED variants predate READ/WRITE (5.1), so they need no probe.
    bool ok = false;
    std::vector<std::uint8_t> mem(
        sizeof(io_uring_probe) + IORING_OP_LAST * sizeof(io_uring_probe_op), 0);
    auto* probe = reinterpret_cast<io_uring_probe*>(mem.data());
    if (sys_io_uring_register(fd, IORING_REGISTER_PROBE, probe, IORING_OP_LAST) == 0) {
      const auto op_supported = [&](unsigned op) {
        return op < probe->ops_len && (probe->ops[op].flags & IO_URING_OP_SUPPORTED);
      };
      ok = op_supported(IORING_OP_READ) && op_supported(IORING_OP_WRITE) &&
           op_supported(IORING_OP_NOP);
    }
    ::close(fd);
    return ok;
  }();
  return supported;
#else
  return false;
#endif
}

std::unique_ptr<Engine> Engine::create(Backend requested) {
  Options options;
  options.sqpoll = sqpoll_from_env();
  return create(requested, options);
}

std::unique_ptr<Engine> Engine::create(Backend requested, Options options) {
#ifdef STAIR_HAVE_URING_SYSCALLS
  if (requested != Backend::kThreads && uring_supported()) {
    try {
      return std::make_unique<UringEngine>(options);
    } catch (...) {
      // Probe raced a sandbox/rlimit change; the thread backend always works.
    }
  }
#endif
  (void)requested;
  return std::make_unique<ThreadEngine>(options);
}

Engine* engine_or_create(Engine* borrowed, std::unique_ptr<Engine>& owned) {
  if (borrowed) return borrowed;
  owned = Engine::create();
  return owned.get();
}

// ---------------------------------------------------------------------------
// FaultInjectingEngine
// ---------------------------------------------------------------------------

namespace {

std::string final_component(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

FaultInjectingEngine::FaultInjectingEngine(std::unique_ptr<Engine> inner)
    : inner_(std::move(inner)) {}

FaultInjectingEngine::~FaultInjectingEngine() = default;

void FaultInjectingEngine::add_fault(Fault fault) {
  std::lock_guard<std::mutex> lock(mu_);
  faults_.push_back(std::move(fault));
}

void FaultInjectingEngine::clear_faults() {
  std::lock_guard<std::mutex> lock(mu_);
  faults_.clear();
}

std::uint64_t FaultInjectingEngine::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

void FaultInjectingEngine::set_reject_direct(bool reject) {
  reject_direct_.store(reject, std::memory_order_relaxed);
}

OpenMode FaultInjectingEngine::effective_mode(OpenMode requested) {
  if (requested == OpenMode::kDirect &&
      reject_direct_.load(std::memory_order_relaxed)) {
    // Simulated "filesystem refuses O_DIRECT": downgrade before the inner
    // engine sees the request, and surface the fallback in stats() exactly
    // like a real EINVAL would.
    bump(counters_.direct_fallbacks);
    return OpenMode::kBuffered;
  }
  return requested;
}

int FaultInjectingEngine::record_open(int fd, const std::string& path) {
  if (fd >= 0) {
    std::lock_guard<std::mutex> lock(mu_);
    files_.emplace_back(fd, final_component(path));
  }
  return fd;
}

int FaultInjectingEngine::open_read(const std::string& path, OpenMode mode) {
  return record_open(inner_->open_read(path, effective_mode(mode)), path);
}

int FaultInjectingEngine::open_write(const std::string& path, OpenMode mode) {
  return record_open(inner_->open_write(path, effective_mode(mode)), path);
}

int FaultInjectingEngine::open_update(const std::string& path, OpenMode mode) {
  return record_open(inner_->open_update(path, effective_mode(mode)), path);
}

void FaultInjectingEngine::close(int fd) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::erase_if(files_, [fd](const auto& e) { return e.first == fd; });
  }
  inner_->close(fd);
}

std::optional<Fault> FaultInjectingEngine::match(bool is_write, int fd,
                                                 std::uint64_t offset,
                                                 std::uint64_t length) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string* name = nullptr;
  for (const auto& [f, n] : files_)
    if (f == fd) {
      name = &n;
      break;
    }
  if (!name) return std::nullopt;
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    const Fault& rule = faults_[i];
    const bool write_kind =
        rule.kind == Fault::Kind::kWriteError || rule.kind == Fault::Kind::kTornWrite;
    if (write_kind != is_write || rule.file != *name) continue;
    if (rule.phase && *rule.phase != current_phase()) continue;
    const std::uint64_t rule_end =
        rule.length == ~0ULL ? ~0ULL : rule.offset + rule.length;
    if (offset + length <= rule.offset || offset >= rule_end) continue;
    Fault hit = rule;
    ++hits_;
    if (rule.once) faults_.erase(faults_.begin() + static_cast<std::ptrdiff_t>(i));
    return hit;
  }
  return std::nullopt;
}

namespace {

/// One read through the fault plan: `fault` (if any) decides what the
/// caller sees, `forward(buf, cb)` submits to the inner engine — plain or
/// fixed, the faults are the same. Callbacks pass by rvalue reference, so
/// the fold moves each one no more often than a direct call would.
template <typename Forward>
void faulty_read(const std::optional<Fault>& fault, std::span<std::uint8_t> buf, Callback&& cb,
                 Forward&& forward) {
  if (fault) {
    switch (fault->kind) {
      case Fault::Kind::kReadError:
        cb(Result{fault->error, 0});
        return;
      case Fault::Kind::kShortRead: {
        // Deliver a genuine prefix, then under-report: the bytes the "device"
        // managed before giving up.
        const std::size_t keep = std::min(fault->keep_bytes, buf.size());
        forward(buf, [cb = std::move(cb), keep](const Result& r) {
          cb(Result{0, std::min(keep, r.bytes)});
        });
        return;
      }
      default:  // write kinds never match reads
        break;
    }
  }
  forward(buf, std::move(cb));
}

/// faulty_read's counterpart for writes.
template <typename Forward>
void faulty_write(const std::optional<Fault>& fault, std::span<const std::uint8_t> buf,
                  Callback&& cb, Forward&& forward) {
  if (fault) {
    switch (fault->kind) {
      case Fault::Kind::kWriteError:
        cb(Result{fault->error, 0});
        return;
      case Fault::Kind::kTornWrite: {
        // The prefix lands; the report claims everything did. The lie is what
        // per-chunk checksums exist to catch on the next read.
        const std::size_t keep = std::min(fault->keep_bytes, buf.size());
        const std::size_t full = buf.size();
        if (keep == 0) {
          cb(Result{0, full});
          return;
        }
        forward(buf.first(keep),
                [cb = std::move(cb), full](const Result&) { cb(Result{0, full}); });
        return;
      }
      default:  // read kinds never match writes
        break;
    }
  }
  forward(buf, std::move(cb));
}

}  // namespace

void FaultInjectingEngine::read(int fd, std::uint64_t offset,
                                std::span<std::uint8_t> buf, Callback cb) {
  faulty_read(match(false, fd, offset, buf.size()), buf, std::move(cb),
              [&](std::span<std::uint8_t> b, Callback&& c) {
                inner_->read(fd, offset, b, std::move(c));
              });
}

void FaultInjectingEngine::read_fixed(int fd, std::uint64_t offset,
                                      std::span<std::uint8_t> buf, int buf_index,
                                      Callback cb) {
  faulty_read(match(false, fd, offset, buf.size()), buf, std::move(cb),
              [&](std::span<std::uint8_t> b, Callback&& c) {
                inner_->read_fixed(fd, offset, b, buf_index, std::move(c));
              });
}

void FaultInjectingEngine::write(int fd, std::uint64_t offset,
                                 std::span<const std::uint8_t> buf, Callback cb) {
  faulty_write(match(true, fd, offset, buf.size()), buf, std::move(cb),
               [&](std::span<const std::uint8_t> b, Callback&& c) {
                 inner_->write(fd, offset, b, std::move(c));
               });
}

void FaultInjectingEngine::write_fixed(int fd, std::uint64_t offset,
                                       std::span<const std::uint8_t> buf,
                                       int buf_index, Callback cb) {
  faulty_write(match(true, fd, offset, buf.size()), buf, std::move(cb),
               [&](std::span<const std::uint8_t> b, Callback&& c) {
                 inner_->write_fixed(fd, offset, b, buf_index, std::move(c));
               });
}

Engine::Stats FaultInjectingEngine::stats() const {
  Stats s = inner_->stats();
  // Direct rejections simulated by this decorator never reached the inner
  // engine; add them so the pipeline sees one coherent fallback count.
  s.direct_fallbacks += load_relaxed(counters_.direct_fallbacks);
  return s;
}

}  // namespace stair::io
