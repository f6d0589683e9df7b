// Async stripe-chunk IO engine — the disk side of the serving pipeline.
//
// The Codec session keeps N stripes of *compute* in flight; this engine keeps
// their chunk reads and writes in flight alongside, so IO for stripe k+d
// overlaps region work for stripe k instead of serializing in front of it.
// The model is a tiny completion-callback engine, deliberately smaller than a
// general event loop:
//
//   * read/write submit one positioned transfer (pread/pwrite semantics) and
//     return immediately; the callback fires on an engine thread when the
//     transfer has fully completed (or failed),
//   * transfers are whole-or-nothing: the engine internally continues short
//     transfers, so the callback sees bytes < requested only at end-of-file
//     (reads) or with a nonzero errno,
//   * flush() blocks the caller until every submitted transfer has retired.
//
// Two backends, selected at runtime (STAIR_IO_BACKEND = threads | uring |
// auto, or Engine::create's argument): a portable pread/pwrite thread pool,
// and a Linux io_uring ring driven through raw syscalls (no liburing
// dependency). kAuto prefers io_uring and silently falls back when the
// kernel or a seccomp sandbox refuses io_uring_setup — backend() reports
// what was actually built, and every backend produces identical results.
// An unknown STAIR_IO_BACKEND value is a loud failure, not a silent auto.
//
// Raw-device mode (the page-cache bypass tier):
//
//   * open_* take an OpenMode; OpenMode::kDirect attempts O_DIRECT and falls
//     back to a buffered open when the filesystem refuses (historically
//     tmpfs EINVAL) — counted in stats().direct_fallbacks, never an error.
//     Callers own alignment: direct transfers need block-aligned buffers,
//     offsets, and lengths (util/workspace_pool's IoBufferPool).
//   * register_buffers() pins a set of aligned staging buffers with the
//     backend (io_uring IORING_REGISTER_BUFFERS); read_fixed/write_fixed
//     carry the buffer's registration index and the uring backend issues
//     READ_FIXED/WRITE_FIXED — zero per-IO get_user_pages. An index of -1
//     (an overflow lease) or an unregistered backend degrades to the plain
//     path, counted in stats().fixed_fallbacks.
//   * register_files() registers long-lived chunk fds (IORING_REGISTER_FILES,
//     IOSQE_FIXED_FILE) so each submission skips the per-IO fd refcount.
//   * Options::sqpoll (STAIR_IO_SQPOLL=1) opts the uring backend into
//     IORING_SETUP_SQPOLL: the kernel polls the sq and submissions become
//     syscall-free while the poller is awake (stats().sqpoll_wakeups counts
//     the enters needed to re-wake it). Downgrades to a normal ring when the
//     kernel refuses.
//
// Every raw-device feature degrades gracefully and independently: buffered
// engines ignore registration, fixed ops fall back to plain ones, O_DIRECT
// falls back to buffered — the pipeline above never branches on support,
// it just reads stats() to see what actually happened.
//
// Callbacks run on engine threads and must not throw. They MAY submit new
// transfers (that is how the pipeline chains read -> encode -> write), and
// submission never blocks on completions, so callback-driven chains cannot
// deadlock; backpressure is the caller's job (the IoPipeline bounds stripes
// in flight, which bounds transfers at stripes x (n + 1)).
//
// FaultInjectingEngine wraps any engine with a deterministic fault plan —
// EIO reads, short reads, torn writes, failed writes — keyed on file name
// and byte range, which is how the test battery simulates lost sectors and
// dying devices underneath an unmodified pipeline.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace stair::io {

enum class Backend : std::uint8_t { kAuto = 0, kThreads = 1, kUring = 2 };

/// How a file should be opened: kDirect attempts O_DIRECT (raw-device IO,
/// caller guarantees block alignment of every transfer) and falls back to a
/// buffered open — counted, never fatal — when the filesystem refuses.
enum class OpenMode : std::uint8_t { kBuffered = 0, kDirect = 1 };

/// What a submission is doing for the system, as opposed to what it does to
/// bytes: foreground client traffic vs the background maintenance phases
/// (scrub verify reads, targeted repair writes, whole-device rebuild).
/// Thread-local — a submitter tags its own submissions via PhaseScope and
/// the tag is read synchronously at submit time, so chained callbacks on
/// engine threads keep the phase of whoever submitted them.
enum class IoPhase : std::uint8_t { kForeground = 0, kScrub = 1, kRepair = 2, kRebuild = 3 };

/// The phase submissions from this thread currently carry.
IoPhase current_phase();

/// RAII tag: submissions made on this thread while the scope is alive carry
/// `phase`. Nests; restores the previous phase on destruction.
class PhaseScope {
 public:
  explicit PhaseScope(IoPhase phase);
  ~PhaseScope();
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  IoPhase prev_;
};

/// "auto" / "threads" / "uring".
const char* backend_name(Backend b);

/// STAIR_IO_BACKEND environment override (threads | uring | auto); kAuto
/// when unset or empty. Any other value throws std::runtime_error naming
/// the bad value — a typo must not silently become kAuto.
Backend backend_from_env();

/// STAIR_IO_DIRECT: truthy (1/true/yes/on) makes IoPipeline encode the
/// block-padded store layout, which every layer then reads O_DIRECT.
/// Falsy/unset: the unpadded, buffered layout. Unrecognized values throw,
/// like backend_from_env.
bool direct_from_env();

/// STAIR_IO_SQPOLL: truthy requests IORING_SETUP_SQPOLL for uring engines
/// built with default options. Same parse rules as direct_from_env.
bool sqpoll_from_env();

/// One completed transfer: `error` is an errno value (0 = success) and
/// `bytes` the total bytes transferred. A successful read reports
/// bytes < requested only when the file ended first.
struct Result {
  int error = 0;
  std::size_t bytes = 0;

  bool ok() const { return error == 0; }
};

using Callback = std::function<void(const Result&)>;

// X-macro of every Engine virtual. stripe_io_decorator_test.cpp expands it
// into static_asserts proving FaultInjectingEngine overrides each one — when
// you add a virtual to Engine, add it HERE and the decorator, or that test
// fails to compile (PR 7 shipped a decorator that missed open_update; this
// is the guard that makes that class of bug unshippable).
#define STAIR_IO_ENGINE_VIRTUALS(X) \
  X(backend)                        \
  X(read)                           \
  X(write)                          \
  X(read_fixed)                     \
  X(write_fixed)                    \
  X(flush)                          \
  X(open_read)                      \
  X(open_write)                     \
  X(open_update)                    \
  X(close)                          \
  X(file_size)                      \
  X(truncate)                       \
  X(register_buffers)               \
  X(unregister_buffers)             \
  X(register_files)                 \
  X(unregister_files)               \
  X(stats)

class Engine {
 public:
  struct Options {
    /// io_uring submission-queue entries (rounded up to a power of two) and
    /// the cap on transfers in flight before submit briefly yields to the
    /// completion reaper. Thread backend: soft queue sizing only.
    std::size_t queue_depth = 64;
    /// Worker threads performing pread/pwrite (thread backend only).
    std::size_t threads = 2;
    /// uring: request IORING_SETUP_SQPOLL (kernel-side submission polling).
    /// Downgrades to a normal ring when the kernel refuses.
    bool sqpoll = false;
  };

  /// What actually happened, per engine: the observability the raw-device
  /// path needs because every feature degrades silently by design.
  struct Stats {
    std::uint64_t reads = 0, writes = 0;        // transfers submitted
    std::uint64_t fixed_reads = 0, fixed_writes = 0;  // went through *_FIXED
    /// Fixed ops that degraded to the plain path (index -1 overflow lease,
    /// no registration, or a non-uring backend). Hit rate = fixed_* / (fixed_*
    /// + fixed_fallbacks).
    std::uint64_t fixed_fallbacks = 0;
    std::uint64_t direct_opens = 0;      // O_DIRECT succeeded
    std::uint64_t direct_fallbacks = 0;  // O_DIRECT refused -> buffered retry
    std::uint64_t sq_depth_high_water = 0;  // max transfers in flight
    std::uint64_t cq_backlog_high_water = 0;  // max completions found queued
    std::uint64_t enters = 0;            // submission-side io_uring_enter calls
    std::uint64_t sqpoll_wakeups = 0;    // enters that re-woke the sq poller
    std::size_t registered_buffers = 0;
    std::size_t registered_files = 0;
    bool sqpoll_active = false;
  };

  Engine() = default;
  virtual ~Engine() = default;

  /// The backend actually running (kAuto never; create() resolves it).
  virtual Backend backend() const = 0;

  /// Submits one positioned read of buf.size() bytes at `offset`; cb fires
  /// on an engine thread once the transfer retires. Never blocks on other
  /// transfers' completions.
  virtual void read(int fd, std::uint64_t offset, std::span<std::uint8_t> buf,
                    Callback cb) = 0;

  /// Submits one positioned write; same contract as read().
  virtual void write(int fd, std::uint64_t offset, std::span<const std::uint8_t> buf,
                     Callback cb) = 0;

  /// read() through a registered buffer: `buf` must lie inside the region
  /// registered at `buf_index`. Index -1 (or an engine without registration)
  /// degrades to plain read(), counted in stats().fixed_fallbacks.
  virtual void read_fixed(int fd, std::uint64_t offset, std::span<std::uint8_t> buf,
                          int buf_index, Callback cb);

  /// write() through a registered buffer; same contract as read_fixed().
  virtual void write_fixed(int fd, std::uint64_t offset,
                           std::span<const std::uint8_t> buf, int buf_index,
                           Callback cb);

  /// Blocks until every transfer submitted so far has retired (callbacks
  /// included). Not for use from callbacks.
  virtual void flush() = 0;

  // File handles flow through the engine so a wrapping engine (fault
  // injection) can key faults on the path behind an fd. Base implementations
  // are plain open/close with the O_DIRECT attempt+fallback described above.

  /// Opens for reading; -1 with errno set on failure (missing device file).
  virtual int open_read(const std::string& path, OpenMode mode = OpenMode::kBuffered);
  /// Opens for writing, created/truncated; -1 with errno on failure.
  virtual int open_write(const std::string& path, OpenMode mode = OpenMode::kBuffered);
  /// Opens read-write, created if missing but NOT truncated — in-place
  /// sector repair must patch the damaged ranges of a chunk file without
  /// destroying the healthy ones.
  virtual int open_update(const std::string& path, OpenMode mode = OpenMode::kBuffered);
  virtual void close(int fd);

  /// Size of a file opened through this engine, in bytes (fstat; 0 on
  /// failure). Virtual so engines with synthetic fds (in-memory benchmark
  /// baseline) can answer for their own handles.
  virtual std::uint64_t file_size(int fd) const;

  /// Sets the file's length (ftruncate). Returns 0 or an errno value.
  virtual int truncate(int fd, std::uint64_t size);

  /// Registers `regions` as the engine's fixed-buffer set (uring:
  /// IORING_REGISTER_BUFFERS — the pages are pinned once, and *_fixed
  /// transfers inside them skip per-IO pinning). Returns 0 on success or an
  /// errno-like value: EBUSY while another set is registered (its owner may
  /// have transfers in flight, so it is never replaced), ENOTSUP when the
  /// backend has no registration. Fixed ops still work via fallback, so
  /// callers may ignore the return and read stats() instead.
  virtual int register_buffers(std::span<const std::span<std::uint8_t>> regions);
  virtual void unregister_buffers();

  /// Registers long-lived fds (uring: IORING_REGISTER_FILES). Transfers on a
  /// registered fd are submitted by fixed-file index (IOSQE_FIXED_FILE).
  /// Unregister before closing the fds. Same return contract (EBUSY while
  /// another set is registered) as register_buffers.
  virtual int register_files(std::span<const int> fds);
  virtual void unregister_files();

  virtual Stats stats() const;

  /// True when io_uring_setup succeeds on this kernel/sandbox (probed once).
  static bool uring_supported();

  /// Builds the requested backend; kAuto (and kUring when unsupported)
  /// resolve to io_uring if available, else threads. The single-argument
  /// form also takes sqpoll from STAIR_IO_SQPOLL.
  static std::unique_ptr<Engine> create(Backend requested, Options options);
  static std::unique_ptr<Engine> create(Backend requested = backend_from_env());

 protected:
  /// Base-path counters shared by every backend (atomics: submissions race).
  struct Counters {
    std::atomic<std::uint64_t> reads{0}, writes{0};
    std::atomic<std::uint64_t> fixed_reads{0}, fixed_writes{0}, fixed_fallbacks{0};
    std::atomic<std::uint64_t> direct_opens{0}, direct_fallbacks{0};
  };

  Counters counters_;
};

/// The engine a layer runs on: `borrowed` when non-null, otherwise a new
/// engine from Engine::create() kept in `owned` — the one place a layer's
/// engine reads STAIR_IO_BACKEND and STAIR_IO_SQPOLL (a misspelled value of
/// either throws).
Engine* engine_or_create(Engine* borrowed, std::unique_ptr<Engine>& owned);

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// One injected fault, matched against transfers on (file, byte range). A
/// transfer matches when its fd was opened through this engine for a path
/// whose final component equals `file` and its byte range intersects
/// [offset, offset + length). Matching is deterministic: rules are checked
/// in registration order, first match wins.
struct Fault {
  enum class Kind : std::uint8_t {
    kReadError,   // read fails with `error`, no bytes transferred
    kShortRead,   // read succeeds but reports only `keep_bytes` bytes
    kWriteError,  // write fails with `error`, nothing written
    kTornWrite,   // only the first `keep_bytes` hit the file, but the write
                  // REPORTS full success — silent corruption for checksums
                  // to catch on the next read
  };

  Kind kind = Kind::kReadError;
  std::string file;                // final path component, e.g. "dev_03.bin"
  std::uint64_t offset = 0;        // start of the faulty byte range
  std::uint64_t length = ~0ULL;    // range length (default: whole file)
  int error = 5;                   // EIO; reported by the *Error kinds
  std::size_t keep_bytes = 0;      // kShortRead / kTornWrite prefix
  bool once = false;               // consume the rule after its first hit
  /// When set, the rule only matches transfers submitted under this IoPhase
  /// (see PhaseScope) — a scrub-phase fault plan can fail every scrub read
  /// of a range while foreground reads of the same bytes stay healthy.
  std::optional<IoPhase> phase;
};

/// Deterministic fault-injecting decorator: delegates to an inner engine,
/// applying the registered fault plan. Thread-safe; rules may be added
/// between operations but not concurrently with them. Overrides EVERY
/// Engine virtual (see STAIR_IO_ENGINE_VIRTUALS) so wrapped pipelines see
/// the full raw-device feature set of the inner engine.
class FaultInjectingEngine : public Engine {
 public:
  explicit FaultInjectingEngine(std::unique_ptr<Engine> inner);
  ~FaultInjectingEngine() override;

  void add_fault(Fault fault);
  void clear_faults();
  /// Faults applied so far (tests assert the plan actually fired).
  std::uint64_t hits() const;

  /// When true (default false), opens requested with OpenMode::kDirect fail
  /// the direct attempt before reaching the inner engine, exercising the
  /// buffered-fallback path deterministically — the "this filesystem
  /// rejects O_DIRECT" simulation for hosts whose tmpfs accepts it.
  void set_reject_direct(bool reject);

  Backend backend() const override { return inner_->backend(); }
  void read(int fd, std::uint64_t offset, std::span<std::uint8_t> buf,
            Callback cb) override;
  void write(int fd, std::uint64_t offset, std::span<const std::uint8_t> buf,
             Callback cb) override;
  void read_fixed(int fd, std::uint64_t offset, std::span<std::uint8_t> buf,
                  int buf_index, Callback cb) override;
  void write_fixed(int fd, std::uint64_t offset, std::span<const std::uint8_t> buf,
                   int buf_index, Callback cb) override;
  void flush() override { inner_->flush(); }

  int open_read(const std::string& path, OpenMode mode = OpenMode::kBuffered) override;
  int open_write(const std::string& path, OpenMode mode = OpenMode::kBuffered) override;
  int open_update(const std::string& path, OpenMode mode = OpenMode::kBuffered) override;
  void close(int fd) override;
  std::uint64_t file_size(int fd) const override { return inner_->file_size(fd); }
  int truncate(int fd, std::uint64_t size) override { return inner_->truncate(fd, size); }

  int register_buffers(std::span<const std::span<std::uint8_t>> regions) override {
    return inner_->register_buffers(regions);
  }
  void unregister_buffers() override { inner_->unregister_buffers(); }
  int register_files(std::span<const int> fds) override {
    return inner_->register_files(fds);
  }
  void unregister_files() override { inner_->unregister_files(); }
  Stats stats() const override;

 private:
  /// First matching rule for the op, applying `once` consumption; nullopt
  /// when the transfer should pass through untouched.
  std::optional<Fault> match(bool is_write, int fd, std::uint64_t offset,
                             std::uint64_t length);
  int record_open(int fd, const std::string& path);
  OpenMode effective_mode(OpenMode requested);

  std::unique_ptr<Engine> inner_;
  mutable std::mutex mu_;
  std::vector<Fault> faults_;            // guarded by mu_
  std::vector<std::pair<int, std::string>> files_;  // fd -> final component
  std::uint64_t hits_ = 0;               // guarded by mu_
  std::atomic<bool> reject_direct_{false};
};

}  // namespace stair::io
