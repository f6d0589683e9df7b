// IoPipeline — whole-file encode and decode over a StripeStore, feeding
// the Codec session.
//
// Chunk-file IO runs through an async engine (util/stripe_io.h) inside a
// bounded StripeRing of leased slots, and IO completions chain directly into
// submit_encode / the stripe reader (and compute completions chain back into
// writes), so disk work for stripe k+d overlaps region work for stripe k
// with no thread ever blocked between the stages:
//
//   encode:  read(input chunk k) ──▶ its data laid into the slot's chunk
//              staging ──▶ submit_encode in place ──▶ StripeWriter (n chunks)
//   decode:  StripeReader (n chunks into the slot's staging, verify, mask,
//              plan-cache decode in place, proof, copy-out) ──▶ write(output
//              chunk k)
//
// Both directions are thin clients of the one stripe engine
// (stair/stripe_engine.h), which decides what a damaged chunk erases and
// counts — never throws — patterns outside the code's coverage.
//
// Depth: `queue_depth` stripes are in flight at once, each leasing a slot
// from a WorkspacePool that settles at the depth high-water mark. IO
// transfers are bounded by depth x (n + 1), so the engine never needs its
// own backpressure against the pipeline.
//
// IO is configured by the engine alone (Options::engine, or one built by
// io::Engine::create()). Whether chunk files open O_DIRECT is the store
// layout's call (StripeStore::open_mode); Options::direct only picks the
// layout encode_file writes.
//
// Each call opens its store (stair/open_store.h) and closes it on return,
// so a pipeline on a borrowed engine is built without allocating or
// opening anything. A call coordinates with no one: it must not run on a
// directory a StorageNode serves.
//
// A pipeline is bound to one Codec (whose code defines the stripe geometry)
// and runs one file operation at a time; distinct pipelines on distinct
// codecs may run concurrently.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "stair/codec.h"
#include "stair/open_store.h"
#include "stair/stripe_store.h"
#include "util/stripe_io.h"

namespace stair {

class IoPipeline {
 public:
  struct Options {
    /// Stripes in flight (ring depth). 1 degrades to read-compute-write
    /// lockstep; >= 4 keeps IO and compute overlapped.
    std::size_t queue_depth = 4;
    /// Bytes per symbol when encoding (decode takes it from the manifest).
    std::size_t symbol_bytes = 4096;
    /// Encoding method for encode_file.
    EncodingMethod method = EncodingMethod::kAuto;
    /// Layout of the stores encode_file writes (STAIR_IO_DIRECT): true pads
    /// chunk rows to StripeStore::kDirectBlockBytes, and a padded store is
    /// read and written O_DIRECT by every layer. Reads never consult this —
    /// the store's layout alone decides (StripeStore::open_mode). Filesystems
    /// that refuse O_DIRECT fall back to buffered opens transparently, so a
    /// store is byte-identical whichever mode engaged.
    bool direct = io::direct_from_env();
    /// IO engine to run on (borrowed; fault-injection tests pass a wrapped
    /// one). nullptr: the pipeline creates and owns one through
    /// io::Engine::create(), which reads STAIR_IO_BACKEND and STAIR_IO_SQPOLL.
    io::Engine* engine = nullptr;
  };

  /// Per-operation outcome + counters (see IoStats).
  using Stats = IoStats;

  explicit IoPipeline(Codec& codec);
  IoPipeline(Codec& codec, Options options);

  IoPipeline(const IoPipeline&) = delete;
  IoPipeline& operator=(const IoPipeline&) = delete;

  /// Splits `input_path` into stripes, encodes each through the Codec, and
  /// writes the StripeStore into `store_dir` (created if needed). Returns
  /// stats; never throws for IO-shaped failures (see Stats.error).
  Stats encode_file(const std::string& input_path, const std::string& store_dir);

  /// Reassembles the original file from `store_dir` into `output_path`,
  /// serving degraded stripes through the session plan cache; the reader
  /// proves every data sector written (StripeReader::Plan). Stats.ok is
  /// false when any stripe was unrecoverable or the manifest's checksums do
  /// not fold to its data checksum; whatever was recoverable is written.
  Stats decode_file(const std::string& store_dir, const std::string& output_path);

  /// Serves the original-file byte range [offset, offset + out.size()) from
  /// the store without touching stripes outside it (StripeReader::
  /// read_range): per stripe, one transfer per device over the rows the
  /// range needs, verified; a miss — a missing/short chunk, a torn sector,
  /// a device mid-rebuild — widens that stripe's read to the whole stripe
  /// and the session plan cache. This is how client reads keep being served
  /// *during* a device rebuild. Stats.ok is false when the range exceeds the
  /// file or a needed stripe is unrecoverable. `store` is the caller's
  /// already-loaded manifest of `store_dir` (copied into the call's store).
  Stats read_range(const StripeStore& store, const std::string& store_dir,
                   std::uint64_t offset, std::span<std::uint8_t> out);
  /// read_range loading the manifest itself (convenience; per-call load).
  Stats read_range(const std::string& store_dir, std::uint64_t offset,
                   std::span<std::uint8_t> out);

  io::Engine& engine() { return *engine_; }
  /// Slot-pool high-water mark of the busiest encode or decode so far
  /// (== stripes concurrently in flight, settles at queue_depth).
  std::size_t slots_created() const { return slots_created_; }

 private:
  /// Opens `store_dir` read-only for one call (`loaded`: the caller's copy
  /// of its manifest); nullptr with `st` filled when that fails.
  std::unique_ptr<OpenStore> open(const std::string& store_dir, std::size_t depth, Stats& st,
                                  const StripeStore* loaded = nullptr);

  Codec& codec_;
  Options options_;
  std::unique_ptr<io::Engine> owned_engine_;
  io::Engine* engine_;
  std::size_t slots_created_ = 0;
};

}  // namespace stair
