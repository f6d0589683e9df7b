// OpenStore — the one owner of a live StripeStore: the manifest in memory
// (the live checksums every read verifies against), one fd per device
// opened once through the borrowed engine in the layout's open_mode(), the
// store's one stripe engine (staging, reader, writer, slot pool), the
// per-stripe locks, and save(), the only function that writes the manifest.
//
// A StorageNode opens one at start() for its workers and scrubber. A
// standalone IoPipeline call or Scrubber pass opens its own and coordinates
// with no one, so it must not run on a directory a node serves.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "stair/codec.h"
#include "stair/stripe_engine.h"
#include "stair/stripe_store.h"
#include "util/stripe_io.h"
#include "util/workspace_pool.h"

namespace stair {

class OpenStore {
 public:
  /// How the device files open (always in the layout's open_mode()).
  enum class Access {
    kRead,    // read-only: a missing device stays missing (fd -1)
    kUpdate,  // read-write: a missing device is created empty
    kCreate,  // read-write, created or truncated: a new store
  };

  /// Opens `store` (`dir`'s manifest, or a new store's geometry), staging
  /// `depth` stripes in flight (0: on demand). Throws std::runtime_error
  /// when `codec` has another config or keeps its global parities outside
  /// the stripe (a store holds the r * n stored symbols only), or when
  /// kUpdate/kCreate cannot open a device.
  OpenStore(Codec& codec, io::Engine& engine, std::string dir, StripeStore store,
            Access access, std::size_t depth);
  /// Loads `dir`'s manifest first; a bad one throws ManifestError.
  OpenStore(Codec& codec, io::Engine& engine, const std::string& dir, Access access,
            std::size_t depth)
      : OpenStore(codec, engine, dir, StripeStore::load(dir), access, depth) {}
  ~OpenStore();

  OpenStore(const OpenStore&) = delete;
  OpenStore& operator=(const OpenStore&) = delete;

  /// The live manifest; a stripe's checksums change only under its
  /// exclusive lock.
  const StripeStore& store() const { return store_; }
  io::Engine& engine() { return engine_; }
  std::span<const int> fds() const { return fds_; }
  std::span<const StripeStore::Position> positions() const { return positions_; }
  WorkspacePool<StripeSlot>& slots() { return slots_; }
  ChunkStaging& staging() { return staging_; }
  StripeReader& reader() { return reader_; }
  StripeWriter& writer() { return writer_; }

  /// Lays a stripe's data bytes (a short tail zero-padded) into the data
  /// symbols of `slot`'s chunk staging, where an encode completes it.
  void lay_data(StripeSlot& slot, std::span<const std::uint8_t> data);

  /// Stripe locks: readers hold [lo, hi] shared, a writer its stripe
  /// exclusive, so no read sees a write's bytes or checksums half done.
  void lock(std::size_t lo, std::size_t hi, bool exclusive);
  void unlock(std::size_t lo, std::size_t hi);
  /// Locks `stripe` shared (blocking here, on the caller's thread) until the
  /// last copy of the returned lease of `slot` is released.
  StripeRing::Lease hold_shared(StripeRing::Lease slot, std::size_t stripe);

  /// Installs stripe `stripe`'s n * r checksums (StripeWriter order) and its
  /// data fold, and marks its cached manifest lines stale; the caller holds
  /// the stripe exclusive or is creating the store.
  void set_stripe(std::size_t stripe, std::span<const std::uint64_t> checksums);
  /// Writes the manifest through StripeStore::publish (temp file + rename).
  /// Every stripe's chunk lines stay cached from the first save, so a save
  /// re-formats only the header and the stripes set_stripe marked stale; it
  /// still writes the whole text and renames it, a cost that grows with the
  /// store. Throws on IO failure; a later save publishes the current text.
  void save();

 private:
  io::Engine& engine_;
  const std::string dir_;
  StripeStore store_;
  const std::vector<StripeStore::Position> positions_;
  std::mutex manifest_mu_;
  std::vector<std::uint64_t> stripe_hashes_;  // per-stripe data folds; manifest_mu_
  std::vector<std::uint64_t>& folds();        // caller holds manifest_mu_
  std::vector<std::string> lines_;  // per-stripe chunk_lines, empty = stale; manifest_mu_

  std::mutex lock_mu_;
  std::condition_variable lock_cv_;
  std::vector<std::int32_t> lock_state_;  // -1 writer, else readers; unlock steps to 0

  ChunkStaging staging_;
  WorkspacePool<StripeSlot> slots_;
  std::vector<int> fds_;
  bool files_registered_ = false;
  StripeReader reader_;
  StripeWriter writer_;
};

}  // namespace stair
