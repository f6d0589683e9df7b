#include "stair/open_store.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

namespace stair {

namespace {

StripeStore matching(StripeStore store, const Codec& codec) {
  if (codec.code().mode() == GlobalParityMode::kOutside)
    throw std::runtime_error(
        "a store keeps no global parities outside the stripe: the code uses "
        "GlobalParityMode::kOutside");
  const std::string mismatch = store.config_mismatch(codec.code().config());
  if (!mismatch.empty()) throw std::runtime_error(mismatch);
  return store;
}

/// One fd per device in the layout's open mode. A read-only store keeps a
/// missing device at -1 (its column reads as erased); the writing modes
/// throw, closing whatever they opened.
std::vector<int> open_devices(io::Engine& engine, const std::string& dir,
                              const StripeStore& store, OpenStore::Access access) {
  using Access = OpenStore::Access;
  std::error_code ec;
  if (access == Access::kCreate) std::filesystem::create_directories(dir, ec);
  std::vector<int> fds(store.cfg.n, -1);
  for (std::size_t j = 0; j < fds.size(); ++j) {
    const std::string path = StripeStore::device_path(dir, j);
    const io::OpenMode mode = store.open_mode();
    fds[j] = access == Access::kRead     ? engine.open_read(path, mode)
             : access == Access::kUpdate ? engine.open_update(path, mode)
                                         : engine.open_write(path, mode);
    if (fds[j] < 0 && access != Access::kRead) {
      const int err = errno;
      for (int fd : fds)
        if (fd >= 0) engine.close(fd);
      throw std::runtime_error("cannot open " + path + ": " + std::strerror(err));
    }
  }
  return fds;
}

}  // namespace

OpenStore::OpenStore(Codec& codec, io::Engine& engine, std::string dir, StripeStore store,
                     Access access, std::size_t depth)
    : engine_(engine),
      dir_(std::move(dir)),
      store_(matching(std::move(store), codec)),
      positions_(StripeStore::data_positions(codec.code().layout())),
      lock_state_(store_.stripes, 0),
      staging_(engine, store_, depth * store_.cfg.n),
      fds_(open_devices(engine, dir_, store_, access)),
      reader_(codec, *this),
      writer_(*this) {
  // Registered fds skip uring's per-IO fd lookup (IOSQE_FIXED_FILE); only
  // with every device open, as sparse sets predate some kernels.
  files_registered_ = std::find(fds_.begin(), fds_.end(), -1) == fds_.end() &&
                      engine_.register_files(fds_) == 0;
}

OpenStore::~OpenStore() {
  if (files_registered_) engine_.unregister_files();
  for (int fd : fds_)
    if (fd >= 0) engine_.close(fd);
}

void OpenStore::lock(std::size_t lo, std::size_t hi, bool exclusive) {
  std::unique_lock<std::mutex> guard(lock_mu_);
  for (std::size_t s = lo; s <= hi; ++s) {
    lock_cv_.wait(guard, [&] { return exclusive ? lock_state_[s] == 0 : lock_state_[s] >= 0; });
    lock_state_[s] = exclusive ? -1 : lock_state_[s] + 1;
  }
}

void OpenStore::unlock(std::size_t lo, std::size_t hi) {
  std::lock_guard<std::mutex> guard(lock_mu_);
  for (std::size_t s = lo; s <= hi; ++s) lock_state_[s] = std::max(lock_state_[s] - 1, 0);
  lock_cv_.notify_all();
}

StripeRing::Lease OpenStore::hold_shared(StripeRing::Lease slot, std::size_t stripe) {
  lock(stripe, stripe, false);
  StripeSlot* raw = slot.get();
  // Unlock first: once the inner lease retires, the ring may drain and a
  // standalone pass may close this store.
  return StripeRing::Lease(raw, [this, slot = std::move(slot), stripe](StripeSlot*) mutable {
    unlock(stripe, stripe);
    slot.reset();
  });
}

void OpenStore::lay_data(StripeSlot& slot, std::span<const std::uint8_t> data) {
  staging_.lease(slot);
  const std::size_t symbol = store_.symbol_bytes;
  for (std::size_t d = 0; d < positions_.size(); ++d) {
    const auto [row, dev] = positions_[d];
    std::uint8_t* sym = slot.view.stored[row * store_.cfg.n + dev].data();
    const std::size_t at = std::min(d * symbol, data.size());
    const std::size_t bytes = std::min(symbol, data.size() - at);
    if (bytes) std::memcpy(sym, data.data() + at, bytes);
    std::memset(sym + bytes, 0, symbol - bytes);
  }
}

void OpenStore::set_stripe(std::size_t stripe, std::span<const std::uint64_t> checksums) {
  std::lock_guard<std::mutex> lock(manifest_mu_);
  std::copy(checksums.begin(), checksums.end(),
            store_.sector_checksums.begin() +
                static_cast<std::ptrdiff_t>(stripe * store_.cfg.n * store_.cfg.r));
  folds()[stripe] = store_.stripe_data_hash(stripe, positions_);
  if (stripe < lines_.size()) lines_[stripe].clear();
}

void OpenStore::save() {
  std::lock_guard<std::mutex> lock(manifest_mu_);
  store_.data_checksum = combine_hashes(folds());
  // Built on the first save, every entry stale. A throw while formatting
  // leaves the entry empty, so a later save formats it again.
  lines_.resize(store_.stripes);
  for (std::size_t s = 0; s < lines_.size(); ++s)
    if (lines_[s].empty()) lines_[s] = store_.chunk_lines(s);
  StripeStore::publish(dir_, store_.manifest_header(), lines_);
}

std::vector<std::uint64_t>& OpenStore::folds() {
  // Built on first use: read-only stores never need them.
  if (stripe_hashes_.size() != store_.stripes)
    for (std::size_t s = 0; s < store_.stripes; ++s)
      stripe_hashes_.push_back(store_.stripe_data_hash(s, positions_));
  return stripe_hashes_;
}

}  // namespace stair
