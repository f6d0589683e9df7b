#include "stair/io_pipeline.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "util/thread_pool.h"

namespace stair {

IoPipeline::IoPipeline(Codec& codec) : IoPipeline(codec, Options{}) {}

IoPipeline::IoPipeline(Codec& codec, Options options)
    : codec_(codec),
      options_(options),
      engine_(io::engine_or_create(options_.engine, owned_engine_)),
      staging_(*engine_, true),
      reader_(codec_, *engine_, staging_),
      writer_(staging_),
      positions_(StripeStore::data_positions(codec.code().layout())) {
  if (options_.queue_depth == 0) options_.queue_depth = 1;
}

namespace {

std::string errno_text(int err) {
  return err ? std::string(std::strerror(err)) : std::string("short transfer");
}

}  // namespace

IoPipeline::Stats IoPipeline::encode_file(const std::string& input_path,
                                          const std::string& store_dir) {
  Stats st;
  const StairCode& code = codec_.code();
  const StairConfig& cfg = code.config();

  std::error_code ec;
  std::filesystem::create_directories(store_dir, ec);

  const int in_fd = engine_->open_read(input_path);
  if (in_fd < 0) {
    st.error = "cannot open input " + input_path;
    return st;
  }
  const std::uint64_t file_size = engine_->file_size(in_fd);
  const std::size_t stripe_data = positions_.size() * options_.symbol_bytes;
  const std::size_t stripes =
      file_size ? static_cast<std::size_t>((file_size + stripe_data - 1) / stripe_data) : 0;

  // Raw-device mode decides the layout, not just the open flags: chunk rows
  // are padded to the block so every transfer is aligned, and the geometry
  // goes in the manifest. The layout is chosen by the *request*, never by
  // whether O_DIRECT actually engaged, so a store encoded on tmpfs (where
  // direct falls back to buffered) is byte-identical to one from a real fs.
  StripeStore store;
  store.cfg = cfg;
  store.symbol_bytes = options_.symbol_bytes;
  store.block_bytes = options_.direct ? StripeStore::kDirectBlockBytes : 1;
  store.file_size = static_cast<std::size_t>(file_size);
  store.stripes = stripes;
  store.sector_checksums.assign(stripes * cfg.n * cfg.r, 0);
  std::vector<std::uint64_t> stripe_hashes(stripes, 0);  // disjoint per-stripe writes
  staging_.reserve(store, options_.queue_depth * cfg.n);

  StripeRing ring(slots_, options_.queue_depth);
  std::vector<int> dev_fds(cfg.n, -1);
  for (std::size_t j = 0; j < cfg.n; ++j) {
    dev_fds[j] = engine_->open_write(StripeStore::device_path(store_dir, j), store.open_mode());
    if (dev_fds[j] < 0) ring.fail("cannot create " + StripeStore::device_path(store_dir, j));
  }
  // Long-lived chunk fds: register so uring submissions skip the per-IO fd
  // lookup/refcount (IOSQE_FIXED_FILE). Optional like everything else here.
  const bool files_registered = !ring.failed() && engine_->register_files(dev_fds) == 0;

  // Once stripe s is encoded: the writer lays down its n chunks and
  // fingerprints every sector straight into the manifest (rows are disjoint
  // per stripe); the stripe's data hash folds those fingerprints — no second
  // pass over the bytes. Nothing here may touch the run once the writer
  // holds the last lease: the ring can drain as soon as the writes retire.
  auto write_stripe = [&](StripeRing::Lease slot, std::size_t s) {
    const StripeView& view = slot->buf->view();
    writer_.write(ring, std::move(slot), store, view, dev_fds, s,
                  std::span(store.sector_checksums).subspan(s * cfg.n * cfg.r, cfg.n * cfg.r),
                  [&, s](int err) {
                    if (err)
                      ring.fail("device write failed: " + errno_text(err));
                    else
                      stripe_hashes[s] = store.stripe_data_hash(s, positions_);
                  });
  };
  auto encode_stripe = [&](StripeRing::Lease slot, std::size_t s) {
    try {
      slot->buf->set_data(slot->data);
      StripeSlot* raw = slot.get();
      codec_.submit_encode(raw->buf->view(), options_.method,
                           [&, slot = std::move(slot), s](bool ok) mutable {
                             if (ok)
                               write_stripe(std::move(slot), s);
                             else
                               ring.fail("encode job failed at stripe " + std::to_string(s));
                           });
    } catch (const std::exception& e) {
      ring.fail(std::string("submit_encode failed: ") + e.what());
    }
  };
  for (std::size_t s = 0; s < stripes && !ring.failed(); ++s) {
    StripeRing::Lease slot = ring.acquire();
    if (!slot->buf || slot->buf->symbol_size() != store.symbol_bytes)
      slot->buf.emplace(code, store.symbol_bytes);
    slot->data.resize(stripe_data);
    const std::size_t offset = s * stripe_data;
    const std::size_t len =
        std::min<std::size_t>(stripe_data, static_cast<std::size_t>(file_size) - offset);
    std::fill(slot->data.begin() + static_cast<std::ptrdiff_t>(len), slot->data.end(), 0);
    StripeSlot* raw = slot.get();
    // The continuation (1+ MB set_data + submit) is bounced onto the codec
    // pool: IO completion threads — the single uring reaper in particular —
    // must stay free to complete transfers, not process stripes.
    engine_->read(in_fd, offset, std::span(raw->data.data(), len),
                  [&, slot = std::move(slot), s, len](const io::Result& r) mutable {
                    ring.bytes_read.fetch_add(r.bytes, std::memory_order_relaxed);
                    if (!r.ok() || r.bytes < len) {
                      ring.fail("input read failed at stripe " + std::to_string(s) + ": " +
                                errno_text(r.error));
                      return;
                    }
                    codec_.pool().submit([&, slot = std::move(slot), s]() mutable {
                      encode_stripe(std::move(slot), s);
                    });
                  });
  }
  ring.drain();
  engine_->flush();
  if (files_registered) engine_->unregister_files();
  engine_->close(in_fd);
  for (int fd : dev_fds) engine_->close(fd);

  ring.tally(st);
  st.stripes = stripes;
  if (st.error.empty()) {
    store.data_checksum = combine_hashes(stripe_hashes);
    try {
      store.save(store_dir);
      st.ok = true;
    } catch (const std::exception& e) {
      st.error = e.what();
    }
  }
  return st;
}

IoPipeline::Stats IoPipeline::decode_file(const std::string& store_dir,
                                          const std::string& output_path) {
  Stats st;
  StripeStore store;
  try {
    store = StripeStore::load(store_dir);
  } catch (const std::exception& e) {
    // A bad manifest is a counted, clean failure — the store's recovery
    // point is gone, which callers distinguish from a recoverable stripe.
    st.manifest_errors = 1;
    st.error = e.what();
    return st;
  }
  st.error = store.config_mismatch(codec_.code().config());
  if (!st.error.empty()) return st;
  const StairConfig& cfg = store.cfg;
  const std::size_t symbol = store.symbol_bytes;
  const std::size_t stripe_data = positions_.size() * symbol;
  std::vector<std::uint64_t> stripe_hashes(store.stripes, 0);
  staging_.reserve(store, options_.queue_depth * cfg.n);

  std::vector<int> dev_fds(cfg.n, -1);
  bool all_devs_open = true;
  for (std::size_t j = 0; j < cfg.n; ++j) {
    dev_fds[j] = engine_->open_read(StripeStore::device_path(store_dir, j), store.open_mode());
    all_devs_open = all_devs_open && dev_fds[j] >= 0;
  }
  // Fixed files only when every device opened: sparse registrations (-1
  // entries) predate some kernels this runs on, and a degraded decode is
  // not the case to optimize anyway.
  const bool files_registered = all_devs_open && engine_->register_files(dev_fds) == 0;

  const int out_fd = engine_->open_write(output_path);
  if (out_fd < 0) {
    if (files_registered) engine_->unregister_files();
    for (int fd : dev_fds) engine_->close(fd);
    st.error = "cannot create output " + output_path;
    return st;
  }

  StripeRing ring(slots_, options_.queue_depth);
  auto write_data = [&](StripeRing::Lease slot, std::size_t s) {
    if (!slot->recovered) return;  // outside coverage: counted by the reader
    const StripeView& view = slot->view;
    // Fold the stripe's data hash from sector hashes: verified sectors reuse
    // the manifest value (verification just recomputed it), reconstructed
    // sectors are hashed fresh — the end-to-end check covers decode output.
    stripe_hashes[s] = StripeStore::fold_stripe_hash(
        positions_, [&](std::size_t row, std::size_t dev) {
          return slot->mask[row * cfg.n + dev]
                     ? content_hash64(view.stored[row * cfg.n + dev])
                     : store.sector_checksum(s, dev, row);
        });
    slot->data.resize(stripe_data);
    for (std::size_t d = 0; d < positions_.size(); ++d) {
      const auto [row, dev] = positions_[d];
      std::memcpy(slot->data.data() + d * symbol, view.stored[row * cfg.n + dev].data(), symbol);
    }
    const std::size_t len = std::min(stripe_data, store.file_size - s * stripe_data);
    StripeSlot* raw = slot.get();
    engine_->write(out_fd, s * stripe_data, std::span(raw->data.data(), len),
                   [&ring, slot = std::move(slot), len](const io::Result& r) {
                     ring.bytes_written.fetch_add(r.bytes, std::memory_order_relaxed);
                     if (!r.ok() || r.bytes < len)
                       ring.fail("output write failed: " + errno_text(r.error));
                   });
  };
  for (std::size_t s = 0; s < store.stripes && !ring.failed(); ++s)
    reader_.read(ring, ring.acquire(), store, dev_fds, s, {},
                 [&write_data, s](StripeRing::Lease slot) { write_data(std::move(slot), s); });
  ring.drain();
  engine_->flush();
  if (files_registered) engine_->unregister_files();
  // Failed trailing stripes must not shorten the file silently; recoverable
  // content has been written at its exact offsets either way.
  if (engine_->truncate(out_fd, store.file_size) != 0) ring.fail("truncate on output failed");
  engine_->close(out_fd);
  for (int fd : dev_fds) engine_->close(fd);

  ring.tally(st);
  st.stripes = store.stripes;
  if (st.error.empty()) {
    if (st.failed_stripes) {
      st.error = std::to_string(st.failed_stripes) + " stripe(s) unrecoverable";
    } else if (combine_hashes(stripe_hashes) != store.data_checksum) {
      st.error = "reassembled data does not match the manifest checksum";
    } else {
      st.ok = true;
    }
  }
  return st;
}

IoPipeline::Stats IoPipeline::read_range(const std::string& store_dir, std::uint64_t offset,
                                         std::span<std::uint8_t> out) {
  Stats st;
  StripeStore store;
  try {
    store = StripeStore::load(store_dir);
  } catch (const std::exception& e) {
    st.manifest_errors = 1;
    st.error = e.what();
    return st;
  }
  return read_range(store, store_dir, offset, out);
}

IoPipeline::Stats IoPipeline::read_range(const StripeStore& store,
                                         const std::string& store_dir, std::uint64_t offset,
                                         std::span<std::uint8_t> out) {
  staging_.reserve(store, options_.queue_depth * store.cfg.n);
  return reader_.read_range(store, store_dir, offset, out);
}

}  // namespace stair
