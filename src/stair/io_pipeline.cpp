#include "stair/io_pipeline.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/thread_pool.h"

namespace stair {

IoPipeline::IoPipeline(Codec& codec) : IoPipeline(codec, Options{}) {}

IoPipeline::IoPipeline(Codec& codec, Options options)
    : codec_(codec),
      options_(options),
      engine_(io::engine_or_create(options_.engine, owned_engine_)) {
  if (options_.queue_depth == 0) options_.queue_depth = 1;
}

namespace {

std::string errno_text(int err) {
  return err ? std::string(std::strerror(err)) : std::string("short transfer");
}

}  // namespace

std::unique_ptr<OpenStore> IoPipeline::open(const std::string& store_dir, std::size_t depth,
                                            Stats& st, const StripeStore* loaded) {
  try {
    if (loaded)
      return std::make_unique<OpenStore>(codec_, *engine_, store_dir, *loaded,
                                         OpenStore::Access::kRead, depth);
    return std::make_unique<OpenStore>(codec_, *engine_, store_dir, OpenStore::Access::kRead,
                                       depth);
  } catch (const ManifestError& e) {
    st.manifest_errors = 1;
    st.error = e.what();
  } catch (const std::exception& e) {
    st.error = e.what();
  }
  return nullptr;
}

IoPipeline::Stats IoPipeline::encode_file(const std::string& input_path,
                                          const std::string& store_dir) {
  Stats st;
  const StairCode& code = codec_.code();
  const StairConfig& cfg = code.config();
  const int in_fd = engine_->open_read(input_path);
  if (in_fd < 0) {
    st.error = "cannot open input " + input_path;
    return st;
  }
  const std::uint64_t file_size = engine_->file_size(in_fd);
  const std::size_t stripe_data = code.data_symbol_count() * options_.symbol_bytes;
  const std::size_t stripes =
      file_size ? static_cast<std::size_t>((file_size + stripe_data - 1) / stripe_data) : 0;

  // Raw-device mode decides the layout, not just the open flags: chunk rows
  // are padded to the block so every transfer is aligned, and the geometry
  // goes in the manifest. The layout is chosen by the *request*, never by
  // whether O_DIRECT actually engaged, so a store encoded on tmpfs (where
  // direct falls back to buffered) is byte-identical to one from a real fs.
  StripeStore layout;
  layout.cfg = cfg;
  layout.symbol_bytes = options_.symbol_bytes;
  layout.block_bytes = options_.direct ? StripeStore::kDirectBlockBytes : 1;
  layout.file_size = static_cast<std::size_t>(file_size);
  layout.stripes = stripes;
  layout.sector_checksums.assign(stripes * cfg.n * cfg.r, 0);
  std::unique_ptr<OpenStore> store;
  try {
    store = std::make_unique<OpenStore>(codec_, *engine_, store_dir, std::move(layout),
                                        OpenStore::Access::kCreate, options_.queue_depth);
  } catch (const std::exception& e) {
    engine_->close(in_fd);
    st.error = e.what();
    return st;
  }

  StripeRing ring(store->slots(), options_.queue_depth);
  // Once stripe s is encoded: the writer lays down its n chunks and
  // fingerprints every sector before write() returns, and the store folds
  // the stripe's data hash from them — no second pass over the bytes. `slot`
  // is held until then: the ring drains as soon as the last lease goes.
  auto write_stripe = [&](StripeRing::Lease slot, std::size_t s) {
    std::vector<std::uint64_t> checksums(cfg.n * cfg.r);
    store->writer().write(ring, slot, store->fds(), s, checksums, [&ring](int err) {
      if (err) ring.fail("device write failed: " + errno_text(err));
    });
    store->set_stripe(s, checksums);
  };
  auto encode_stripe = [&](StripeRing::Lease slot, std::size_t s, std::size_t len) {
    try {
      store->lay_data(*slot, std::span(slot->data.data(), len));
      StripeSlot* raw = slot.get();
      codec_.submit_encode(raw->view, options_.method,
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
    slot->data.resize(stripe_data);
    const std::size_t offset = s * stripe_data;
    const std::size_t len =
        std::min<std::size_t>(stripe_data, static_cast<std::size_t>(file_size) - offset);
    StripeSlot* raw = slot.get();
    // The continuation (1+ MB lay_data + submit) is bounced onto the codec
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
                    codec_.pool().submit([&, slot = std::move(slot), s, len]() mutable {
                      encode_stripe(std::move(slot), s, len);
                    });
                  });
  }
  ring.drain();  // every transfer holds a lease: no IO is left in flight
  engine_->close(in_fd);

  ring.tally(st);
  st.stripes = stripes;
  if (st.error.empty()) {
    try {
      store->save();
      st.ok = true;
    } catch (const std::exception& e) {
      st.error = e.what();
    }
  }
  slots_created_ = std::max(slots_created_, store->slots().created());
  return st;
}

IoPipeline::Stats IoPipeline::decode_file(const std::string& store_dir,
                                          const std::string& output_path) {
  Stats st;
  const std::unique_ptr<OpenStore> open_store = open(store_dir, options_.queue_depth, st);
  if (!open_store) return st;
  const StripeStore& store = open_store->store();
  const std::span<const StripeStore::Position> positions = open_store->positions();
  const std::size_t stripe_data = positions.size() * store.symbol_bytes;

  const int out_fd = engine_->open_write(output_path);
  if (out_fd < 0) {
    st.error = "cannot create output " + output_path;
    return st;
  }

  StripeRing ring(open_store->slots(), options_.queue_depth);
  // The reader hands each stripe's file bytes over proven: read and
  // verified, or reconstructed and matching their manifest checksums.
  auto write_data = [&](StripeRing::Lease slot, std::size_t s) {
    if (!slot->recovered) return;  // counted unrecoverable by the reader
    StripeSlot* raw = slot.get();
    const std::size_t len = raw->data.size();
    engine_->write(out_fd, s * stripe_data, std::span(raw->data.data(), len),
                   [&ring, slot = std::move(slot), len](const io::Result& r) {
                     ring.bytes_written.fetch_add(r.bytes, std::memory_order_relaxed);
                     if (!r.ok() || r.bytes < len)
                       ring.fail("output write failed: " + errno_text(r.error));
                   });
  };
  for (std::size_t s = 0; s < store.stripes && !ring.failed(); ++s) {
    StripeRing::Lease slot = ring.acquire();
    slot->data.resize(std::min(stripe_data, store.file_size - s * stripe_data));
    const StripeReader::Plan plan{.out = slot->data};
    open_store->reader().read(
        ring, std::move(slot), s, plan,
        [&write_data, s](StripeRing::Lease slot) { write_data(std::move(slot), s); });
  }
  ring.drain();
  // Failed trailing stripes must not shorten the file silently; recoverable
  // content has been written at its exact offsets either way.
  if (engine_->truncate(out_fd, store.file_size) != 0) ring.fail("truncate on output failed");
  engine_->close(out_fd);

  ring.tally(st);
  st.stripes = store.stripes;
  // Every byte written matched its sector's manifest checksum, so the file
  // is the manifest's exactly when those checksums fold to its data hash.
  std::vector<std::uint64_t> stripe_hashes(store.stripes);
  for (std::size_t s = 0; s < store.stripes; ++s)
    stripe_hashes[s] = store.stripe_data_hash(s, positions);
  if (st.error.empty()) {
    if (st.failed_stripes) {
      st.error = std::to_string(st.failed_stripes) + " stripe(s) unrecoverable";
    } else if (combine_hashes(stripe_hashes) != store.data_checksum) {
      st.error = "reassembled data does not match the manifest checksum";
    } else {
      st.ok = true;
    }
  }
  slots_created_ = std::max(slots_created_, open_store->slots().created());
  return st;
}

IoPipeline::Stats IoPipeline::read_range(const std::string& store_dir, std::uint64_t offset,
                                         std::span<std::uint8_t> out) {
  Stats st;
  // A ranged read's store lives for one call: it stages on demand.
  const std::unique_ptr<OpenStore> store = open(store_dir, 0, st);
  if (!store) return st;
  return store->reader().read_range(offset, out);
}

IoPipeline::Stats IoPipeline::read_range(const StripeStore& store,
                                         const std::string& store_dir, std::uint64_t offset,
                                         std::span<std::uint8_t> out) {
  Stats st;
  const std::unique_ptr<OpenStore> open_store = open(store_dir, 0, st, &store);
  if (!open_store) return st;
  return open_store->reader().read_range(offset, out);
}

}  // namespace stair
