// IO pipeline battery: clean round trips on every IO backend, the
// fault-injection matrix (device-only / sector-only / mixed patterns, EIO,
// short reads, torn writes — every recoverable class reconstructs
// byte-identically, unrecoverable classes surface as failed handles), the
// deterministic seeded injector, and cross-backend determinism of the whole
// file path (GF backend x region layout x IO backend x pool width).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "gf/kernel.h"
#include "gf/region.h"
#include "stair/io_pipeline.h"
#include "stair/scrub_repair.h"
#include "stair/service.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace stair {
namespace {

namespace fs = std::filesystem;

// --- plumbing ---------------------------------------------------------------

struct TempDir {
  fs::path path;

  explicit TempDir(const std::string& hint) {
    path = fs::temp_directory_path() /
           ("stair_io_test_" + hint + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }

  std::string str() const { return path.string(); }
};

std::vector<std::uint8_t> write_random_file(const fs::path& p, std::size_t bytes,
                                            std::uint64_t seed) {
  std::vector<std::uint8_t> data(bytes);
  Rng rng(seed);
  rng.fill(data);
  std::ofstream out(p, std::ios::binary);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  return data;
}

std::vector<std::uint8_t> read_all(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Flips bytes in [offset, offset+len) of `p` — guaranteed content change,
/// so the sector checksums must mismatch.
void flip_bytes(const fs::path& p, std::uint64_t offset, std::size_t len) {
  std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f) << "cannot open " << p;
  std::vector<char> buf(len);
  f.seekg(static_cast<std::streamoff>(offset));
  f.read(buf.data(), static_cast<std::streamsize>(len));
  for (char& c : buf) c = static_cast<char>(c ^ 0xA5);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(buf.data(), static_cast<std::streamsize>(len));
}

struct StoreCase {
  StairConfig cfg;
  std::size_t symbol;
};

// Three configs spanning the coverage shapes (m=1/2, two- and three-entry e).
std::vector<StoreCase> fault_cases() {
  return {
      {{.n = 6, .r = 4, .m = 1, .e = {1, 2}, .w = 8}, 512},
      {{.n = 8, .r = 6, .m = 2, .e = {1, 2}, .w = 8}, 256},
      {{.n = 9, .r = 4, .m = 2, .e = {1, 1, 2}, .w = 8}, 384},
  };
}

std::vector<io::Backend> io_backends() {
  std::vector<io::Backend> b{io::Backend::kThreads};
  if (io::Engine::uring_supported()) b.push_back(io::Backend::kUring);
  return b;
}

/// Encodes `bytes` of seeded random data into dir/store and returns them.
std::vector<std::uint8_t> encode_store(const TempDir& dir, const StoreCase& c,
                                       std::size_t bytes, std::uint64_t seed,
                                       IoPipeline::Options opts = {},
                                       IoPipeline::Stats* stats_out = nullptr) {
  const auto data = write_random_file(dir.path / "input.bin", bytes, seed);
  Codec codec(c.cfg);
  opts.symbol_bytes = c.symbol;
  IoPipeline pipeline(codec, opts);
  const auto st = pipeline.encode_file((dir.path / "input.bin").string(),
                                       (dir.path / "store").string());
  if (stats_out) *stats_out = st;
  EXPECT_TRUE(st.ok) << st.error;
  return data;
}

IoPipeline::Stats decode_store(const TempDir& dir, const StoreCase& c,
                               IoPipeline::Options opts = {}) {
  Codec codec(c.cfg);
  IoPipeline pipeline(codec, opts);
  return pipeline.decode_file((dir.path / "store").string(),
                              (dir.path / "output.bin").string());
}

std::string dev_path(const TempDir& dir, std::size_t j) {
  return StripeStore::device_path((dir.path / "store").string(), j);
}

// --- clean round trips ------------------------------------------------------

TEST(IoPipeline, RoundTripAllBackendsAndDepths) {
  for (io::Backend backend : io_backends()) {
    for (std::size_t depth : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(std::string(io::backend_name(backend)) + " depth=" +
                   std::to_string(depth));
      const StoreCase c = fault_cases()[0];
      TempDir dir("roundtrip");
      // 4 full stripes + a partial tail exercises padding and ftruncate.
      Codec codec(c.cfg);
      const std::size_t data_bytes =
          codec.code().data_symbol_count() * c.symbol * 4 + 1234;
      IoPipeline::Stats enc;
      const auto engine = io::Engine::create(backend);
      const auto data = encode_store(dir, c, data_bytes, 42,
                                     {.queue_depth = depth, .engine = engine.get()}, &enc);
      EXPECT_EQ(enc.stripes, 5u);
      const auto dec = decode_store(dir, c, {.queue_depth = depth, .engine = engine.get()});
      EXPECT_TRUE(dec.ok) << dec.error;
      EXPECT_EQ(dec.degraded_stripes, 0u);
      EXPECT_EQ(read_all(dir.path / "output.bin"), data);
    }
  }
}

TEST(IoPipeline, EmptyFileRoundTrip) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("empty");
  const auto data = encode_store(dir, c, 0, 1);
  const auto dec = decode_store(dir, c);
  EXPECT_TRUE(dec.ok) << dec.error;
  EXPECT_EQ(dec.stripes, 0u);
  EXPECT_EQ(read_all(dir.path / "output.bin"), data);
}

TEST(IoPipeline, SlotRingSettlesAtQueueDepth) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("slots");
  write_random_file(dir.path / "input.bin", 64 * 1024, 7);
  Codec codec(c.cfg);
  IoPipeline pipeline(codec, {.queue_depth = 3, .symbol_bytes = c.symbol});
  const auto enc = pipeline.encode_file((dir.path / "input.bin").string(),
                                        (dir.path / "store").string());
  ASSERT_TRUE(enc.ok) << enc.error;
  const auto dec = pipeline.decode_file((dir.path / "store").string(),
                                        (dir.path / "output.bin").string());
  ASSERT_TRUE(dec.ok) << dec.error;
  // The ring bounds stripes in flight; the pool may briefly overshoot while
  // a retiring slot's lease unwinds, but it must not grow with stripe count.
  EXPECT_LE(pipeline.slots_created(), 3u + 2u);
}

// A store keeps a stripe's r * n stored symbols and nothing else, so a code
// that keeps its s global parities outside the stripe would lose them on
// every write: its stores would fail damage inside the code's coverage.
// Every entry point refuses such a code, naming the mode, before it touches
// a chunk.
TEST(IoPipeline, OutsideGlobalParityCodeIsRefused) {
  const StoreCase c = fault_cases()[0];
  const StairCode outside(c.cfg, GlobalParityMode::kOutside);
  Codec codec(outside);
  auto names_mode = [](const std::string& error) {
    return error.find("GlobalParityMode::kOutside") != std::string::npos;
  };
  TempDir dir("outside");
  write_random_file(dir.path / "input.bin", 30'000, 43);
  const std::string store = (dir.path / "store").string();
  IoPipeline pipeline(codec, {.symbol_bytes = c.symbol});
  const auto enc = pipeline.encode_file((dir.path / "input.bin").string(), store);
  EXPECT_FALSE(enc.ok);
  EXPECT_TRUE(names_mode(enc.error)) << enc.error;
  EXPECT_FALSE(fs::exists(dev_path(dir, 0))) << "encode_file wrote a chunk";

  // A store the inside code wrote: reading it with the outside code is
  // refused the same way.
  const auto data = encode_store(dir, c, 30'000, 43);
  const auto dec = pipeline.decode_file(store, (dir.path / "output.bin").string());
  EXPECT_FALSE(dec.ok);
  EXPECT_TRUE(names_mode(dec.error)) << dec.error;
  std::vector<std::uint8_t> out(100);
  const auto rr = pipeline.read_range(store, 0, out);
  EXPECT_FALSE(rr.ok);
  EXPECT_TRUE(names_mode(rr.error)) << rr.error;
  const ScrubReport rep = Scrubber(codec, {.repair = true}).scrub(store);
  EXPECT_FALSE(rep.ok);
  EXPECT_TRUE(names_mode(rep.error)) << rep.error;
  StorageNode node(codec, store, {.tenants = 1, .workers = 1});
  try {
    node.start();
    ADD_FAILURE() << "StorageNode::start accepted the outside code";
  } catch (const std::runtime_error& e) {
    EXPECT_TRUE(names_mode(e.what())) << e.what();
  }

  // The store is untouched: the inside code still decodes it byte-exactly.
  const auto clean = decode_store(dir, c);
  EXPECT_TRUE(clean.ok) << clean.error;
  EXPECT_EQ(read_all(dir.path / "output.bin"), data);
}

// --- recoverable fault classes ----------------------------------------------

// Every recoverable pattern class (device-only, sector-only, mixed), for all
// three coverage shapes. Each asserts byte-identical reconstruction and that
// the degraded path actually ran.

TEST(IoPipelineFaults, DeviceOnlyPatterns) {
  for (const StoreCase& c : fault_cases()) {
    SCOPED_TRACE(c.cfg.to_string());
    TempDir dir("dev_only");
    const auto data = encode_store(dir, c, 150 * 1000, 11);
    // Lose exactly m whole devices — the paper's device-failure budget.
    for (std::size_t j = 0; j < c.cfg.m; ++j)
      ASSERT_TRUE(fs::remove(dev_path(dir, j + 1)));
    const auto dec = decode_store(dir, c);
    EXPECT_TRUE(dec.ok) << dec.error;
    EXPECT_EQ(dec.degraded_stripes, dec.stripes);
    EXPECT_EQ(dec.chunks_missing, c.cfg.m * dec.stripes);
    EXPECT_EQ(dec.failed_stripes, 0u);
    EXPECT_EQ(read_all(dir.path / "output.bin"), data);
  }
}

TEST(IoPipelineFaults, SectorOnlyPatterns) {
  for (const StoreCase& c : fault_cases()) {
    SCOPED_TRACE(c.cfg.to_string());
    TempDir dir("sector_only");
    const auto data = encode_store(dir, c, 120 * 1000, 12);
    // Per stripe 0 and 1: chunk of device k+1 gets exactly e[k] corrupt
    // sectors — the maximal sector-only pattern the coverage vector admits.
    // Offsets come from the manifest: the chunk stride is padded when the
    // store was encoded in direct mode.
    const auto store = StripeStore::load((dir.path / "store").string());
    std::size_t expect_corrupt = 0;
    for (std::size_t s = 0; s < 2; ++s)
      for (std::size_t k = 0; k < c.cfg.e.size(); ++k)
        for (std::size_t i = 0; i < c.cfg.e[k]; ++i) {
          flip_bytes(dev_path(dir, k + 1), store.chunk_offset(s) + i * c.symbol, 64);
          ++expect_corrupt;
        }
    const auto dec = decode_store(dir, c);
    EXPECT_TRUE(dec.ok) << dec.error;
    EXPECT_EQ(dec.degraded_stripes, 2u);
    EXPECT_EQ(dec.sectors_corrupt, expect_corrupt);
    EXPECT_EQ(read_all(dir.path / "output.bin"), data);
  }
}

TEST(IoPipelineFaults, MixedDeviceAndSectorPatterns) {
  for (const StoreCase& c : fault_cases()) {
    SCOPED_TRACE(c.cfg.to_string());
    TempDir dir("mixed");
    const auto data = encode_store(dir, c, 130 * 1000, 13);
    // m whole devices lost AND the full e-shaped sector pattern on surviving
    // devices — the exact worst case the STAIR construction guarantees.
    for (std::size_t j = 0; j < c.cfg.m; ++j)
      ASSERT_TRUE(fs::remove(dev_path(dir, j)));
    const auto store = StripeStore::load((dir.path / "store").string());
    for (std::size_t s = 0; s < 2; ++s)
      for (std::size_t k = 0; k < c.cfg.e.size(); ++k)
        for (std::size_t i = 0; i < c.cfg.e[k]; ++i)
          flip_bytes(dev_path(dir, c.cfg.m + k), store.chunk_offset(s) + i * c.symbol, 32);
    const auto dec = decode_store(dir, c);
    EXPECT_TRUE(dec.ok) << dec.error;
    EXPECT_EQ(dec.degraded_stripes, dec.stripes);
    EXPECT_EQ(dec.failed_stripes, 0u);
    EXPECT_EQ(read_all(dir.path / "output.bin"), data);
  }
}

// --- injected IO faults (engine-level) --------------------------------------

TEST(IoPipelineFaults, EioChunkReadActsAsDeviceLossForItsStripe) {
  const StoreCase c = fault_cases()[1];
  TempDir dir("eio");
  const auto data = encode_store(dir, c, 100 * 1000, 14);
  const auto store = StripeStore::load((dir.path / "store").string());

  auto injected = std::make_unique<io::FaultInjectingEngine>(
      io::Engine::create(io::Backend::kThreads));
  // Chunk (stripe 1, device 3) dies with EIO; stripe 0/2... stay clean.
  injected->add_fault({.kind = io::Fault::Kind::kReadError,
                       .file = "dev_03.bin",
                       .offset = store.chunk_offset(1),
                       .length = store.padded_chunk_bytes()});
  const auto dec = decode_store(dir, c, {.engine = injected.get()});
  EXPECT_TRUE(dec.ok) << dec.error;
  EXPECT_EQ(dec.degraded_stripes, 1u);
  EXPECT_EQ(dec.chunks_missing, 1u);
  EXPECT_GE(injected->hits(), 1u);
  EXPECT_EQ(read_all(dir.path / "output.bin"), data);
}

TEST(IoPipelineFaults, ShortChunkReadActsAsDeviceLossForItsStripe) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("short");
  const auto data = encode_store(dir, c, 90 * 1000, 15);
  const auto store = StripeStore::load((dir.path / "store").string());

  auto injected = std::make_unique<io::FaultInjectingEngine>(
      io::Engine::create(io::Backend::kThreads));
  injected->add_fault({.kind = io::Fault::Kind::kShortRead,
                       .file = "dev_02.bin",
                       .offset = 0,
                       .length = store.padded_chunk_bytes(),
                       .keep_bytes = store.padded_chunk_bytes() / 2});
  const auto dec = decode_store(dir, c, {.engine = injected.get()});
  EXPECT_TRUE(dec.ok) << dec.error;
  EXPECT_EQ(dec.degraded_stripes, 1u);
  EXPECT_EQ(dec.chunks_missing, 1u);
  EXPECT_EQ(read_all(dir.path / "output.bin"), data);
}

TEST(IoPipelineFaults, TornWriteIsCaughtBySectorChecksumsOnRead) {
  const StoreCase c = fault_cases()[1];
  TempDir dir("torn");
  const std::size_t chunk_bytes = c.cfg.r * c.symbol;

  auto injected = std::make_unique<io::FaultInjectingEngine>(
      io::Engine::create(io::Backend::kThreads));
  // The write of chunk (stripe 0, device 5) tears after 1.5 symbols but
  // REPORTS success: encode must complete "ok" — this is silent corruption.
  injected->add_fault({.kind = io::Fault::Kind::kTornWrite,
                       .file = "dev_05.bin",
                       .offset = 0,
                       .length = chunk_bytes,
                       .keep_bytes = c.symbol + c.symbol / 2});
  IoPipeline::Stats enc;
  const auto data =
      encode_store(dir, c, 110 * 1000, 16, {.engine = injected.get()}, &enc);
  ASSERT_TRUE(enc.ok) << enc.error;  // the tear is not observable at write time
  EXPECT_GE(injected->hits(), 1u);

  // An unmodified engine decodes: the checksums catch the lie, the torn
  // sectors (all but the first whole one) are erased and reconstructed.
  const auto dec = decode_store(dir, c);
  EXPECT_TRUE(dec.ok) << dec.error;
  EXPECT_EQ(dec.degraded_stripes, 1u);
  EXPECT_GE(dec.sectors_corrupt, c.cfg.r - 2);
  EXPECT_EQ(read_all(dir.path / "output.bin"), data);
}

TEST(IoPipelineFaults, DeviceWriteErrorFailsEncodeCleanly) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("werr");
  write_random_file(dir.path / "input.bin", 80 * 1000, 17);
  auto injected = std::make_unique<io::FaultInjectingEngine>(
      io::Engine::create(io::Backend::kThreads));
  injected->add_fault({.kind = io::Fault::Kind::kWriteError, .file = "dev_01.bin"});
  Codec codec(c.cfg);
  IoPipeline pipeline(codec, {.symbol_bytes = c.symbol, .engine = injected.get()});
  const auto st = pipeline.encode_file((dir.path / "input.bin").string(),
                                       (dir.path / "store").string());
  EXPECT_FALSE(st.ok);
  EXPECT_FALSE(st.error.empty());
}

// --- unrecoverable patterns -------------------------------------------------

TEST(IoPipelineFaults, UnrecoverableDevicePatternFailsWithoutCrashing) {
  for (const StoreCase& c : fault_cases()) {
    SCOPED_TRACE(c.cfg.to_string());
    TempDir dir("unrec_dev");
    encode_store(dir, c, 100 * 1000, 18);
    for (std::size_t j = 0; j <= c.cfg.m; ++j)  // m+1 devices: over budget
      ASSERT_TRUE(fs::remove(dev_path(dir, j)));
    const auto dec = decode_store(dir, c);
    EXPECT_FALSE(dec.ok);
    EXPECT_EQ(dec.failed_stripes, dec.stripes);
    EXPECT_FALSE(dec.error.empty());
    // The output exists at full size (holes where nothing was recoverable).
    EXPECT_TRUE(fs::exists(dir.path / "output.bin"));
    EXPECT_EQ(fs::file_size(dir.path / "output.bin"),
              StripeStore::load((dir.path / "store").string()).file_size);
  }
}

TEST(IoPipelineFaults, UnrecoverableSectorPatternFailsOnlyItsStripe) {
  const StoreCase c = fault_cases()[0];  // m=1, e={1,2}
  TempDir dir("unrec_sector");
  const auto data = encode_store(dir, c, 100 * 1000, 19);
  const auto store = StripeStore::load((dir.path / "store").string());
  // Stripe 1: corrupt the SAME row in m + m' + 1 = 4 distinct chunks — one
  // row with 4 erasures exceeds the row code's m + m' budget, and as chunk
  // errors {1,1,1,1} it cannot fit m plus e = {1,2} either. Self-check the
  // pattern is really outside the guarantee before asserting on the stats.
  std::vector<bool> stripe_mask(c.cfg.r * c.cfg.n, false);
  for (std::size_t j = 0; j < 4; ++j) {
    flip_bytes(dev_path(dir, j), store.chunk_offset(1) + 0 * c.symbol, 16);
    stripe_mask[0 * c.cfg.n + j] = true;
  }
  ASSERT_FALSE(StairCode(c.cfg).is_recoverable(stripe_mask));
  const auto dec = decode_store(dir, c);
  EXPECT_FALSE(dec.ok);
  EXPECT_EQ(dec.failed_stripes, 1u);
  // Every other stripe still reconstructed: compare all bytes outside
  // stripe 1's data range.
  Codec codec(c.cfg);
  const std::size_t stripe_data = codec.code().data_symbol_count() * c.symbol;
  const auto out = read_all(dir.path / "output.bin");
  ASSERT_EQ(out.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (i >= stripe_data && i < 2 * stripe_data) continue;
    ASSERT_EQ(out[i], data[i]) << "byte " << i << " outside the failed stripe";
  }
}

// --- seeded injector determinism --------------------------------------------

// The soak/fault harness promise: a fault plan drawn from a seed behaves
// identically on every run — same stats, same bytes — so any failure
// reproduces from its logged seed.
TEST(IoPipelineFaults, SeededFaultPlanIsDeterministic) {
  const StoreCase c = fault_cases()[1];
  const std::uint64_t seed = 0xF00D;
  SCOPED_TRACE("fault plan seed=" + std::to_string(seed));
  TempDir dir("seeded");
  const auto data = encode_store(dir, c, 140 * 1000, 20);
  const std::size_t chunk_bytes = c.cfg.r * c.symbol;
  const std::size_t stripes = StripeStore::load((dir.path / "store").string()).stripes;

  auto build_plan = [&](io::FaultInjectingEngine& eng) {
    Rng rng(seed);
    for (int k = 0; k < 3; ++k) {
      const std::size_t s = rng.next_below(stripes);
      const std::size_t j = rng.next_below(c.cfg.n);
      char file[16];
      std::snprintf(file, sizeof file, "dev_%02zu.bin", j);
      const auto kind = rng.chance(0.5) ? io::Fault::Kind::kReadError
                                        : io::Fault::Kind::kShortRead;
      eng.add_fault({.kind = kind,
                     .file = file,
                     .offset = s * chunk_bytes,
                     .length = chunk_bytes,
                     .keep_bytes = chunk_bytes / 4});
    }
  };

  auto run_once = [&](const fs::path& out) {
    auto injected = std::make_unique<io::FaultInjectingEngine>(
        io::Engine::create(io::Backend::kThreads));
    build_plan(*injected);
    Codec codec(c.cfg);
    IoPipeline pipeline(codec, {.engine = injected.get()});
    return pipeline.decode_file((dir.path / "store").string(), out.string());
  };

  const auto first = run_once(dir.path / "out1.bin");
  const auto second = run_once(dir.path / "out2.bin");
  EXPECT_EQ(first.ok, second.ok);
  EXPECT_EQ(first.degraded_stripes, second.degraded_stripes);
  EXPECT_EQ(first.failed_stripes, second.failed_stripes);
  EXPECT_EQ(first.chunks_missing, second.chunks_missing);
  EXPECT_EQ(read_all(dir.path / "out1.bin"), read_all(dir.path / "out2.bin"));
  if (first.ok) EXPECT_EQ(read_all(dir.path / "out1.bin"), data);
}

// --- cross-backend determinism ----------------------------------------------

// Extends stair_sweep_test's LayoutAndBackendEquivalence to the IO path: the
// bytes that land on disk (device files AND manifest) and the bytes decoded
// back must be identical across every GF backend x region layout x IO
// backend x pool width for a golden config set.
TEST(IoPipelineDeterminism, CrossBackendByteIdenticalStores) {
  struct DispatchGuard {
    ~DispatchGuard() {
      gf::reset_layout();
      gf::reset_backend();
    }
  } guard;

  for (StoreCase c : {StoreCase{{.n = 6, .r = 4, .m = 1, .e = {1, 2}, .w = 8}, 256},
                      StoreCase{{.n = 6, .r = 4, .m = 1, .e = {1, 2}, .w = 16}, 256}}) {
    SCOPED_TRACE(c.cfg.to_string());
    TempDir dir("xdet");
    const auto data = write_random_file(dir.path / "input.bin", 90 * 1000, 21);

    std::vector<std::vector<std::uint8_t>> ref_devs;
    std::vector<std::uint8_t> ref_manifest;

    for (gf::Backend gfb : {gf::Backend::kScalar, gf::Backend::kSsse3,
                            gf::Backend::kAvx2, gf::Backend::kGfni}) {
      if (!gf::backend_supported(gfb)) continue;
      ASSERT_TRUE(gf::force_backend(gfb));
      for (gf::RegionLayout layout :
           {gf::RegionLayout::kStandard, gf::RegionLayout::kAltmap}) {
        gf::force_layout(layout);
        for (io::Backend iob : io_backends()) {
          for (std::size_t width : {std::size_t{1}, std::size_t{3}}) {
            SCOPED_TRACE(std::string(gf::backend_name(gfb)) + "/" +
                         gf::layout_name(layout) + "/" + io::backend_name(iob) +
                         "/pool" + std::to_string(width));
            const fs::path store = dir.path / "store";
            fs::remove_all(store);

            ThreadPool pool(width);
            Codec codec(c.cfg, {.pool = &pool});
            const auto engine = io::Engine::create(iob);
            IoPipeline pipeline(codec, {.queue_depth = 3,
                                        .symbol_bytes = c.symbol,
                                        .engine = engine.get()});
            const auto enc = pipeline.encode_file((dir.path / "input.bin").string(),
                                                  store.string());
            ASSERT_TRUE(enc.ok) << enc.error;

            std::vector<std::vector<std::uint8_t>> devs;
            for (std::size_t j = 0; j < c.cfg.n; ++j)
              devs.push_back(read_all(dev_path(dir, j)));
            auto manifest = read_all(store / "manifest.txt");
            if (ref_devs.empty()) {
              ref_devs = std::move(devs);
              ref_manifest = std::move(manifest);
            } else {
              ASSERT_EQ(devs, ref_devs) << "device bytes diverged";
              ASSERT_EQ(manifest, ref_manifest) << "manifest diverged";
            }

            // Degraded decode must agree too: lose device 2, flip a sector.
            ASSERT_TRUE(fs::remove(dev_path(dir, 2)));
            flip_bytes(dev_path(dir, 4), c.symbol, 16);
            const auto dec = pipeline.decode_file(
                store.string(), (dir.path / "output.bin").string());
            ASSERT_TRUE(dec.ok) << dec.error;
            ASSERT_EQ(read_all(dir.path / "output.bin"), data);
          }
        }
      }
    }
  }
}

// --- manifest hardening -----------------------------------------------------

namespace {

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const fs::path& p, const std::string& text) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out << text;
}

/// Replaces the first occurrence of `from` in the manifest with `to`.
void patch_manifest(const TempDir& dir, const std::string& from, const std::string& to) {
  const fs::path mpath = dir.path / "store" / "manifest.txt";
  std::string text = slurp(mpath);
  const auto pos = text.find(from);
  ASSERT_NE(pos, std::string::npos) << "manifest lacks '" << from << "'";
  text.replace(pos, from.size(), to);
  spit(mpath, text);
}

}  // namespace

// A manifest cut off mid-file (power cut before the atomic rename existed,
// or plain disk damage) must fail decode with a clean, counted error — the
// old loader zero-filled every unread field and checksum, silently treating
// most of the store as torn.
TEST(ManifestHardening, TruncatedManifestFailsCleanly) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("mtrunc");
  encode_store(dir, c, 48 * 1000, 30);

  const fs::path mpath = dir.path / "store" / "manifest.txt";
  const std::string text = slurp(mpath);
  spit(mpath, text.substr(0, text.size() / 2));

  const auto st = decode_store(dir, c);
  EXPECT_FALSE(st.ok);
  EXPECT_NE(st.error.find("manifest"), std::string::npos) << st.error;
  EXPECT_EQ(st.manifest_errors, 1u);
  EXPECT_EQ(st.bytes_written, 0u);

  Codec codec(c.cfg);
  IoPipeline pipeline(codec, {.symbol_bytes = c.symbol});
  std::vector<std::uint8_t> out(512);
  const auto rr = pipeline.read_range((dir.path / "store").string(), 0, out);
  EXPECT_FALSE(rr.ok);
  EXPECT_EQ(rr.manifest_errors, 1u);
}

// An adversarial stripe count must be stopped before it sizes the checksum
// table — the old loader computed stripes * n * r in size_t and happily
// indexed the wrapped-around allocation.
TEST(ManifestHardening, ImplausibleGeometryRejectedBeforeAllocation) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("mgeom");
  encode_store(dir, c, 24 * 1000, 31);

  patch_manifest(dir, "stripes ", "stripes 4294967296 ignored_");
  const auto st = decode_store(dir, c);
  EXPECT_FALSE(st.ok);
  EXPECT_NE(st.error.find("manifest"), std::string::npos) << st.error;
  EXPECT_EQ(st.manifest_errors, 1u);
}

// A chunk line pointing outside the declared geometry is an indexing attack
// on sector_checksums; it must be a parse error, not an OOB write.
TEST(ManifestHardening, OutOfRangeChunkLineRejected) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("mchunk");
  encode_store(dir, c, 24 * 1000, 32);

  patch_manifest(dir, "chunk 0 0", "chunk 999999 0");
  const auto st = decode_store(dir, c);
  EXPECT_FALSE(st.ok);
  EXPECT_NE(st.error.find("manifest"), std::string::npos) << st.error;
  EXPECT_EQ(st.manifest_errors, 1u);
}

// The header must agree with itself: stripes == ceil(file_size /
// stripe_data), and the symbol stays under the block cap. A file_size too
// large lets a read index past the stripe table and decode pad the output
// with zeros; one too small underflows the tail stripe's length; a 2^62-byte
// symbol sizes a staging buffer no allocator can serve.
TEST(ManifestHardening, InconsistentHeaderRejected) {
  const StoreCase c = fault_cases()[0];  // 17 data symbols of 512 B per stripe
  const struct {
    const char* from;
    const char* to;
  } patches[] = {
      {"file_size 24000", "file_size 240000"},  // 28 stripes' worth, 3 stored
      {"file_size 24000", "file_size 1000"},    // 1 stripe's worth, 3 stored
      {"symbol 512", "symbol 4611686018427387904"},
  };
  for (const auto& p : patches) {
    SCOPED_TRACE(p.to);
    TempDir dir("mheader");
    encode_store(dir, c, 24 * 1000, 36);
    patch_manifest(dir, p.from, p.to);
    EXPECT_THROW(StripeStore::load((dir.path / "store").string()), ManifestError);
    const auto st = decode_store(dir, c);
    EXPECT_FALSE(st.ok);
    EXPECT_NE(st.error.find("manifest"), std::string::npos) << st.error;
    EXPECT_EQ(st.manifest_errors, 1u);
  }
}

// The first chunk line sizes the checksum table from the header above it.
// A header key after the chunk lines would change the geometry under a
// table already sized: `r 8` and a matching file_size appended to a
// 3-stripe r = 4 store loaded 96 checksums where its stripes index 192.
TEST(ManifestHardening, HeaderAfterChunkLinesRejected) {
  const StoreCase c{{.n = 8, .r = 4, .m = 2, .e = {1, 2}, .w = 8}, 256};
  StairConfig wide = c.cfg;
  wide.r = 8;
  TempDir dir("mlate");
  encode_store(dir, c, 3 * c.cfg.data_symbols_inside() * c.symbol, 37);
  ASSERT_EQ(StripeStore::load((dir.path / "store").string()).stripes, 3u);

  const fs::path mpath = dir.path / "store" / "manifest.txt";
  spit(mpath, slurp(mpath) + "r 8\nfile_size " +
                  std::to_string(3 * wide.data_symbols_inside() * c.symbol) + "\n");
  EXPECT_THROW(StripeStore::load((dir.path / "store").string()), ManifestError);
  const auto st = decode_store(dir, c);
  EXPECT_FALSE(st.ok);
  EXPECT_NE(st.error.find("manifest"), std::string::npos) << st.error;
  EXPECT_EQ(st.manifest_errors, 1u);
}

// Garbage where a checksum should be (non-numeric token) must fail the parse
// instead of istream writing a zero and the loop resynchronizing mid-line.
TEST(ManifestHardening, GarbledChecksumTokenRejected) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("mgarble");
  encode_store(dir, c, 24 * 1000, 33);

  patch_manifest(dir, "chunk 0 1", "chunk 0 garble");
  const auto st = decode_store(dir, c);
  EXPECT_FALSE(st.ok);
  EXPECT_NE(st.error.find("manifest"), std::string::npos) << st.error;
  EXPECT_EQ(st.manifest_errors, 1u);
}

// A coverage list the strict parser refuses ("1x,2" once parsed as {1, 2})
// is a garbled manifest, not a store of some other code.
TEST(ManifestHardening, GarbledCoverageListRejected) {
  const StoreCase c = fault_cases()[0];
  for (const std::string bad : {"e 1x,2", "e 1;2", "e 1,+2"}) {
    SCOPED_TRACE(bad);
    TempDir dir("mcover");
    encode_store(dir, c, 24 * 1000, 34);
    patch_manifest(dir, "e 1,2", bad);
    const auto st = decode_store(dir, c);
    EXPECT_FALSE(st.ok);
    EXPECT_NE(st.error.find("manifest"), std::string::npos) << st.error;
    EXPECT_EQ(st.manifest_errors, 1u);
  }
}

TEST(ManifestHardening, CoverageListParsesDigitsOnly) {
  EXPECT_EQ(parse_coverage_list("1,2"), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(parse_coverage_list("0,12,3"), (std::vector<std::size_t>{0, 12, 3}));
  EXPECT_TRUE(parse_coverage_list("").empty());
  for (const char* bad : {"1;2", "1x,2", "1,,2", "1,", ",1", "-1", "+1", " 1", "1 ",
                          "99999999999999999999999"})
    EXPECT_THROW(parse_coverage_list(bad), std::invalid_argument) << "'" << bad << "'";
}

// --- manifest text ----------------------------------------------------------

// The manifest's exact bytes, which every existing store and the loader rely
// on: header keys in order, `e` as a comma list, the `block` line, and each
// chunk line's checksums in plain decimal from 0 to UINT64_MAX.
TEST(ManifestText, BytesArePinned) {
  StripeStore store;
  store.cfg = {.n = 4, .r = 2, .m = 1, .e = {1, 2}, .w = 8};
  store.symbol_bytes = 256;
  store.block_bytes = 4096;
  store.file_size = 1000;
  store.stripes = 2;
  store.data_checksum = 42;
  // Chunk (stripe, device) holds rows 0 and 1 at [(stripe * 4 + device) * 2].
  store.sector_checksums = {0, 9, 10, UINT64_MAX, 1, 99, 100, 999, 1000, 7, 70, 700, 7000,
                            12345678901234567890u, 10000000000000000000u, 9999999999999999999u};
  TempDir dir("mtext");
  store.save(dir.str());
  EXPECT_EQ(slurp(StripeStore::manifest_path(dir.str())),
            "stair_store 1\nn 4\nr 2\nm 1\ne 1,2\nw 8\nsymbol 256\nblock 4096\n"
            "file_size 1000\nstripes 2\ndata_checksum 42\n"
            "chunk 0 0 0 9\n"
            "chunk 0 1 10 18446744073709551615\n"
            "chunk 0 2 1 99\n"
            "chunk 0 3 100 999\n"
            "chunk 1 0 1000 7\n"
            "chunk 1 1 70 700\n"
            "chunk 1 2 7000 12345678901234567890\n"
            "chunk 1 3 10000000000000000000 9999999999999999999\n");
  const StripeStore back = StripeStore::load(dir.str());
  EXPECT_EQ(back.sector_checksums, store.sector_checksums);
  EXPECT_EQ(back.data_checksum, 42u);
}

// A live store re-formats only the stripes set_stripe changed, so each of
// its saves must still publish exactly what a full save of the same store
// writes, and load back to the same checksums, while the checksums' decimal
// widths change under the cached lines of the other stripes.
TEST(ManifestText, CachedSaveMatchesFullSave) {
  const StoreCase c{{.n = 6, .r = 4, .m = 1, .e = {1, 2}, .w = 8}, 256};
  TempDir dir("mcache");
  encode_store(dir, c, 40 * c.cfg.data_symbols_inside() * c.symbol, 38);
  const std::string store_dir = (dir.path / "store").string();
  const std::string full_dir = (dir.path / "full").string();
  fs::create_directories(full_dir);

  Codec codec(c.cfg);
  const auto engine = io::Engine::create(io::Backend::kThreads);
  OpenStore open(codec, *engine, store_dir, OpenStore::Access::kUpdate, 0);
  const std::size_t stripes = open.store().stripes;
  ASSERT_EQ(stripes, 40u);
  Rng rng(38);
  std::vector<std::uint64_t> checksums(c.cfg.n * c.cfg.r);
  for (int round = 0; round < 50; ++round) {
    SCOPED_TRACE(round);
    for (std::size_t k = 1 + rng.next_below(3); k > 0; --k) {
      for (std::uint64_t& sum : checksums) sum = rng.next_u64() >> rng.next_below(64);
      open.set_stripe(rng.next_below(stripes), checksums);
    }
    open.save();
    open.store().save(full_dir);
    ASSERT_EQ(slurp(StripeStore::manifest_path(store_dir)),
              slurp(StripeStore::manifest_path(full_dir)));
    const StripeStore back = StripeStore::load(store_dir);
    ASSERT_EQ(back.sector_checksums, open.store().sector_checksums);
    ASSERT_EQ(back.data_checksum, open.store().data_checksum);
  }
}

// --- ranged reads -----------------------------------------------------------

// read_range serves exact byte windows, sector-granular: offsets that are
// unaligned, cross stripe boundaries, or graze the padded tail all come back
// byte-identical to the original file without reading the whole store.
TEST(IoPipelineRangedRead, ByteExactAcrossOffsetsAndBoundaries) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("range");
  const std::size_t bytes = 48 * 1000;
  const auto data = encode_store(dir, c, bytes, 34);

  Codec codec(c.cfg);
  IoPipeline pipeline(codec, {.symbol_bytes = c.symbol});
  const auto store = StripeStore::load((dir.path / "store").string());
  const std::size_t stripe_data =
      codec.code().layout().data_ids().size() * c.symbol;

  const struct {
    std::uint64_t offset;
    std::size_t len;
  } windows[] = {
      {0, 1},                                  // first byte
      {0, 4096},                               // head block
      {c.symbol - 7, 100},                     // straddles a sector boundary
      {stripe_data - 13, 37},                  // straddles a stripe boundary
      {bytes - 1, 1},                          // last byte
      {bytes - 900, 900},                      // padded tail stripe
      {stripe_data / 2, 2 * stripe_data + 5},  // three stripes
      {17, 0},                                 // empty range
  };
  for (const auto& w : windows) {
    SCOPED_TRACE("offset=" + std::to_string(w.offset) + " len=" + std::to_string(w.len));
    std::vector<std::uint8_t> out(w.len, 0xEE);
    const auto st = pipeline.read_range(store, (dir.path / "store").string(),
                                        w.offset, out);
    ASSERT_TRUE(st.ok) << st.error;
    EXPECT_EQ(st.degraded_stripes, 0u);
    EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin() + w.offset));
  }

  // Sector-granular promise: a one-byte read costs one sector, not a stripe
  // — in aligned (direct) mode, the sector's block-rounded window.
  std::vector<std::uint8_t> one(1);
  const auto st = pipeline.read_range(store, (dir.path / "store").string(), 0, one);
  ASSERT_TRUE(st.ok) << st.error;
  std::size_t expect_read = c.symbol;
  if (store.block_bytes > 1)
    expect_read = std::min(store.padded_chunk_bytes(),
                           (c.symbol + store.block_bytes - 1) / store.block_bytes *
                               store.block_bytes);
  EXPECT_EQ(st.bytes_read, expect_read);
}

TEST(IoPipelineRangedRead, OutOfBoundsRangeFailsCleanly) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("rangeoob");
  const std::size_t bytes = 24 * 1000;
  encode_store(dir, c, bytes, 35);

  Codec codec(c.cfg);
  IoPipeline pipeline(codec, {.symbol_bytes = c.symbol});
  std::vector<std::uint8_t> out(256);
  EXPECT_FALSE(pipeline.read_range((dir.path / "store").string(), bytes, out).ok);
  EXPECT_FALSE(
      pipeline.read_range((dir.path / "store").string(), bytes - 100, out).ok);
  // A range that ends exactly at EOF is fine.
  EXPECT_TRUE(
      pipeline.read_range((dir.path / "store").string(), bytes - 256, out).ok);
}

// The rebuild-serving path: with a device gone and a sector torn elsewhere,
// ranged reads escalate per-stripe to the stripe reader's plan-cache decode
// and still return exact bytes — verified against the manifest before
// they're copied.
TEST(IoPipelineRangedRead, DegradedRangesServedByteExact) {
  for (const auto& c : fault_cases()) {
    SCOPED_TRACE(c.cfg.to_string());
    for (io::Backend iob : io_backends()) {
      SCOPED_TRACE(io::backend_name(iob));
      TempDir dir("rangedeg");
      const std::size_t bytes = 48 * 1000;
      const auto data = encode_store(dir, c, bytes, 36);
      ASSERT_TRUE(fs::remove(dev_path(dir, 1)));     // whole device out
      flip_bytes(dev_path(dir, 3), 2 * c.symbol, 32);  // torn sector, stripe 0

      Codec codec(c.cfg);
      const auto engine = io::Engine::create(iob);
      IoPipeline pipeline(codec, {.symbol_bytes = c.symbol, .engine = engine.get()});
      for (const std::uint64_t offset : {std::uint64_t{0}, std::uint64_t{bytes / 3}}) {
        std::vector<std::uint8_t> out(8192);
        const auto st = pipeline.read_range((dir.path / "store").string(), offset, out);
        ASSERT_TRUE(st.ok) << st.error;
        EXPECT_GE(st.degraded_stripes, 1u);
        EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin() + offset));
      }
    }
  }
}

// --- raw-device layout edge cases -------------------------------------------

// Symbol sizes with no alignment to speak of (1000 = 8·125, not sector-sized)
// force the padded layout to earn its keep: chunk rows of 4000 bytes pad to
// 4096, every transfer is still block-aligned, and the tail sectors of a
// non-multiple input survive the round trip. Also the odd-symbol fallback for
// the zero-copy scrub path, so both pipelines see this shape.
TEST(RawDeviceLayout, OddSymbolSizesAndTailSectorsRoundTrip) {
  const StoreCase c{{.n = 6, .r = 4, .m = 1, .e = {1, 2}, .w = 8}, 1000};
  const std::size_t bytes = 37 * 1000 + 123;  // ragged tail in the last stripe
  for (io::Backend iob : io_backends()) {
    SCOPED_TRACE(io::backend_name(iob));
    TempDir dir("oddsym");
    const auto engine = io::Engine::create(iob);
    const auto data = encode_store(dir, c, bytes, 41,
                                   {.direct = true, .engine = engine.get()});

    const auto store = StripeStore::load((dir.path / "store").string());
    EXPECT_EQ(store.block_bytes, 4096u);
    EXPECT_EQ(store.chunk_bytes(), 4000u);
    EXPECT_EQ(store.padded_chunk_bytes(), 4096u);
    // Device files are padded-stride long, not chunk-stride long.
    EXPECT_EQ(fs::file_size(dev_path(dir, 0)),
              store.stripes * store.padded_chunk_bytes());

    const auto dec = decode_store(dir, c, {.engine = engine.get()});
    ASSERT_TRUE(dec.ok) << dec.error;
    EXPECT_EQ(read_all(dir.path / "output.bin"), data);

    // Tail sectors through the ranged path: the last 100 bytes live in a
    // partially-filled final stripe whose aligned read window is clamped to
    // the padded chunk.
    Codec codec(c.cfg);
    IoPipeline pipeline(codec, {.symbol_bytes = c.symbol, .engine = engine.get()});
    std::vector<std::uint8_t> out(100);
    const auto st =
        pipeline.read_range((dir.path / "store").string(), bytes - 100, out);
    ASSERT_TRUE(st.ok) << st.error;
    EXPECT_TRUE(std::equal(out.begin(), out.end(), data.end() - 100));
  }
}

// Stores written before the layout carried a block size have no `block`
// manifest line; they must load as block 1 (unpadded) and decode byte-exact.
TEST(RawDeviceLayout, LegacyManifestWithoutBlockLineLoadsUnpadded) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("legacy");
  const auto data = encode_store(dir, c, 30 * 1000, 42, {.direct = false});

  // A buffered-mode store is unpadded, so dropping the line leaves a valid
  // pre-raw-IO manifest rather than a lying one.
  patch_manifest(dir, "\nblock 1", "");
  const auto store = StripeStore::load((dir.path / "store").string());
  EXPECT_EQ(store.block_bytes, 1u);
  EXPECT_EQ(store.padded_chunk_bytes(), store.chunk_bytes());

  // `direct` only picks the layout of stores a pipeline encodes; reading a
  // legacy store opens every chunk buffered, because block 1 says so.
  const auto engine = io::Engine::create();
  const auto dec = decode_store(dir, c, {.direct = true, .engine = engine.get()});
  ASSERT_TRUE(dec.ok) << dec.error;
  EXPECT_EQ(read_all(dir.path / "output.bin"), data);
  EXPECT_EQ(engine->stats().direct_opens + engine->stats().direct_fallbacks, 0u);
}

// A filesystem that refuses O_DIRECT must not change a single stored byte:
// the layout follows the *request*, the opens quietly fall back to buffered.
// FaultInjectingEngine::set_reject_direct is the deterministic stand-in for
// such a filesystem (tmpfs on modern kernels accepts O_DIRECT).
TEST(RawDeviceLayout, RejectedDirectFallsBackToBufferedByteIdentically) {
  const StoreCase c = fault_cases()[1];
  for (io::Backend iob : io_backends()) {
    SCOPED_TRACE(io::backend_name(iob));
    TempDir dir_direct("rejdir_a");
    TempDir dir_reject("rejdir_b");

    const auto engine = io::Engine::create(iob);
    encode_store(dir_direct, c, 60 * 1000, 43, {.direct = true, .engine = engine.get()});

    auto injected = std::make_unique<io::FaultInjectingEngine>(
        io::Engine::create(iob, {}));
    injected->set_reject_direct(true);
    encode_store(dir_reject, c, 60 * 1000, 43,
                 {.direct = true, .engine = injected.get()});
    EXPECT_EQ(injected->stats().direct_opens, 0u)
        << "reject_direct must keep O_DIRECT away from the inner engine";

    for (std::size_t j = 0; j < c.cfg.n; ++j)
      EXPECT_EQ(read_all(dev_path(dir_reject, j)), read_all(dev_path(dir_direct, j)))
          << "device " << j;
    EXPECT_EQ(read_all(dir_reject.path / "store" / "manifest.txt"),
              read_all(dir_direct.path / "store" / "manifest.txt"));

    // And the fallback store decodes like any other.
    const auto dec = decode_store(dir_reject, c, {.engine = injected.get()});
    ASSERT_TRUE(dec.ok) << dec.error;
  }
}

// Registered buffers are the engine's call, not an option: every store a
// pipeline call opens asks, the engine's stats show what it answered, and
// the bytes on disk never depend on the answer. On uring the fixed path
// must actually engage (fixed ops counted, zero fallbacks) when the
// registered pool covers the ring; the thread backend refuses registration
// and every transfer stays plain.
TEST(RawDeviceLayout, FixedBuffersFollowTheEngineAndStoresMatchAcrossBackends) {
  const StoreCase c = fault_cases()[0];
  TempDir input_dir("fixed_input");
  const fs::path input = input_dir.path / "input.bin";
  write_random_file(input, 50 * 1000, 44);
  std::vector<std::vector<std::uint8_t>> ref_devs;
  for (io::Backend iob : io_backends()) {
    SCOPED_TRACE(io::backend_name(iob));
    TempDir dir("fixed");
    const auto engine = io::Engine::create(iob);
    Codec codec(c.cfg);
    IoPipeline pipeline(codec, {.symbol_bytes = c.symbol, .direct = true,
                                .engine = engine.get()});
    ASSERT_TRUE(pipeline.encode_file(input.string(), (dir.path / "store").string()).ok);

    const auto stats = engine->stats();
    EXPECT_EQ(stats.registered_buffers, 0u) << "the call's store unregisters on close";
    if (iob == io::Backend::kUring) {
      EXPECT_GT(stats.fixed_writes, 0u);
      EXPECT_EQ(stats.fixed_fallbacks, 0u);
    } else {
      EXPECT_EQ(stats.fixed_writes, 0u);
    }

    std::vector<std::vector<std::uint8_t>> devs;
    for (std::size_t j = 0; j < c.cfg.n; ++j) devs.push_back(read_all(dev_path(dir, j)));
    if (ref_devs.empty())
      ref_devs = std::move(devs);
    else
      EXPECT_EQ(devs, ref_devs) << "device bytes diverged across IO backends";
  }
}

}  // namespace
}  // namespace stair
