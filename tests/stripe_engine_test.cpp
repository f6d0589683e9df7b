// Stripe engine battery: every read path runs the one StripeReader, so on
// every damage shape — a lost device, scattered torn sectors, a device plus
// sectors, damage beyond coverage — and on both store layouts, decode_file,
// a whole-file read_range, a detect-only scrub and a StorageNode read must
// agree on the bytes, the degraded-stripe count and the unrecoverable
// verdict, and must each open chunk files the way the layout says (O_DIRECT
// on a padded store, buffered on an unpadded one, whatever STAIR_IO_DIRECT
// says). Plus symbol sizes off the 64-byte grain through decode, ranged
// read, repair and rebuild, the plan-cache contract of degraded ranged reads
// (one failure epoch, one inversion), the transfers a ranged read issues,
// and what each path does with a reconstruction that fails its own checksum.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "gf/region.h"
#include "matrix/matrix.h"
#include "stair/io_pipeline.h"
#include "stair/scrub_repair.h"
#include "stair/service.h"
#include "util/rng.h"

namespace stair {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;

  explicit TempDir(const std::string& hint) {
    path = fs::temp_directory_path() /
           ("stair_engine_test_" + hint + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }

  std::string store() const { return (path / "store").string(); }
};

const StairConfig kCfg{.n = 8, .r = 6, .m = 2, .e = {1, 2}, .w = 8};
constexpr std::size_t kSymbol = 256;
constexpr std::size_t kFileBytes = 30'000;  // 4 stripes, the last partial

/// Sets (value) or unsets (nullptr) an environment variable for one scope.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* prev = std::getenv(name)) saved_ = prev;
    if (value)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~ScopedEnv() {
    if (saved_)
      ::setenv(name_, saved_->c_str(), 1);
    else
      ::unsetenv(name_);
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

/// O_DIRECT opens `engine` has requested, whether or not the filesystem
/// took them.
std::uint64_t direct_requests(io::Engine& engine) {
  const io::Engine::Stats st = engine.stats();
  return st.direct_opens + st.direct_fallbacks;
}

/// `padded`: encode the block-padded (raw-device) layout.
std::vector<std::uint8_t> encode_store(const TempDir& dir, std::uint64_t seed,
                                       bool padded = io::direct_from_env(),
                                       const StairConfig& cfg = kCfg,
                                       std::size_t symbol = kSymbol,
                                       std::size_t bytes = kFileBytes) {
  std::vector<std::uint8_t> data(bytes);
  Rng(seed).fill(data);
  {
    std::ofstream out(dir.path / "input.bin", std::ios::binary);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
  }
  Codec codec(cfg);
  IoPipeline pipeline(codec, {.symbol_bytes = symbol, .direct = padded});
  const auto st = pipeline.encode_file((dir.path / "input.bin").string(), dir.store());
  EXPECT_TRUE(st.ok) << st.error;
  return data;
}

std::vector<std::uint8_t> read_all(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Flips the first 16 bytes of sector (row, device) of `stripe`.
void tear_sector(const TempDir& dir, const StripeStore& store, std::size_t stripe,
                 std::size_t row, std::size_t device) {
  std::fstream f(StripeStore::device_path(dir.store(), device),
                 std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f);
  const auto at =
      static_cast<std::streamoff>(store.chunk_offset(stripe) + row * store.symbol_bytes);
  char buf[16];
  f.seekg(at);
  f.read(buf, sizeof buf);
  for (char& c : buf) c = static_cast<char>(c ^ 0xA5);
  f.seekp(at);
  f.write(buf, sizeof buf);
}

struct Shape {
  std::string name;
  std::vector<std::size_t> lost_devices;
  /// {stripe, data index} of data sectors to tear (data sectors, so the
  /// ranged read's happy path meets every hit too).
  std::vector<std::pair<std::size_t, std::size_t>> torn;
  std::size_t degraded;  // expected degraded stripes
  bool unrecoverable;
};

TEST(StripeEngine, ReadPathsAgreeOnEveryDamageShape) {
  // Data indices 0..5 are row 0 across the six data devices: tearing five of
  // them in one stripe puts five erasures in one row, past m + e.size().
  const std::vector<Shape> shapes = {
      {"lost_device", {0}, {}, 4, false},
      {"torn_sectors", {}, {{0, 3}, {2, 17}, {3, 10}}, 3, false},
      {"device_plus_sectors", {1}, {{1, 4}, {3, 9}}, 4, false},
      {"beyond_coverage", {}, {{3, 0}, {3, 1}, {3, 2}, {3, 3}, {3, 4}}, 1, true},
  };
  for (const bool padded : {false, true}) {
    // The layout alone decides O_DIRECT: a padded store is read direct with
    // STAIR_IO_DIRECT unset, an unpadded one buffered even with it set.
    const ScopedEnv env("STAIR_IO_DIRECT", padded ? nullptr : "1");
    auto expect_direct = [padded](std::uint64_t requests, const char* layer) {
      EXPECT_EQ(requests > 0, padded) << layer << " made " << requests << " O_DIRECT opens";
    };
    for (const Shape& shape : shapes) {
      SCOPED_TRACE(shape.name + (padded ? " (padded)" : " (unpadded)"));
      TempDir dir(shape.name);
      const auto data = encode_store(dir, 60, padded);
      const StripeStore store = StripeStore::load(dir.store());
      Codec codec(kCfg);
      const auto positions = StripeStore::data_positions(codec.code().layout());
      ASSERT_EQ(store.stripes, 4u);
      ASSERT_EQ(store.block_bytes > 1, padded);

      std::vector<bool> last_mask(kCfg.r * kCfg.n, false);
      for (const auto& [stripe, d] : shape.torn) {
        const auto [row, dev] = positions[d];
        tear_sector(dir, store, stripe, row, dev);
        if (stripe == 3) last_mask[row * kCfg.n + dev] = true;
      }
      for (std::size_t dev : shape.lost_devices)
        ASSERT_TRUE(fs::remove(StripeStore::device_path(dir.store(), dev)));
      ASSERT_EQ(codec.code().is_recoverable(last_mask), !shape.unrecoverable)
          << "the shape must really sit on its side of the coverage boundary";

      // Bytes outside the unrecoverable stripe (all of them when recoverable).
      const std::size_t bad_lo =
          shape.unrecoverable ? 3 * positions.size() * kSymbol : data.size();
      auto same_bytes = [&](const std::vector<std::uint8_t>& got) {
        return got.size() == data.size() &&
               std::equal(data.begin(), data.begin() + bad_lo, got.begin());
      };

      IoPipeline pipeline(codec);
      const auto dec = pipeline.decode_file(dir.store(), (dir.path / "out.bin").string());
      EXPECT_EQ(dec.ok, !shape.unrecoverable) << dec.error;
      EXPECT_EQ(dec.degraded_stripes, shape.degraded);
      EXPECT_EQ(dec.failed_stripes, shape.unrecoverable ? 1u : 0u);
      EXPECT_TRUE(same_bytes(read_all(dir.path / "out.bin")));
      const std::uint64_t decode_direct = direct_requests(pipeline.engine());
      expect_direct(decode_direct, "decode_file");

      std::vector<std::uint8_t> ranged(data.size());
      const auto rr = pipeline.read_range(dir.store(), 0, ranged);
      EXPECT_EQ(rr.ok, !shape.unrecoverable) << rr.error;
      EXPECT_EQ(rr.degraded_stripes, shape.degraded);
      EXPECT_EQ(rr.failed_stripes, shape.unrecoverable ? 1u : 0u);
      EXPECT_TRUE(same_bytes(ranged));
      expect_direct(direct_requests(pipeline.engine()) - decode_direct, "read_range");

      Scrubber scrubber(codec, {.repair = false});
      const ScrubReport rep = scrubber.scrub(dir.store());
      EXPECT_TRUE(rep.ok) << rep.error;
      EXPECT_EQ(rep.stripes_degraded, shape.degraded);
      EXPECT_EQ(rep.stripes_unrecoverable, shape.unrecoverable ? 1u : 0u);
      EXPECT_EQ(rep.bytes_written, 0u);
      expect_direct(direct_requests(scrubber.engine()), "scrub");

      // The node opens its devices once, at start(), on an engine of its
      // own; the read itself opens nothing.
      StorageNode node(codec, dir.store(), {.tenants = 1, .workers = 1});
      node.start();
      const std::uint64_t node_direct = direct_requests(node.engine());
      expect_direct(node_direct, "node start");
      std::vector<std::uint8_t> served(data.size());
      Request req;
      req.type = RequestType::kScan;
      req.out = served;
      const Response resp = node.submit(req).wait();
      EXPECT_EQ(direct_requests(node.engine()), node_direct) << "the node read opened devices";
      node.stop();
      EXPECT_EQ(resp.ok, !shape.unrecoverable) << resp.error;
      EXPECT_EQ(resp.degraded_stripes, shape.degraded);
      EXPECT_TRUE(same_bytes(served));
    }
  }
}

// A slot's chunk staging is its stripe at every symbol size. Where the size
// is not a multiple of 64 its symbols sit unaligned in the staging, and a
// w = 16 code replays its altmap conversion over those unaligned regions.
// On both layouts, each size decodes a lost device plus a torn sector,
// serves a ranged read across both, repairs them in a scrub and rebuilds a
// device, and every byte read or written back is the original.
TEST(StripeEngine, EverySymbolSizeDecodesRepairsAndRebuildsByteExact) {
  struct Case {
    StairConfig cfg;
    std::size_t symbol;
  };
  StairConfig w16 = kCfg;
  w16.w = 16;
  const std::vector<Case> cases = {{kCfg, 100}, {kCfg, 4100}, {w16, 100}, {w16, 4100}};
  for (const bool padded : {false, true}) {
    for (const Case& c : cases) {
      SCOPED_TRACE("w=" + std::to_string(c.cfg.w) + " symbol=" + std::to_string(c.symbol) +
                   (padded ? " (padded)" : " (unpadded)"));
      struct AltmapPin {  // released even when an assertion returns early
        explicit AltmapPin(bool pin) {
          if (pin) gf::force_layout(gf::RegionLayout::kAltmap);
        }
        ~AltmapPin() { gf::reset_layout(); }
      } pin(c.cfg.w == 16);
      TempDir dir("symbol");
      Codec codec(c.cfg);
      const auto positions = StripeStore::data_positions(codec.code().layout());
      const std::size_t stripe_data = positions.size() * c.symbol;
      const auto data = encode_store(dir, 64, padded, c.cfg, c.symbol, 2 * stripe_data + 777);
      const StripeStore store = StripeStore::load(dir.store());
      ASSERT_EQ(store.stripes, 3u);
      std::vector<std::vector<std::uint8_t>> written;
      for (std::size_t j = 0; j < c.cfg.n; ++j)
        written.push_back(read_all(StripeStore::device_path(dir.store(), j)));
      auto devices_as_written = [&] {
        for (std::size_t j = 0; j < c.cfg.n; ++j)
          if (read_all(StripeStore::device_path(dir.store(), j)) != written[j]) return false;
        return true;
      };

      // Row 1 holds data on devices 0-5: lose device 0, tear (1, 2) of stripe 1.
      auto data_index = [&](std::size_t row, std::size_t dev) {
        return static_cast<std::size_t>(
            std::find(positions.begin(), positions.end(), StripeStore::Position{row, dev}) -
            positions.begin());
      };
      ASSERT_LT(data_index(1, 2), positions.size());
      tear_sector(dir, store, 1, 1, 2);
      ASSERT_TRUE(fs::remove(StripeStore::device_path(dir.store(), 0)));

      IoPipeline pipeline(codec);
      const auto dec = pipeline.decode_file(dir.store(), (dir.path / "out.bin").string());
      EXPECT_TRUE(dec.ok) << dec.error;
      EXPECT_EQ(dec.degraded_stripes, 3u);
      EXPECT_EQ(read_all(dir.path / "out.bin"), data);

      // Symbols (1, 0) to (1, 2) of stripe 1, from inside the first.
      const std::size_t offset = stripe_data + data_index(1, 0) * c.symbol + 7;
      std::vector<std::uint8_t> ranged(2 * c.symbol + 9);
      const auto rr = pipeline.read_range(dir.store(), offset, ranged);
      EXPECT_TRUE(rr.ok) << rr.error;
      EXPECT_EQ(rr.degraded_stripes, 1u);
      EXPECT_TRUE(std::equal(ranged.begin(), ranged.end(),
                             data.begin() + static_cast<std::ptrdiff_t>(offset)));

      // The scrub recreates device 0 empty and rewrites every chunk of it,
      // and device 2's chunk of stripe 1.
      const ScrubReport rep = Scrubber(codec, {.repair = true}).scrub(dir.store());
      EXPECT_TRUE(rep.ok) << rep.error;
      EXPECT_EQ(rep.stripes_degraded, 3u);
      EXPECT_EQ(rep.sectors_repaired, 3 * c.cfg.r + 1);
      EXPECT_EQ(rep.repair_failures, 0u);
      EXPECT_TRUE(devices_as_written()) << "repair";

      ASSERT_TRUE(fs::remove(StripeStore::device_path(dir.store(), 3)));
      const ScrubReport rebuilt = Scrubber(codec).rebuild_device(dir.store(), 3);
      EXPECT_TRUE(rebuilt.ok) << rebuilt.error;
      EXPECT_EQ(rebuilt.sectors_repaired, 3 * c.cfg.r);
      EXPECT_TRUE(devices_as_written()) << "rebuild";

      const auto clean = pipeline.decode_file(dir.store(), (dir.path / "out.bin").string());
      EXPECT_TRUE(clean.ok) << clean.error;
      EXPECT_EQ(clean.degraded_stripes, 0u);
      EXPECT_EQ(read_all(dir.path / "out.bin"), data);
    }
  }
}

// Degraded ranged reads resolve through the session plan cache: 50 reads
// against one lost device invert once (the first call), and the other 49
// replay the cached plan.
TEST(StripeEngine, DegradedRangedReadsInvertOncePerFailureEpoch) {
  TempDir dir("epoch");
  const auto data = encode_store(dir, 61);
  const std::size_t lost = 0;
  ASSERT_TRUE(fs::remove(StripeStore::device_path(dir.store(), lost)));

  Codec codec(kCfg);
  IoPipeline pipeline(codec);
  const StripeStore store = StripeStore::load(dir.store());
  const auto positions = StripeStore::data_positions(codec.code().layout());
  std::vector<std::size_t> on_lost;  // data indices stored on the lost device
  for (std::size_t d = 0; d < positions.size(); ++d)
    if (positions[d].second == lost) on_lost.push_back(d);
  ASSERT_FALSE(on_lost.empty());
  const std::size_t stripe_data = positions.size() * kSymbol;

  std::vector<std::uint8_t> out(100);
  for (int call = 0; call < 50; ++call) {
    const std::size_t stripe = static_cast<std::size_t>(call) % (store.stripes - 1);
    const std::uint64_t offset =
        stripe * stripe_data + on_lost[static_cast<std::size_t>(call) % on_lost.size()] * kSymbol + 7;
    const std::uint64_t inversions = matrix_inversion_count();
    const std::size_t hits = codec.plan_cache().hits();
    const auto st = pipeline.read_range(store, dir.store(), offset, out);
    ASSERT_TRUE(st.ok) << st.error;
    ASSERT_EQ(st.degraded_stripes, 1u);
    ASSERT_TRUE(std::equal(out.begin(), out.end(), data.begin() + static_cast<std::ptrdiff_t>(offset)));
    if (call == 0) {
      EXPECT_GT(matrix_inversion_count(), inversions) << "the first read builds the plan";
    } else {
      EXPECT_EQ(matrix_inversion_count(), inversions) << "call " << call;
      EXPECT_EQ(codec.plan_cache().hits(), hits + 1) << "call " << call;
    }
  }
  EXPECT_EQ(codec.plan_cache().misses(), 1u);
}

// A ranged read costs one transfer per device holding the data symbols it
// wants, on either layout. A wanted sector that is torn, or whose device is
// lost, adds one whole-stripe read: a transfer per present device.
TEST(StripeEngine, RangedReadIssuesOneTransferPerDevice) {
  for (const bool padded : {false, true}) {
    SCOPED_TRACE(padded ? "padded" : "unpadded");
    TempDir dir("transfers");
    const auto data = encode_store(dir, 62, padded);
    const StripeStore store = StripeStore::load(dir.store());
    Codec codec(kCfg);
    const auto positions = StripeStore::data_positions(codec.code().layout());
    IoPipeline pipeline(codec);
    // Transfers a read of data symbols [d, d + count) of stripe 0 submits.
    auto transfers = [&](std::size_t d, std::size_t count, std::size_t degraded) {
      std::vector<std::uint8_t> out(count * kSymbol);
      const std::uint64_t before = pipeline.engine().stats().reads;
      const auto st = pipeline.read_range(store, dir.store(), d * kSymbol, out);
      EXPECT_TRUE(st.ok) << st.error;
      EXPECT_EQ(st.degraded_stripes, degraded);
      EXPECT_TRUE(std::equal(out.begin(), out.end(),
                             data.begin() + static_cast<std::ptrdiff_t>(d * kSymbol)));
      return pipeline.engine().stats().reads - before;
    };
    // Data indices 0-11 are rows 0-1 of the six data devices.
    EXPECT_EQ(transfers(0, 12, 0), 6u);
    EXPECT_EQ(transfers(7, 1, 0), 1u);

    const auto [row, dev] = positions[3];
    tear_sector(dir, store, 0, row, dev);
    EXPECT_EQ(transfers(0, 12, 1), 6u + kCfg.n);
    EXPECT_EQ(transfers(3, 1, 1), 1u + kCfg.n);
    EXPECT_EQ(transfers(7, 1, 0), 1u) << "a torn sector the read does not want";

    ASSERT_EQ(positions[0].second, 0u);
    ASSERT_TRUE(fs::remove(StripeStore::device_path(dir.store(), 0)));
    EXPECT_EQ(transfers(0, 12, 1), 5u + (kCfg.n - 1));
  }
}

// A manifest checksum that lies refutes the true bytes: the stored sector
// fails verify, the decode rebuilds the true bytes, and those fail the same
// checksum. The reader proves every reconstruction a plan uses, so when the
// lie is about a data sector, read_range, decode_file and a repairing scrub
// all refuse that stripe. Reads and decodes use no reconstructed parity
// sector, so a lie about one still serves every byte, even when the wanted
// sector is torn too and the read widens. A repair rewrites every
// reconstructed sector, so it refuses both.
TEST(StripeEngine, ReconstructionFailingItsChecksumIsRefused) {
  const std::size_t stripe = 1, d = 4;
  for (const bool padded : {false, true}) {
    SCOPED_TRACE(padded ? "padded" : "unpadded");
    Codec codec(kCfg);
    IoPipeline pipeline(codec);
    const auto positions = StripeStore::data_positions(codec.code().layout());
    const auto [row, dev] = positions[d];
    const std::size_t parity = kCfg.n - 1;  // row parity: two erasures in a row decode
    const std::size_t stripe_data = positions.size() * kSymbol;
    const std::size_t wanted = stripe * stripe_data + d * kSymbol;

    struct Verdicts {
      IoStats read, decode;
      ScrubReport scrub;
      std::vector<std::uint8_t> data, read_bytes, decoded;
    };
    // Lies about sector (row, device) of `stripe` (and tears the wanted
    // sector when asked), then runs every path over the store.
    auto run = [&](const std::string& name, std::size_t device, bool torn) {
      TempDir dir(name);
      Verdicts v;
      v.data = encode_store(dir, 63, padded);
      StripeStore store = StripeStore::load(dir.store());
      store.sector_checksums[(stripe * kCfg.n + device) * kCfg.r + row] ^= 1;
      store.save(dir.store());
      if (torn) tear_sector(dir, store, stripe, row, dev);
      v.read_bytes.resize(kSymbol);
      v.read = pipeline.read_range(dir.store(), wanted, v.read_bytes);
      v.decode = pipeline.decode_file(dir.store(), (dir.path / "out.bin").string());
      v.decoded = read_all(dir.path / "out.bin");
      v.scrub = Scrubber(codec, {.repair = true}).scrub(dir.store());
      return v;
    };
    auto exact = [](const Verdicts& v, std::size_t lo, std::size_t hi) {
      return v.decoded.size() == v.data.size() &&
             std::equal(v.data.begin() + static_cast<std::ptrdiff_t>(lo),
                        v.data.begin() + static_cast<std::ptrdiff_t>(hi),
                        v.decoded.begin() + static_cast<std::ptrdiff_t>(lo));
    };
    auto read_exact = [&](const Verdicts& v) {
      return std::equal(v.read_bytes.begin(), v.read_bytes.end(),
                        v.data.begin() + static_cast<std::ptrdiff_t>(wanted));
    };
    auto scrub_refuses = [](const ScrubReport& rep) {
      EXPECT_TRUE(rep.ok) << rep.error;
      EXPECT_EQ(rep.sectors_corrupt, 1u);
      EXPECT_EQ(rep.stripes_unrecoverable, 1u);
      EXPECT_EQ(rep.repair_failures, 0u);
      EXPECT_EQ(rep.sectors_repaired, 0u);
      EXPECT_EQ(rep.bytes_written, 0u);
    };

    {
      SCOPED_TRACE("the manifest lies about a data sector");
      const Verdicts v = run("liar_data", dev, false);
      EXPECT_FALSE(v.read.ok);
      EXPECT_EQ(v.read.failed_stripes, 1u);
      EXPECT_FALSE(v.decode.ok);
      EXPECT_EQ(v.decode.degraded_stripes, 1u);
      EXPECT_EQ(v.decode.failed_stripes, 1u);
      EXPECT_TRUE(exact(v, 0, stripe * stripe_data)) << "stripes before the refused one";
      EXPECT_TRUE(exact(v, (stripe + 1) * stripe_data, v.data.size())) << "and after it";
      scrub_refuses(v.scrub);
    }
    {
      SCOPED_TRACE("the manifest lies about a parity sector");
      const Verdicts v = run("liar_parity", parity, false);
      EXPECT_TRUE(v.read.ok) << v.read.error;
      EXPECT_TRUE(read_exact(v));
      EXPECT_TRUE(v.decode.ok) << v.decode.error;
      EXPECT_EQ(v.decode.degraded_stripes, 1u);
      EXPECT_EQ(v.decode.failed_stripes, 0u);
      EXPECT_TRUE(exact(v, 0, v.data.size()));
      scrub_refuses(v.scrub);
    }
    {
      SCOPED_TRACE("a parity sector lies and the wanted sector is torn");
      const Verdicts v = run("liar_parity_torn", parity, true);
      EXPECT_TRUE(v.read.ok) << v.read.error;
      EXPECT_EQ(v.read.degraded_stripes, 1u);
      EXPECT_EQ(v.read.sectors_corrupt, 2u) << "the read widened to the whole stripe";
      EXPECT_TRUE(read_exact(v));
      EXPECT_TRUE(v.decode.ok) << v.decode.error;
      EXPECT_EQ(v.decode.failed_stripes, 0u);
      EXPECT_TRUE(exact(v, 0, v.data.size()));
    }
  }
}

}  // namespace
}  // namespace stair
