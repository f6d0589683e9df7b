// StorageNode battery: the service layer's contracts under contention.
// Round trips through submit() across tenants and classes, write-path
// persistence (manifest refresh, drain/restart byte-identity, decode_file
// agreement), admission control (fail-fast rejects, bounded queues under
// flood), multi-tenant fairness (a flooding tenant cannot starve another's
// reads), priority (queued reads dispatch ahead of queued scans), degraded
// serving during device loss, scrub-while-serving integration (a repair
// never rolls back a node write, a scrub yielding to a write never holds
// the write's stripe), and the TSan-watched races: concurrent
// submitters, reader-vs-writer on one stripe, scrub vs node writes, stats()
// vs everything.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "stair/io_pipeline.h"
#include "stair/service.h"
#include "util/rng.h"

namespace stair {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;

  explicit TempDir(const std::string& hint) {
    path = fs::temp_directory_path() /
           ("stair_service_test_" + hint + "_" + std::to_string(::getpid()));
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

/// XORs `len` bytes of `path` at `offset` (sector rot).
void rot_bytes(const std::string& path, std::uint64_t offset, std::size_t len) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f) << "cannot open " << path;
  std::vector<char> buf(len);
  f.seekg(static_cast<std::streamoff>(offset));
  f.read(buf.data(), static_cast<std::streamsize>(len));
  for (char& c : buf) c = static_cast<char>(c ^ 0x5A);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(buf.data(), static_cast<std::streamsize>(len));
}

const StairConfig kCfg{.n = 6, .r = 4, .m = 1, .e = {1, 2}, .w = 8};
constexpr std::size_t kSymbol = 512;

std::string store_dir(const TempDir& dir) { return (dir.path / "store").string(); }

/// Encodes `bytes` of random data into dir/store; returns the plaintext.
std::vector<std::uint8_t> encode_store(const TempDir& dir, std::size_t bytes,
                                       std::uint64_t seed) {
  const auto data = write_random_file(dir.path / "input.bin", bytes, seed);
  Codec codec(kCfg);
  IoPipeline pipeline(codec, {.symbol_bytes = kSymbol});
  const auto st = pipeline.encode_file((dir.path / "input.bin").string(), store_dir(dir));
  EXPECT_TRUE(st.ok) << st.error;
  return data;
}

Request read_req(std::size_t tenant, std::uint64_t offset, std::span<std::uint8_t> out,
                 RequestType type = RequestType::kRead) {
  Request r;
  r.type = type;
  r.tenant = tenant;
  r.offset = offset;
  r.out = out;
  return r;
}

Request write_req(std::size_t tenant, std::size_t stripe,
                  std::span<const std::uint8_t> data) {
  Request r;
  r.type = RequestType::kWrite;
  r.tenant = tenant;
  r.stripe = stripe;
  r.data = data;
  return r;
}

// --- round trips -------------------------------------------------------------

TEST(ServiceTest, ReadsRoundTripAcrossTenantsAndClasses) {
  TempDir dir("roundtrip");
  const auto data = encode_store(dir, 50'000, 1);

  Codec codec(kCfg);
  StorageNode node(codec, store_dir(dir), {.tenants = 3, .workers = 2});
  node.start();

  Rng rng(7);
  std::vector<std::vector<std::uint8_t>> bufs;
  std::vector<StorageNode::Future> futures;
  std::vector<std::uint64_t> offsets;
  for (int i = 0; i < 48; ++i) {
    const std::uint64_t off = rng.next_below(data.size());
    const std::size_t len =
        std::min<std::size_t>(1 + rng.next_below(4000), data.size() - off);
    bufs.emplace_back(len);
    offsets.push_back(off);
  }
  for (int i = 0; i < 48; ++i) {
    const auto type = (i % 3 == 2) ? RequestType::kScan : RequestType::kRead;
    futures.push_back(node.submit(read_req(i % 3, offsets[i], bufs[i], type)));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Response& r = futures[i].wait();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_FALSE(r.rejected);
    EXPECT_EQ(r.bytes, bufs[i].size());
    EXPECT_EQ(0, std::memcmp(bufs[i].data(), data.data() + offsets[i], bufs[i].size()));
  }

  const auto st = node.stats();
  EXPECT_EQ(st.reads + st.scans, 48u);
  EXPECT_EQ(st.failed_requests, 0u);
  EXPECT_EQ(st.read_latency.count() + st.scan_latency.count(), 48u);
  EXPECT_GT(st.read_latency.percentile_nanos(99), 0u);
  node.stop();
}

TEST(ServiceTest, WriteUpdatesStoreAndManifest) {
  TempDir dir("write");
  auto data = encode_store(dir, 40'000, 2);

  Codec codec(kCfg);
  StorageNode node(codec, store_dir(dir), {.tenants = 2, .workers = 2});
  node.start();
  const std::size_t stripe_data = node.stripe_data_bytes();
  const std::size_t stripes = node.store().stripes;
  ASSERT_GE(stripes, 2u);

  // Rewrite stripe 1 and the (possibly short) tail stripe.
  Rng rng(9);
  for (const std::size_t s : {std::size_t{1}, stripes - 1}) {
    const std::size_t len = std::min(stripe_data, data.size() - s * stripe_data);
    std::vector<std::uint8_t> fresh(len);
    rng.fill(fresh);
    const Response r = node.submit(write_req(0, s, fresh)).wait();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.bytes, len);
    std::memcpy(data.data() + s * stripe_data, fresh.data(), len);
  }

  // Served reads see the new bytes immediately.
  std::vector<std::uint8_t> got(data.size());
  ASSERT_TRUE(node.submit(read_req(1, 0, got)).wait().ok);
  EXPECT_EQ(got, data);
  node.stop();

  // The re-saved manifest verifies end-to-end through a fresh decode.
  Codec codec2(kCfg);
  IoPipeline pipeline(codec2, {.symbol_bytes = kSymbol});
  const auto st = pipeline.decode_file(store_dir(dir), (dir.path / "out.bin").string());
  ASSERT_TRUE(st.ok) << st.error;
  std::ifstream in(dir.path / "out.bin", std::ios::binary);
  std::vector<std::uint8_t> decoded{std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>()};
  EXPECT_EQ(decoded, data);
}

TEST(ServiceTest, DrainRestartRoundTripsByteIdentically) {
  TempDir dir("restart");
  auto data = encode_store(dir, 30'000, 3);

  {
    Codec codec(kCfg);
    StorageNode node(codec, store_dir(dir), {.tenants = 2, .workers = 2});
    node.start();
    const std::size_t stripe_data = node.stripe_data_bytes();
    std::vector<std::uint8_t> fresh(std::min(stripe_data, data.size()));
    Rng(11).fill(fresh);
    ASSERT_TRUE(node.submit(write_req(0, 0, fresh)).wait().ok);
    std::memcpy(data.data(), fresh.data(), fresh.size());
    node.drain();
    // A drained node rejects new work but still answers stats.
    const Response r = node.submit(read_req(0, 0, fresh)).wait();
    EXPECT_TRUE(r.rejected);
    node.stop();
  }

  // A new node on the same directory serves the written bytes.
  Codec codec(kCfg);
  StorageNode node(codec, store_dir(dir), {.tenants = 1, .workers = 2});
  node.start();
  std::vector<std::uint8_t> got(data.size());
  const Response r = node.submit(read_req(0, 0, got)).wait();
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(got, data);
  node.stop();
}

// --- admission control -------------------------------------------------------

TEST(ServiceTest, MalformedRequestsFailWithoutRejecting) {
  TempDir dir("shape");
  encode_store(dir, 20'000, 4);
  Codec codec(kCfg);
  StorageNode node(codec, store_dir(dir), {.tenants = 2, .workers = 2});
  node.start();

  std::vector<std::uint8_t> buf(64);
  // Read past EOF: understood, refused, not a backpressure reject.
  const Response past = node.submit(read_req(0, node.store().file_size - 8, buf)).wait();
  EXPECT_FALSE(past.ok);
  EXPECT_FALSE(past.rejected);

  // Write with the wrong payload size.
  const Response bad_len =
      node.submit(write_req(0, 0, std::span<const std::uint8_t>(buf.data(), 64))).wait();
  EXPECT_FALSE(bad_len.ok);
  EXPECT_FALSE(bad_len.rejected);

  // Write to a stripe the store doesn't have.
  const Response bad_stripe =
      node.submit(write_req(0, node.store().stripes + 3, buf)).wait();
  EXPECT_FALSE(bad_stripe.ok);

  // Tenant out of range is a caller bug: loud throw, not a Response.
  EXPECT_THROW(node.submit(read_req(99, 0, buf)), std::runtime_error);

  // Zero-length reads complete immediately.
  EXPECT_TRUE(node.submit(read_req(0, 0, std::span<std::uint8_t>())).wait().ok);
  node.stop();
}

// offset + size can wrap past 2^64 to a small sum that looks in range; the
// node must refuse such a read at admission and keep serving, not compute a
// stripe span from the wrapped end.
TEST(ServiceTest, ReadRangeWrappingPast2To64FailsCleanly) {
  TempDir dir("wrap");
  const auto data = encode_store(dir, 20'000, 15);
  Codec codec(kCfg);
  StorageNode node(codec, store_dir(dir), {.tenants = 1, .workers = 1});
  node.start();

  std::vector<std::uint8_t> buf(16);
  const std::uint64_t wraps = ~std::uint64_t{0} - (buf.size() - 1);  // 2^64 - 16
  for (const RequestType type : {RequestType::kRead, RequestType::kScan}) {
    const Response r = node.submit(read_req(0, wraps, buf, type)).wait();
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.rejected);
    EXPECT_EQ(r.error, "read past end of file");
  }

  const Response next = node.submit(read_req(0, 100, buf)).wait();
  ASSERT_TRUE(next.ok) << next.error;
  EXPECT_EQ(0, std::memcmp(buf.data(), data.data() + 100, buf.size()));
  node.stop();
}

TEST(ServiceTest, FullQueueRejectsFastAndStaysBounded) {
  TempDir dir("bounded");
  encode_store(dir, 30'000, 5);

  Codec codec(kCfg);
  // One worker and a tiny queue: the flood must hit the bound immediately.
  StorageNode node(codec, store_dir(dir),
                   {.tenants = 2, .queue_capacity = 4, .workers = 1});
  node.start();

  constexpr int kFlood = 600;
  std::size_t rejected = 0;
  std::atomic<std::size_t> max_depth{0};
  std::atomic<bool> stop_sampler{false};
  std::vector<std::uint8_t> scratch(256);

  std::thread sampler([&] {
    while (!stop_sampler.load(std::memory_order_relaxed)) {
      const auto st = node.stats();
      std::size_t prev = max_depth.load();
      while (st.queue_depth > prev &&
             !max_depth.compare_exchange_weak(prev, st.queue_depth)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  std::vector<StorageNode::Future> futures;
  futures.reserve(kFlood);
  const auto flood_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kFlood; ++i)
    futures.push_back(node.submit(read_req(i % 2, 0, scratch)));
  const double flood_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - flood_start)
          .count();

  for (auto& f : futures)
    if (f.wait().rejected) ++rejected;
  stop_sampler.store(true);
  sampler.join();

  // Most of the flood bounced, and none of it blocked the submitter: 600
  // admissions against a depth-8 system return fast because a full queue
  // answers immediately instead of waiting for service progress.
  EXPECT_GT(rejected, std::size_t{kFlood / 2});
  EXPECT_LT(flood_seconds, 5.0);
  // The admission bound held: tenants * capacity is the queue ceiling.
  EXPECT_LE(max_depth.load(), 2u * 4u);

  const auto st = node.stats();
  EXPECT_EQ(st.tenants[0].rejected + st.tenants[1].rejected, rejected);
  EXPECT_EQ(st.tenants[0].submitted + st.tenants[1].submitted,
            static_cast<std::uint64_t>(kFlood));
  node.stop();
}

// --- fairness + priority -----------------------------------------------------

TEST(ServiceTest, FloodingTenantCannotStarveAnother) {
  TempDir dir("fairness");
  const auto data = encode_store(dir, 60'000, 6);

  Codec codec(kCfg);
  StorageNode node(codec, store_dir(dir),
                   {.tenants = 2, .queue_capacity = 16, .workers = 2});
  node.start();

  std::atomic<bool> stop_flood{false};
  std::thread flooder([&] {
    // One buffer per in-flight request: the buffer contract forbids two
    // concurrently serviced reads scattering into the same output span.
    std::vector<std::vector<std::uint8_t>> bufs(
        64, std::vector<std::uint8_t>(2048));
    std::vector<StorageNode::Future> inflight;
    while (!stop_flood.load(std::memory_order_relaxed)) {
      inflight.push_back(node.submit(read_req(0, 0, bufs[inflight.size()])));
      if (inflight.size() >= 64) {
        for (auto& f : inflight) f.wait();
        inflight.clear();
      }
    }
    for (auto& f : inflight) f.wait();
  });

  // The victim runs closed-loop: one read at a time, so its queue depth
  // never exceeds 1 and admission can never bounce it.
  std::vector<std::uint8_t> buf(1024);
  double max_seconds = 0.0;
  for (int i = 0; i < 40; ++i) {
    const std::uint64_t off = (i * 997) % (data.size() - buf.size());
    const Response r = node.submit(read_req(1, off, buf)).wait();
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_FALSE(r.rejected);
    max_seconds = std::max(max_seconds, r.queue_seconds + r.service_seconds);
    EXPECT_EQ(0, std::memcmp(buf.data(), data.data() + off, buf.size()));
  }
  stop_flood.store(true);
  flooder.join();

  const auto st = node.stats();
  EXPECT_EQ(st.tenants[1].rejected, 0u);
  EXPECT_GE(st.tenants[1].completed, 40u);
  // Round-robin bounds the victim's wait to its place in the round, not the
  // flooder's backlog: a starved victim would sit behind ~16 queued reads
  // per request. Generous wall-clock bound to stay robust on loaded CI.
  EXPECT_LT(max_seconds, 5.0);
  node.stop();
}

TEST(ServiceTest, QueuedReadsDispatchAheadOfQueuedScans) {
  TempDir dir("priority");
  const auto data = encode_store(dir, 60'000, 7);

  Codec codec(kCfg);
  StorageNode node(codec, store_dir(dir),
                   {.tenants = 1, .queue_capacity = 64, .workers = 1, .batch_limit = 1});
  node.start();

  // Occupy the single worker, then queue scans BEFORE reads. Priority must
  // dispatch every queued read ahead of every queued scan regardless.
  std::vector<std::uint8_t> big(data.size());
  auto blocker = node.submit(read_req(0, 0, big));

  std::vector<std::vector<std::uint8_t>> bufs(12, std::vector<std::uint8_t>(512));
  std::vector<StorageNode::Future> scans, reads;
  for (int i = 0; i < 6; ++i)
    scans.push_back(node.submit(read_req(0, i * 1024, bufs[i], RequestType::kScan)));
  for (int i = 0; i < 6; ++i)
    reads.push_back(node.submit(read_req(0, i * 2048, bufs[6 + i])));

  blocker.wait();
  double scan_queue_min = 1e9, read_queue_max = 0.0;
  for (auto& f : scans) scan_queue_min = std::min(scan_queue_min, f.wait().queue_seconds);
  for (auto& f : reads) read_queue_max = std::max(read_queue_max, f.wait().queue_seconds);

  // Scans were admitted earlier yet dispatched later than every read, so
  // each scan's queue time strictly dominates each read's.
  EXPECT_GT(scan_queue_min, read_queue_max * 0.99);
  node.stop();
}

TEST(ServiceTest, BackloggedReadsCoalesceIntoSharedSubmissions) {
  TempDir dir("batch");
  const auto data = encode_store(dir, 60'000, 8);

  Codec codec(kCfg);
  StorageNode node(codec, store_dir(dir),
                   {.tenants = 2, .queue_capacity = 64, .workers = 1,
                    .batch_limit = 8, .batch_min_backlog = 1});
  node.start();
  const std::size_t stripe_data = node.stripe_data_bytes();
  ASSERT_GT(data.size(), 2 * stripe_data) << "need at least two full stripes";

  // Occupy the worker so a backlog of same-stripe reads builds behind it.
  std::vector<std::uint8_t> big(data.size());
  auto blocker = node.submit(read_req(0, 0, big));

  std::vector<std::vector<std::uint8_t>> bufs(24, std::vector<std::uint8_t>(128));
  std::vector<std::uint64_t> offsets;
  std::vector<StorageNode::Future> futures;
  for (int i = 0; i < 24; ++i) {
    // All inside stripe 1's span, from both tenants.
    const std::uint64_t off = stripe_data + (i * 131) % (stripe_data - 128);
    offsets.push_back(off);
    futures.push_back(node.submit(read_req(i % 2, off, bufs[i])));
  }
  blocker.wait();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Response& r = futures[i].wait();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(0, std::memcmp(bufs[i].data(), data.data() + offsets[i], bufs[i].size()));
  }

  const auto st = node.stats();
  EXPECT_GT(st.batched_reads, 0u);
  EXPECT_EQ(st.batched_reads, st.tenants[0].batched + st.tenants[1].batched);
  node.stop();
}

// --- degraded serving + scrub integration ------------------------------------

TEST(ServiceTest, ServesDegradedReadsThroughDeviceLoss) {
  TempDir dir("degraded");
  const auto data = encode_store(dir, 40'000, 9);
  fs::remove(StripeStore::device_path(store_dir(dir), 2));

  Codec codec(kCfg);
  StorageNode node(codec, store_dir(dir), {.tenants = 1, .workers = 2});
  node.start();

  std::vector<std::uint8_t> got(data.size());
  const Response r = node.submit(read_req(0, 0, got)).wait();
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(got, data);
  EXPECT_GT(r.degraded_stripes, 0u);
  EXPECT_GT(node.stats().degraded_reads, 0u);
  node.stop();
}

TEST(ServiceTest, ScrubsAndRepairsWhileServing) {
  TempDir dir("scrub");
  const auto data = encode_store(dir, 40'000, 10);

  // Rot a few sectors of one device before the node comes up.
  rot_bytes(StripeStore::device_path(store_dir(dir), 1), 100, 64);

  Codec codec(kCfg);
  StorageNode::Options opts{.tenants = 2, .workers = 2, .scrub = true};
  opts.scrub_options.stripes_in_flight = 2;
  opts.scrub_options.max_stall = std::chrono::milliseconds(1);
  StorageNode node(codec, store_dir(dir), opts);
  node.start();

  // Foreground load while scrub hunts: every read must still verify.
  std::vector<std::uint8_t> buf(4096);
  for (int i = 0; i < 60; ++i) {
    const std::uint64_t off = (i * 613) % (data.size() - buf.size());
    const Response r = node.submit(read_req(i % 2, off, buf)).wait();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(0, std::memcmp(buf.data(), data.data() + off, buf.size()));
  }
  // Give the scrubber a window to finish at least one repairing pass.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (node.stats().scrub.sectors_repaired == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  node.drain();

  const auto st = node.stats();
  EXPECT_GT(st.scrub.stripes_scanned, 0u);
  EXPECT_GT(st.scrub.sectors_repaired, 0u);
  EXPECT_EQ(st.failed_requests, 0u);
  node.stop();

  // The repaired, re-saved store decodes clean.
  Codec codec2(kCfg);
  IoPipeline pipeline(codec2, {.symbol_bytes = kSymbol});
  const auto dst = pipeline.decode_file(store_dir(dir), (dir.path / "out.bin").string());
  EXPECT_TRUE(dst.ok) << dst.error;
  EXPECT_EQ(dst.degraded_stripes, 0u) << "scrub should have healed the rot";
}

// The node's scrubber verifies against the node's live checksums and never
// saves the manifest, so a repair elsewhere in the store cannot roll back a
// write that landed mid-pass. The decode reads the store as it sits on disk,
// not drained: what a crash at that moment would leave.
TEST(ServiceTest, ScrubRepairNeverRollsBackANodeWrite) {
  TempDir dir("scrub_rollback");
  Codec codec(kCfg);
  const std::size_t stripe_data = codec.code().data_symbol_count() * kSymbol;
  auto data = encode_store(dir, 23 * stripe_data, 17);
  // One rotted sector in stripe 22, the last one a pass reaches.
  rot_bytes(StripeStore::device_path(store_dir(dir), 2),
            StripeStore::load(store_dir(dir)).chunk_offset(22) + kSymbol, 64);

  // Paced so the pass is still walking when the write lands.
  StorageNode::Options opts{.tenants = 1, .workers = 2, .scrub = true};
  opts.scrub_options.rate_mbps = 0.3;
  opts.scrub_options.burst_bytes = 0.0;
  StorageNode node(codec, store_dir(dir), opts);
  node.start();
  std::vector<std::uint8_t> fresh(stripe_data);
  Rng(18).fill(fresh);
  const Response w = node.submit(write_req(0, 11, fresh)).wait();
  ASSERT_TRUE(w.ok) << w.error;
  std::memcpy(data.data() + 11 * stripe_data, fresh.data(), stripe_data);

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (node.stats().scrub.sectors_repaired == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const ScrubReport rep = node.stats().scrub;
  EXPECT_GT(rep.sectors_repaired, 0u);
  EXPECT_EQ(rep.stripes_unrecoverable, 0u);

  Codec codec2(kCfg);
  IoPipeline pipeline(codec2, {.symbol_bytes = kSymbol});
  const auto st = pipeline.decode_file(store_dir(dir), (dir.path / "out.bin").string());
  EXPECT_TRUE(st.ok) << st.error;
  std::ifstream in(dir.path / "out.bin", std::ios::binary);
  const std::vector<std::uint8_t> decoded{std::istreambuf_iterator<char>(in),
                                          std::istreambuf_iterator<char>()};
  EXPECT_EQ(decoded, data);
  node.stop();
}

// Before each stripe the scrubber yields to foreground work for up to
// max_stall, while the stripe it issued last is still shared-locked. That
// stripe must retire without waiting for the walk thread, or a write to it
// waits out the whole stall the write itself caused. With one stripe in
// flight and a 2 s stall, rewriting each stripe in turn never takes 1 s.
TEST(ServiceTest, ScrubYieldingToAWriteDoesNotHoldItsStripe) {
  TempDir dir("scrub_yield");
  Codec codec(kCfg);
  const std::size_t stripe_data = codec.code().data_symbol_count() * kSymbol;
  encode_store(dir, 4 * stripe_data, 23);

  StorageNode::Options opts{.tenants = 1, .workers = 2, .scrub = true};
  opts.scrub_options.stripes_in_flight = 1;
  opts.scrub_options.max_stall = std::chrono::seconds(2);
  StorageNode node(codec, store_dir(dir), opts);
  node.start();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (node.stats().scrub.stripes_scanned == 0 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  std::vector<std::uint8_t> fresh(stripe_data);
  Rng(24).fill(fresh);
  for (std::size_t i = 0; i < 24; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const Response w = node.submit(write_req(0, i % 4, fresh)).wait();
    ASSERT_TRUE(w.ok) << w.error;
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1))
        << "write " << i << " to stripe " << i % 4;
  }
  node.drain();
  EXPECT_GT(node.stats().scrub.stripes_scanned, 0u);
  node.stop();
}

// --- races the sanitizers watch ----------------------------------------------

// An unpaced node scrubber walks an undamaged store while one client
// rewrites stripes 0-2 with alternating versions and another reads stripe
// 0. The scrubber holds each stripe shared from its reads to its retirement
// and verifies against the live checksums, so it never sees a write half
// done: nothing corrupt, nothing to repair. Every read is a whole version.
TEST(ServiceTest, ScrubRacingNodeWritesFindsNothingToRepair) {
  TempDir dir("scrub_race");
  Codec codec(kCfg);
  const std::size_t stripe_data = codec.code().data_symbol_count() * kSymbol;
  const auto data = encode_store(dir, 6 * stripe_data, 19);

  StorageNode::Options opts{.tenants = 2, .workers = 3, .scrub = true};
  opts.scrub_options.max_stall = std::chrono::milliseconds(1);
  StorageNode node(codec, store_dir(dir), opts);
  node.start();

  std::vector<std::vector<std::uint8_t>> versions(2, std::vector<std::uint8_t>(stripe_data));
  Rng(20).fill(versions[0]);
  Rng(21).fill(versions[1]);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (std::size_t round = 0; !stop.load(std::memory_order_relaxed); ++round)
      for (std::size_t s = 0; s < 3; ++s) {
        const Response r = node.submit(write_req(0, s, versions[round % 2])).wait();
        EXPECT_TRUE(r.ok) << r.error;
      }
  });

  const std::vector<std::uint8_t> original(data.begin(),
                                           data.begin() + static_cast<std::ptrdiff_t>(stripe_data));
  std::vector<std::uint8_t> buf(stripe_data);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (int i = 0; i < 40 || (node.stats().scrub.stripes_scanned < 3 * 6 &&
                             std::chrono::steady_clock::now() < deadline);
       ++i) {
    const Response r = node.submit(read_req(1, 0, buf)).wait();
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(buf == original || buf == versions[0] || buf == versions[1])
        << "torn read at iteration " << i;
  }
  stop.store(true);
  writer.join();
  node.drain();

  const ScrubReport rep = node.stats().scrub;
  EXPECT_GE(rep.stripes_scanned, 3u * 6);
  EXPECT_EQ(rep.sectors_corrupt, 0u);
  EXPECT_EQ(rep.stripes_unrecoverable, 0u);
  EXPECT_EQ(rep.sectors_repaired, 0u);
  node.stop();

  Codec codec2(kCfg);
  IoPipeline pipeline(codec2, {.symbol_bytes = kSymbol});
  const auto st = pipeline.decode_file(store_dir(dir), (dir.path / "out.bin").string());
  EXPECT_TRUE(st.ok) << st.error;
  EXPECT_EQ(st.degraded_stripes, 0u);
}

TEST(ServiceTest, ConcurrentReadersAndWriterStayConsistent) {
  TempDir dir("rw_race");
  const auto data = encode_store(dir, 40'000, 11);

  Codec codec(kCfg);
  StorageNode node(codec, store_dir(dir), {.tenants = 2, .workers = 3});
  node.start();
  const std::size_t stripe_data = node.stripe_data_bytes();
  const std::size_t len = std::min(stripe_data, data.size());

  std::vector<std::uint8_t> fresh(len);
  Rng(13).fill(fresh);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const Response r = node.submit(write_req(0, 0, fresh)).wait();
      EXPECT_TRUE(r.ok) << r.error;
    }
  });

  // Readers of the contested stripe must always see a whole version — the
  // original or the rewrite — never a tear (which the range lock prevents
  // and the sector checksums would unmask as a failed read).
  std::vector<std::uint8_t> buf(len);
  for (int i = 0; i < 30; ++i) {
    const Response r = node.submit(read_req(1, 0, buf)).wait();
    ASSERT_TRUE(r.ok) << r.error;
    const bool is_old = std::memcmp(buf.data(), data.data(), len) == 0;
    const bool is_new = std::memcmp(buf.data(), fresh.data(), len) == 0;
    EXPECT_TRUE(is_old || is_new) << "torn read at iteration " << i;
  }
  stop.store(true);
  writer.join();
  node.stop();
}

// --- env knobs ---------------------------------------------------------------

TEST(ServiceTest, EnvOverridesParseLoudly) {
  ::setenv("STAIR_NODE_TENANTS", "7", 1);
  ::setenv("STAIR_NODE_QUEUE", "128", 1);
  ::setenv("STAIR_NODE_WORKERS", "3", 1);
  ::setenv("STAIR_NODE_BATCH", "4", 1);
  ::setenv("STAIR_NODE_SCRUB", "yes", 1);
  auto opts = node_options_from_env();
  EXPECT_EQ(opts.tenants, 7u);
  EXPECT_EQ(opts.queue_capacity, 128u);
  EXPECT_EQ(opts.workers, 3u);
  EXPECT_EQ(opts.batch_limit, 4u);
  EXPECT_TRUE(opts.scrub);

  // Digits only: a sign would wrap to 2^64 - 1, and a space is a typo.
  for (const char* bad : {"-1", " 4"}) {
    for (const char* knob : {"STAIR_NODE_QUEUE", "STAIR_NODE_WORKERS"}) {
      const std::string good = std::getenv(knob);
      ::setenv(knob, bad, 1);
      EXPECT_THROW(node_options_from_env(), std::runtime_error) << knob << "='" << bad << "'";
      ::setenv(knob, good.c_str(), 1);
    }
  }
  // At most 1024, the STAIR_THREADS backstop: start() would size a stripe's
  // staging per worker and start a thread each. Parsing starts neither.
  for (const char* knob : {"STAIR_NODE_TENANTS", "STAIR_NODE_WORKERS"}) {
    const std::string good = std::getenv(knob);
    ::setenv(knob, "1025", 1);
    EXPECT_THROW(node_options_from_env(), std::runtime_error) << knob;
    ::setenv(knob, "1024", 1);
    EXPECT_NO_THROW(node_options_from_env()) << knob;
    ::setenv(knob, good.c_str(), 1);
  }

  ::setenv("STAIR_NODE_TENANTS", "lots", 1);
  EXPECT_THROW(node_options_from_env(), std::runtime_error);
  ::setenv("STAIR_NODE_TENANTS", "0", 1);
  EXPECT_THROW(node_options_from_env(), std::runtime_error);
  ::unsetenv("STAIR_NODE_TENANTS");
  ::setenv("STAIR_NODE_SCRUB", "maybe", 1);
  EXPECT_THROW(node_options_from_env(), std::runtime_error);

  ::unsetenv("STAIR_NODE_QUEUE");
  ::unsetenv("STAIR_NODE_WORKERS");
  ::unsetenv("STAIR_NODE_BATCH");
  ::unsetenv("STAIR_NODE_SCRUB");
}

// A node that builds its own engine resolves the backend exactly like
// IoPipeline and Scrubber do: through STAIR_IO_BACKEND, so a misspelled
// value fails start() loudly instead of silently picking io_uring.
TEST(ServiceTest, NodeHonorsIoBackendEnv) {
  TempDir dir("backend_env");
  encode_store(dir, 20'000, 14);
  const char* prev = std::getenv("STAIR_IO_BACKEND");
  const std::string saved = prev ? prev : "";
  ::setenv("STAIR_IO_BACKEND", "bogus", 1);

  Codec codec(kCfg);
  EXPECT_THROW(IoPipeline(codec, {.symbol_bytes = kSymbol}), std::runtime_error);
  StorageNode node(codec, store_dir(dir), {.tenants = 1, .workers = 1});
  EXPECT_THROW(node.start(), std::runtime_error);
  EXPECT_FALSE(node.started());

  if (prev)
    ::setenv("STAIR_IO_BACKEND", saved.c_str(), 1);
  else
    ::unsetenv("STAIR_IO_BACKEND");
}

// STAIR_IO_SQPOLL reaches every layer that builds its own engine, exactly
// like STAIR_IO_BACKEND: a misspelled value fails loudly instead of quietly
// running without the submission poller it asked for.
TEST(ServiceTest, EveryLayerHonorsIoSqpollEnv) {
  TempDir dir("sqpoll_env");
  encode_store(dir, 20'000, 16);
  const char* prev = std::getenv("STAIR_IO_SQPOLL");
  const std::string saved = prev ? prev : "";
  ::setenv("STAIR_IO_SQPOLL", "bogus", 1);

  Codec codec(kCfg);
  EXPECT_THROW(IoPipeline(codec, {.symbol_bytes = kSymbol}), std::runtime_error);
  EXPECT_THROW(Scrubber(codec, ScrubOptions{}), std::runtime_error);
  StorageNode node(codec, store_dir(dir), {.tenants = 1, .workers = 1});
  EXPECT_THROW(node.start(), std::runtime_error);
  EXPECT_FALSE(node.started());

  if (prev)
    ::setenv("STAIR_IO_SQPOLL", saved.c_str(), 1);
  else
    ::unsetenv("STAIR_IO_SQPOLL");
}

}  // namespace
}  // namespace stair
