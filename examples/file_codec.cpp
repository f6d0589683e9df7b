// file_codec: STAIR-protect a real file across per-device chunk files.
//
//   $ ./file_codec encode <input> <dir> [n=8] [r=16] [m=2] [e=1,2]
//   $ ./file_codec damage <dir> <device> [device...]
//   $ ./file_codec corrupt <dir> <device> <stripe> [bytes=256]
//   $ ./file_codec decode <dir> <output>
//   $ ./file_codec            # self-demo: encode -> damage+corrupt -> decode
//
// encode splits the input into stripes and writes a StripeStore: one
// dev_NN.bin per device plus a manifest with per-chunk checksums. damage
// deletes whole device files (device failures); corrupt scribbles over one
// chunk (a torn write / latent sector error, caught by the checksums).
// decode reconstructs the original file from whatever survives, serving
// damaged stripes through the Codec session's plan cache — the degraded-read
// path. A malformed number, arguments that make no valid code, or a chunk
// the store does not have print usage and exit 2.
//
// All file IO runs through the async stripe-IO pipeline (stair/io_pipeline.h):
// chunk reads/writes for stripe k+d overlap the coding work for stripe k
// through a bounded ring of leased stripe slots, on the io_uring backend when
// the kernel offers it (STAIR_IO_BACKEND=threads|uring|auto overrides). This
// replaced the example's original hand-rolled ring, whose slots kept
// workspace leases across stripe boundaries; the pipeline's slots are leased
// per stripe and every workspace passes the session's owner-generation check.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "stair/io_pipeline.h"
#include "util/rng.h"

#include "cli_args.h"

namespace fs = std::filesystem;
using namespace stair;

namespace {

constexpr std::size_t kSymbolBytes = 4096;

void print_stats(const char* op, const IoPipeline::Stats& st, io::Backend backend) {
  std::printf("%s: %zu stripes (%zu degraded, %zu unrecoverable), "
              "%zu chunks missing, %zu sectors corrupt, %.1f MB read, %.1f MB written [%s IO]\n",
              op, st.stripes, st.degraded_stripes, st.failed_stripes, st.chunks_missing,
              st.sectors_corrupt, st.bytes_read / (1024.0 * 1024.0),
              st.bytes_written / (1024.0 * 1024.0), io::backend_name(backend));
  if (!st.ok) std::fprintf(stderr, "%s failed: %s\n", op, st.error.c_str());
}

int cmd_encode(const fs::path& input, const fs::path& dir, StairConfig cfg) {
  cfg.w = std::max(cfg.minimum_w(), 8);
  cfg.validate();
  Codec codec(cfg);
  IoPipeline pipeline(codec, {.symbol_bytes = kSymbolBytes});
  const IoPipeline::Stats st = pipeline.encode_file(input.string(), dir.string());
  print_stats("encode", st, pipeline.engine().backend());
  if (st.ok)
    std::printf("encoded into %zu stripes across %zu device files (%s)\n", st.stripes,
                cfg.n, cfg.to_string().c_str());
  return st.ok ? 0 : 1;
}

int cmd_damage(const fs::path& dir, const std::vector<std::size_t>& devices) {
  for (std::size_t j : devices) {
    const std::string path = StripeStore::device_path(dir.string(), j);
    if (fs::remove(path))
      std::printf("destroyed device %zu (%s)\n", j, path.c_str());
    else
      std::printf("device %zu already missing\n", j);
  }
  return 0;
}

int cmd_corrupt(const fs::path& dir, std::size_t device, std::size_t stripe,
                std::size_t bytes) {
  const StripeStore store = StripeStore::load(dir.string());
  if (device >= store.cfg.n || stripe >= store.stripes)
    throw std::invalid_argument("no chunk (stripe " + std::to_string(stripe) + ", device " +
                                std::to_string(device) + ") in a store of " +
                                std::to_string(store.stripes) + " stripes on " +
                                std::to_string(store.cfg.n) + " devices");
  const std::string path = StripeStore::device_path(dir.string(), device);
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  bytes = std::min(bytes, store.chunk_bytes());
  std::vector<std::uint8_t> garbage(bytes);
  Rng rng(stripe * 1000 + device);
  rng.fill(garbage);
  f.seekp(static_cast<std::streamoff>(store.chunk_offset(stripe)));
  f.write(reinterpret_cast<const char*>(garbage.data()),
          static_cast<std::streamsize>(garbage.size()));
  std::printf("corrupted %zu bytes of chunk (stripe %zu, device %zu) in %s\n", bytes,
              stripe, device, path.c_str());
  return 0;
}

int cmd_decode(const fs::path& dir, const fs::path& output) {
  const StripeStore store = StripeStore::load(dir.string());
  Codec codec(store.cfg);
  IoPipeline pipeline(codec);
  const IoPipeline::Stats st = pipeline.decode_file(dir.string(), output.string());
  print_stats("decode", st, pipeline.engine().backend());
  if (st.ok)
    std::printf("recovered %zu bytes to %s (checksums verified)\n", store.file_size,
                output.string().c_str());
  return st.ok ? 0 : 1;
}

int self_demo() {
  const fs::path dir = fs::temp_directory_path() / "stair_file_codec_demo";
  fs::remove_all(dir);
  fs::create_directories(dir);

  // A 1.5 MB random file.
  const fs::path input = dir / "original.bin";
  std::vector<std::uint8_t> bytes(3 * 512 * 1024 / 2);
  {
    Rng rng(99);
    rng.fill(bytes);
    std::ofstream out(input, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  const fs::path store = dir / "store";
  if (cmd_encode(input, store, {.n = 8, .r = 16, .m = 2, .e = {1, 2}})) return 1;
  // One whole device lost, plus a torn chunk on a surviving device: the mixed
  // device+sector pattern the paper's coverage exists for.
  if (cmd_damage(store, {6})) return 1;
  if (cmd_corrupt(store, 1, 0, 512)) return 1;
  const fs::path restored = dir / "restored.bin";
  if (cmd_decode(store, restored)) return 1;

  std::ifstream in(restored, std::ios::binary);
  std::vector<std::uint8_t> recovered((std::istreambuf_iterator<char>(in)),
                                      std::istreambuf_iterator<char>());
  if (recovered != bytes) {
    std::fprintf(stderr, "self-demo FAILED: restored bytes differ\n");
    return 1;
  }
  std::printf("self-demo passed; artifacts in %s\n", dir.string().c_str());
  return 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s encode <input> <dir> [n r m e] | damage <dir> <dev...> |\n"
               "       %s corrupt <dir> <dev> <stripe> [bytes] | %s decode <dir> <output> |\n"
               "       %s (self-demo)\n",
               argv0, argv0, argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return self_demo();
  const std::string cmd = argv[1];
  try {
    if (cmd == "encode" && argc >= 4) {
      StairConfig cfg{.n = 8, .r = 16, .m = 2, .e = {1, 2}};
      if (!read_arg(argc, argv, 4, &cfg.n) || !read_arg(argc, argv, 5, &cfg.r) ||
          !read_arg(argc, argv, 6, &cfg.m))
        return usage(argv[0]);
      if (argc > 7) cfg.e = parse_coverage_list(argv[7]);
      return cmd_encode(argv[2], argv[3], cfg);
    }
    if (cmd == "damage" && argc >= 4) {
      std::vector<std::size_t> devices;
      for (int i = 3; i < argc; ++i)
        if (!parse_number(argv[i], &devices.emplace_back())) return usage(argv[0]);
      return cmd_damage(argv[2], devices);
    }
    if (cmd == "corrupt" && argc >= 5) {
      std::size_t device = 0, stripe = 0, bytes = 256;
      if (!read_arg(argc, argv, 3, &device) || !read_arg(argc, argv, 4, &stripe) ||
          !read_arg(argc, argv, 5, &bytes))
        return usage(argv[0]);
      return cmd_corrupt(argv[2], device, stripe, bytes);
    }
    if (cmd == "decode" && argc >= 4) return cmd_decode(argv[2], argv[3]);
  } catch (const std::invalid_argument& e) {  // a bad coverage list, no code, no such chunk
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage(argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage(argv[0]);
}
