#include "stair/stripe_store.h"

#include <atomic>
#include <cerrno>
#include <charconv>
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

namespace stair {

std::vector<std::size_t> parse_coverage_list(const std::string& text) {
  std::vector<std::size_t> values;
  for (std::size_t pos = 0; !text.empty() && pos <= text.size();) {
    const std::size_t next = std::min(text.find(',', pos), text.size());
    // from_chars takes no sign, space or prefix; the whole token must parse.
    const char* end = text.data() + next;
    std::size_t value = 0;
    const auto [stop, err] = std::from_chars(text.data() + pos, end, value);
    if (err != std::errc{} || stop != end || next == pos)
      throw std::invalid_argument("coverage list '" + text + "': bad token '" +
                                  text.substr(pos, next - pos) + "'");
    values.push_back(value);
    pos = next + 1;
  }
  return values;
}

std::uint64_t content_hash64(std::span<const std::uint8_t> bytes) {
  // 8 input bytes per multiply+rotate round; sectors are hashed on the hot
  // pipeline path, so this must keep pace with the region kernels.
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ (bytes.size() * 0x100000001b3ULL);
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, bytes.data() + i, 8);
    h ^= w;
    h *= 0xff51afd7ed558ccdULL;
    h = (h << 31) | (h >> 33);
  }
  std::uint64_t tail = 0;
  for (int k = 0; i < bytes.size(); ++i, k += 8) tail |= std::uint64_t{bytes[i]} << k;
  h ^= tail ^ 0xc4ceb9fe1a85ec53ULL;
  h *= 0xc4ceb9fe1a85ec53ULL;
  return h ^ (h >> 29);
}

// Stripes retire out of order; folding their already-computed hashes in
// index order stays deterministic and never rereads content bytes.
std::uint64_t combine_hashes(std::span<const std::uint64_t> hashes) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(hashes.size() * 8);
  for (std::uint64_t h : hashes)
    for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<std::uint8_t>(h >> (8 * i)));
  return content_hash64(bytes);
}

std::vector<StripeStore::Position> StripeStore::data_positions(const StairLayout& layout) {
  std::vector<Position> positions;
  positions.reserve(layout.data_ids().size());
  for (std::uint32_t id : layout.data_ids())
    positions.emplace_back(layout.row_of(id), layout.col_of(id));
  return positions;
}

std::string StripeStore::config_mismatch(const StairConfig& codec_cfg) const {
  if (cfg == codec_cfg) return {};
  return "store config " + cfg.to_string() + " does not match codec config " +
         codec_cfg.to_string();
}

std::string StripeStore::device_path(const std::string& dir, std::size_t device) {
  char name[32];
  std::snprintf(name, sizeof name, "dev_%02zu.bin", device);
  return dir + "/" + name;
}

std::string StripeStore::manifest_path(const std::string& dir) {
  return dir + "/manifest.txt";
}

std::string StripeStore::manifest_header() const {
  std::ostringstream out;
  out << "stair_store 1\n"
      << "n " << cfg.n << "\nr " << cfg.r << "\nm " << cfg.m << "\ne ";
  for (std::size_t i = 0; i < cfg.e.size(); ++i) out << (i ? "," : "") << cfg.e[i];
  if (cfg.e.empty()) out << "-";
  out << "\nw " << cfg.w << "\nsymbol " << symbol_bytes << "\nblock " << block_bytes
      << "\nfile_size " << file_size << "\nstripes " << stripes << "\ndata_checksum "
      << data_checksum << "\n";
  return out.str();
}

std::string StripeStore::chunk_lines(std::size_t stripe) const {
  // Each line is "chunk" and r + 2 numbers, each a space and at most 20 digits.
  std::string wide(cfg.n * (6 + (cfg.r + 2) * 21), '\0');
  char* p = wide.data();
  const auto put = [&p](std::uint64_t value) {
    *p++ = ' ';
    p = std::to_chars(p, p + 20, value).ptr;
  };
  for (std::size_t j = 0; j < cfg.n; ++j) {
    p = std::copy_n("chunk", 5, p);
    put(stripe);
    put(j);
    for (std::size_t i = 0; i < cfg.r; ++i) put(sector_checksum(stripe, j, i));
    *p++ = '\n';
  }
  return std::string(wide.data(), p);  // exact size: a live store caches one per stripe
}

namespace {

/// writev of every byte `iov` covers, at most IOV_MAX entries a call,
/// resuming after a short write. False on a write error (errno set).
bool write_all(int fd, std::span<iovec> iov) {
  while (!iov.empty()) {
    const ssize_t n =
        ::writev(fd, iov.data(), static_cast<int>(std::min<std::size_t>(iov.size(), IOV_MAX)));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    auto done = static_cast<std::size_t>(n);
    for (; !iov.empty() && done >= iov.front().iov_len; iov = iov.subspan(1))
      done -= iov.front().iov_len;
    if (done > 0) {  // a short write stopped inside iov.front()
      iov.front().iov_base = static_cast<char*>(iov.front().iov_base) + done;
      iov.front().iov_len -= done;
    }
  }
  return true;
}

}  // namespace

void StripeStore::publish(const std::string& dir, const std::string& header,
                          std::span<const std::string> body) {
  // Write-aside + rename: the manifest is the store's recovery point, so it
  // must never be observable half-written. The temp name is unique per call
  // (concurrent savers each rename a complete file; last rename wins).
  static std::atomic<std::uint64_t> save_seq{0};
  const std::string path = manifest_path(dir);
  const std::string tmp =
      path + ".tmp" + std::to_string(save_seq.fetch_add(1, std::memory_order_relaxed)) +
      "." + std::to_string(static_cast<unsigned long>(::getpid()));
  std::vector<iovec> iov;
  iov.reserve(1 + body.size());
  iov.push_back({const_cast<char*>(header.data()), header.size()});
  for (const std::string& part : body)
    if (!part.empty()) iov.push_back({const_cast<char*>(part.data()), part.size()});
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) throw std::runtime_error("StripeStore: cannot write " + tmp);
  const bool written = write_all(fd, iov);
  if (::close(fd) != 0 || !written) {
    std::remove(tmp.c_str());
    throw std::runtime_error("StripeStore: write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("StripeStore: cannot publish " + path);
  }
}

void StripeStore::save(const std::string& dir) const {
  std::vector<std::string> lines;
  lines.reserve(stripes);
  for (std::size_t s = 0; s < stripes; ++s) lines.push_back(chunk_lines(s));
  publish(dir, manifest_header(), lines);
}

namespace {

[[noreturn]] void manifest_fail(const std::string& what) {
  throw ManifestError("StripeStore: manifest " + what);
}

/// Checked extraction: a truncated or garbled manifest must fail the parse,
/// not hand back a zero that happens to pass a later range check.
template <typename T>
T manifest_read(std::istream& in, const char* what) {
  T value;
  if (!(in >> value)) manifest_fail(std::string("truncated or garbled at ") + what);
  return value;
}

}  // namespace

StripeStore StripeStore::load(const std::string& dir) {
  std::ifstream in(manifest_path(dir));
  if (!in) manifest_fail("missing: " + manifest_path(dir));
  // Every value below is parse-checked as it is read, and the geometry is
  // overflow- and plausibility-checked *before* it sizes or indexes
  // sector_checksums: the unchecked (stripe * n + device) * r + row
  // arithmetic everywhere else relies on a loaded store being
  // self-consistent, so an adversarial manifest has to be stopped here.
  constexpr std::size_t kMaxSectors = std::size_t{1} << 32;  // 2^32 checksums = 32 GiB
  constexpr std::size_t kMaxBlock = std::size_t{1} << 24;    // caps block and symbol
  StripeStore store;
  std::size_t chunk_lines = 0;
  std::vector<bool> seen;
  auto check_geometry = [&store] {
    try {
      store.cfg.validate();
    } catch (const std::exception& e) {
      manifest_fail(std::string("geometry invalid: ") + e.what());
    }
    if (store.cfg.n > kMaxSectors / store.cfg.r ||
        store.stripes > kMaxSectors / (store.cfg.n * store.cfg.r))
      manifest_fail("geometry implausible (stripes * n * r overflows)");
  };
  std::string key;
  while (in >> key) {
    // The first chunk line sizes sector_checksums from the header above it,
    // so no header key may change the geometry after it.
    if (chunk_lines > 0 && key != "chunk")
      manifest_fail("header key '" + key + "' after chunk lines");
    if (key == "stair_store") {
      if (manifest_read<int>(in, "version") != 1) manifest_fail("version unsupported");
    } else if (key == "n") {
      store.cfg.n = manifest_read<std::size_t>(in, "n");
    } else if (key == "r") {
      store.cfg.r = manifest_read<std::size_t>(in, "r");
    } else if (key == "m") {
      store.cfg.m = manifest_read<std::size_t>(in, "m");
    } else if (key == "e") {
      const auto v = manifest_read<std::string>(in, "e");
      try {
        store.cfg.e = v == "-" ? std::vector<std::size_t>{} : parse_coverage_list(v);
      } catch (const std::invalid_argument& e) {
        manifest_fail(std::string("garbled at e: ") + e.what());
      }
    } else if (key == "w") {
      store.cfg.w = manifest_read<int>(in, "w");
    } else if (key == "symbol") {
      store.symbol_bytes = manifest_read<std::size_t>(in, "symbol");
      if (store.symbol_bytes > kMaxBlock) manifest_fail("symbol size implausible");
    } else if (key == "block") {
      // Layout block (padding stride). Absent in pre-raw-IO manifests, whose
      // stores are unpadded: block_bytes keeps its default of 1.
      store.block_bytes = manifest_read<std::size_t>(in, "block");
      if (store.block_bytes == 0) manifest_fail("block size zero");
      if (store.block_bytes > kMaxBlock) manifest_fail("block size implausible");
    } else if (key == "file_size") {
      store.file_size = manifest_read<std::size_t>(in, "file_size");
    } else if (key == "stripes") {
      store.stripes = manifest_read<std::size_t>(in, "stripes");
    } else if (key == "data_checksum") {
      store.data_checksum = manifest_read<std::uint64_t>(in, "data_checksum");
    } else if (key == "chunk") {
      // Header keys precede chunk lines (we write the manifest), so the
      // geometry is known — and validated — here, before the first index.
      if (store.cfg.n == 0 || store.cfg.r == 0) manifest_fail("chunk line before geometry");
      if (store.sector_checksums.empty()) {
        check_geometry();
        store.sector_checksums.assign(store.stripes * store.cfg.n * store.cfg.r, 0);
        seen.assign(store.stripes * store.cfg.n, false);
      }
      const auto s = manifest_read<std::size_t>(in, "chunk stripe");
      const auto j = manifest_read<std::size_t>(in, "chunk device");
      if (s >= store.stripes || j >= store.cfg.n) manifest_fail("chunk line out of range");
      if (seen[s * store.cfg.n + j]) manifest_fail("duplicate chunk line");
      seen[s * store.cfg.n + j] = true;
      ++chunk_lines;
      for (std::size_t i = 0; i < store.cfg.r; ++i)
        store.sector_checksums[(s * store.cfg.n + j) * store.cfg.r + i] =
            manifest_read<std::uint64_t>(in, "sector checksum");
    } else {
      manifest_fail("has unknown key '" + key + "'");
    }
  }
  if (in.bad()) manifest_fail("read failed: " + manifest_path(dir));
  check_geometry();
  if (store.symbol_bytes == 0) manifest_fail("missing symbol size");
  // Every reader sizes its copy-out by file_size and finds a stripe by
  // offset / stripe_data, so the two must agree: ceil(file_size /
  // stripe_data) stripes, 0 for an empty file. A store keeps its globals
  // inside the stripe; the caps above hold stripe_data below 2^56.
  const std::size_t stripe_data = store.cfg.data_symbols_inside() * store.symbol_bytes;
  if (store.stripes != store.file_size / stripe_data + (store.file_size % stripe_data != 0))
    manifest_fail("file_size " + std::to_string(store.file_size) + " does not fit " +
                  std::to_string(store.stripes) + " stripes");
  if (chunk_lines != store.stripes * store.cfg.n)
    manifest_fail("truncated: " + std::to_string(chunk_lines) + " of " +
                  std::to_string(store.stripes * store.cfg.n) + " chunk lines");
  return store;
}

}  // namespace stair
