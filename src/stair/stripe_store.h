// StripeStore — the on-disk stripe layout, and every rule that follows from
// it: where a chunk lives, how chunk files open, which sectors hold data,
// and how sector checksums fold into the store's data hashes.
//
// One dev_NN.bin per device (stripe k's chunk of device j at byte
// k * padded_chunk_bytes()), plus a manifest recording the config, the
// geometry, a checksum per stored sector, and a whole-file data hash.
// Checksums are what make degraded reads honest: a chunk that is missing,
// short, unreadable (EIO), or torn (checksum mismatch) is treated as erased
// for exactly the sectors it cannot vouch for.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "stair/stair_code.h"
#include "util/stripe_io.h"

namespace stair {

/// Parses a comma-separated coverage vector ("1,2" -> {1, 2}) — the format
/// both the manifest and file_codec's CLI use for `e`. A token that is not
/// plain decimal digits fitting a size_t ("1;2", "1x", "+1", "1,,2") throws
/// std::invalid_argument: a typo must not encode a different code.
std::vector<std::size_t> parse_coverage_list(const std::string& text);

/// What StripeStore::load throws for a missing or bad manifest: the store's
/// recovery point is gone, which callers count apart from other failures.
struct ManifestError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// 64-bit content hash over a byte span — the sector checksum. A serial
/// word-wise multiply-rotate chain: about 3.2–3.8 GiB/s on 4 KiB sectors
/// (perfbench's io_pipeline.hash_mbps on a 4-vCPU AVX-512 host), several
/// times slower than the SIMD region kernels. Deterministic for a given
/// platform endianness; plenty for torn-write/bit-rot detection, not a
/// cryptographic integrity layer.
std::uint64_t content_hash64(std::span<const std::uint8_t> bytes);

/// Fold of a sequence of 64-bit hashes (hashed as 8-byte LE words in
/// sequence order): the per-stripe data hash folds its data sectors' hashes,
/// the manifest's data_checksum folds the per-stripe hashes. Exposed so a
/// layer that rewrites stripes in place (the StorageNode write path) can
/// refresh the whole-file fold from the manifest's sector checksums without
/// re-reading content bytes.
std::uint64_t combine_hashes(std::span<const std::uint64_t> hashes);

/// The on-disk stripe store: per-device chunk files plus the manifest that
/// decode needs (config, geometry, per-sector checksums, whole-file check).
struct StripeStore {
  /// (row, device) of one stored symbol.
  using Position = std::pair<std::size_t, std::size_t>;

  StairConfig cfg;
  std::size_t symbol_bytes = 0;
  std::size_t file_size = 0;   // original file bytes (tail stripe is padded)
  std::size_t stripes = 0;
  /// Layout block size: each stripe's chunk row is padded to a multiple of
  /// this, so every chunk transfer is block-aligned in offset and length —
  /// the alignment O_DIRECT demands, solved once in the layout instead of
  /// per-IO. 1 = the legacy unpadded layout (manifests without a `block`
  /// line load as 1, so old stores keep working byte-for-byte).
  std::size_t block_bytes = 1;
  /// The block a padded (raw-device) store is encoded with: the device's
  /// logical block size, where 4096 covers 512e and 4Kn disks.
  static constexpr std::size_t kDirectBlockBytes = 4096;
  /// combine_hashes of the per-stripe data hashes in stripe order. The fold
  /// is order-dependent, so it runs once every stripe's hash is known.
  std::uint64_t data_checksum = 0;
  /// Checksum of each stored sector — symbol (row i, device j) of stripe k at
  /// [(k * cfg.n + j) * cfg.r + i]. Sector granularity is what lets decode
  /// erase exactly the torn/rotted sectors of a surviving device instead of
  /// writing off its whole chunk: the mixed device+sector failure patterns
  /// STAIR's coverage is about.
  std::vector<std::uint64_t> sector_checksums;

  std::size_t chunk_bytes() const { return cfg.r * symbol_bytes; }
  /// chunk_bytes rounded up to the layout block — the on-disk stride and
  /// transfer length for one stripe's chunk (pad bytes are written as zero).
  std::size_t padded_chunk_bytes() const {
    return (chunk_bytes() + block_bytes - 1) / block_bytes * block_bytes;
  }
  /// Byte offset of stripe `stripe`'s chunk within each device file.
  std::uint64_t chunk_offset(std::size_t stripe) const {
    return std::uint64_t{stripe} * padded_chunk_bytes();
  }
  /// Bytes [lo, hi) of a chunk one transfer of rows [first, last) covers:
  /// block-widened within the padded chunk, so rows [0, r) are all of it.
  std::pair<std::size_t, std::size_t> row_window(std::size_t first, std::size_t last) const {
    return {first * symbol_bytes / block_bytes * block_bytes,
            std::min(padded_chunk_bytes(),
                     (last * symbol_bytes + block_bytes - 1) / block_bytes * block_bytes)};
  }
  /// Alignment for chunk staging buffers: the layout block, at least a
  /// cache line (the region kernels' alignment).
  std::size_t staging_alignment() const { return std::max<std::size_t>(block_bytes, 64); }
  /// How chunk files open, decided by the layout alone: a padded store
  /// opens O_DIRECT (the engine falls back to buffered where the filesystem
  /// refuses), an unpadded one has no alignment to offer and stays buffered.
  io::OpenMode open_mode() const {
    return block_bytes > 1 ? io::OpenMode::kDirect : io::OpenMode::kBuffered;
  }
  /// Empty when the store was encoded with `codec_cfg`, else the error
  /// every layer reports before touching a chunk.
  std::string config_mismatch(const StairConfig& codec_cfg) const;
  std::uint64_t sector_checksum(std::size_t stripe, std::size_t device,
                                std::size_t row) const {
    return sector_checksums[(stripe * cfg.n + device) * cfg.r + row];
  }

  /// (row, device) of each data symbol in data order — the order
  /// set_data/get_data use, so data index d of stripe k holds original-file
  /// bytes [k * stripe_data + d * symbol, ... + symbol).
  static std::vector<Position> data_positions(const StairLayout& layout);
  /// A stripe's data hash: its data sectors' manifest checksums folded in
  /// data order.
  std::uint64_t stripe_data_hash(std::size_t stripe,
                                 std::span<const Position> positions) const {
    std::vector<std::uint64_t> hashes;
    hashes.reserve(positions.size());
    for (const auto& [row, dev] : positions) hashes.push_back(sector_checksum(stripe, dev, row));
    return combine_hashes(hashes);
  }

  static std::string device_path(const std::string& dir, std::size_t device);
  static std::string manifest_path(const std::string& dir);

  /// The manifest is manifest_header() and then chunk_lines(s) for every
  /// stripe s in order. The header holds one "key value" line per field.
  std::string manifest_header() const;
  /// Stripe `stripe`'s n lines, one per device j: "chunk <stripe> <j>" and
  /// its r sector checksums in row order, in decimal (std::to_chars).
  /// Exact-size, so a live store can keep one per stripe.
  std::string chunk_lines(std::size_t stripe) const;
  /// Writes `header` then `body`'s parts, in order, as `dir`'s
  /// manifest.txt: a unique temp file (mode 0666 & ~umask) written with
  /// writev, closed, then renamed over the manifest, so no reader sees one
  /// half-written. Nothing is synced, so that holds across a process crash
  /// only: after a power cut the rename may land without the new bytes.
  /// Throws std::runtime_error on IO failure, removing the temp file.
  static void publish(const std::string& dir, const std::string& header,
                      std::span<const std::string> body);
  /// Formats the whole manifest and publishes it into `dir`.
  void save(const std::string& dir) const;
  /// Loads and validates manifest.txt. Every field is parse-checked and
  /// bounds-checked before it is used to size or index sector_checksums: a
  /// truncated, garbled, or adversarial manifest throws ManifestError with a
  /// "manifest" message — never UB. (sector_checksum() itself stays
  /// unchecked; a loaded store is guaranteed self-consistent.)
  static StripeStore load(const std::string& dir);
};

}  // namespace stair
