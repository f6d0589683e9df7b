#include "gf/region.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstring>

#include "gf/kernel.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace stair::gf {

void xor_region(std::span<const std::uint8_t> src, std::span<std::uint8_t> dst) {
  assert(src.size() == dst.size());
  std::size_t i = 0;
  const std::size_t n = src.size();
  // Word-at-a-time XOR; compilers vectorize this loop readily.
  for (; i + 8 <= n; i += 8) {
    std::uint64_t a, b;
    std::memcpy(&a, src.data() + i, 8);
    std::memcpy(&b, dst.data() + i, 8);
    b ^= a;
    std::memcpy(dst.data() + i, &b, 8);
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

void mult_xor_region(const Field& f, std::uint32_t a,
                     std::span<const std::uint8_t> src, std::span<std::uint8_t> dst,
                     RegionLayout layout) {
  assert(src.size() == dst.size());
  if (a == 0 || src.empty()) return;
  if (a == 1) {
    xor_region(src, dst);
    return;
  }
  compiled_kernel(f, a)->mult_xor(src, dst, layout);
}

void mult_region(const Field& f, std::uint32_t a,
                 std::span<const std::uint8_t> src, std::span<std::uint8_t> dst,
                 RegionLayout layout) {
  assert(src.size() == dst.size());
  if (a == 0) {
    std::memset(dst.data(), 0, dst.size());
    return;
  }
  if (a == 1) {
    if (dst.data() != src.data()) std::memcpy(dst.data(), src.data(), src.size());
    return;
  }
  if (src.empty()) return;
  // The overwrite kernels never read dst, so exact aliasing (in-place scale)
  // is safe: every block is fully loaded before it is stored.
  compiled_kernel(f, a)->mult(src, dst, layout);
}

bool has_simd(int w) {
  if (active_backend() == Backend::kScalar) return false;
  // Standard-layout w = 32 is the scalar wide-table loop on every backend;
  // the width only vectorizes through altmap. w = 16 has a (partially
  // vectorized) standard SIMD kernel, so it counts in either layout.
  if (w == 32) return preferred_layout(w) == RegionLayout::kAltmap;
  return true;
}

namespace {

// L2 size via Linux sysfs: walk the cpu0 cache indices for a level-2
// entry. The "size" files read like "1024K" / "2M".
std::size_t l2_from_sysfs() {
#if defined(__linux__)
  for (int idx = 0; idx < 8; ++idx) {
    char path[96];
    std::snprintf(path, sizeof path,
                  "/sys/devices/system/cpu/cpu0/cache/index%d/level", idx);
    std::FILE* f = std::fopen(path, "r");
    if (!f) break;  // indices are contiguous; first miss ends the walk
    int level = 0;
    const bool got_level = std::fscanf(f, "%d", &level) == 1;
    std::fclose(f);
    if (!got_level || level != 2) continue;
    std::snprintf(path, sizeof path,
                  "/sys/devices/system/cpu/cpu0/cache/index%d/size", idx);
    f = std::fopen(path, "r");
    if (!f) continue;
    long value = 0;
    char unit = 0;
    const int fields = std::fscanf(f, "%ld%c", &value, &unit);
    std::fclose(f);
    if (fields < 1 || value <= 0) continue;
    std::size_t bytes = static_cast<std::size_t>(value);
    if (fields == 2 && (unit == 'K' || unit == 'k')) bytes *= 1024;
    if (fields == 2 && (unit == 'M' || unit == 'm')) bytes *= 1024 * 1024;
    return bytes;
  }
#endif
  return 0;
}

// CPUID leaf 4 (Intel "deterministic cache parameters"; AMD mirrors it on
// leaf 0x8000001d) — fallback when sysfs is unavailable.
std::size_t l2_from_cpuid() {
#if defined(__x86_64__) || defined(__i386__)
  for (const unsigned leaf : {0x4u, 0x8000001du}) {
    if (leaf >= 0x80000000u) {
      unsigned a, b, c, d;
      if (!__get_cpuid(0x80000000u, &a, &b, &c, &d) || a < leaf) continue;
    }
    for (unsigned sub = 0; sub < 8; ++sub) {
      unsigned a = 0, b = 0, c = 0, d = 0;
      if (!__get_cpuid_count(leaf, sub, &a, &b, &c, &d)) break;
      const unsigned type = a & 0x1f;  // 0 = no more caches
      if (type == 0) break;
      const unsigned level = (a >> 5) & 0x7;
      if (level != 2 || type == 2) continue;  // want L2 data or unified
      const std::size_t ways = ((b >> 22) & 0x3ff) + 1;
      const std::size_t partitions = ((b >> 12) & 0x3ff) + 1;
      const std::size_t line = (b & 0xfff) + 1;
      const std::size_t sets = static_cast<std::size_t>(c) + 1;
      return ways * partitions * line * sets;
    }
  }
#endif
  return 0;
}

// 0 = no installed budget (use the detected default).
std::atomic<std::size_t> g_installed_budget{0};

}  // namespace

std::size_t detected_l2_cache_bytes() {
  static const std::size_t bytes = [] {
    const std::size_t sysfs = l2_from_sysfs();
    return sysfs ? sysfs : l2_from_cpuid();
  }();
  return bytes;
}

void set_region_cache_budget(std::size_t bytes) {
  g_installed_budget.store(bytes, std::memory_order_relaxed);
}

std::size_t region_cache_budget() {
  if (const std::size_t installed = g_installed_budget.load(std::memory_order_relaxed))
    return installed;
  // Half the detected L2 leaves room for split tables, stacks and the
  // pool's bookkeeping next to the strips; clamp so exotic parts (tiny
  // embedded L2s, huge sliced server L2s) stay in a sane band.
  static const std::size_t detected_budget = [] {
    const std::size_t l2 = detected_l2_cache_bytes();
    if (!l2) return std::size_t{768} * 1024;  // half of a typical 1.5 MiB L2
    return std::clamp<std::size_t>(l2 / 2, 128 * 1024, 8 * 1024 * 1024);
  }();
  return detected_budget;
}

std::size_t cache_aware_slice_bytes(std::size_t region_bytes, std::size_t participants,
                                    std::size_t touched_regions) {
  if (participants == 0) participants = 1;
  if (region_bytes <= 64) return region_bytes;
  // ~2 slices per participant balances load; fewer would make the slowest
  // slice the critical path, many more would pay per-slice dispatch.
  std::size_t slice = (region_bytes + 2 * participants - 1) / (2 * participants);
  // 64-byte granularity keeps slices symbol-aligned for every supported w.
  std::size_t cache_cap = region_cache_budget() / (touched_regions ? touched_regions : 1);
  cache_cap = std::max<std::size_t>(64, cache_cap & ~std::size_t{63});
  if (slice > cache_cap) slice = cache_cap;
  slice &= ~std::size_t{63};
  if (slice < 64) slice = 64;
  return slice < region_bytes ? slice : region_bytes;
}

}  // namespace stair::gf
