// Region (bulk) Galois-field operations — the Mult_XOR primitive of the paper.
//
// Mult_XOR(R1, R2, a): multiply region R1 by the w-bit constant a in GF(2^w)
// and XOR the product into region R2 (paper §5.3, after [Plank FAST'13]).
// All erasure-code throughput in this library reduces to calls here.
//
// Layouts: a region is an array of w-bit symbols, in one of two layouts
// (carried per call; the buffer itself is just bytes):
//
//  * kStandard — the interchange format. For w = 8 plain bytes; for
//    w = 16/32, little-endian words (region sizes must be multiples of w/8
//    bytes). For w = 4, two field elements are packed per byte and the
//    kernel operates on both nibbles at once.
//
//  * kAltmap — the SIMD-friendly planar format for the wide widths
//    (GF-Complete's SPLIT altmap idea). Each 64-byte block is transposed so
//    equal-significance bytes are contiguous:
//      w = 16: bytes [0,32) hold the low bytes of the block's 32 symbols in
//              order, bytes [32,64) the high bytes;
//      w = 32: bytes [16b, 16b+16) hold byte b of the block's 16 symbols.
//    The trailing (size mod 64) bytes of a region stay in standard layout,
//    and for w = 4/8 the two layouts coincide (byte-linear widths), so
//    conversion is exact for every valid region size. In altmap the nibbles
//    of a symbol sit in per-byte lanes, so the w = 16/32 kernels run the
//    same pshufb split-table (or GFNI affine) chain as w = 8 instead of the
//    partially-vectorized (w = 16) or scalar wide-table (w = 32) standard
//    paths.
//
// Fast paths: every (layout, word size) pair dispatches to runtime-selected
// kernels (scalar / SSSE3 pshufb / AVX2 vpshufb / GFNI gf2p8affineqb) with
// per-coefficient tables cached across calls. Backend selection, overrides,
// and the kernel cache live in gf/kernel.h; all backends produce
// bit-identical results in both layouts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "gf/gf.h"

namespace stair::gf {

/// How a region's symbol bytes are arranged (see the header comment).
/// Conversion granularity is the 64-byte block, so any 64-byte-granular
/// range of a region converts independently — layout commutes with the
/// byte-range slicing the Codec uses.
enum class RegionLayout : std::uint8_t { kStandard = 0, kAltmap = 1 };

/// "standard" / "altmap".
const char* layout_name(RegionLayout layout);

/// Altmap transform granularity: whole 64-byte blocks; shorter tails keep
/// the standard layout.
inline constexpr std::size_t kAltmapBlockBytes = 64;

/// dst[i] ^= a * src[i] for every symbol i (the paper's Mult_XOR). Both
/// regions must be in `layout`. src and dst must be the same size, a
/// multiple of the symbol width.
void mult_xor_region(const Field& f, std::uint32_t a,
                     std::span<const std::uint8_t> src, std::span<std::uint8_t> dst,
                     RegionLayout layout = RegionLayout::kStandard);

/// dst[i] = a * src[i] (overwrites dst; never reads it, so exact aliasing
/// src == dst is allowed — partial overlap is not).
void mult_region(const Field& f, std::uint32_t a,
                 std::span<const std::uint8_t> src, std::span<std::uint8_t> dst,
                 RegionLayout layout = RegionLayout::kStandard);

/// dst[i] ^= src[i] — the a = 1 special case, kept separate because it
/// needs no tables and vectorizes trivially. XOR is pointwise on bytes, so
/// it is layout-agnostic.
void xor_region(std::span<const std::uint8_t> src, std::span<std::uint8_t> dst);

/// In-place layout conversion of `data` (size a multiple of w/8). A no-op
/// when from == to and for the byte-linear widths (w = 4/8, where the
/// layouts coincide). from_altmap(to_altmap(x)) == x for every region size.
void convert_region(int w, RegionLayout from, RegionLayout to,
                    std::span<std::uint8_t> data);

/// The layout the active backend replays fastest at width `w` — kAltmap for
/// w = 16/32 on SIMD backends (standard w = 32 is the scalar wide-table
/// loop even there), kStandard otherwise. This is what the compiled-replay
/// layer uses to pick the internal layout; force_layout() or the
/// STAIR_GF_LAYOUT environment variable (standard | altmap) pin the answer
/// for tests and benchmarks, reset_layout() reverts to auto.
RegionLayout preferred_layout(int w);
void force_layout(RegionLayout layout);
void reset_layout();

/// True while the layout choice is pinned — by force_layout() or the
/// STAIR_GF_LAYOUT environment variable. Measured-policy layers (the
/// autotuner's per-code layout selection) must defer to a pin, exactly as
/// preferred_layout does.
bool layout_forced();

/// True if the active backend (see gf/kernel.h) runs a vectorized Mult_XOR
/// at width `w` in that width's preferred layout. Replaces the misleading
/// has_simd_w8(): since the altmap kernels, SIMD coverage is per-width —
/// e.g. standard-layout w = 32 is scalar on every backend, altmap w = 32 is
/// vectorized on all SIMD backends.
bool has_simd(int w);

/// Cache-aware byte-slice size for splitting region work across
/// `participants` threads. Region ops are pointwise (and altmap blocks are
/// 64-byte-aligned), so any 64-byte-granular slicing is exact; this picks
/// the slice so that
///  * there are at least ~2 slices per participant (load balance without a
///    work-stealing scheduler), and
///  * one slice of every one of the `touched_regions` regions a replay
///    references fits region_cache_budget() together (the budget
///    compiled-schedule strip-mining uses), so a slice's working set stays
///    cache-resident instead of streaming the whole stripe through L3 per
///    thread.
/// It knows nothing about dispatch cost: the Codec floors the result at the
/// tuner's per-job minimum (stair/autotune.h), the one place that decides
/// how small a slice may get. Returns a multiple of 64 in [64, region_bytes]
/// (region_bytes if smaller).
std::size_t cache_aware_slice_bytes(std::size_t region_bytes, std::size_t participants,
                                    std::size_t touched_regions);

/// The cache budget behind cache_aware_slice_bytes and compiled-schedule
/// strip-mining: the combined footprint allowed for one strip of every
/// referenced region. Resolution order: a budget installed via
/// set_region_cache_budget() (the autotuner's measured value) > half the
/// detected per-core L2 (sysfs/CPUID), falling back to half of 1.5 MiB when
/// detection fails — half so split tables and bookkeeping fit alongside the
/// strips.
std::size_t region_cache_budget();

/// Installs a measured cache budget (bytes; 0 reverts to the detected
/// default). This is the hook the stair-layer autotuner drives — gf/ stays
/// independent of it.
void set_region_cache_budget(std::size_t bytes);

/// Per-core L2 data-cache size detected from sysfs (Linux) or CPUID
/// deterministic cache parameters; 0 when neither reports one. Exposed so
/// tests and benches can report what the budget default was derived from.
std::size_t detected_l2_cache_bytes();

}  // namespace stair::gf
