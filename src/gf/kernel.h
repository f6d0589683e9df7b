// Runtime-dispatched region kernels and the compiled-kernel cache.
//
// The paper's throughput results rest entirely on the cost of the Mult_XOR
// region primitive (§5.3, after [Plank FAST'13]). This module turns that
// primitive into a subsystem:
//
//  * Backend dispatch. The region kernels exist in five builds — scalar,
//    SSSE3 (pshufb, 16 B/iter), AVX2 (vpshufb, 32 B/iter), GFNI
//    (gf2p8affineqb over AVX2 widths) and AVX-512 (zmm vpshufb at
//    64 B/iter, upgrading to vgf2p8affineqb when the CPU also has GFNI) —
//    all compiled into one binary (each in its own translation unit with
//    its own ISA flags) and selected once at startup via CPUID.
//    `force_backend()` or the STAIR_GF_BACKEND environment variable
//    (scalar | ssse3 | avx2 | gfni | avx512) override the choice for
//    testing and benchmarking.
//
//  * Layout dispatch. Each backend's function table is indexed by
//    (RegionLayout, word size): the standard little-endian kernels, the
//    altmap (planar 64-byte-block) kernels that lift w = 16/32 to the full
//    SIMD split-table / composed-affine paths, and the to/from-altmap
//    conversion kernels. See gf/region.h for the layout spec.
//
//  * CompiledKernel. Multiplying a region by a constant `a` needs split
//    product tables derived from `a`. The seed rebuilt them on every call;
//    a CompiledKernel builds them once, and `compiled_kernel(f, a)` caches
//    kernels per (field, coefficient) so schedule replay pays zero table
//    construction. Tables are backend- and layout-independent, so kernels
//    stay valid across force_backend() / force_layout() switches.
//
// All backends produce bit-identical results in both layouts; tests
// cross-check every backend against scalar GF arithmetic for every word
// size and layout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "gf/gf.h"
#include "gf/region.h"

namespace stair::gf {

/// Kernel instruction-set backends, in ascending capability order. kGfni is
/// AVX2-width with GF2P8AFFINEQB: one instruction per 32 bytes for the
/// byte-linear widths (w = 4/8), and a (w/8 x w/8) grid of composed affine
/// ops per altmap block for w = 16/32. kAvx512 runs the same algorithms at
/// zmm width (64 B/iter; requires AVX512F+BW+VL) and picks per process
/// between a pure-vpshufb kernel set and the composed-affine set when the
/// CPU also reports GFNI — so it covers both Skylake-SP-era parts (AVX-512
/// without GFNI) and Ice-Lake-and-later ones.
enum class Backend { kScalar = 0, kSsse3 = 1, kAvx2 = 2, kGfni = 3, kAvx512 = 4 };

/// "scalar" / "ssse3" / "avx2" / "gfni" / "avx512".
const char* backend_name(Backend b);

/// True if this binary contains kernels for `b` (compile-time property).
bool backend_compiled(Backend b);

/// True if `b` is compiled in and the CPU supports it.
bool backend_supported(Backend b);

/// The backend region kernels currently dispatch to. First call detects the
/// best supported backend (honouring STAIR_GF_BACKEND if set and supported).
Backend active_backend();

/// Pins dispatch to `b`; returns false (no change) if unsupported. Intended
/// for tests and benchmarks; call before compiling schedules you compare.
bool force_backend(Backend b);

/// Reverts force_backend(): re-runs auto-detection (env override included).
void reset_backend();

/// Split product tables for one (field, coefficient) pair. Layout:
///  * nib[k][b][v]: byte `b` of a * (v << 4k) — the pshufb tables. Valid
///    nibble positions k < w/4 and product bytes b < w/8 (w = 4 packs the
///    low-nibble product in nib[0][0] and the high-nibble product, already
///    shifted left 4, in nib[1][0]). The standard w = 16 kernel uses
///    (k, b < 2); the altmap kernels index the full (k, b) grid directly
///    since planar blocks put every nibble in a per-byte lane.
///  * pack4: w = 4 only — packed-byte table, both nibbles multiplied at once.
///  * row8: w = 8 only — a copy of row `a` of the field's full 256x256
///    product table (copied so cached kernels never dangle into a
///    caller-owned Field).
///  * wide16: w = 16 only — [x] = a*x, [256 + x] = a*(x << 8).
///  * wide32: w = 32 only — [256b + x] = a*(x << 8b), b < 4.
///  * affine8: w = 4/8 only — the byte -> byte multiply map as the 8x8 GF(2)
///    matrix operand GF2P8AFFINEQB expects (row for output bit i in byte
///    7-i). Multiplication by a constant is linear over GF(2), so this works
///    for any primitive polynomial, not just the instruction's native 0x11B.
///  * affine_wide[b][c]: w = 16/32 only — the GF2P8AFFINEQB matrix of the
///    map "source byte c -> byte b of the product", i.e. x -> byte_b of
///    a * (x << 8c). Because multiplication is GF(2)-linear, product byte b
///    of a symbol is the XOR over c of these per-byte maps — the composed
///    affine decomposition the GFNI altmap kernels run as a (w/8 x w/8)
///    grid of affine ops over planar blocks. Valid b, c < w/8.
struct KernelTables {
  alignas(32) std::uint8_t nib[8][4][16];
  std::uint8_t pack4[256];
  std::uint8_t row8[256];
  std::vector<std::uint16_t> wide16;
  std::vector<std::uint32_t> wide32;
  std::uint64_t affine8 = 0;
  std::uint64_t affine_wide[4][4] = {};
};

/// A region kernel: dst (op)= a * src over n bytes, tables precomputed.
using RegionKernelFn = void (*)(const KernelTables&, const std::uint8_t* src,
                                std::uint8_t* dst, std::size_t n);

/// An in-place layout conversion over n bytes (full 64-byte blocks
/// transformed, tail untouched — see gf/region.h).
using LayoutConvertFn = void (*)(std::uint8_t* data, std::size_t n);

/// One backend's kernel set, indexed by [layout][word size] (layouts as in
/// RegionLayout; word sizes 0..3 = w 4/8/16/32); mult_xor accumulates
/// (dst ^= a*src), mult overwrites (dst = a*src). For w = 4/8 the altmap
/// entries alias the standard kernels and the conversions are no-ops (the
/// layouts coincide).
struct KernelFns {
  RegionKernelFn mult_xor[2][4];
  RegionKernelFn mult[2][4];
  LayoutConvertFn to_altmap[4];
  LayoutConvertFn from_altmap[4];
};

namespace detail {
KernelFns scalar_kernel_fns();
#ifdef STAIR_HAVE_SSSE3
KernelFns ssse3_kernel_fns();
#endif
#ifdef STAIR_HAVE_AVX2
KernelFns avx2_kernel_fns();
#endif
#ifdef STAIR_HAVE_GFNI
KernelFns gfni_kernel_fns();
#endif
#ifdef STAIR_HAVE_AVX512
// The dispatch-time table: the vgf2p8affineqb variant when the CPU reports
// GFNI, the zmm-vpshufb variant otherwise.
KernelFns avx512_kernel_fns();
// Both variants, selectable explicitly (tests cross-check the vpshufb set
// on GFNI machines, where auto-selection would hide it).
KernelFns avx512_kernel_fns_variant(bool use_gfni);
#endif
}  // namespace detail

/// Fills `out` with the avx512 backend's pure-vpshufb kernel variant — the
/// set a GFNI-less AVX-512 part would dispatch to. Returns false (out
/// untouched) when the avx512 TU isn't compiled in or this CPU can't run
/// it. Lets tests drive the raw kernels (via CompiledKernel::tables()) on
/// GFNI machines where normal dispatch auto-upgrades past them.
bool avx512_shuffle_variant_fns(KernelFns* out);

/// Precomputed multiply-by-`a` region kernel over GF(2^w). Immutable after
/// construction; safe to share across threads. Dispatches to the active
/// backend at call time, so a kernel built before force_backend() still
/// runs the newly selected code path.
class CompiledKernel {
 public:
  CompiledKernel(const Field& f, std::uint32_t a);

  std::uint32_t coeff() const { return a_; }
  int w() const { return w_; }

  /// dst ^= a * src. Regions must be equal-sized, a multiple of w/8 bytes
  /// (any alignment), both in `layout`. Exact aliasing (src == dst) is
  /// allowed.
  void mult_xor(std::span<const std::uint8_t> src, std::span<std::uint8_t> dst,
                RegionLayout layout = RegionLayout::kStandard) const;

  /// dst = a * src (no read of dst's prior contents). Exact aliasing is
  /// allowed; partial overlap is not.
  void mult(std::span<const std::uint8_t> src, std::span<std::uint8_t> dst,
            RegionLayout layout = RegionLayout::kStandard) const;

  const KernelTables& tables() const { return t_; }

 private:
  KernelTables t_;
  std::uint32_t a_;
  int w_;
  int widx_;  // 0..3 for w 4/8/16/32
};

/// Shared thread-safe cache: the compiled kernel for (f, a), built on first
/// request. This is what amortizes split-table construction across every
/// schedule replay in the process.
std::shared_ptr<const CompiledKernel> compiled_kernel(const Field& f, std::uint32_t a);

/// Process-lifetime count of CompiledKernel constructions (split-table
/// builds). Tests snapshot it around hot paths to prove replay performs zero
/// table construction — e.g. a plan-cache hit must not move it.
std::uint64_t kernel_build_count();

}  // namespace stair::gf
