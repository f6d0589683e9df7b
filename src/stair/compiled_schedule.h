// Compiled schedule replay — the hot-path execution format.
//
// Schedule (stair/schedule.h) is the portable description of a coding plan:
// symbol ids and GF coefficients. Replaying one directly re-resolves every
// coefficient on every call and walks each output region twice (zero-fill,
// then per-term XOR passes). CompiledSchedule lowers a Schedule once into the
// form the machine actually wants to run:
//
//  * every coefficient is resolved up front to a cached split-table kernel
//    (gf/kernel.h), so replay performs zero table construction;
//  * the first term of each op overwrites its output (copy-mult) instead of
//    zero-fill + XOR, saving one full pass over every output region;
//  * the whole op list is strip-mined into L2-sized byte strips (region ops
//    are pointwise, so any byte slicing is exact): all terms of an op run
//    back-to-back on a strip while the destination is cache-resident, and
//    inputs reused by later ops are still hot — large stripes stream from
//    DRAM once instead of once per referencing op;
//  * replay takes a RegionLayout: with kAltmap every kernel call runs the
//    planar fast path that lifts w = 16/32 to full SIMD (gf/region.h). The
//    symbol table must then hold altmap regions; convert_user_regions()
//    performs the boundary conversion for the caller-owned regions (scratch
//    symbols live permanently in altmap — they start zeroed, which is
//    layout-invariant, and never escape a replay), and it only touches
//    regions the plan references, so a sparse decode never pays for the
//    whole stripe. Conversion commutes with 64-byte-granular range slicing,
//    so each Codec range slice converts exactly the range it executes.
//
// Replay is byte-identical to Schedule::execute on the same symbol table
// (after conversion, for altmap replays).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "gf/kernel.h"
#include "stair/schedule.h"

namespace stair {

class CompiledSchedule {
 public:
  CompiledSchedule() = default;

  /// Lowers `schedule`. `strip_bytes` pins the replay strip size (rounded to
  /// 64-byte granularity; mainly for tests); 0 derives it from the number of
  /// distinct symbols so one strip of every referenced region fits in L2
  /// together (gf::region_cache_budget).
  explicit CompiledSchedule(const Schedule& schedule, std::size_t strip_bytes = 0);

  bool empty() const { return ops_.empty(); }

  /// Resolved Mult_XOR region operations per replay (zero-coefficient terms
  /// are dropped at compile time).
  std::size_t mult_xor_count() const;

  /// Replays over `symbols` — same contract and same bytes as
  /// Schedule::execute on the source schedule. With kAltmap, every region
  /// the plan references must already be in altmap layout.
  void execute(std::span<const std::span<std::uint8_t>> symbols,
               gf::RegionLayout layout = gf::RegionLayout::kStandard) const;

  /// Replays only bytes [offset, offset + length) of every region. Region
  /// ops are pointwise (and altmap blocks 64-byte-aligned), so running
  /// disjoint ranges (in any order, on any threads) is byte-identical to one
  /// full execute(); this is what the Codec's range slices run — subtasks
  /// share one symbol table instead of building per-thread sliced copies.
  /// `offset` must be a multiple of 64 (keeps every slice symbol- and
  /// block-aligned for all w).
  void execute_range(std::span<const std::span<std::uint8_t>> symbols,
                     std::size_t offset, std::size_t length,
                     gf::RegionLayout layout = gf::RegionLayout::kStandard) const;

  /// One byte range of a replay with the boundary-conversion sandwich —
  /// the single implementation of the layout contract every layout-aware
  /// caller (StairCode::execute, Codec subtasks) goes
  /// through: convert the referenced caller-owned regions of the range to
  /// `layout`, execute_range in it, convert them back to standard. With
  /// kStandard this is exactly execute_range. Conversion commutes with the
  /// 64-byte-granular slicing, so disjoint ranges run independently and
  /// each byte converts exactly once per call, at the range boundary.
  void execute_range_converted(std::span<const std::span<std::uint8_t>> symbols,
                               const std::vector<bool>& caller_owned,
                               gf::RegionLayout layout, std::size_t offset,
                               std::size_t length) const;

  /// Boundary conversion for an altmap replay: converts bytes
  /// [offset, offset + length) of the plan-referenced regions whose ids are
  /// marked in `caller_owned` (regions backed by caller memory that must
  /// stay standard outside the replay; scratch stays planar forever).
  /// Towards altmap, regions never read before their first write are
  /// skipped — the replay fully overwrites them before any read, so
  /// converting their stale bytes would be wasted work. Towards standard,
  /// every referenced caller-owned region converts back. `offset` must be a
  /// multiple of 64. No-op for byte-linear widths (w = 4/8).
  void convert_user_regions(std::span<const std::span<std::uint8_t>> symbols,
                            const std::vector<bool>& caller_owned,
                            gf::RegionLayout to, std::size_t offset,
                            std::size_t length) const;

  /// Distinct symbol ids referenced — the working-set width cache-aware
  /// slicing divides its budget by.
  std::size_t touched_symbols() const { return touched_.size(); }

  /// Word width of the field the schedule was compiled over (0 if empty).
  int w() const { return w_; }

 private:
  struct Term {
    std::shared_ptr<const gf::CompiledKernel> kernel;
    std::uint32_t input = 0;
  };
  struct Op {
    std::uint32_t output = 0;
    // True when the op must keep the legacy zero-fill + accumulate order:
    // no surviving terms, or a self-referencing term (input == output).
    bool zero_fill = false;
    std::vector<Term> terms;
  };
  // One entry per distinct referenced symbol id; `read` marks ids whose
  // pre-replay bytes a surviving term can observe — i.e. ids read before
  // their first write. Ids first referenced as an output stay read=false
  // even when later ops read them: replay fully overwrites them (per strip,
  // in op order) first, so inbound conversion skips their dead bytes.
  struct Touched {
    std::uint32_t id = 0;
    bool read = false;
  };

  std::size_t strip_size(std::size_t symbol_size) const;

  std::vector<Op> ops_;
  std::vector<Touched> touched_;  // sorted by id
  std::size_t forced_strip_ = 0;  // nonzero = caller-pinned strip size
  int w_ = 0;
};

}  // namespace stair
