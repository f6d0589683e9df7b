// Incremental data updates (§6.3 in practice).
//
// Rewriting one data sector in place must patch every parity symbol that
// depends on it. Re-encoding the whole stripe costs the full Eq. 5/6 work;
// the linear structure allows the minimal alternative
//     parity ^= coeff * (old_data ^ new_data)
// touching exactly the symbols the update-penalty analysis counts. This is
// the read-modify-write path storage systems actually run, and the reason
// §6.3 steers STAIR at WORM/backup workloads: `parity_writes()` per update is
// the device-write amplification.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "stair/stair_code.h"

namespace stair {

/// Pre-compiled per-data-symbol parity patch lists for one code.
class UpdateEngine {
 public:
  /// Builds the patch lists from the code's generator coefficients (triggers
  /// coefficient derivation on first use; cached thereafter).
  explicit UpdateEngine(const StairCode& code);

  const StairCode& code() const { return *code_; }

  /// Overwrites data symbol `data_index` (index into layout().data_ids())
  /// with `new_content` and incrementally patches all dependent parities.
  /// The stripe must be consistently encoded beforehand; it is consistently
  /// encoded afterwards. Runs on the calling thread; Codec::submit_update is
  /// the form that spreads one update over the pool.
  void update(const StripeView& stripe, std::size_t data_index,
              std::span<const std::uint8_t> new_content) const;

  /// The per-range body every update path replays (also the building block
  /// Codec's pipelined submit_update slices over): computes
  /// delta[off, off+len) = old ^ new into `delta_scratch` (a caller-owned
  /// buffer of at least symbol_size bytes), overwrites the data range, and
  /// mult_xors every dependent parity's range. Disjoint ranges may run
  /// concurrently; the full [0, symbol_size) range equals one serial update.
  /// Arguments are validated by the callers, not here (hot path).
  void update_range(const StripeView& stripe, std::size_t data_index,
                    std::span<const std::uint8_t> new_content,
                    std::span<std::uint8_t> delta_scratch, std::size_t offset,
                    std::size_t length) const;

  /// Working-set width of one update of `data_index` (delta + data + every
  /// patched parity) — what cache-aware slicing divides its budget by.
  std::size_t touched_regions(std::size_t data_index) const {
    return 2 + patches_[data_index].size();
  }

  /// Number of parity symbols rewritten by an update of `data_index` —
  /// exactly the §6.3 update penalty of that symbol.
  std::size_t parity_writes(std::size_t data_index) const {
    return patches_[data_index].size();
  }

  /// Mult_XOR count of one update (1 delta + one per parity patch) — also
  /// the job size the Codec's slice floor divides by.
  std::size_t update_cost(std::size_t data_index) const {
    return 1 + patches_[data_index].size();
  }

 private:
  struct Patch {
    std::uint32_t coeff;
    // The coefficient resolved to its cached split-table kernel at engine
    // build time, so the per-update patch loop performs no table work.
    std::shared_ptr<const gf::CompiledKernel> kernel;
    std::size_t stored_index;  // row * n + col of the parity symbol
    std::size_t global_index;  // index into outside_globals, or SIZE_MAX
  };

  const StairCode* code_;
  std::vector<std::vector<Patch>> patches_;  // indexed by data symbol
};

}  // namespace stair
