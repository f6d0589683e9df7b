// Linear-combination schedules — the execution format for all coding paths.
//
// Every encoding method and every decoding instance compiles to a Schedule:
// an ordered list of "output := XOR of coeff * input" region operations over
// symbol ids. Replaying a schedule is the only thing that touches bulk data,
// so throughput is uniform across methods, and the paper's Mult_XOR counts
// (§5.3) are exactly the schedules' term counts.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gf/region.h"

namespace stair {

class CompiledSchedule;

/// One linear combination: symbols[output] = XOR over terms of coeff * symbols[input].
struct ScheduleOp {
  std::uint32_t output = 0;

  struct Term {
    std::uint32_t coeff = 0;
    std::uint32_t input = 0;
  };
  std::vector<Term> terms;
};

/// An ordered operation list over a symbol table (vector of equally sized
/// byte regions indexed by symbol id).
class Schedule {
 public:
  explicit Schedule(const gf::Field& f) : field_(&f) {}

  const gf::Field& field() const { return *field_; }

  void add_op(ScheduleOp op) { ops_.push_back(std::move(op)); }
  const std::vector<ScheduleOp>& ops() const { return ops_; }
  bool empty() const { return ops_.empty(); }

  /// Total number of Mult_XOR region operations a replay performs — the
  /// paper's encoding-complexity metric (Figure 9, Eqs. 5-6).
  std::size_t mult_xor_count() const;

  /// Replays the schedule over `symbols`; symbols[id] must be valid for every
  /// id any op references. Output regions are overwritten. This is the
  /// straightforward reference replay; hot paths compile() once and replay
  /// the CompiledSchedule (identical bytes, cached kernels, cache-blocked).
  void execute(std::span<const std::span<std::uint8_t>> symbols) const;

  /// Lowers this schedule for fast repeated replay (see
  /// stair/compiled_schedule.h). `strip_bytes` = 0 picks the strip size
  /// automatically.
  CompiledSchedule compile(std::size_t strip_bytes = 0) const;

  /// Copy with all zero-coefficient terms removed — the "don't multiply by
  /// known zeros" optimization the ablation benchmark measures against the
  /// paper-faithful schedule. `zero_symbols[id]` marks symbols known to be
  /// zero (outside globals in inside mode); terms reading them are dropped
  /// too. Pass an empty vector to drop only zero coefficients.
  Schedule optimized(const std::vector<bool>& zero_symbols = {}) const;

  /// Backward slice: the minimal sub-schedule whose replay produces the
  /// symbols in `wanted_outputs`. Ops not (transitively) feeding a wanted
  /// output are dropped. This powers degraded reads — recovering one lost
  /// sector without repairing the whole stripe. Requires the single-writer
  /// property all builders here maintain (each symbol written at most once).
  Schedule pruned_for(const std::vector<std::uint32_t>& wanted_outputs) const;

 private:
  const gf::Field* field_;
  std::vector<ScheduleOp> ops_;
};

}  // namespace stair
