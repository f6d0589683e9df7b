#include "stair/schedule.h"

#include <algorithm>
#include <cassert>

namespace stair {

std::size_t Schedule::mult_xor_count() const {
  std::size_t count = 0;
  for (const auto& op : ops_) count += op.terms.size();
  return count;
}

void Schedule::execute(std::span<const std::span<std::uint8_t>> symbols) const {
  for (const auto& op : ops_) {
    assert(op.output < symbols.size());
    const std::span<std::uint8_t> dst = symbols[op.output];
    // The first surviving term overwrites dst (copy-mult) instead of the
    // historical zero-fill + XOR, saving one full pass over every output
    // region. Ops with no nonzero term — or a self-referencing one, whose
    // value depends on the zeroed output — keep the zero-fill order.
    std::size_t first = 0;
    bool self_ref = false;
    for (const auto& term : op.terms) {
      if (term.coeff != 0 && term.input == op.output) self_ref = true;
    }
    while (first < op.terms.size() && op.terms[first].coeff == 0) ++first;
    if (self_ref || first == op.terms.size()) {
      std::fill(dst.begin(), dst.end(), std::uint8_t{0});
      first = 0;
    } else {
      const auto& lead = op.terms[first];
      assert(lead.input < symbols.size());
      gf::mult_region(*field_, lead.coeff, symbols[lead.input], dst);
      ++first;
    }
    for (std::size_t t = first; t < op.terms.size(); ++t) {
      const auto& term = op.terms[t];
      assert(term.input < symbols.size());
      gf::mult_xor_region(*field_, term.coeff, symbols[term.input], dst);
    }
  }
}

Schedule Schedule::pruned_for(const std::vector<std::uint32_t>& wanted_outputs) const {
  // Reverse sweep: an op survives iff its output is needed; surviving ops
  // promote their inputs to needed.
  std::size_t max_id = 0;
  for (const auto& op : ops_) {
    max_id = std::max(max_id, static_cast<std::size_t>(op.output));
    for (const auto& t : op.terms) max_id = std::max(max_id, static_cast<std::size_t>(t.input));
  }
  for (std::uint32_t w : wanted_outputs) max_id = std::max(max_id, static_cast<std::size_t>(w));

  std::vector<bool> needed(max_id + 1, false);
  for (std::uint32_t w : wanted_outputs) needed[w] = true;

  std::vector<bool> keep(ops_.size(), false);
  for (std::size_t i = ops_.size(); i-- > 0;) {
    const auto& op = ops_[i];
    if (!needed[op.output]) continue;
    keep[i] = true;
    for (const auto& t : op.terms) needed[t.input] = true;
  }

  Schedule out(*field_);
  for (std::size_t i = 0; i < ops_.size(); ++i)
    if (keep[i]) out.add_op(ops_[i]);
  return out;
}

Schedule Schedule::optimized(const std::vector<bool>& zero_symbols) const {
  Schedule out(*field_);
  for (const auto& op : ops_) {
    ScheduleOp trimmed;
    trimmed.output = op.output;
    for (const auto& term : op.terms) {
      if (term.coeff == 0) continue;
      if (term.input < zero_symbols.size() && zero_symbols[term.input]) continue;
      trimmed.terms.push_back(term);
    }
    out.add_op(std::move(trimmed));
  }
  return out;
}

}  // namespace stair
