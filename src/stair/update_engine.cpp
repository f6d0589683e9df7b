#include "stair/update_engine.h"

#include <cstring>
#include <stdexcept>

#include "gf/region.h"
#include "util/buffer.h"

namespace stair {

UpdateEngine::UpdateEngine(const StairCode& code) : code_(&code) {
  const StairLayout& layout = code.layout();
  const Matrix& coeff = code.coefficients();
  const auto& parity_ids = layout.parity_ids();
  const auto& global_ids = layout.outside_global_ids();

  patches_.resize(layout.data_ids().size());
  for (std::size_t p = 0; p < parity_ids.size(); ++p) {
    const std::uint32_t pid = parity_ids[p];
    const std::size_t row = layout.row_of(pid);
    const std::size_t col = layout.col_of(pid);

    Patch proto{};
    if (layout.is_stored(row, col)) {
      proto.stored_index = layout.stored_index(row, col);
      proto.global_index = SIZE_MAX;
    } else {
      // Outside-global parity: locate its slot in the external regions.
      proto.stored_index = SIZE_MAX;
      proto.global_index = SIZE_MAX;
      for (std::size_t g = 0; g < global_ids.size(); ++g)
        if (global_ids[g] == pid) proto.global_index = g;
      if (proto.global_index == SIZE_MAX)
        throw std::logic_error("UpdateEngine: parity id is neither stored nor global");
    }

    for (std::size_t k = 0; k < coeff.cols(); ++k) {
      if (coeff.at(p, k) == 0) continue;
      Patch patch = proto;
      patch.coeff = coeff.at(p, k);
      patch.kernel = gf::compiled_kernel(code.field(), patch.coeff);
      patches_[k].push_back(patch);
    }
  }
}

void UpdateEngine::update_range(const StripeView& stripe, std::size_t data_index,
                                std::span<const std::uint8_t> new_content,
                                std::span<std::uint8_t> delta_scratch, std::size_t offset,
                                std::size_t length) const {
  const StairLayout& layout = code_->layout();
  const std::uint32_t did = layout.data_ids()[data_index];
  auto data_region =
      stripe.stored[layout.stored_index(layout.row_of(did), layout.col_of(did))];

  // delta = old ^ new; then data := new and parity ^= coeff * delta, all on
  // [offset, offset + length) while that range is cache-resident.
  const std::span<std::uint8_t> d = delta_scratch.subspan(offset, length);
  std::memcpy(d.data(), data_region.data() + offset, length);
  gf::xor_region(new_content.subspan(offset, length), d);
  std::memcpy(data_region.data() + offset, new_content.data() + offset, length);

  for (const Patch& patch : patches_[data_index]) {
    auto parity = patch.stored_index != SIZE_MAX ? stripe.stored[patch.stored_index]
                                                 : stripe.outside_globals[patch.global_index];
    patch.kernel->mult_xor(d, parity.subspan(offset, length));
  }
}

void UpdateEngine::update(const StripeView& stripe, std::size_t data_index,
                          std::span<const std::uint8_t> new_content) const {
  if (data_index >= patches_.size())
    throw std::invalid_argument("UpdateEngine::update: data index out of range");
  if (new_content.size() != stripe.symbol_size)
    throw std::invalid_argument("UpdateEngine::update: wrong symbol size");
  AlignedBuffer delta(stripe.symbol_size);
  update_range(stripe, data_index, new_content, delta.span(), 0, stripe.symbol_size);
}

}  // namespace stair
