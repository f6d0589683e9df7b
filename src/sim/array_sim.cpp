#include "sim/array_sim.h"

#include <algorithm>
#include <utility>

namespace stair::sim {

DataPathArray::DataPathArray(const StairCode& code, std::size_t stripes,
                             std::size_t symbol_size, std::uint64_t seed)
    : code_(&code), symbol_size_(symbol_size), rng_(seed), codec_(code) {
  stripes_.reserve(stripes);
  damage_.resize(stripes);
  golden_.resize(stripes);
  std::vector<Codec::Handle> handles;
  handles.reserve(stripes);
  for (std::size_t s = 0; s < stripes; ++s) {
    stripes_.emplace_back(code, symbol_size);
    golden_[s].resize(stripes_[s].data_size());
    rng_.fill(golden_[s]);
    stripes_[s].set_data(golden_[s]);
    handles.push_back(codec_.submit_encode(stripes_[s].view()));
    damage_[s].assign(code.layout().stored_count(), false);
  }
  for (auto& h : handles) h.wait();
}

void DataPathArray::corrupt(std::size_t stripe, const std::vector<bool>& mask) {
  StripeBuffer& buf = stripes_[stripe];
  const StairConfig& cfg = code_->config();
  for (std::size_t i = 0; i < cfg.r; ++i)
    for (std::size_t j = 0; j < cfg.n; ++j) {
      const std::size_t idx = i * cfg.n + j;
      if (!mask[idx]) continue;
      rng_.fill(buf.symbol(i, j));  // garbage, so stale reads are caught
      damage_[stripe][idx] = true;
    }
}

void DataPathArray::fail_device(std::size_t device) {
  const StairConfig& cfg = code_->config();
  for (std::size_t s = 0; s < stripes_.size(); ++s) {
    std::vector<bool> mask(cfg.r * cfg.n, false);
    for (std::size_t i = 0; i < cfg.r; ++i) mask[i * cfg.n + device] = true;
    corrupt(s, mask);
  }
}

std::size_t DataPathArray::repair_all() {
  // One batch of decodes in flight: a failure epoch shares its mask across
  // stripes, so the session cache compiles each distinct plan once and every
  // other stripe replays it concurrently.
  std::vector<std::pair<std::size_t, Codec::Handle>> pending;
  for (std::size_t s = 0; s < stripes_.size(); ++s) {
    if (std::none_of(damage_[s].begin(), damage_[s].end(), [](bool b) { return b; }))
      continue;
    pending.emplace_back(s, codec_.submit_decode(stripes_[s].view(), damage_[s]));
  }
  std::size_t unrecoverable = 0;
  for (auto& [s, handle] : pending) {
    if (handle.ok()) {
      std::fill(damage_[s].begin(), damage_[s].end(), false);
    } else {
      ++unrecoverable;
    }
  }
  return unrecoverable;
}

bool DataPathArray::verify() const {
  std::vector<std::uint8_t> out;
  for (std::size_t s = 0; s < stripes_.size(); ++s) {
    out.resize(golden_[s].size());
    stripes_[s].get_data(out);
    if (out != golden_[s]) return false;
  }
  return true;
}

}  // namespace stair::sim
