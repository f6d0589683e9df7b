#include "stair/stair_code.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>

#include "gf/region.h"

#include "stair/autotune.h"
#include "stair/builders.h"
#include "stair/plan_cache.h"

namespace stair {

namespace {
std::uint64_t next_code_uid() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;  // ids start at 1
}
}  // namespace

StairCode::StairCode(StairConfig cfg, GlobalParityMode mode, SystematicMdsCode::Kind kind)
    : layout_(cfg, mode),
      crow_(gf::field(cfg.w), cfg.n - cfg.m, cfg.n + cfg.m_prime(), kind),
      ccol_(gf::field(cfg.w), cfg.r, cfg.r + cfg.e_max(), kind),
      uid_(next_code_uid()) {}

const Schedule& StairCode::encoding_schedule(EncodingMethod method) const {
  std::lock_guard<std::recursive_mutex> lock(lazy_mu_);
  switch (method) {
    case EncodingMethod::kUpstairs:
      if (!upstairs_) upstairs_ = std::make_unique<Schedule>(internal::build_upstairs_schedule(*this));
      return *upstairs_;
    case EncodingMethod::kDownstairs:
      if (!downstairs_)
        downstairs_ = std::make_unique<Schedule>(internal::build_downstairs_schedule(*this));
      return *downstairs_;
    case EncodingMethod::kStandard:
      if (!standard_) standard_ = std::make_unique<Schedule>(internal::build_standard_schedule(*this));
      return *standard_;
    case EncodingMethod::kAuto:
      break;
  }
  throw std::invalid_argument("encoding_schedule: pass a concrete method, not kAuto");
}

const CompiledSchedule& StairCode::compiled_encoding_schedule(EncodingMethod method) const {
  std::lock_guard<std::recursive_mutex> lock(lazy_mu_);
  std::unique_ptr<CompiledSchedule>* slot = nullptr;
  switch (method) {
    case EncodingMethod::kUpstairs: slot = &upstairs_c_; break;
    case EncodingMethod::kDownstairs: slot = &downstairs_c_; break;
    case EncodingMethod::kStandard: slot = &standard_c_; break;
    case EncodingMethod::kAuto:
      throw std::invalid_argument(
          "compiled_encoding_schedule: pass a concrete method, not kAuto");
  }
  if (!*slot) *slot = std::make_unique<CompiledSchedule>(encoding_schedule(method));
  return **slot;
}

EncodingMethod StairCode::select_method() const {
  // §5.3: pre-compute the Mult_XOR count of every method, keep the cheapest.
  // Up/downstairs counts come from the closed forms, so selection does not
  // force building all schedules; the standard method's count requires the
  // coefficient matrix, which its schedule shares.
  const std::size_t up = mult_xor_count(EncodingMethod::kUpstairs);
  const std::size_t down = mult_xor_count(EncodingMethod::kDownstairs);
  const std::size_t std_cost = mult_xor_count(EncodingMethod::kStandard);
  if (std_cost <= up && std_cost <= down) return EncodingMethod::kStandard;
  return up <= down ? EncodingMethod::kUpstairs : EncodingMethod::kDownstairs;
}

std::size_t StairCode::mult_xor_count(EncodingMethod method) const {
  if (method == EncodingMethod::kAuto) method = select_method();
  return encoding_schedule(method).mult_xor_count();
}

const Matrix& StairCode::coefficients() const {
  std::lock_guard<std::recursive_mutex> lock(lazy_mu_);
  if (!coefficients_) coefficients_ = std::make_unique<Matrix>(internal::compute_coefficients(*this));
  return *coefficients_;
}

void StairCode::prepare_workspace(const StripeView& stripe, Workspace& ws) const {
  const StairConfig& cfg = config();
  const std::size_t total = layout_.total_symbols();
  const std::size_t stored = layout_.stored_count();
  if (stripe.stored.size() != stored)
    throw std::invalid_argument("stripe view has wrong stored symbol count");
  if (mode() == GlobalParityMode::kOutside &&
      stripe.outside_globals.size() != cfg.s())
    throw std::invalid_argument("outside-global mode needs s external regions");

  const std::size_t scratch_symbols = total - stored;
  if (ws.owner_uid_ != uid_ || ws.scratch_symbols_ != scratch_symbols ||
      ws.symbol_size_ != stripe.symbol_size) {
    // AlignedBuffer zero-initializes, which is what keeps the fixed-zero
    // scratch regions (the structural zeros of §5.1) correct: no schedule of
    // THIS code ever writes them. The owner check matters as much as the
    // size checks — a workspace carried over from a different StairCode can
    // have an identical footprint while a region this code needs zero holds
    // the other code's written intermediates, so same-size reuse across
    // codes must still re-establish the zeroed scratch. Keyed on the uid,
    // not the address: a successor code constructed at the same address
    // must not inherit the scratch either.
    ws.scratch_ = AlignedBuffer(scratch_symbols * stripe.symbol_size);
    ws.scratch_symbols_ = scratch_symbols;
    ws.symbol_size_ = stripe.symbol_size;
    ws.owner_uid_ = uid_;
  }

  ws.symbols_.assign(total, {});
  ws.caller_owned_.assign(total, false);
  std::size_t next_scratch = 0;
  auto scratch_region = [&](std::size_t idx) {
    return ws.scratch_.region(idx * stripe.symbol_size, stripe.symbol_size);
  };
  for (std::size_t row = 0; row < layout_.canonical_rows(); ++row) {
    for (std::size_t col = 0; col < layout_.canonical_cols(); ++col) {
      const std::uint32_t sid = layout_.id(row, col);
      if (layout_.is_stored(row, col)) {
        ws.symbols_[sid] = stripe.stored[layout_.stored_index(row, col)];
        ws.caller_owned_[sid] = true;
      } else {
        ws.symbols_[sid] = scratch_region(next_scratch++);
      }
    }
  }
  if (mode() == GlobalParityMode::kOutside) {
    const auto& globals = layout_.outside_global_ids();
    for (std::size_t g = 0; g < globals.size(); ++g) {
      ws.symbols_[globals[g]] = stripe.outside_globals[g];
      ws.caller_owned_[globals[g]] = true;
    }
  }
}

void StairCode::execute(const Schedule& schedule, const StripeView& stripe,
                        Workspace* ws) const {
  Workspace local;
  Workspace& w = ws ? *ws : local;
  prepare_workspace(stripe, w);
  schedule.execute(w.symbols_);  // the standard-layout reference path
}

void StairCode::execute(const CompiledSchedule& schedule, const StripeView& stripe,
                        Workspace* ws) const {
  Workspace local;
  Workspace& w = ws ? *ws : local;
  prepare_workspace(stripe, w);
  // The compiled hot path replays in the measured best layout for this code
  // and stripe size (falling back to the backend's preferred layout when
  // the tuner is off), converting the caller's regions at the boundaries.
  const gf::RegionLayout layout = Autotune::instance().choose_layout(
      field().w(),
      static_cast<double>(schedule.mult_xor_count()) /
          std::max<std::size_t>(1, schedule.touched_symbols()),
      stripe.symbol_size);
  schedule.execute_range_converted(w.symbols_, w.caller_owned_, layout, 0, stripe.symbol_size);
}

void StairCode::encode(const StripeView& stripe, EncodingMethod method, Workspace* ws) const {
  if (method == EncodingMethod::kAuto) method = select_method();
  execute(compiled_encoding_schedule(method), stripe, ws);
}

bool StairCode::is_recoverable(const std::vector<bool>& erased) const {
  return internal::pattern_recoverable(*this, erased);
}

std::optional<Schedule> StairCode::build_decode_schedule(const std::vector<bool>& erased) const {
  return internal::build_decode_schedule(*this, erased);
}

bool StairCode::decode(const StripeView& stripe, const std::vector<bool>& erased,
                       Workspace* ws, DecodePlanCache* cache) const {
  if (cache) {
    // Failure-epoch fast path: the cache hands back a fully compiled plan,
    // so a recurring mask pays zero inversions and zero table builds.
    auto plan = cache->plan(erased);
    if (!plan) return false;
    execute(*plan, stripe, ws);
    return true;
  }
  auto schedule = build_decode_schedule(erased);
  if (!schedule) return false;
  // Compiling resolves coefficients against the shared kernel cache, so for
  // the recurring masks of a failure epoch the tables are already built.
  execute(CompiledSchedule(*schedule), stripe, ws);
  return true;
}

std::optional<Schedule> StairCode::build_degraded_read_schedule(
    const std::vector<bool>& erased, const std::vector<std::size_t>& wanted) const {
  auto full = build_decode_schedule(erased);
  if (!full) return std::nullopt;
  std::vector<std::uint32_t> wanted_ids;
  wanted_ids.reserve(wanted.size());
  for (std::size_t idx : wanted) {
    if (idx >= layout_.stored_count())
      throw std::invalid_argument("degraded read: stored index out of range");
    wanted_ids.push_back(
        layout_.id(idx / config().n, idx % config().n));
  }
  return full->pruned_for(wanted_ids);
}

// ---------------------------------------------------------------------------
// StripeBuffer
// ---------------------------------------------------------------------------

StripeBuffer::StripeBuffer(const StairCode& code, std::size_t symbol_size)
    : code_(&code), symbol_size_(symbol_size) {
  if (symbol_size == 0 || symbol_size % (code.config().w >= 8 ? code.config().w / 8 : 1) != 0)
    throw std::invalid_argument("StripeBuffer: symbol size must be a nonzero multiple of w/8");
  const StairLayout& layout = code.layout();
  const std::size_t stored = layout.stored_count();
  const std::size_t globals =
      code.mode() == GlobalParityMode::kOutside ? code.config().s() : 0;
  storage_ = AlignedBuffer((stored + globals) * symbol_size);

  view_.symbol_size = symbol_size;
  view_.stored.resize(stored);
  for (std::size_t idx = 0; idx < stored; ++idx)
    view_.stored[idx] = storage_.region(idx * symbol_size, symbol_size);
  view_.outside_globals.resize(globals);
  for (std::size_t g = 0; g < globals; ++g)
    view_.outside_globals[g] = storage_.region((stored + g) * symbol_size, symbol_size);
}

std::span<std::uint8_t> StripeBuffer::symbol(std::size_t row, std::size_t col) {
  return view_.stored[code_->layout().stored_index(row, col)];
}

std::span<const std::uint8_t> StripeBuffer::symbol(std::size_t row, std::size_t col) const {
  return view_.stored[code_->layout().stored_index(row, col)];
}

std::size_t StripeBuffer::data_size() const {
  return code_->data_symbol_count() * symbol_size_;
}

void StripeBuffer::set_data(std::span<const std::uint8_t> data) {
  if (data.size() != data_size())
    throw std::invalid_argument("set_data: expected exactly data_size() bytes");
  const StairLayout& layout = code_->layout();
  std::size_t offset = 0;
  for (std::uint32_t sid : layout.data_ids()) {
    const std::size_t idx = layout.stored_index(layout.row_of(sid), layout.col_of(sid));
    std::memcpy(view_.stored[idx].data(), data.data() + offset, symbol_size_);
    offset += symbol_size_;
  }
}

void StripeBuffer::get_data(std::span<std::uint8_t> out) const {
  if (out.size() != data_size())
    throw std::invalid_argument("get_data: expected exactly data_size() bytes");
  const StairLayout& layout = code_->layout();
  std::size_t offset = 0;
  for (std::uint32_t sid : layout.data_ids()) {
    const std::size_t idx = layout.stored_index(layout.row_of(sid), layout.col_of(sid));
    std::memcpy(out.data() + offset, view_.stored[idx].data(), symbol_size_);
    offset += symbol_size_;
  }
}

}  // namespace stair
