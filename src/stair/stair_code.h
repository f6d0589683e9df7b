// STAIR codes — the paper's contribution (Li & Lee, FAST'14).
//
// A StairCode ties together the two orthogonal systematic MDS codes of §3
// (Crow across stripe rows, Ccol down chunks), compiles the three encoding
// methods (standard §5.3, upstairs §5.1.1, downstairs §5.1.2) into replayable
// schedules, picks the cheapest automatically, and decodes any failure
// pattern inside the coverage defined by m and e via upstairs decoding
// (§4.2) with the practical row-local-first fast path (§4.3).
//
// Usage sketch:
//   StairCode code({.n = 8, .r = 16, .m = 2, .e = {1, 2}});
//   StripeBuffer stripe(code, /*symbol_size=*/4096);
//   stripe.set_data(my_bytes);
//   code.encode(stripe.view());
//   ... lose chunks/sectors, mark them in an erasure mask ...
//   bool ok = code.decode(stripe.view(), erased_mask);
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "rs/mds_code.h"
#include "stair/compiled_schedule.h"
#include "stair/schedule.h"
#include "stair/stair_layout.h"
#include "util/buffer.h"

namespace stair {

class Codec;
class DecodePlanCache;
class StairCode;

/// How parity symbols are computed (§5.3). kAuto picks the method with the
/// fewest Mult_XORs for this configuration, as the paper's implementation does.
enum class EncodingMethod { kStandard, kUpstairs, kDownstairs, kAuto };

/// Non-owning view of one stripe's symbol regions.
///
/// `stored[row * n + col]` is the symbol at stripe position (row, col); all
/// regions share `symbol_size` bytes. `outside_globals` (size s, (l, h)
/// order) is used only by codes in GlobalParityMode::kOutside.
struct StripeView {
  std::vector<std::span<std::uint8_t>> stored;
  std::vector<std::span<std::uint8_t>> outside_globals;
  std::size_t symbol_size = 0;
};

/// Reusable scratch for encode/decode calls. Optional — the calls allocate
/// internally when given none — but reusing one across calls avoids repeated
/// allocation on hot paths (all speed benchmarks do). Safe to carry across
/// calls with different symbol sizes and even different StairCode instances:
/// the scratch is re-established (fresh and zeroed) whenever the owning code
/// or the geometry changes, never silently reused (the fixed-zero scratch
/// regions of one code may be written intermediates of another).
///
/// Layouts: when a compiled replay runs in altmap (gf/region.h), the scratch
/// regions live in altmap permanently — they start zeroed (zero bytes are
/// layout-invariant) and every non-structural-zero scratch read is preceded
/// by a write in the same replay (the builders' single-writer property), so
/// no conversion is ever needed or performed on scratch. Only the
/// caller-owned stripe regions convert at the replay boundaries.
class Workspace {
 public:
  Workspace() = default;

 private:
  friend class Codec;
  friend struct CodecJob;
  friend class StairCode;
  AlignedBuffer scratch_;
  std::vector<std::span<std::uint8_t>> symbols_;
  // caller_owned_[id]: symbols_[id] is backed by the caller's stripe view
  // (not session scratch) — the set the altmap boundary conversion touches.
  std::vector<bool> caller_owned_;
  std::size_t scratch_symbols_ = 0, symbol_size_ = 0;
  // Identity of the code the scratch was prepared for. Two codes with equal
  // scratch footprints still must not share bytes, so reuse is keyed on the
  // instance — via its process-unique generation id, not its address, which
  // a successor code could reuse (stack/heap ABA). 0 = never prepared.
  std::uint64_t owner_uid_ = 0;
};

/// A STAIR erasure code instance. Immutable after construction except for
/// internal lazy caches, which are mutex-guarded: one instance can be shared
/// freely across encoder/decoder threads (the lock covers only lazy
/// construction and pointer reads, never region work).
class StairCode {
 public:
  /// Builds the code. `cfg` is validated; Crow is an (n + m', n - m) code and
  /// Ccol an (r + e_max, r) code of the given MDS kind over GF(2^cfg.w).
  explicit StairCode(StairConfig cfg,
                     GlobalParityMode mode = GlobalParityMode::kInside,
                     SystematicMdsCode::Kind kind = SystematicMdsCode::Kind::kCauchy);

  const StairConfig& config() const { return layout_.config(); }
  const StairLayout& layout() const { return layout_; }
  GlobalParityMode mode() const { return layout_.mode(); }
  const SystematicMdsCode& crow() const { return crow_; }
  const SystematicMdsCode& ccol() const { return ccol_; }
  const gf::Field& field() const { return crow_.field(); }

  /// Stored data symbols per stripe (excludes parities and inside globals).
  std::size_t data_symbol_count() const { return layout_.data_ids().size(); }
  /// Stored parity symbols per stripe: m*r row parities + s globals.
  std::size_t parity_symbol_count() const { return layout_.parity_ids().size(); }

  // --- encoding -------------------------------------------------------------

  /// The schedule for a concrete method (not kAuto); built lazily and cached.
  const Schedule& encoding_schedule(EncodingMethod method) const;

  /// The compiled (kernel-resolved, cache-blocked) form of a concrete
  /// method's schedule; built lazily and cached. encode() replays this.
  const CompiledSchedule& compiled_encoding_schedule(EncodingMethod method) const;

  /// Method kAuto resolves to: the fewest-Mult_XORs schedule (§5.3).
  EncodingMethod select_method() const;

  /// Mult_XOR count of a method's schedule — the Figure 9 metric. For
  /// kUpstairs/kDownstairs these equal Eqs. 5/6 exactly (tested).
  std::size_t mult_xor_count(EncodingMethod method) const;

  /// Computes all parity regions of the stripe from its data regions, on
  /// the calling thread. Spreading one stripe over cores is the Codec's job
  /// (stair/codec.h).
  void encode(const StripeView& stripe, EncodingMethod method = EncodingMethod::kAuto,
              Workspace* ws = nullptr) const;

  // --- decoding -------------------------------------------------------------

  /// Fast pattern check: is this set of lost stored symbols within the
  /// guaranteed coverage (m whole-or-partial chunks deferred to row decoding
  /// plus m' chunks fitting e)? `erased[row * n + col]`, size r*n.
  bool is_recoverable(const std::vector<bool>& erased) const;

  /// Compiles a decode schedule for the pattern, or nullopt if it is outside
  /// the coverage. Deterministic per pattern; callers replay it many times in
  /// benchmarks.
  std::optional<Schedule> build_decode_schedule(const std::vector<bool>& erased) const;

  /// Recovers all erased regions in place. Returns false (stripe untouched)
  /// if the pattern is outside the coverage. With a `cache`, the compiled
  /// plan for the mask is fetched from (or built into) it, so every decode
  /// after the first with a given mask skips both matrix inversion and
  /// kernel-table resolution — the failure-epoch replay path.
  bool decode(const StripeView& stripe, const std::vector<bool>& erased,
              Workspace* ws = nullptr, DecodePlanCache* cache = nullptr) const;

  /// Degraded read: the minimal schedule recovering only the stored symbols
  /// listed in `wanted` (stored indices, row * n + col) under the erasure
  /// pattern `erased` — a backward slice of the full decode plan, so reading
  /// one lost sector does not pay for repairing the stripe. Other erased
  /// regions are left untouched (still invalid) after execution.
  std::optional<Schedule> build_degraded_read_schedule(
      const std::vector<bool>& erased, const std::vector<std::size_t>& wanted) const;

  // --- analysis --------------------------------------------------------------

  /// Generator coefficients: row t is parity_ids()[t] expressed over
  /// data_ids() (paper §5.2's uneven parity relations, used for the standard
  /// method, Figure 9's standard cost, and Figures 14-15's update penalty).
  const Matrix& coefficients() const;

  /// Executes `schedule` over this stripe via the uncompiled reference
  /// replay (advanced: one-shot plans, equivalence tests). Repeated replays
  /// should compile() once and use the CompiledSchedule overload.
  void execute(const Schedule& schedule, const StripeView& stripe,
               Workspace* ws = nullptr) const;

  /// Executes a pre-compiled schedule over this stripe — the hot path all
  /// encode/decode calls use. Byte-identical to the Schedule overload.
  /// Internally replays in the active backend's preferred region layout for
  /// the code's width (gf::preferred_layout — altmap for w = 16/32 on SIMD
  /// backends), converting the plan-referenced stripe regions exactly once
  /// at the call boundaries; caller buffers are always standard-layout
  /// outside a call, and the workspace scratch stays altmap forever.
  void execute(const CompiledSchedule& schedule, const StripeView& stripe,
               Workspace* ws = nullptr) const;

 private:
  friend class Codec;  // the session layer drives prepare_workspace + the
                       // compiled range replay directly for its submit pipeline

  void prepare_workspace(const StripeView& stripe, Workspace& ws) const;

  StairLayout layout_;
  SystematicMdsCode crow_, ccol_;
  // Process-unique instance id (monotone counter, assigned at construction);
  // what Workspace reuse is keyed on — see Workspace::owner_uid_.
  std::uint64_t uid_;

  // Guards the lazy caches below (build-once; the built objects themselves
  // are immutable and replayed lock-free). Recursive because the lazy
  // builders chain: standard schedule -> coefficients -> upstairs schedule.
  mutable std::recursive_mutex lazy_mu_;
  mutable std::unique_ptr<Schedule> standard_, upstairs_, downstairs_;
  mutable std::unique_ptr<CompiledSchedule> standard_c_, upstairs_c_, downstairs_c_;
  mutable std::unique_ptr<Matrix> coefficients_;
};

/// Owning stripe storage: allocates one aligned block for all r*n stored
/// symbols (plus the s outside globals when the code keeps them outside) and
/// exposes a StripeView plus flat-data import/export helpers.
class StripeBuffer {
 public:
  StripeBuffer(const StairCode& code, std::size_t symbol_size);

  const StripeView& view() const { return view_; }
  std::size_t symbol_size() const { return symbol_size_; }

  /// Region of the stored symbol at (row, col).
  std::span<std::uint8_t> symbol(std::size_t row, std::size_t col);
  std::span<const std::uint8_t> symbol(std::size_t row, std::size_t col) const;

  /// Total user-data bytes per stripe.
  std::size_t data_size() const;

  /// Copies `data` (exactly data_size() bytes) into the data positions in
  /// row-major order.
  void set_data(std::span<const std::uint8_t> data);

  /// Copies the data positions back out (exactly data_size() bytes).
  void get_data(std::span<std::uint8_t> out) const;

 private:
  const StairCode* code_;
  std::size_t symbol_size_;
  AlignedBuffer storage_;
  StripeView view_;
};

}  // namespace stair
