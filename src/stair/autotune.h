// Probe-once measured autotuner — the empirical half of stair/cost_model.
//
// cost_model.h predicts *how many* Mult_XORs a plan costs (Eqs. 5-6); this
// module measures *how fast* each (backend, layout, w) runs them on the
// machine at hand, GF-Complete-style: a short in-process microbenchmark at
// first Codec construction (a few milliseconds, cached to disk afterwards)
// whose table then drives the execution-layer decisions that were fixed
// heuristics before:
//
//  * the region cache budget behind gf::cache_aware_slice_bytes and
//    compiled-schedule strip-mining (installed via
//    gf::set_region_cache_budget from a measured streaming-size sweep),
//  * the Codec's slice floor — a stripe is only cut into range slices
//    whose measured compute time (the job's every Mult_XOR over the slice)
//    clears the measured pool dispatch overhead by a comfortable factor,
//  * per-code RegionLayout selection — altmap only when the measured
//    altmap-vs-standard throughput gap beats the boundary conversion cost
//    at the stripe's actual region size (small stripes often lose).
//
// Every decision is performance-only: encode/decode bytes are identical
// whatever the tuner picks, so falling back to today's constants
// (STAIR_AUTOTUNE=0, probe failure, unmeasured cells) is always safe.
//
// Environment:
//   STAIR_AUTOTUNE=0   disable (also false/no/off; util/env.h throws on a
//                      typo): all decisions fall back to the fixed
//                      heuristics (gf::preferred_layout, 4096-byte slice
//                      floor whatever the job, detected-L2 cache budget).
//   STAIR_TUNE_FILE    path for the serialized profile (default
//                      ~/.cache/stair_tune.json). Loaded when the stored
//                      fingerprint (CPU brand + compiled/supported backend
//                      set + format version) matches, else re-probed and
//                      rewritten (best-effort; failures are silent).
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "gf/kernel.h"
#include "gf/region.h"

namespace stair {

inline constexpr int kTuneProfileVersion = 1;

/// One measured throughput point: Mult_XOR MB/s for (backend, layout, w) at
/// a given region size (src+dst each of region_bytes). Conversion cells
/// reuse the struct with layout fixed to altmap and mbps meaning round-trip
/// (to+from altmap) pass throughput.
struct TuneCell {
  int backend = 0;  // int value of gf::Backend
  int layout = 0;   // int value of gf::RegionLayout
  int w = 0;
  std::size_t region_bytes = 0;
  double mbps = 0.0;
};

/// The whole measured surface, JSON-serializable. `measured` is false for a
/// default-constructed (fallback) profile; decisions then use the fixed
/// heuristics.
struct TuneProfile {
  int version = kTuneProfileVersion;
  std::string fingerprint;  // CPU brand + backend availability set
  bool measured = false;
  double memcpy_mbps = 0.0;
  double xor_mbps = 0.0;
  double dispatch_overhead_ns = 0.0;  // one ThreadPool::submit round trip
  std::size_t cache_budget_bytes = 0;
  std::vector<TuneCell> cells;          // mult_xor throughput
  std::vector<TuneCell> convert_cells;  // altmap round-trip throughput

  /// Measured Mult_XOR MB/s for (backend, layout, w) at the cell size
  /// closest to `region_bytes` (0 picks the largest measured size).
  /// Returns 0 when unmeasured.
  double mult_xor_mbps(gf::Backend backend, gf::RegionLayout layout, int w,
                       std::size_t region_bytes = 0) const;

  /// Measured altmap round-trip conversion MB/s for (backend, w); 0 when
  /// unmeasured.
  double convert_mbps(gf::Backend backend, int w) const;

  std::string to_json() const;
  /// Strict enough for round-tripping to_json output; returns false (out
  /// untouched) on malformed input.
  static bool from_json(const std::string& text, TuneProfile* out);
};

/// Process-wide tuner singleton. ensure() is idempotent and cheap after the
/// first call; the Codec constructor invokes it, so any session-based user
/// gets tuned decisions with zero setup.
class Autotune {
 public:
  static Autotune& instance();

  /// Load-or-probe once: try the tune file, validate its fingerprint, probe
  /// and save on miss. No-op when disabled. Installs the measured cache
  /// budget into gf::set_region_cache_budget.
  void ensure();

  /// STAIR_AUTOTUNE by env_flag (on when unset; a typo throws), unless
  /// overridden by set_enabled_for_testing.
  bool enabled() const;

  /// The active profile (ensure()d first). Unmeasured when disabled.
  const TuneProfile& profile();

  /// Layout for a replay at width `w` whose plan performs
  /// `mult_xors_per_region` region ops per referenced region, over regions
  /// of `region_bytes`. Defers to gf::preferred_layout when the tuner is
  /// disabled, the layout is pinned (gf::layout_forced), w < 16, or the
  /// relevant cells are unmeasured.
  gf::RegionLayout choose_layout(int w, double mult_xors_per_region,
                                 std::size_t region_bytes);

  /// The smallest range slice worth dispatching for a job of `mult_xors`
  /// region passes at (w, layout): the slice size whose compute time (every
  /// pass over the slice's bytes) clears the measured dispatch overhead by
  /// the factor 8, clamped to [4 KiB, 256 KiB] — the measurement can only
  /// raise the fixed 4096 floor. The default of one pass is the size for a
  /// single Mult_XOR. Falls back to the fixed 4096 when disabled or
  /// unmeasured. This is the one slice floor the Codec cuts by.
  std::size_t min_slice_bytes(int w, gf::RegionLayout layout, std::size_t mult_xors = 1);

  // --- test hooks -----------------------------------------------------------

  /// Replaces the profile (marks ensure() done; no probe will run).
  void set_profile_for_testing(TuneProfile p);
  /// Overrides the STAIR_AUTOTUNE switch: 0 = force off, 1 = force on,
  /// -1 = back to the environment.
  void set_enabled_for_testing(int mode);
  /// Clears profile + overrides; next ensure() re-resolves everything.
  void reset_for_testing();

  // --- building blocks (exposed for tests and benches) ----------------------

  /// Runs the measurement pass now (irrespective of the enable switch) and
  /// returns the profile. A few milliseconds; briefly forces each supported
  /// backend (restoring the active one afterwards).
  static TuneProfile probe_now();

  /// STAIR_TUNE_FILE, else $HOME/.cache/stair_tune.json, else "" (no
  /// caching possible).
  static std::string default_tune_path();

  /// Atomic (temp + rename) best-effort write; false on any failure.
  static bool save_profile(const TuneProfile& p, const std::string& path);
  /// Loads and parses; false on missing/malformed file. Does NOT check the
  /// fingerprint — ensure() does.
  static bool load_profile(const std::string& path, TuneProfile* out);

  /// CPU brand string + compiled/supported backend letters — what makes a
  /// stored profile transferable to this process.
  static std::string cpu_fingerprint();

 private:
  Autotune() = default;

  mutable std::mutex mu_;
  bool ensured_ = false;
  int enabled_override_ = -1;  // -1 env, 0 off, 1 on
  TuneProfile profile_;
};

}  // namespace stair
