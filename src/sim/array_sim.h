// DataPathArray — a real array of STAIR-encoded stripes with byte-exact
// write / corrupt / repair / verify, the substrate for the integration tests
// and the raid_array_sim example. (Array reliability is simulated by
// sim/cluster_sim.h, whose single-array, uncapped-repair, fixed-p_sec case
// is the §7.1.1 Markov race.)
#pragma once

#include <cstdint>
#include <vector>

#include "sim/failure_injector.h"
#include "stair/codec.h"
#include "stair/stair_code.h"

namespace stair::sim {

/// A live array of STAIR stripes holding real bytes. All coding runs through
/// a Codec session: initial encoding and repair submit every stripe as one
/// batch (many stripes in flight on the process pool — the serving-path
/// data layout a real array has), with repair plans shared per failure epoch
/// through the session's decode-plan cache.
class DataPathArray {
 public:
  /// Allocates `stripes` stripes of the code with `symbol_size`-byte sectors
  /// and fills them with seeded random data (batch-encoded at construction).
  DataPathArray(const StairCode& code, std::size_t stripes, std::size_t symbol_size,
                std::uint64_t seed);

  std::size_t stripe_count() const { return stripes_.size(); }

  /// Overwrites the masked symbols with garbage and records them as lost.
  void corrupt(std::size_t stripe, const std::vector<bool>& mask);

  /// Marks a whole device failed across all stripes (chunk column).
  void fail_device(std::size_t device);

  /// Attempts to repair every damaged stripe — one batch of decodes in
  /// flight; returns the number of stripes that could not be recovered
  /// (0 means full recovery).
  std::size_t repair_all();

  /// True iff every stripe's data symbols match the originally written bytes.
  bool verify() const;

  const StairCode& code() const { return *code_; }
  /// The array's codec session (plan-cache stats etc.).
  const Codec& codec() const { return codec_; }

 private:
  const StairCode* code_;
  std::size_t symbol_size_;
  std::vector<StripeBuffer> stripes_;
  std::vector<std::vector<bool>> damage_;          // per stripe stored mask
  std::vector<std::vector<std::uint8_t>> golden_;  // reference data bytes
  Rng rng_;
  // Last member on purpose: destroyed first, so ~Codec's wait_all drains any
  // in-flight jobs before the stripe buffers they reference are freed (an
  // exception unwinding out of repair_all or the constructor otherwise
  // leaves workers writing into freed stripes).
  Codec codec_;
};

}  // namespace stair::sim
