// Canonical-stripe symbol addressing (paper §4.1, Figure 3).
//
// Every symbol a STAIR code ever touches lives on one grid: the canonical
// stripe of (r + e_max) rows by (n + m') columns.
//
//   rows 0..r-1, cols 0..n-1        stored stripe (data + row parity chunks)
//   rows 0..r-1, cols n..n+m'-1     intermediate parity symbols p'_{i,l}
//   rows r..r+e_max-1, cols 0..n-1  virtual parity symbols d*_{h,j} / p*_{h,k}
//   rows r.., cols n+l              outside global g_{h,l} if h < e_l, else dummy
//
// With inside global parities (§5), slot l's e_l global symbols additionally
// occupy the bottom of data column n - m - m' + l, and the outside globals are
// fixed at zero.
//
// Symbol ids are row-major over this grid; the layout answers every "what is
// at (row, col)" question so encoder/decoder builders stay readable.
#pragma once

#include <cstdint>
#include <vector>

#include "stair/stair_config.h"

namespace stair {

/// Where the s global parity symbols live (§3 vs §5).
enum class GlobalParityMode {
  kInside,   ///< at the bottom of the m' rightmost data chunks (§5, default)
  kOutside,  ///< in s externally stored symbols, always available (§3-§4)
};

/// Immutable geometry of one STAIR code's canonical stripe.
class StairLayout {
 public:
  StairLayout(const StairConfig& cfg, GlobalParityMode mode);

  const StairConfig& config() const { return cfg_; }
  GlobalParityMode mode() const { return mode_; }

  std::size_t canonical_rows() const { return cfg_.r + cfg_.e_max(); }
  std::size_t canonical_cols() const { return cfg_.n + cfg_.m_prime(); }
  std::size_t total_symbols() const { return canonical_rows() * canonical_cols(); }

  /// Row-major symbol id on the canonical grid.
  std::uint32_t id(std::size_t row, std::size_t col) const {
    return static_cast<std::uint32_t>(row * canonical_cols() + col);
  }
  std::size_t row_of(std::uint32_t id) const { return id / canonical_cols(); }
  std::size_t col_of(std::uint32_t id) const { return id % canonical_cols(); }

  // --- region predicates -------------------------------------------------

  /// Stored in the stripe proper (rows < r, cols < n).
  bool is_stored(std::size_t row, std::size_t col) const {
    return row < cfg_.r && col < cfg_.n;
  }
  /// Row parity chunk position (stored, cols n-m..n-1).
  bool is_row_parity(std::size_t row, std::size_t col) const {
    return is_stored(row, col) && col >= cfg_.n - cfg_.m;
  }
  /// Intermediate parity symbol p'_{row, col-n}.
  bool is_intermediate(std::size_t row, std::size_t col) const {
    return row < cfg_.r && col >= cfg_.n;
  }
  /// Augmented-row virtual parity symbol over a stored chunk.
  bool is_virtual(std::size_t row, std::size_t col) const {
    return row >= cfg_.r && col < cfg_.n;
  }
  /// Real outside global parity symbol g_{row-r, col-n} (h < e_l).
  bool is_outside_global(std::size_t row, std::size_t col) const {
    return row >= cfg_.r && col >= cfg_.n && row - cfg_.r < cfg_.e[col - cfg_.n];
  }
  /// Dummy augmented position that is never generated (Eq. 2's "*").
  bool is_dummy(std::size_t row, std::size_t col) const {
    return row >= cfg_.r && col >= cfg_.n && row - cfg_.r >= cfg_.e[col - cfg_.n];
  }

  // --- inside-global geometry ---------------------------------------------

  /// Data column carrying coverage slot l's inside globals: n - m - m' + l.
  std::size_t global_column(std::size_t l) const {
    return cfg_.n - cfg_.m - cfg_.m_prime() + l;
  }
  /// Inverse of global_column; m' if col carries no globals.
  std::size_t slot_of_column(std::size_t col) const;

  /// True iff (row, col) stores an inside global parity symbol. Always false
  /// in outside mode.
  bool is_inside_global(std::size_t row, std::size_t col) const;

  /// True iff (row, col) is a stored *data* symbol (stored, not row parity,
  /// not an inside global).
  bool is_data(std::size_t row, std::size_t col) const;

  // --- enumeration ----------------------------------------------------------

  /// Stored data positions in row-major order; index into this vector defines
  /// the data-symbol numbering of a stripe's data bytes (stair_code.h's
  /// flat-data helpers, the store's data positions) and the coefficient
  /// analyses.
  const std::vector<std::uint32_t>& data_ids() const { return data_ids_; }

  /// Stored parity ids: all row parities, then (inside mode) the s inside
  /// globals or (outside mode) the s outside globals, in (l, h) order.
  const std::vector<std::uint32_t>& parity_ids() const { return parity_ids_; }

  /// Outside-global ids in (l ascending, h ascending) order (size s); these
  /// are real symbols in outside mode and constant zeros in inside mode.
  const std::vector<std::uint32_t>& outside_global_ids() const {
    return outside_global_ids_;
  }

  /// Stored-symbol index (row * n + col) for masks over the stored stripe.
  std::size_t stored_index(std::size_t row, std::size_t col) const {
    return row * cfg_.n + col;
  }
  std::size_t stored_count() const { return cfg_.r * cfg_.n; }

 private:
  StairConfig cfg_;
  GlobalParityMode mode_;
  std::vector<std::uint32_t> data_ids_;
  std::vector<std::uint32_t> parity_ids_;
  std::vector<std::uint32_t> outside_global_ids_;
};

}  // namespace stair
