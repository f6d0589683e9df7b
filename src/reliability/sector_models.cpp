#include "reliability/sector_models.h"

#include <cmath>
#include <stdexcept>

namespace stair::reliability {

double sector_failure_prob(double p_bit, std::size_t sector_bytes) {
  const double bits = static_cast<double>(sector_bytes) * 8.0;
  // 1 - (1 - p)^bits, computed stably for tiny p.
  return -std::expm1(bits * std::log1p(-p_bit));
}

std::vector<double> independent_chunk_pmf(double p_sec, std::size_t r) {
  std::vector<double> pmf(r + 1, 0.0);
  // Binomial(r, p_sec) via running product to stay stable for small p.
  for (std::size_t i = 0; i <= r; ++i) {
    double log_term = 0.0;
    for (std::size_t k = 0; k < i; ++k)
      log_term += std::log(static_cast<double>(r - k) / static_cast<double>(i - k));
    // Zero exponents are skipped, not multiplied: 0 * log(0) is NaN, and
    // p_sec = 0 (no latent errors) must give the point mass at 0.
    if (i > 0) log_term += static_cast<double>(i) * std::log(p_sec);
    if (i < r) log_term += static_cast<double>(r - i) * std::log1p(-p_sec);
    pmf[i] = std::exp(log_term);
  }
  return pmf;
}

std::vector<double> BurstDistribution::pmf(std::size_t r_max) const {
  if (r_max == 0) throw std::invalid_argument("BurstDistribution: r_max must be >= 1");
  std::vector<double> b(r_max + 1, 0.0);
  b[1] = r_max == 1 ? 1.0 : b1_;
  if (r_max == 1) return b;
  auto tail = [this](std::size_t i) {  // P(L >= i | L >= 2)
    return std::pow(static_cast<double>(i) / 2.0, -alpha_);
  };
  for (std::size_t i = 2; i < r_max; ++i)
    b[i] = (1.0 - b1_) * (tail(i) - tail(i + 1));
  b[r_max] = (1.0 - b1_) * tail(r_max);  // truncation lumps the tail
  return b;
}

std::vector<double> BurstDistribution::cdf(std::size_t r_max) const {
  std::vector<double> c = pmf(r_max);
  for (std::size_t i = 2; i <= r_max; ++i) c[i] += c[i - 1];
  return c;
}

double BurstDistribution::mean(std::size_t r_max) const {
  const std::vector<double> b = pmf(r_max);
  double mean = 0.0;
  for (std::size_t i = 1; i <= r_max; ++i) mean += static_cast<double>(i) * b[i];
  return mean;
}

std::vector<double> correlated_chunk_pmf(double p_sec, const BurstDistribution& bursts,
                                         std::size_t r) {
  const std::vector<double> b = bursts.pmf(r);
  const double burst_rate = r * p_sec / bursts.mean(r);  // Eq. 16's right side
  std::vector<double> pmf(r + 1, 0.0);
  double tail = 0.0;
  for (std::size_t i = 1; i <= r; ++i) {
    pmf[i] = b[i] * burst_rate;  // Eq. 17
    tail += pmf[i];
  }
  pmf[0] = 1.0 - tail;  // Eq. 15 up to the same first-order approximation
  return pmf;
}

}  // namespace stair::reliability
