// config_advisor: pick a sector-failure coverage vector e for your array.
//
//   $ ./config_advisor [n=8] [r=16] [m=2] [beta=2] [p_bit=1e-12] [indep]
//
// Given the array shape, the worst burst length beta to survive (§2), and
// the device's unrecoverable bit error rate, ranks every candidate coverage
// vector by reliability (correlated-burst MTTDL by default, independent
// model with the `indep` flag; §7) and reports space cost, encoding cost,
// and update penalty for each — the §7.2.2 configuration discussion as a
// tool, backed by reliability::rank_coverage_vectors().
//
// Cluster mode — recommend (e, scrub period) from hardware, not tables:
//
//   $ ./config_advisor cluster [n=8] [r=16] [beta=2] [device_gib=300]
//       [mttf_khours=500] [repair_mbps=64] [scan_mbps=64]
//       [rate_per_hour=1e-8] [target_years=10000]
//
// Rebuild time is *derived* from device capacity / repair bandwidth, the
// effective per-sector error probability from the latent-error rate under
// each candidate scrub period (sim::effective_scrub_period — so "scrub
// continuously" really means back-to-back passes at scan_mbps), and the
// recommendation is the cheapest policy meeting the MTTDL target: fewest
// extra parity sectors first, then the longest (least scrub-I/O) period.
// The top candidates are then *validated* with a short inflated-rate
// ClusterSim run: simulated loss events must fall inside the Poisson band
// of the same analytic pipeline, printed as measured-vs-analytic columns.
//
// A malformed or out-of-range argument prints usage and exits 2.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "reliability/coverage_advisor.h"
#include "reliability/prediction.h"
#include "sim/cluster_sim.h"
#include "sim/scrubber.h"
#include "stair/cost_model.h"
#include "stair/update_analysis.h"
#include "util/table.h"

#include "cli_args.h"

using namespace stair;
using namespace stair::reliability;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [n=8] [r=16] [m=2] [beta=2] [p_bit=1e-12] [indep]\n"
               "       %s cluster [n=8] [r=16] [beta=2] [device_gib=300] [mttf_khours=500]\n"
               "           [repair_mbps=64] [scan_mbps=64] [rate_per_hour=1e-8]"
               " [target_years=10000]\n"
               "n >= 2, r >= 1, m < n, 0 <= p_bit <= 1, rate_per_hour >= 0; other numbers > 0\n",
               argv0, argv0);
  return 2;
}

std::string format_e(const std::vector<std::size_t>& e) {
  std::string s = "(";
  for (std::size_t k = 0; k < e.size(); ++k)
    s += (k ? "," : "") + std::to_string(e[k]);
  return s + ")";
}

/// One (coverage vector, scrub period) policy with its analytic prediction
/// at the real rates and — for the top candidates — the inflated-rate
/// simulated cross-check.
struct Policy {
  std::vector<std::size_t> e;
  std::size_t s = 0;
  double period_hours = 0.0;     ///< delivered (effective) scrub period
  double p_sec = 0.0;            ///< scrubbed_p_sec(rate, period)
  double mttdl_hours = 0.0;      ///< renewal MTTDL at the real rates
  double loss_per_pb_year = 0.0;
  bool meets_target = false;
  // Simulated validation (inflated rates; run for the top few only).
  bool simulated = false;
  std::size_t sim_losses = 0;
  AgreementBand sim_band;
  bool sim_in_band = false;
};

/// Inflated-rate cross-check: same code, failure processes frequent enough
/// to count. Picks a fixed p_sec that makes critical-mode losses likely
/// enough to measure for *this* coverage vector (bigger s needs a bigger
/// probe probability), sizes the horizon for ~40 expected events, and runs
/// the full DES.
void simulate_policy(Policy& policy, std::size_t n, std::size_t r) {
  sim::ClusterConfig cfg;
  cfg.code = StairConfig{.n = n, .r = r, .m = 1, .e = policy.e};
  cfg.code.w = std::max(cfg.code.minimum_w(), 8);
  cfg.arrays = 32;
  cfg.stripes_per_array = 64;
  cfg.device_bytes = 32.0 * 1024 * 1024;
  cfg.mttf_hours = 500.0;
  cfg.repair_mbps_per_array = 128.0;
  cfg.scrub_period_hours = -1.0;
  cfg.seed = 1;
  cfg.record_trace = false;

  // Descend the probe ladder until losses are out of saturation: at a
  // too-large p every critical episode is a loss regardless of e, and the
  // check degenerates to counting episodes. Target loss_per_episode <= 0.5
  // (floored so events stay countable) — there the drawn masks straddle the
  // coverage boundary and a mis-ranked pstr would shift the count.
  for (double p : {0.05, 0.02, 0.01, 5e-3, 2e-3, 1e-3, 5e-4, 2e-4, 1e-4}) {
    cfg.fixed_p_sec = p;
    const auto pred =
        predict_reliability(sim::ClusterSim(cfg).prediction_query());
    cfg.sim_hours =
        40.0 * pred.mttdl_renewal_hours / static_cast<double>(cfg.arrays);
    if (pred.loss_per_episode <= 0.5) break;
  }

  const auto report = sim::ClusterSim(cfg).run();
  policy.simulated = true;
  policy.sim_losses = report.loss_events;
  policy.sim_band = report.band;
  policy.sim_in_band = report.within_band;
}

int advise_cluster(int argc, char** argv) {
  std::size_t n = 8, r = 16, beta = 2;
  double device_gib = 300.0, mttf_khours = 500.0, repair_mbps = 64.0, scan_mbps = 64.0,
         rate = 1e-8, target_years = 10000.0;
  if (argc > 11 || !read_arg(argc, argv, 2, &n) || !read_arg(argc, argv, 3, &r) ||
      !read_arg(argc, argv, 4, &beta) || !read_arg(argc, argv, 5, &device_gib) ||
      !read_arg(argc, argv, 6, &mttf_khours) || !read_arg(argc, argv, 7, &repair_mbps) ||
      !read_arg(argc, argv, 8, &scan_mbps) || !read_arg(argc, argv, 9, &rate) ||
      !read_arg(argc, argv, 10, &target_years) || n < 2 || r < 1 || device_gib <= 0 ||
      mttf_khours <= 0 || repair_mbps <= 0 || scan_mbps <= 0 || rate < 0 || target_years <= 0)
    return usage(argv[0]);
  const double mttf_hours = mttf_khours * 1000.0;
  const double target_hours = target_years * 8766.0;

  const double device_bytes = device_gib * 1024.0 * 1024.0 * 1024.0;
  // The derived quantities static tables hard-code:
  const double rebuild_hours = device_bytes / (repair_mbps * 1024.0 * 1024.0) / 3600.0;
  const double store_bytes = static_cast<double>(n) * device_bytes;

  std::printf(
      "cluster advisor: n=%zu r=%zu beta=%zu, C=%g GiB, MTTF=%g h,\n"
      "repair=%g MB/s -> rebuild=%.2f h, scrub scan=%g MB/s, latent rate=%g /h,\n"
      "MTTDL target=%g years\n\n",
      n, r, beta, device_gib, mttf_hours, repair_mbps, rebuild_hours,
      scan_mbps, rate, target_hours / 8766.0);

  // Candidate coverage vectors (e_max >= beta, bounded budget); the advisor
  // re-ranks them below from the hardware-derived rates, so the nominal
  // p_bit used for this enumeration does not matter.
  AdvisorQuery query;
  query.system.n = n;
  query.system.r = r;
  query.system.m = 1;  // the §7 analytic restriction
  query.beta = beta;
  const auto candidates = rank_coverage_vectors(query);
  if (candidates.empty()) {
    std::printf("no coverage vector satisfies the constraints (beta > r?)\n");
    return 1;
  }

  // Scrub-period ladder, cheapest (longest) first; 0 = continuous, which
  // effective_scrub_period turns into back-to-back passes at scan_mbps.
  const double ladder[] = {720.0, 336.0, 168.0, 72.0, 24.0, 6.0, 0.0};

  std::vector<Policy> policies;
  for (const auto& c : candidates) {
    Policy best;
    bool have = false;
    for (double period : ladder) {
      const double eff = sim::effective_scrub_period(period, store_bytes, scan_mbps);
      PredictionQuery pq;
      pq.system.n = n;
      pq.system.r = r;
      pq.system.device_bytes = device_bytes;
      pq.system.mttf_hours = mttf_hours;
      pq.system.rebuild_hours = rebuild_hours;
      pq.e = c.e;
      pq.p_sec = sim::scrubbed_p_sec(rate, eff);
      const auto pred = predict_reliability(pq);

      Policy p;
      p.e = c.e;
      p.s = c.s;
      p.period_hours = eff;
      p.p_sec = pq.p_sec;
      p.mttdl_hours = pred.mttdl_renewal_hours;
      p.loss_per_pb_year = pred.loss_per_pb_year;
      p.meets_target = pred.mttdl_renewal_hours >= target_hours;
      if (!have) {
        best = p;  // fallback: the most aggressive scrub still misses target
        have = true;
      }
      if (p.meets_target) {
        best = p;  // ladder is cheapest-first: first hit wins
        break;
      }
      best = p;  // keep tightening until the ladder runs out
    }
    policies.push_back(best);
  }

  // Cheapest policy first: meets-target, then fewest extra sectors, then
  // longest scrub period (least scrub I/O), then higher MTTDL.
  std::stable_sort(policies.begin(), policies.end(),
                   [](const Policy& a, const Policy& b) {
                     if (a.meets_target != b.meets_target) return a.meets_target;
                     if (a.s != b.s) return a.s < b.s;
                     if (a.period_hours != b.period_hours)
                       return a.period_hours > b.period_hours;
                     return a.mttdl_hours > b.mttdl_hours;
                   });

  // Measured cross-check for the top candidates: a short inflated-rate
  // ClusterSim run of the same code must land inside the analytic band.
  const std::size_t to_sim = std::min<std::size_t>(policies.size(), 3);
  for (std::size_t i = 0; i < to_sim; ++i) simulate_policy(policies[i], n, r);

  TablePrinter table("policies ranked cheapest-first (analytic at real rates, "
                     "sim at inflated rates)");
  table.set_header({"rank", "e", "s", "scrub (h)", "p_sec", "MTTDL (h)",
                    "target", "sim losses", "band", "agree"});
  const std::size_t show = std::min<std::size_t>(policies.size(), 10);
  for (std::size_t i = 0; i < show; ++i) {
    const auto& p = policies[i];
    char band[64] = "-";
    char losses[32] = "-";
    if (p.simulated) {
      std::snprintf(losses, sizeof losses, "%zu", p.sim_losses);
      std::snprintf(band, sizeof band, "[%.0f, %.0f]", p.sim_band.lo,
                    p.sim_band.hi);
    }
    table.add_row({std::to_string(i + 1), format_e(p.e), std::to_string(p.s),
                   format_sig(p.period_hours, 3), format_sig(p.p_sec, 3),
                   format_sig(p.mttdl_hours, 4), p.meets_target ? "met" : "MISS",
                   losses, band,
                   p.simulated ? (p.sim_in_band ? "in-band" : "DIVERGED") : "-"});
  }
  table.print(std::cout);

  const auto& best = policies.front();
  if (!best.meets_target) {
    std::printf(
        "no (e, scrub) policy reaches %g years even scrubbing continuously —\n"
        "add parity sectors (raise the budget), speed up repair, or relax the "
        "target.\n",
        target_hours / 8766.0);
    return 1;
  }
  std::printf(
      "recommendation: e = %s with a %.3g h scrub period — cheapest policy\n"
      "meeting the target (p_sec=%.3g, MTTDL=%.3g h ~ %.3g years)%s.\n",
      format_e(best.e).c_str(), best.period_hours, best.p_sec,
      best.mttdl_hours, best.mttdl_hours / 8766.0,
      best.simulated
          ? (best.sim_in_band ? "; simulated losses agree with the model"
                              : "; WARNING: simulation diverged from the model")
          : "");
  return best.simulated && !best.sim_in_band ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "cluster") == 0)
    return advise_cluster(argc, argv);
  std::size_t n = 8, r = 16, m = 2, beta = 2;
  double p_bit = 1e-12;
  if (argc > 7 || !read_arg(argc, argv, 1, &n) || !read_arg(argc, argv, 2, &r) ||
      !read_arg(argc, argv, 3, &m) || !read_arg(argc, argv, 4, &beta) ||
      !read_arg(argc, argv, 5, &p_bit) || (argc > 6 && std::strcmp(argv[6], "indep") != 0) ||
      n < 2 || r < 1 || m >= n || p_bit < 0 || p_bit > 1)
    return usage(argv[0]);
  const bool correlated = argc <= 6;

  std::printf("advising for n=%zu r=%zu m=%zu, burst tolerance beta=%zu, P_bit=%g, %s model\n\n",
              n, r, m, beta, p_bit, correlated ? "correlated-burst" : "independent");

  AdvisorQuery query;
  query.system.n = n;
  query.system.r = r;
  query.system.m = 1;  // the §7 Markov model; the ranking is what matters
  query.p_bit = p_bit;
  query.beta = beta;
  query.correlated = correlated;
  const auto ranked = rank_coverage_vectors(query);
  if (ranked.empty()) {
    std::printf("no coverage vector satisfies the constraints (beta too large?)\n");
    return 1;
  }

  TablePrinter table("candidates with e_max >= beta, ranked by MTTDL");
  table.set_header({"rank", "e", "s (extra sectors)", "MTTDL_sys (h)", "encode Mult_XORs",
                    "update penalty"});
  const std::size_t show = std::min<std::size_t>(ranked.size(), 12);
  for (std::size_t i = 0; i < show; ++i) {
    const auto& c = ranked[i];
    std::string e_str = "(";
    for (std::size_t k = 0; k < c.e.size(); ++k)
      e_str += (k ? "," : "") + std::to_string(c.e[k]);
    e_str += ")";

    // Cost and update columns use the *requested* m, not the model's m = 1.
    StairConfig cfg{.n = n, .r = r, .m = m, .e = c.e};
    std::string cost = "-", penalty = "-";
    try {
      cfg.w = std::max(cfg.minimum_w(), 8);
      cfg.validate();
      const StairCode code(cfg);
      cost = std::to_string(std::min(upstairs_mult_xors(cfg), downstairs_mult_xors(cfg)));
      penalty = format_sig(update_penalty(code).average, 4);
    } catch (...) {
      // coverage valid for the m = 1 reliability model but not for this m
    }
    table.add_row({std::to_string(i + 1), e_str, std::to_string(c.s),
                   format_sig(c.mttdl_hours, 4), cost, penalty});
  }
  table.print(std::cout);

  const auto& best = ranked.front();
  std::string e_str;
  for (std::size_t k = 0; k < best.e.size(); ++k)
    e_str += (k ? "," : "") + std::to_string(best.e[k]);
  std::printf("recommendation: e = (%s) — tolerates a beta=%zu burst at %zu extra parity\n"
              "sectors per stripe (IDR would need %zu extra sectors for the same burst).\n",
              e_str.c_str(), beta, best.s, beta * (n - m));
  return 0;
}
