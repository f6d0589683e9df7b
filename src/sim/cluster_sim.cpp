#include "sim/cluster_sim.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "sim/scrubber.h"
#include "stair/io_pipeline.h"
#include "stair/scrub_repair.h"
#include "util/rng.h"

namespace stair::sim {
namespace {

namespace fs = std::filesystem;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kPiB = 1125899906842624.0;  // 2^50
constexpr double kHoursPerYear = 8766.0;
constexpr double kInf = std::numeric_limits<double>::infinity();

double bytes_per_hour(double mbps) { return mbps * kMiB * 3600.0; }

/// Latest scrub-pass completion at or before `t` for an array whose passes
/// land at offset + k * period (k >= 0), or -inf when none has happened yet.
double last_scrub_before(double t, double offset, double period) {
  if (t < offset) return -kInf;
  if (!(period > 0.0)) return t;  // continuous scrubbing: always just cleaned
  return offset + std::floor((t - offset) / period) * period;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = std::min(v.size() - 1,
                            static_cast<std::size_t>(q / 100.0 * static_cast<double>(v.size())));
  return v[idx];
}

void flip_on_disk(const std::string& path, std::uint64_t offset, std::size_t len) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  if (!f) throw std::runtime_error("cluster_sim: cannot open " + path);
  std::vector<char> buf(len);
  f.seekg(static_cast<std::streamoff>(offset));
  f.read(buf.data(), static_cast<std::streamsize>(len));
  for (char& c : buf) c = static_cast<char>(c ^ 0xA5);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(buf.data(), static_cast<std::streamsize>(len));
  if (!f) throw std::runtime_error("cluster_sim: cannot corrupt " + path);
}

/// Clears latent sectors off `mask` (bottom row up, skipping the failed
/// device columns) until the pattern is back inside the coverage — the
/// "one error fewer" sibling of a loss mask, used to prove the real repair
/// path recovers what coverage says it should.
std::vector<bool> recoverable_variant(const StairCode& code, std::vector<bool> mask,
                                      const std::vector<std::size_t>& failed_devices) {
  const std::size_t n = code.config().n, r = code.config().r;
  std::vector<bool> device_failed(n, false);
  for (std::size_t d : failed_devices) device_failed[d] = true;
  if (code.is_recoverable(mask)) return mask;
  for (std::size_t i = r; i-- > 0;) {
    for (std::size_t j = 0; j < n; ++j) {
      if (device_failed[j] || !mask[i * n + j]) continue;
      mask[i * n + j] = false;
      if (code.is_recoverable(mask)) return mask;
    }
  }
  return mask;  // failed-device columns only: recoverable for any m >= 1 code
}

}  // namespace

void ValidationStats::finalize() {
  calm_samples = calm_ms.size();
  storm_samples = storm_ms.size();
  calm_p50_ms = percentile(calm_ms, 50.0);
  calm_p99_ms = percentile(calm_ms, 99.0);
  storm_p50_ms = percentile(storm_ms, 50.0);
  storm_p99_ms = percentile(storm_ms, 99.0);
}

ClusterSim::ClusterSim(ClusterConfig config) : config_(std::move(config)) {
  if (config_.arrays == 0) throw std::invalid_argument("cluster_sim: arrays must be > 0");
  if (config_.stripes_per_array == 0)
    throw std::invalid_argument("cluster_sim: stripes_per_array must be > 0");
  if (!(config_.device_bytes > 0.0))
    throw std::invalid_argument("cluster_sim: device_bytes must be > 0");
  if (!(config_.mttf_hours > 0.0))
    throw std::invalid_argument("cluster_sim: mttf_hours must be > 0");
  if (!(config_.repair_mbps_per_array > 0.0))
    throw std::invalid_argument("cluster_sim: repair_mbps_per_array must be > 0");
  if (!(config_.sim_hours > 0.0) || !std::isfinite(config_.sim_hours))
    throw std::invalid_argument("cluster_sim: sim_hours must be finite and > 0");
}

reliability::PredictionQuery ClusterSim::prediction_query() const {
  const StairConfig& c = config_.code;
  reliability::PredictionQuery q;
  q.system.n = c.n;
  q.system.r = c.r;
  q.system.m = c.m;
  q.system.mttf_hours = config_.mttf_hours;
  q.system.device_bytes = config_.device_bytes;
  // Eq. 11 derives stripes-per-array as C / (S * r); invert that so the
  // analytic array has exactly the simulated stripe count.
  q.system.sector_bytes =
      config_.device_bytes / (static_cast<double>(config_.stripes_per_array) *
                              static_cast<double>(c.r));
  // Deterministic solo rebuild: the renewal model's T.
  q.system.rebuild_hours =
      config_.device_bytes / bytes_per_hour(config_.repair_mbps_per_array);
  q.system.user_bytes = c.storage_efficiency() * static_cast<double>(c.n) *
                        config_.device_bytes * static_cast<double>(config_.arrays);
  q.e = c.e;
  q.correlated = config_.sector_model == SectorModel::kCorrelated;
  q.b1 = config_.b1;
  q.alpha = config_.alpha;
  if (config_.fixed_p_sec >= 0.0) {
    q.p_sec = config_.fixed_p_sec;
  } else if (config_.scrub_period_hours < 0.0) {
    // No scrubbing: errors age for the whole run; the stationary stand-in is
    // a pass that never comes, i.e. a period of sim_hours.
    q.p_sec = scrubbed_p_sec(config_.latent_error_rate_per_hour, config_.sim_hours);
  } else {
    const double period = effective_scrub_period(
        config_.scrub_period_hours,
        static_cast<double>(config_.code.n) * config_.device_bytes,
        config_.scrub_scan_mbps);
    q.p_sec = scrubbed_p_sec(config_.latent_error_rate_per_hour, period);
  }
  return q;
}

std::optional<CriticalLoss> ClusterSim::sample_critical_loss(
    const StairCode& code, std::size_t stripes, InjectorParams sector,
    const std::vector<std::size_t>& failed_devices, std::uint64_t seed) {
  const std::size_t n = code.config().n, r = code.config().r;
  FailureInjector injector(sector, seed);
  if (!(sector.p_sec > 0.0)) {
    // No latent errors: every stripe draws the identical device-only mask,
    // so one recoverability check covers the array.
    auto mask = injector.sample_stripe_mask(n, r, failed_devices);
    if (!code.is_recoverable(mask)) return CriticalLoss{0, std::move(mask)};
    return std::nullopt;
  }
  for (std::size_t k = 0; k < stripes; ++k) {
    auto mask = injector.sample_stripe_mask(n, r, failed_devices);
    if (!code.is_recoverable(mask)) return CriticalLoss{k, std::move(mask)};
  }
  return std::nullopt;
}

std::optional<CriticalLoss> ClusterSim::replay_loss(const LossEvent& event) const {
  if (event.kind != LossKind::kSectorLoss) return std::nullopt;
  const StairCode code(config_.code);
  InjectorParams sector;
  sector.model = config_.sector_model;
  sector.p_sec = event.p_latent;
  sector.b1 = config_.b1;
  sector.alpha = config_.alpha;
  return sample_critical_loss(code, config_.stripes_per_array, sector,
                              event.failed_devices, event.episode_seed);
}

ClusterReport ClusterSim::run() {
  const ClusterConfig& cfg = config_;
  const StairCode code(cfg.code);
  const std::size_t n = cfg.code.n;
  Rng rng(cfg.seed);

  ClusterReport report;
  report.seed = cfg.seed;
  report.sim_hours = cfg.sim_hours;

  const bool scrub_enabled = cfg.scrub_period_hours >= 0.0;
  const double scrub_period =
      scrub_enabled ? effective_scrub_period(
                          cfg.scrub_period_hours,
                          static_cast<double>(n) * cfg.device_bytes,
                          cfg.scrub_scan_mbps)
                    : -1.0;
  report.effective_scrub_period_hours = scrub_enabled ? scrub_period : -1.0;

  struct ArrayState {
    bool rebuilding = false;
    double next_fail = 0.0;       // absolute hours of the next device failure
    std::size_t failed_device = kNoDevice;
    double remaining_bytes = 0.0; // rebuild work left
    double last_clean = 0.0;      // last rebuild end (latent age anchor)
    double scrub_offset = 0.0;    // this array's scrub phase
  };
  std::vector<ArrayState> arrays(cfg.arrays);
  // All master-Rng draws happen in deterministic event order; init is pass 1.
  for (auto& a : arrays) {
    a.scrub_offset = scrub_enabled && scrub_period > 0.0
                         ? rng.next_double() * scrub_period
                         : 0.0;
    a.next_fail = rng.next_exponential(cfg.mttf_hours / static_cast<double>(n));
  }

  std::vector<InjectedFailure> injected = cfg.injected_failures;
  std::stable_sort(injected.begin(), injected.end(),
                   [](const InjectedFailure& x, const InjectedFailure& y) {
                     return x.time_hours < y.time_hours;
                   });
  std::size_t next_injected = 0;

  std::size_t rebuilding_count = 0;
  double share_mbps = cfg.repair_mbps_per_array;  // per-rebuild share (equal split)
  auto recompute_share = [&] {
    if (rebuilding_count == 0) return;
    share_mbps = cfg.repair_cap_mbps > 0.0
                     ? std::min(cfg.repair_mbps_per_array,
                                cfg.repair_cap_mbps / static_cast<double>(rebuilding_count))
                     : cfg.repair_mbps_per_array;
    report.max_concurrent_rebuilds =
        std::max(report.max_concurrent_rebuilds, rebuilding_count);
    report.max_aggregate_repair_mbps =
        std::max(report.max_aggregate_repair_mbps,
                 share_mbps * static_cast<double>(rebuilding_count));
  };

  double now = 0.0;
  auto advance_work = [&](double t) {
    if (rebuilding_count > 0 && t > now) {
      const double work = bytes_per_hour(share_mbps) * (t - now);
      for (auto& a : arrays) {
        if (!a.rebuilding) continue;
        const double done = std::min(work, a.remaining_bytes);
        a.remaining_bytes -= done;
        // n-1 chunk reads plus 1 chunk write per rebuilt byte.
        report.repair_traffic_bytes += done * static_cast<double>(n);
      }
    }
    now = t;
  };

  char line[256];
  auto trace = [&](const char* fmt, auto... args) {
    if (!cfg.record_trace || report.trace.size() >= cfg.trace_limit) return;
    std::snprintf(line, sizeof line, fmt, args...);
    report.trace.emplace_back(line);
  };

  const double complete_eps = 1e-6 * cfg.device_bytes;
  auto mask_popcount = [](const std::vector<bool>& mask) {
    std::size_t c = 0;
    for (bool b : mask) c += b;
    return c;
  };

  // One device of array `a` fails at `now` (natural or injected).
  auto on_failure = [&](std::size_t ai, std::size_t device) {
    ArrayState& a = arrays[ai];
    if (!a.rebuilding) {
      a.rebuilding = true;
      a.failed_device = device != kNoDevice ? device : rng.next_below(n);
      a.remaining_bytes = cfg.device_bytes;
      ++rebuilding_count;
      recompute_share();
      ++report.device_failures;
      a.next_fail = now + rng.next_exponential(cfg.mttf_hours /
                                               static_cast<double>(n - 1));
      trace("t=%.9f fail array=%zu dev=%zu rebuilding=%zu", now, ai,
            a.failed_device, rebuilding_count);
      return;
    }
    // Second failure mid-rebuild: device overflow (the m = 1 race lost).
    std::size_t second = device;
    if (second == kNoDevice) {
      second = rng.next_below(n - 1);
      if (second >= a.failed_device) ++second;
    }
    ++report.device_failures;
    LossEvent loss;
    loss.time_hours = now;
    loss.array = ai;
    loss.kind = LossKind::kDeviceOverflow;
    loss.failed_devices = {a.failed_device, second};
    report.losses.push_back(std::move(loss));
    ++report.device_overflow_losses;
    trace("t=%.9f overflow array=%zu dev=%zu,%zu", now, ai, a.failed_device, second);
    // The array is restored (fresh data) and re-enters the healthy state.
    a.rebuilding = false;
    a.failed_device = kNoDevice;
    a.remaining_bytes = 0.0;
    a.last_clean = now;
    --rebuilding_count;
    recompute_share();
    a.next_fail = now + rng.next_exponential(cfg.mttf_hours / static_cast<double>(n));
  };

  auto on_rebuild_complete = [&](std::size_t ai) {
    ArrayState& a = arrays[ai];
    ++report.rebuilds_completed;
    report.rebuilt_bytes += cfg.device_bytes;

    double p_latent = 0.0;
    if (cfg.fixed_p_sec >= 0.0) {
      p_latent = cfg.fixed_p_sec;
    } else if (cfg.latent_error_rate_per_hour > 0.0) {
      double anchor = a.last_clean;
      if (scrub_enabled)
        anchor = std::max(anchor,
                          last_scrub_before(now, a.scrub_offset, scrub_period));
      const double age = std::max(0.0, now - anchor);
      p_latent = -std::expm1(-cfg.latent_error_rate_per_hour * age);
    }
    // The child seed is drawn unconditionally so the master stream does not
    // depend on whether the draw is skippable.
    const std::uint64_t episode_seed = rng.next_u64();
    std::optional<CriticalLoss> loss;
    if (p_latent > 0.0 || cfg.fixed_p_sec > 0.0) {
      InjectorParams sector;
      sector.model = cfg.sector_model;
      sector.p_sec = p_latent;
      sector.b1 = cfg.b1;
      sector.alpha = cfg.alpha;
      loss = sample_critical_loss(code, cfg.stripes_per_array, sector,
                                  {a.failed_device}, episode_seed);
    }
    if (loss) {
      LossEvent ev;
      ev.time_hours = now;
      ev.array = ai;
      ev.kind = LossKind::kSectorLoss;
      ev.failed_devices = {a.failed_device};
      ev.episode_seed = episode_seed;
      ev.p_latent = p_latent;
      ev.stripe = loss->stripe;
      ev.mask = loss->mask;
      trace("t=%.9f sector-loss array=%zu dev=%zu stripe=%zu lost=%zu seed=%llu",
            now, ai, a.failed_device, ev.stripe, mask_popcount(ev.mask),
            static_cast<unsigned long long>(episode_seed));
      report.losses.push_back(std::move(ev));
      ++report.sector_losses;
    } else {
      trace("t=%.9f rebuilt array=%zu dev=%zu p_latent=%.3e", now, ai,
            a.failed_device, p_latent);
    }
    a.rebuilding = false;
    a.failed_device = kNoDevice;
    a.remaining_bytes = 0.0;
    a.last_clean = now;  // the rebuild pass re-verified the survivors
    --rebuilding_count;
    recompute_share();
    a.next_fail = now + rng.next_exponential(cfg.mttf_hours / static_cast<double>(n));
  };

  while (true) {
    double t_fail = kInf;
    std::size_t fail_array = 0;
    double min_remaining = kInf;
    for (std::size_t i = 0; i < arrays.size(); ++i) {
      if (arrays[i].next_fail < t_fail) {
        t_fail = arrays[i].next_fail;
        fail_array = i;
      }
      if (arrays[i].rebuilding)
        min_remaining = std::min(min_remaining, arrays[i].remaining_bytes);
    }
    const double t_complete =
        rebuilding_count > 0
            ? now + std::max(0.0, min_remaining) / bytes_per_hour(share_mbps)
            : kInf;
    double t_injected = kInf;
    while (next_injected < injected.size() &&
           injected[next_injected].array >= cfg.arrays)
      ++next_injected;  // out-of-range trace entries are ignored
    if (next_injected < injected.size())
      t_injected = injected[next_injected].time_hours;

    const double t_next =
        std::min({t_fail, t_complete, t_injected, cfg.sim_hours});
    advance_work(t_next);
    if (t_next >= cfg.sim_hours) break;

    if (t_injected <= t_complete && t_injected <= t_fail) {
      const InjectedFailure& inj = injected[next_injected++];
      on_failure(inj.array, inj.device);
    } else if (t_complete <= t_fail) {
      // Everything that reached zero work completes at this instant.
      for (std::size_t i = 0; i < arrays.size(); ++i)
        if (arrays[i].rebuilding && arrays[i].remaining_bytes <= complete_eps)
          on_rebuild_complete(i);
    } else {
      on_failure(fail_array, kNoDevice);
    }
  }

  // Roll-ups.
  report.loss_events = report.losses.size();
  if (scrub_enabled && scrub_period > 0.0) {
    for (const auto& a : arrays) {
      if (cfg.sim_hours < a.scrub_offset) continue;
      const double passes =
          std::floor((cfg.sim_hours - a.scrub_offset) / scrub_period) + 1.0;
      report.scrub_passes += passes;
      report.scrub_bytes += passes * static_cast<double>(n) * cfg.device_bytes;
    }
  }
  report.repair_amplification =
      report.rebuilt_bytes > 0.0
          ? report.repair_traffic_bytes / report.rebuilt_bytes
          : 0.0;

  const double user_bytes_per_array = cfg.code.storage_efficiency() *
                                      static_cast<double>(n) * cfg.device_bytes;
  report.user_pb_years = static_cast<double>(cfg.arrays) * user_bytes_per_array /
                         kPiB * cfg.sim_hours / kHoursPerYear;
  report.losses_per_pb_year =
      report.user_pb_years > 0.0
          ? static_cast<double>(report.loss_events) / report.user_pb_years
          : 0.0;

  // Analytic comparison (the m = 1 restriction of §7 applies; other codes
  // simulate fine but compare against an empty prediction).
  try {
    report.prediction = reliability::predict_reliability(prediction_query());
    const double expected =
        std::isfinite(report.prediction.mttdl_renewal_hours)
            ? static_cast<double>(cfg.arrays) * cfg.sim_hours /
                  report.prediction.mttdl_renewal_hours
            : 0.0;
    report.band = reliability::poisson_band(expected);
    report.within_band = reliability::within_band(
        report.band, static_cast<double>(report.loss_events));
  } catch (const std::exception&) {
    report.band = reliability::poisson_band(0.0);
    report.within_band = false;
  }

  if (cfg.validation == ValidationMode::kDataPath) {
    for (const auto& ev : report.losses) {
      if (report.validation.events_checked >= cfg.max_validated_events) break;
      if (ev.kind != LossKind::kSectorLoss) continue;
      validate_on_data_path(ev, report.validation);
    }
    report.validation.finalize();
  }
  return report;
}

void ClusterSim::validate_on_data_path(const LossEvent& event,
                                       ValidationStats& stats,
                                       const std::string& scratch_dir) const {
  const ClusterConfig& cfg = config_;
  const fs::path base =
      scratch_dir.empty() ? fs::temp_directory_path() : fs::path(scratch_dir);
  const fs::path dir =
      base / ("stair_cluster_sim_" + std::to_string(::getpid()) + "_" +
              std::to_string(event.episode_seed));
  try {
    fs::remove_all(dir);
    fs::create_directories(dir);

    const StairCode code(cfg.code);
    const std::size_t n = cfg.code.n, r = cfg.code.r;
    const std::size_t symbol = cfg.validation_symbol_bytes;
    const std::size_t stripes = std::max<std::size_t>(cfg.validation_stripes, 2);
    const std::size_t stripe_data = cfg.code.data_symbols_inside() * symbol;

    // A real store holding seeded random bytes.
    std::vector<std::uint8_t> input(stripes * stripe_data);
    Rng data_rng(cfg.seed ^ event.episode_seed);
    data_rng.fill(input);
    const fs::path input_path = dir / "input.bin";
    {
      std::ofstream out(input_path, std::ios::binary);
      out.write(reinterpret_cast<const char*>(input.data()),
                static_cast<std::streamsize>(input.size()));
      if (!out) throw std::runtime_error("cluster_sim: cannot write input");
    }
    Codec codec(cfg.code);
    IoPipeline::Options popt;
    popt.symbol_bytes = symbol;
    IoPipeline pipeline(codec, popt);
    const std::string sdir = (dir / "store").string();
    auto enc = pipeline.encode_file(input_path.string(), sdir);
    if (!enc.ok) throw std::runtime_error("cluster_sim: encode failed: " + enc.error);
    const StripeStore store = StripeStore::load(sdir);

    // Calm-store latency baseline.
    Rng probe_rng(event.episode_seed ^ 0x5ca1ab1eULL);
    std::vector<std::uint8_t> out(std::min<std::size_t>(4096, input.size()));
    auto probe = [&](std::vector<double>& samples) {
      const std::uint64_t off = probe_rng.next_below(input.size() - out.size() + 1);
      const auto t0 = std::chrono::steady_clock::now();
      auto st = pipeline.read_range(store, sdir, off, out);
      const auto t1 = std::chrono::steady_clock::now();
      if (st.ok)
        samples.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
      return st.ok;
    };
    for (int i = 0; i < 32; ++i)
      if (!probe(stats.calm_ms)) ++stats.mismatches;

    // Phase A: the event's recoverable sibling — failed device gone, latent
    // sectors short of the coverage edge — must rebuild and repair to a
    // byte-exact store while foreground reads keep being served.
    const std::size_t failed = event.failed_devices.front();
    const auto soft_mask = recoverable_variant(code, event.mask, event.failed_devices);
    auto corrupt_stripe = [&](std::size_t stripe, const std::vector<bool>& mask) {
      for (std::size_t i = 0; i < r; ++i)
        for (std::size_t j = 0; j < n; ++j) {
          if (!mask[i * n + j] || j == failed) continue;
          flip_on_disk(StripeStore::device_path(sdir, j),
                       store.chunk_offset(stripe) + i * symbol, symbol);
        }
    };
    fs::remove(StripeStore::device_path(sdir, failed));
    corrupt_stripe(0, soft_mask);

    // Pace the rebuild so the storm window is wide enough to sample, and run
    // it through the cluster-wide governor when one is configured.
    const double scan_bytes =
        static_cast<double>(stripes) * static_cast<double>(n) *
        static_cast<double>(store.padded_chunk_bytes());
    ScrubOptions sopt;
    sopt.rate_mbps = std::max(0.5, scan_bytes / kMiB / 0.25);
    sopt.burst_bytes = static_cast<double>(store.padded_chunk_bytes());
    SharedBandwidth shared(cfg.repair_cap_mbps);
    if (cfg.repair_cap_mbps > 0.0) sopt.shared_bandwidth = &shared;
    Scrubber scrubber(codec, sopt);

    ScrubReport rebuilt;
    std::atomic<bool> done{false};
    const auto r0 = std::chrono::steady_clock::now();
    std::thread rebuilder([&] {
      rebuilt = scrubber.rebuild_device(sdir, failed);
      done.store(true, std::memory_order_release);
    });
    while (!done.load(std::memory_order_acquire) && stats.storm_ms.size() < 20000)
      if (!probe(stats.storm_ms)) ++stats.mismatches;
    rebuilder.join();
    const double rebuild_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - r0).count();
    if (rebuild_s > 0.0)
      stats.rebuild_mbps = static_cast<double>(rebuilt.bytes_read +
                                               rebuilt.bytes_written) /
                           kMiB / rebuild_s;
    stats.sectors_repaired += rebuilt.sectors_repaired;
    if (!rebuilt.ok || rebuilt.stripes_unrecoverable != 0) ++stats.mismatches;

    // The recovered store must decode byte-exactly.
    const fs::path decoded = dir / "decoded.bin";
    auto dec = pipeline.decode_file(sdir, decoded.string());
    std::vector<std::uint8_t> round;
    {
      std::ifstream in(decoded, std::ios::binary);
      round.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    if (!dec.ok || round != input) ++stats.mismatches;

    // Phase B: the loss mask itself — coverage called it unrecoverable, so
    // the production path must agree (fail that stripe, not "repair" it).
    const std::size_t loss_stripe = event.stripe % stripes;
    fs::remove(StripeStore::device_path(sdir, failed));
    corrupt_stripe(loss_stripe, event.mask);
    Scrubber fast(codec);
    auto verdict = fast.rebuild_device(sdir, failed);
    if (verdict.stripes_unrecoverable == 0) ++stats.mismatches;

    ++stats.events_checked;
  } catch (const std::exception& e) {
    if (stats.error.empty()) stats.error = e.what();
    ++stats.mismatches;
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace stair::sim
