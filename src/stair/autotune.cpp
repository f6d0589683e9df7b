#include "stair/autotune.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <thread>
#include <utility>

#include "gf/gf.h"
#include "util/buffer.h"
#include "util/env.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#if !defined(_WIN32)
#include <sys/stat.h>
#endif

namespace stair {

namespace {

constexpr double kBytesPerMb = 1000.0 * 1000.0;

// Probe sizing. Two region sizes straddle the slice sizes the execution
// layer actually uses; per-cell time floors keep the whole probe in the
// tens-of-milliseconds band even for the slow scalar cells (and the result
// is disk-cached, so the cost is per-machine, not per-process).
constexpr std::size_t kProbeSizes[] = {64 * 1024, 256 * 1024};
constexpr double kMinCellSeconds = 1e-4;
constexpr int kMinCellIters = 2;

// Times `fn` (touching `bytes` per call) until the floor is met; MB/s.
template <typename Fn>
double measure_mbps(std::size_t bytes, Fn&& fn) {
  fn();  // warm tables, faults, branch history
  Stopwatch sw;
  int iters = 0;
  double elapsed = 0.0;
  do {
    fn();
    ++iters;
    elapsed = sw.elapsed_seconds();
  } while (iters < kMinCellIters || elapsed < kMinCellSeconds);
  if (elapsed <= 0.0) return 0.0;
  return static_cast<double>(bytes) * iters / elapsed / kBytesPerMb;
}

}  // namespace

// ---------------------------------------------------------------------------
// TuneProfile lookups
// ---------------------------------------------------------------------------

double TuneProfile::mult_xor_mbps(gf::Backend backend, gf::RegionLayout layout, int w,
                                  std::size_t region_bytes) const {
  const TuneCell* best = nullptr;
  for (const TuneCell& c : cells) {
    if (c.backend != static_cast<int>(backend) || c.layout != static_cast<int>(layout) ||
        c.w != w)
      continue;
    if (!best) {
      best = &c;
      continue;
    }
    if (region_bytes == 0) {
      if (c.region_bytes > best->region_bytes) best = &c;
    } else {
      const auto dist = [&](std::size_t s) {
        return s > region_bytes ? s - region_bytes : region_bytes - s;
      };
      if (dist(c.region_bytes) < dist(best->region_bytes)) best = &c;
    }
  }
  return best ? best->mbps : 0.0;
}

double TuneProfile::convert_mbps(gf::Backend backend, int w) const {
  for (const TuneCell& c : convert_cells)
    if (c.backend == static_cast<int>(backend) && c.w == w) return c.mbps;
  return 0.0;
}

// ---------------------------------------------------------------------------
// JSON serialization — hand-rolled for our own format (no dependencies).
// ---------------------------------------------------------------------------

namespace {

void append_escaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out->push_back('\\');
    if (static_cast<unsigned char>(ch) >= 0x20) out->push_back(ch);
  }
  out->push_back('"');
}

void append_cells(std::string* out, const char* key, const std::vector<TuneCell>& cells) {
  char buf[160];
  *out += "  \"";
  *out += key;
  *out += "\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const TuneCell& c = cells[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n    {\"backend\": %d, \"layout\": %d, \"w\": %d, "
                  "\"region_bytes\": %zu, \"mbps\": %.17g}",
                  i ? "," : "", c.backend, c.layout, c.w, c.region_bytes, c.mbps);
    *out += buf;
  }
  *out += cells.empty() ? "]" : "\n  ]";
}

// Minimal JSON scanner: just enough structure (objects, arrays, strings,
// numbers, bools) to re-read to_json output plus hand-edited variants.
struct JsonScanner {
  const char* p;
  const char* end;

  explicit JsonScanner(const std::string& s) : p(s.data()), end(s.data() + s.size()) {}

  void skip_ws() {
    while (p < end && std::isspace(static_cast<unsigned char>(*p))) ++p;
  }
  bool consume(char ch) {
    skip_ws();
    if (p < end && *p == ch) {
      ++p;
      return true;
    }
    return false;
  }
  bool peek(char ch) {
    skip_ws();
    return p < end && *p == ch;
  }
  bool string(std::string* out) {
    skip_ws();
    if (p >= end || *p != '"') return false;
    ++p;
    out->clear();
    while (p < end && *p != '"') {
      if (*p == '\\' && p + 1 < end) ++p;
      out->push_back(*p++);
    }
    if (p >= end) return false;
    ++p;
    return true;
  }
  bool number(double* out) {
    skip_ws();
    char* done = nullptr;
    *out = std::strtod(p, &done);
    if (done == p) return false;
    p = done;
    return true;
  }
  // strtod also takes 1e300, -1, inf and nan, and casting a double outside
  // the target type is UB: an integer field takes only a finite, integral,
  // in-range value, a rate only a finite, non-negative one.
  template <typename T>
  bool integer(T* out) {
    double v;
    if (!number(&v) || !(v >= static_cast<double>(std::numeric_limits<T>::min()) &&
                         v < static_cast<double>(std::numeric_limits<T>::max()) + 1.0 &&
                         std::trunc(v) == v))
      return false;
    *out = static_cast<T>(v);
    return true;
  }
  bool rate(double* out) { return number(out) && std::isfinite(*out) && *out >= 0.0; }
  bool boolean(bool* out) {
    skip_ws();
    if (end - p >= 4 && std::strncmp(p, "true", 4) == 0) {
      *out = true;
      p += 4;
      return true;
    }
    if (end - p >= 5 && std::strncmp(p, "false", 5) == 0) {
      *out = false;
      p += 5;
      return true;
    }
    return false;
  }
  // Skips any value (used for unknown keys — forward compatibility).
  bool skip_value() {
    skip_ws();
    if (p >= end) return false;
    if (*p == '"') {
      std::string s;
      return string(&s);
    }
    if (*p == '{' || *p == '[') {
      const char open = *p, close = open == '{' ? '}' : ']';
      int depth = 0;
      bool in_string = false;
      for (; p < end; ++p) {
        if (in_string) {
          if (*p == '\\') ++p;
          else if (*p == '"') in_string = false;
        } else if (*p == '"') {
          in_string = true;
        } else if (*p == open) {
          ++depth;
        } else if (*p == close) {
          if (--depth == 0) {
            ++p;
            return true;
          }
        }
      }
      return false;
    }
    bool b;
    if (boolean(&b)) return true;
    double d;
    return number(&d);
  }
};

bool parse_cell(JsonScanner* js, TuneCell* cell) {
  if (!js->consume('{')) return false;
  if (js->consume('}')) return true;
  do {
    std::string key;
    if (!js->string(&key) || !js->consume(':')) return false;
    bool ok;
    double ignored;
    if (key == "backend") ok = js->integer(&cell->backend);
    else if (key == "layout") ok = js->integer(&cell->layout);
    else if (key == "w") ok = js->integer(&cell->w);
    else if (key == "region_bytes") ok = js->integer(&cell->region_bytes);
    else if (key == "mbps") ok = js->rate(&cell->mbps);
    else ok = js->number(&ignored);
    if (!ok) return false;
  } while (js->consume(','));
  return js->consume('}');
}

bool parse_cells(JsonScanner* js, std::vector<TuneCell>* cells) {
  if (!js->consume('[')) return false;
  if (js->consume(']')) return true;
  do {
    TuneCell cell;
    if (!parse_cell(js, &cell)) return false;
    cells->push_back(cell);
  } while (js->consume(','));
  return js->consume(']');
}

}  // namespace

std::string TuneProfile::to_json() const {
  std::string out = "{\n";
  char buf[128];
  std::snprintf(buf, sizeof buf, "  \"version\": %d,\n", version);
  out += buf;
  out += "  \"fingerprint\": ";
  append_escaped(&out, fingerprint);
  out += ",\n";
  std::snprintf(buf, sizeof buf, "  \"measured\": %s,\n", measured ? "true" : "false");
  out += buf;
  std::snprintf(buf, sizeof buf, "  \"memcpy_mbps\": %.17g,\n", memcpy_mbps);
  out += buf;
  std::snprintf(buf, sizeof buf, "  \"xor_mbps\": %.17g,\n", xor_mbps);
  out += buf;
  std::snprintf(buf, sizeof buf, "  \"dispatch_overhead_ns\": %.17g,\n", dispatch_overhead_ns);
  out += buf;
  std::snprintf(buf, sizeof buf, "  \"cache_budget_bytes\": %zu,\n", cache_budget_bytes);
  out += buf;
  append_cells(&out, "cells", cells);
  out += ",\n";
  append_cells(&out, "convert", convert_cells);
  out += "\n}\n";
  return out;
}

bool TuneProfile::from_json(const std::string& text, TuneProfile* out) {
  TuneProfile p;
  p.version = 0;
  JsonScanner js(text);
  if (!js.consume('{')) return false;
  if (!js.consume('}')) {
    do {
      std::string key;
      if (!js.string(&key) || !js.consume(':')) return false;
      bool ok = true;
      if (key == "version") {
        ok = js.integer(&p.version);
      } else if (key == "fingerprint") {
        ok = js.string(&p.fingerprint);
      } else if (key == "measured") {
        ok = js.boolean(&p.measured);
      } else if (key == "memcpy_mbps") {
        ok = js.rate(&p.memcpy_mbps);
      } else if (key == "xor_mbps") {
        ok = js.rate(&p.xor_mbps);
      } else if (key == "dispatch_overhead_ns") {
        ok = js.rate(&p.dispatch_overhead_ns);
      } else if (key == "cache_budget_bytes") {
        ok = js.integer(&p.cache_budget_bytes);
      } else if (key == "cells") {
        ok = parse_cells(&js, &p.cells);
      } else if (key == "convert") {
        ok = parse_cells(&js, &p.convert_cells);
      } else {
        ok = js.skip_value();
      }
      if (!ok) return false;
    } while (js.consume(','));
    if (!js.consume('}')) return false;
  }
  *out = std::move(p);
  return true;
}

// ---------------------------------------------------------------------------
// Probe
// ---------------------------------------------------------------------------

std::string Autotune::cpu_fingerprint() {
  std::string brand;
#if defined(__x86_64__) || defined(__i386__)
  unsigned a, b, c, d;
  if (__get_cpuid(0x80000000u, &a, &b, &c, &d) && a >= 0x80000004u) {
    char raw[49] = {};
    unsigned* words = reinterpret_cast<unsigned*>(raw);
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &a, &b, &c, &d);
      words[4 * leaf + 0] = a;
      words[4 * leaf + 1] = b;
      words[4 * leaf + 2] = c;
      words[4 * leaf + 3] = d;
    }
    brand = raw;
    // Trim the brand string's padding spaces.
    while (!brand.empty() && (brand.back() == ' ' || brand.back() == '\0')) brand.pop_back();
  }
#endif
  if (brand.empty()) brand = "unknown-cpu";
  std::string backends;
  for (gf::Backend bk :
       {gf::Backend::kScalar, gf::Backend::kSsse3, gf::Backend::kAvx2, gf::Backend::kGfni,
        gf::Backend::kAvx512})
    if (gf::backend_supported(bk)) {
      if (!backends.empty()) backends += '+';
      backends += gf::backend_name(bk);
    }
  return brand + " [" + backends + "]";
}

namespace {

// Streams a Mult_XOR over (src, dst) in `layout`; returns MB/s counting the
// bytes the kernel reads+writes per pass (src + dst load + dst store would
// be 3x, but MB/s here is a comparator, not a bandwidth claim — only ratios
// between cells matter, so count region bytes once like the benches do).
double probe_mult_xor(const gf::CompiledKernel& kernel, gf::RegionLayout layout,
                      std::uint8_t* src, std::uint8_t* dst, std::size_t bytes) {
  return measure_mbps(bytes, [&] {
    kernel.mult_xor({src, bytes}, {dst, bytes}, layout);
  });
}

double probe_convert(int w, std::uint8_t* data, std::size_t bytes) {
  // Round trip: to altmap and back. Count both passes — the boundary
  // conversion a replay pays is exactly this pair.
  return measure_mbps(2 * bytes, [&] {
    gf::convert_region(w, gf::RegionLayout::kStandard, gf::RegionLayout::kAltmap,
                       {data, bytes});
    gf::convert_region(w, gf::RegionLayout::kAltmap, gf::RegionLayout::kStandard,
                       {data, bytes});
  });
}

double probe_dispatch_overhead_ns() {
  ThreadPool& pool = ThreadPool::default_pool();
  constexpr int kTasks = 256;
  std::atomic<int> remaining{kTasks};
  const auto run = [&] {
    remaining.store(kTasks, std::memory_order_relaxed);
    for (int i = 0; i < kTasks; ++i)
      pool.submit([&remaining] { remaining.fetch_sub(1, std::memory_order_relaxed); });
    while (remaining.load(std::memory_order_relaxed) > 0) {
      if (!pool.try_run_one()) std::this_thread::yield();
    }
  };
  run();  // warm the queue paths once
  // Median over repeats: one pass swings both ways — low when the caller
  // drains the queue before a worker wakes, high when a descheduled worker
  // holds up the tail — by well over 10x on a shared host.
  double ns[7];
  for (double& sample : ns) {
    Stopwatch sw;
    run();
    sample = sw.elapsed_seconds() / kTasks * 1e9;
  }
  std::nth_element(ns, ns + 3, ns + 7);
  return ns[3];
}

// Streaming-size sweep: throughput of the active backend's w = 8 Mult_XOR
// at growing region sizes; the cache budget is twice the largest size that
// still holds near-peak throughput (src + dst = 2 regions resident).
std::size_t probe_cache_budget(const gf::Field& f8) {
  constexpr std::size_t kSweep[] = {32 * 1024, 128 * 1024, 512 * 1024, 2 * 1024 * 1024};
  const auto kernel = gf::compiled_kernel(f8, 7);
  AlignedBuffer src(kSweep[3]), dst(kSweep[3]);
  std::memset(src.data(), 0xa5, src.size());
  std::memset(dst.data(), 0x3c, dst.size());
  // Per-size max over repeats: on a shared host, interference only ever
  // lowers a sample, so max is the right estimator of the quiet rate.
  double best = 0.0;
  double mbps[4] = {};
  for (int rep = 0; rep < 3; ++rep)
    for (int i = 0; i < 4; ++i)
      mbps[i] = std::max(mbps[i], probe_mult_xor(*kernel, gf::RegionLayout::kStandard,
                                                 src.data(), dst.data(), kSweep[i]));
  for (int i = 0; i < 4; ++i) best = std::max(best, mbps[i]);
  std::size_t resident = kSweep[0];
  for (int i = 0; i < 4; ++i)
    if (mbps[i] >= 0.85 * best) resident = kSweep[i];
  std::size_t budget = std::clamp<std::size_t>(2 * resident, 128 * 1024, 8 * 1024 * 1024);
  // A transient dip in the sweep must never shrink the strip budget below
  // what the reported cache hierarchy provably holds — the measurement can
  // only raise the detection-based default (e.g. when streaming from a big
  // L3 measures flat), not undercut it.
  if (const std::size_t l2 = gf::detected_l2_cache_bytes())
    budget = std::max(budget, std::clamp<std::size_t>(l2 / 2, 128 * 1024, 8 * 1024 * 1024));
  return budget;
}

}  // namespace

TuneProfile Autotune::probe_now() {
  TuneProfile p;
  p.fingerprint = cpu_fingerprint();

  constexpr std::size_t kMaxProbe = kProbeSizes[1];
  AlignedBuffer src(kMaxProbe), dst(kMaxProbe);
  std::memset(src.data(), 0xa5, src.size());
  std::memset(dst.data(), 0x3c, dst.size());

  // Baseline bandwidths.
  p.memcpy_mbps = measure_mbps(kMaxProbe, [&] {
    std::memcpy(dst.data(), src.data(), kMaxProbe);
  });
  p.xor_mbps = measure_mbps(kMaxProbe, [&] {
    gf::xor_region({src.data(), kMaxProbe}, {dst.data(), kMaxProbe});
  });
  p.dispatch_overhead_ns = probe_dispatch_overhead_ns();

  // Mult_XOR surface: every supported backend x layout x width x size.
  // Forcing a backend changes only which code path runs — results are
  // bit-identical — so flipping through them mid-process is safe; the
  // active backend is restored afterwards.
  const gf::Backend saved = gf::active_backend();
  for (gf::Backend bk :
       {gf::Backend::kScalar, gf::Backend::kSsse3, gf::Backend::kAvx2, gf::Backend::kGfni,
        gf::Backend::kAvx512}) {
    if (!gf::backend_supported(bk)) continue;
    gf::force_backend(bk);
    for (int w : {4, 8, 16, 32}) {
      const gf::Field f(w);
      const auto kernel = gf::compiled_kernel(f, 7);
      for (gf::RegionLayout layout : {gf::RegionLayout::kStandard, gf::RegionLayout::kAltmap}) {
        if (layout == gf::RegionLayout::kAltmap && w < 16) continue;  // layouts coincide
        for (std::size_t bytes : kProbeSizes) {
          TuneCell cell;
          cell.backend = static_cast<int>(bk);
          cell.layout = static_cast<int>(layout);
          cell.w = w;
          cell.region_bytes = bytes;
          cell.mbps = probe_mult_xor(*kernel, layout, src.data(), dst.data(), bytes);
          p.cells.push_back(cell);
        }
      }
      if (w >= 16) {
        TuneCell conv;
        conv.backend = static_cast<int>(bk);
        conv.layout = static_cast<int>(gf::RegionLayout::kAltmap);
        conv.w = w;
        conv.region_bytes = kProbeSizes[0];
        conv.mbps = probe_convert(w, src.data(), kProbeSizes[0]);
        p.convert_cells.push_back(conv);
      }
    }
  }
  gf::force_backend(saved);

  {
    const gf::Field f8(8);
    p.cache_budget_bytes = probe_cache_budget(f8);
  }
  p.measured = true;
  return p;
}

// ---------------------------------------------------------------------------
// File cache
// ---------------------------------------------------------------------------

std::string Autotune::default_tune_path() {
  if (const char* env = std::getenv("STAIR_TUNE_FILE")) {
    return *env ? std::string(env) : std::string();
  }
  if (const char* home = std::getenv("HOME")) {
    if (*home) return std::string(home) + "/.cache/stair_tune.json";
  }
  return {};
}

bool Autotune::save_profile(const TuneProfile& p, const std::string& path) {
  if (path.empty()) return false;
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (!f) {
    // Create the parent chain recursively: STAIR_TUNE_FILE may point
    // arbitrarily deep (/a/b/c/tune.json), and a silent failure here means
    // the probe re-runs in every process — the cache must either exist or
    // the caller must hear that it can't.
    const std::size_t slash = path.rfind('/');
    if (slash == std::string::npos) return false;
    std::error_code ec;
    std::filesystem::create_directories(path.substr(0, slash), ec);
    if (ec) return false;
    f = std::fopen(tmp.c_str(), "w");
    if (!f) return false;
  }
  const std::string json = p.to_json();
  const bool wrote = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool Autotune::load_profile(const std::string& path, TuneProfile* out) {
  if (path.empty()) return false;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (!f) return false;
  std::string text;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, got);
  std::fclose(f);
  return TuneProfile::from_json(text, out);
}

// ---------------------------------------------------------------------------
// Singleton + decisions
// ---------------------------------------------------------------------------

Autotune& Autotune::instance() {
  static Autotune tuner;
  return tuner;
}

bool Autotune::enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (enabled_override_ >= 0) return enabled_override_ != 0;
  return env_flag("STAIR_AUTOTUNE", true);
}

void Autotune::ensure() {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (ensured_) return;
  ensured_ = true;  // even on failure: don't re-probe every construction
  const std::string path = default_tune_path();
  TuneProfile loaded;
  if (load_profile(path, &loaded) && loaded.version == kTuneProfileVersion &&
      loaded.measured && loaded.fingerprint == cpu_fingerprint()) {
    profile_ = std::move(loaded);
  } else {
    profile_ = probe_now();
    (void)save_profile(profile_, path);  // best-effort
  }
  if (profile_.measured && profile_.cache_budget_bytes)
    gf::set_region_cache_budget(profile_.cache_budget_bytes);
}

const TuneProfile& Autotune::profile() {
  ensure();
  std::lock_guard<std::mutex> lock(mu_);
  return profile_;
}

gf::RegionLayout Autotune::choose_layout(int w, double mult_xors_per_region,
                                         std::size_t region_bytes) {
  if (w < 16 || !enabled() || gf::layout_forced()) return gf::preferred_layout(w);
  ensure();
  const gf::Backend bk = gf::active_backend();
  double std_mbps, alt_mbps, conv_mbps;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!profile_.measured) return gf::preferred_layout(w);
    std_mbps = profile_.mult_xor_mbps(bk, gf::RegionLayout::kStandard, w, region_bytes);
    alt_mbps = profile_.mult_xor_mbps(bk, gf::RegionLayout::kAltmap, w, region_bytes);
    conv_mbps = profile_.convert_mbps(bk, w);
  }
  if (std_mbps <= 0.0 || alt_mbps <= 0.0 || conv_mbps <= 0.0)
    return gf::preferred_layout(w);
  // Regions shorter than one altmap block never convert — altmap would run
  // the standard tail loop plus two (no-op) boundary passes for nothing.
  if (region_bytes < gf::kAltmapBlockBytes) return gf::RegionLayout::kStandard;
  const double ops = std::max(1.0, mult_xors_per_region);
  // Cost per byte of one referenced region across a replay: `ops` kernel
  // passes, plus (altmap only) the round-trip boundary conversion. The
  // convert cell already counts both passes, so its cost per byte is
  // 2 / conv_mbps.
  const double cost_std = ops / std_mbps;
  const double cost_alt = ops / alt_mbps + 2.0 / conv_mbps;
  return cost_alt < cost_std ? gf::RegionLayout::kAltmap : gf::RegionLayout::kStandard;
}

std::size_t Autotune::min_slice_bytes(int w, gf::RegionLayout layout, std::size_t mult_xors) {
  constexpr std::size_t kFixedFloor = 4096;
  if (!enabled()) return kFixedFloor;
  ensure();
  const gf::Backend bk = gf::active_backend();
  double mbps, overhead_ns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!profile_.measured) return kFixedFloor;
    mbps = profile_.mult_xor_mbps(bk, layout, w, 0);
    overhead_ns = profile_.dispatch_overhead_ns;
  }
  if (mbps <= 0.0 || overhead_ns <= 0.0) return kFixedFloor;
  // A slice is worth dispatching when its compute time is a healthy
  // multiple of the submit round trip. A slice of b bytes replays the whole
  // job — `mult_xors` region passes of b bytes each — so
  // b = alpha * overhead * rate / mult_xors; MB/s => bytes/ns = mbps / 1000.
  constexpr double kAlpha = 8.0;
  const double bytes = kAlpha * overhead_ns * (mbps / 1000.0) /
                       static_cast<double>(std::max<std::size_t>(1, mult_xors));
  // The measurement can raise the fixed floor, never undercut it: the
  // probe times a warm queue, but a slice wakes a parked worker, which
  // costs far more, and every pass of the plan pays a per-call overhead a
  // sub-4 KiB slice cannot hide.
  const std::size_t rounded =
      std::clamp<std::size_t>(static_cast<std::size_t>(bytes), kFixedFloor, 256 * 1024);
  return (rounded + 63) & ~std::size_t{63};
}

void Autotune::set_profile_for_testing(TuneProfile p) {
  std::lock_guard<std::mutex> lock(mu_);
  profile_ = std::move(p);
  ensured_ = true;
}

void Autotune::set_enabled_for_testing(int mode) {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_override_ = mode;
}

void Autotune::reset_for_testing() {
  std::lock_guard<std::mutex> lock(mu_);
  profile_ = TuneProfile{};
  ensured_ = false;
  enabled_override_ = -1;
}

}  // namespace stair
