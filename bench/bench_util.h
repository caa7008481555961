// bench_util.h — shared scaffolding for the table/figure regeneration
// binaries.
//
// Every bench binary reproduces one artifact of the paper's evaluation.
// They share one Atlas study and one CDN study (computed once per process)
// at a scale controlled by environment variables:
//   DYNAMIPS_SCALE        probe/subscriber scale factor (default 0.3)
//   DYNAMIPS_WINDOW_HOURS Atlas observation window (default 30000 ~ 3.4 y)
//   DYNAMIPS_SEED         simulation seed (default 1)
//   DYNAMIPS_THREADS      pipeline shard/thread count (default 0 = all cores)
//   DYNAMIPS_METRICS      metrics JSON output path (empty = metrics off)
// plus `--threads N` and `--metrics-out FILE` flags (parsed by bench::init)
// that override the env vars. Every number, flag or env var, is parsed
// strictly (core/parse_number.h): `abc`, `12x` or an out-of-range value
// exits 2 naming its source. Thread count never changes results — only
// wall-clock, which each study reports to stderr together with its
// throughput. When metrics are enabled the shared studies record into the
// process-wide obs::MetricsRegistry and bench::finish() (call it from the
// end of main) writes the schema-versioned JSON document. The crash-safe
// runner (checkpoints, resume, deadlines) is tools/dynamips_study.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/parse_number.h"
#include "core/pipeline.h"
#include "obs/metrics.h"
#include "obs/metrics_json.h"
#include "simnet/isp.h"
#include "stats/summary.h"

namespace dynamips::bench {

/// Thread-count range shared by `--threads` and DYNAMIPS_THREADS.
inline constexpr std::uint64_t kMaxThreads = 4096;

/// A numeric environment knob, parsed strictly (core/parse_number.h):
/// unset or empty means `fallback`; any other value must be a number in
/// [lo, hi], or the process exits 2 naming the variable.
template <typename T>
T env_number(const char* name, T fallback, T lo, T hi) {
  const char* v = std::getenv(name);
  return v && *v ? core::parse_number_or_exit(name, v, lo, hi) : fallback;
}

inline double env_scale() {
  return env_number("DYNAMIPS_SCALE", 0.3, 1e-6, 100.0);
}
inline std::uint64_t env_seed() {
  return env_number<std::uint64_t>("DYNAMIPS_SEED", 1, 0, UINT64_MAX);
}
inline std::uint64_t env_window() {
  return env_number<std::uint64_t>("DYNAMIPS_WINDOW_HOURS", 30000, 1,
                                   10000000);
}

/// Shard/thread count used by both shared studies: 0 = hardware_concurrency.
inline unsigned& thread_setting() {
  static unsigned threads = unsigned(
      env_number<std::uint64_t>("DYNAMIPS_THREADS", 0, 0, kMaxThreads));
  return threads;
}

/// Metrics JSON output path; empty disables metrics entirely.
inline std::string& metrics_out_setting() {
  static std::string path = [] {
    const char* v = std::getenv("DYNAMIPS_METRICS");
    return v ? std::string(v) : std::string();
  }();
  return path;
}

inline bool metrics_enabled() { return !metrics_out_setting().empty(); }

/// argv[0] basename, stamped into the metrics document's meta.binary.
inline std::string& binary_name() {
  static std::string name = "bench";
  return name;
}

/// Parse the shared command-line flags (`--threads N`, `--metrics-out
/// FILE`, each also in its `--flag=V` form). Numbers are parsed strictly with
/// the ranges of their environment variables; a bad value exits 2 naming
/// the flag. Call first thing in main, before touching the studies.
/// Consumed flags are stripped from argv (argc is updated), so binaries
/// with their own argument parsing — e.g. google-benchmark in bench_micro
/// — never see them.
inline void init(int& argc, char** argv) {
  if (argc > 0 && argv[0]) {
    const char* base = std::strrchr(argv[0], '/');
    binary_name() = base ? base + 1 : argv[0];
  }
  const struct {
    const char* name;
    void (*set)(const char* flag, const char* value);
  } flags[] = {
      {"--threads",
       [](const char* f, const char* v) {
         thread_setting() = unsigned(
             core::parse_number_or_exit<std::uint64_t>(f, v, 0, kMaxThreads));
       }},
      {"--metrics-out",
       [](const char*, const char* v) { metrics_out_setting() = v; }},
  };
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    bool consumed = false;
    for (const auto& flag : flags) {
      const std::size_t n = std::strlen(flag.name);
      if (std::strncmp(arg, flag.name, n) != 0 ||
          (arg[n] != '=' && arg[n] != '\0'))
        continue;
      // A trailing flag without a value stays in argv.
      const char* value =
          arg[n] == '=' ? arg + n + 1 : (i + 1 < argc ? argv[++i] : nullptr);
      if (value) {
        flag.set(flag.name, value);
        consumed = true;
      }
      break;
    }
    if (!consumed) argv[out++] = argv[i];
  }
  argc = out;
  argv[argc] = nullptr;
}

/// Registry handed to the shared studies: the process-wide one when
/// metrics are enabled, null (all metric work skipped) otherwise.
inline obs::MetricsRegistry* study_metrics() {
  return metrics_enabled() ? &obs::MetricsRegistry::global() : nullptr;
}

/// Write the metrics JSON document if `--metrics-out`/`DYNAMIPS_METRICS`
/// was given. Returns main()'s exit status: 0 on success (or when metrics
/// are off), 1 when the file cannot be written.
inline int finish() {
  const std::string& path = metrics_out_setting();
  if (path.empty()) return 0;
  auto& registry = obs::MetricsRegistry::global();
  registry.add_counter("stats.nan_dropped", stats::nan_dropped());
  registry.set_gauge("process.peak_rss_bytes",
                     double(obs::peak_rss_bytes()));
  obs::MetricsMeta meta;
  meta.binary = binary_name();
  meta.scale = env_scale();
  meta.seed = env_seed();
  meta.window_hours = env_window();
  meta.threads = core::resolve_threads(thread_setting());
  if (!obs::write_metrics_json(path, registry.snapshot(), meta)) {
    std::fprintf(stderr, "[bench] cannot write metrics to %s\n",
                 path.c_str());
    return 1;
  }
  std::fprintf(stderr, "[bench] wrote metrics to %s\n", path.c_str());
  return 0;
}

/// Unwrap a study result; a failure exits with code 1.
template <typename T>
inline T take_or_exit(core::Expected<T> result, const char* what) {
  if (result.ok()) return result.take();
  std::fprintf(stderr, "[bench] %s failed: %s\n", what,
               result.status().to_string().c_str());
  std::exit(1);
}

inline core::AtlasStudyConfig default_atlas_config() {
  core::AtlasStudyConfig cfg;
  cfg.atlas.probe_scale = env_scale();
  cfg.atlas.window_hours = env_window();
  cfg.atlas.seed = env_seed();
  cfg.threads = thread_setting();
  cfg.metrics = study_metrics();
  return cfg;
}

inline core::CdnStudyConfig default_cdn_config() {
  core::CdnStudyConfig cfg;
  cfg.cdn.subscriber_scale = env_scale();
  cfg.cdn.seed = env_seed() * 977;
  cfg.threads = thread_setting();
  cfg.metrics = study_metrics();
  return cfg;
}

/// The Atlas study, computed once per process. Reports wall-clock time and
/// probe throughput to stderr so table output stays clean.
inline const core::AtlasStudy& shared_atlas_study() {
  static core::AtlasStudy study = [] {
    auto cfg = default_atlas_config();
    auto t0 = std::chrono::steady_clock::now();
    auto s = take_or_exit(
        core::run_atlas_study_supervised(simnet::paper_isps(), cfg),
        "atlas study");
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    if (metrics_enabled())
      obs::MetricsRegistry::global().record_phase(
          "bench.atlas_study_wall", std::uint64_t(secs * 1e9));
    std::fprintf(stderr,
                 "[bench] atlas study: %llu probes in %.2fs "
                 "(%.0f probes/s, %u threads)\n",
                 (unsigned long long)s.sanitize.probes_seen, secs,
                 secs > 0 ? double(s.sanitize.probes_seen) / secs : 0.0,
                 core::resolve_threads(cfg.threads));
    return s;
  }();
  return study;
}

/// The CDN study, computed once per process. Reports wall-clock time and
/// log/tuple throughput to stderr.
inline const core::CdnStudy& shared_cdn_study() {
  static core::CdnStudy study = [] {
    auto cfg = default_cdn_config();
    auto population = cdn::default_cdn_population(cfg.cdn.subscriber_scale);
    auto t0 = std::chrono::steady_clock::now();
    auto s = take_or_exit(
        core::run_cdn_study_supervised(population, cfg),
        "cdn study");
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    if (metrics_enabled())
      obs::MetricsRegistry::global().record_phase(
          "bench.cdn_study_wall", std::uint64_t(secs * 1e9));
    std::uint64_t tuples =
        s.analyzer.total_tuples() + s.analyzer.total_mismatched();
    std::fprintf(stderr,
                 "[bench] cdn study: %zu logs / %llu tuples in %.2fs "
                 "(%.0f tuples/s, %u threads)\n",
                 population.size(), (unsigned long long)tuples, secs,
                 secs > 0 ? double(tuples) / secs : 0.0,
                 core::resolve_threads(cfg.threads));
    return s;
  }();
  return study;
}

/// Find the ASN for an ISP name; 0 when unknown.
inline bgp::Asn asn_of(const core::AtlasStudy& study,
                       const std::string& name) {
  for (const auto& [asn, n] : study.as_names)
    if (n == name) return asn;
  return 0;
}

inline void print_banner(const char* artifact, const char* description) {
  std::printf(
      "================================================================\n");
  std::printf("%s — %s\n", artifact, description);
  std::printf(
      "(synthetic reproduction; compare shapes, not absolute counts)\n");
  std::printf(
      "================================================================\n");
}

}  // namespace dynamips::bench
