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
//   DYNAMIPS_CHECKPOINT_EVERY  checkpoint every N items/shard (0 = off)
//   DYNAMIPS_CHECKPOINT_OUT    checkpoint path (default <binary>.ckpt)
//   DYNAMIPS_RESUME_FROM       checkpoint to resume the shared studies from
//   DYNAMIPS_DEADLINE_SECONDS  soft watchdog; interrupt after S seconds
// plus `--threads N`, `--metrics-out FILE`, `--checkpoint-every N`,
// `--checkpoint-out FILE`, `--resume-from FILE` and `--deadline-seconds S`
// flags (parsed by bench::init) that override the env vars. Every number,
// flag or env var, is parsed strictly (core/parse_number.h): `abc`, `12x`
// or an out-of-range value exits 2 naming its source. Thread count
// never changes results — only wall-clock, which each study reports to
// stderr together with its throughput. When metrics are enabled the shared
// studies record into the process-wide obs::MetricsRegistry and
// bench::finish() (call it from the end of main) writes the
// schema-versioned JSON document.
//
// Crash safety: init() installs SIGINT/SIGTERM handlers wired to the
// global shutdown token; an interrupted shared study writes a checkpoint
// (when a path is configured), flushes partial metrics, and exits with
// code 3. Re-running with --resume-from continues it to byte-identical
// results at any thread count.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "core/parse_number.h"
#include "core/pipeline.h"
#include "core/shutdown.h"
#include "io/checkpoint.h"
#include "obs/metrics.h"
#include "obs/metrics_json.h"
#include "simnet/isp.h"
#include "stats/summary.h"

namespace dynamips::bench {

/// Value ranges shared by the flags and their environment variables.
inline constexpr std::uint64_t kMaxThreads = 4096;
inline constexpr double kMaxSeconds = 1e9;

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

inline std::string env_string(const char* name) {
  const char* v = std::getenv(name);
  return v ? std::string(v) : std::string();
}

/// Periodic-checkpoint interval in work items per shard; 0 disables.
inline std::uint64_t& checkpoint_every_setting() {
  static std::uint64_t every = env_number<std::uint64_t>(
      "DYNAMIPS_CHECKPOINT_EVERY", 0, 0, UINT64_MAX);
  return every;
}

/// Explicit checkpoint path; empty = derive from the binary name when
/// checkpointing or resuming is requested.
inline std::string& checkpoint_out_setting() {
  static std::string path = env_string("DYNAMIPS_CHECKPOINT_OUT");
  return path;
}

/// Checkpoint to resume the shared studies from; empty = start fresh.
inline std::string& resume_from_setting() {
  static std::string path = env_string("DYNAMIPS_RESUME_FROM");
  return path;
}

/// Soft watchdog in seconds; 0 disables.
inline double& deadline_setting() {
  static double seconds =
      env_number("DYNAMIPS_DEADLINE_SECONDS", 0.0, 0.0, kMaxSeconds);
  return seconds;
}

/// argv[0] basename, stamped into the metrics document's meta.binary.
inline std::string& binary_name() {
  static std::string name = "bench";
  return name;
}

/// Parse shared command-line flags (`--threads N`, `--metrics-out FILE`,
/// ..., each also in its `--flag=V` form). Numbers are parsed strictly with
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
      {"--checkpoint-every",
       [](const char* f, const char* v) {
         checkpoint_every_setting() =
             core::parse_number_or_exit<std::uint64_t>(f, v, 0, UINT64_MAX);
       }},
      {"--checkpoint-out",
       [](const char*, const char* v) { checkpoint_out_setting() = v; }},
      {"--resume-from",
       [](const char*, const char* v) { resume_from_setting() = v; }},
      {"--deadline-seconds",
       [](const char* f, const char* v) {
         deadline_setting() =
             core::parse_number_or_exit(f, v, 0.0, kMaxSeconds);
       }},
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
  core::install_shutdown_handlers();
  if (deadline_setting() > 0)
    core::global_shutdown_token().arm_deadline_seconds(deadline_setting());
}

/// The checkpoint path in effect: the explicit setting, or `<binary>.ckpt`
/// when checkpointing/resuming was requested without one. Empty when
/// supervision is signal-only (interrupts then exit without a snapshot).
inline std::string checkpoint_path() {
  if (!checkpoint_out_setting().empty()) return checkpoint_out_setting();
  if (checkpoint_every_setting() > 0 || !resume_from_setting().empty())
    return binary_name() + ".ckpt";
  return {};
}

/// The resume checkpoint, loaded (with `.prev` fallback) on first use.
/// An unusable checkpoint aborts the process with a descriptive message.
inline const io::StudyCheckpoint* resume_checkpoint() {
  static std::optional<io::StudyCheckpoint> loaded =
      []() -> std::optional<io::StudyCheckpoint> {
    const std::string& path = resume_from_setting();
    if (path.empty()) return std::nullopt;
    std::string used;
    auto ck = io::read_checkpoint_with_fallback(path, &used);
    if (!ck.ok()) {
      std::fprintf(stderr, "[bench] cannot resume: %s\n",
                   ck.status().to_string().c_str());
      std::exit(1);
    }
    std::fprintf(stderr, "[bench] resuming from %s (%s, %llu of %llu items)\n",
                 used.c_str(), io::checkpoint_kind_name(ck->kind),
                 (unsigned long long)ck->items_done(),
                 (unsigned long long)ck->item_count);
    return ck.take();
  }();
  return loaded ? &*loaded : nullptr;
}

/// Supervision config for one shared study. The resume checkpoint is routed
/// by its kind, so a cdn-study checkpoint never reaches the atlas study
/// (which simply recomputes — it completed before the interrupt only when
/// the bench consumes both studies in order).
inline core::CheckpointConfig study_checkpoint_config(bool atlas_study) {
  core::CheckpointConfig cc;
  cc.every_items = checkpoint_every_setting();
  cc.path = checkpoint_path();
  cc.token = &core::global_shutdown_token();
  const io::StudyCheckpoint* ck = resume_checkpoint();
  if (ck && (atlas_study ? io::is_atlas_checkpoint_kind(ck->kind)
                         : io::is_cdn_checkpoint_kind(ck->kind)))
    cc.resume = ck;
  return cc;
}

/// Set when a shared study was interrupted: finish() then keeps the
/// checkpoint chain on disk for the resume.
inline bool& run_cancelled() {
  static bool cancelled = false;
  return cancelled;
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
  if (!run_cancelled()) {
    const std::string ckpt = checkpoint_path();
    if (!ckpt.empty()) io::remove_checkpoint_files(ckpt);
  }
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

/// Unwrap a supervised study result. kCancelled flushes partial metrics and
/// exits with code 3 (pointing at the checkpoint to resume from); any other
/// failure exits with code 1.
template <typename T>
inline T take_or_exit(core::Expected<T> result, const char* what) {
  if (result.ok()) return result.take();
  if (result.status().code() == core::StatusCode::kCancelled) {
    std::fprintf(stderr, "[bench] %s\n",
                 result.status().to_string().c_str());
    const std::string ckpt = checkpoint_path();
    if (!ckpt.empty())
      std::fprintf(stderr, "[bench] resume with --resume-from %s\n",
                   ckpt.c_str());
    run_cancelled() = true;
    finish();
    std::exit(3);
  }
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
        core::run_atlas_study_supervised(simnet::paper_isps(), cfg,
                                         study_checkpoint_config(true)),
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
        core::run_cdn_study_supervised(population, cfg,
                                       study_checkpoint_config(false)),
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
