// dynamips_study — command-line driver: run the full Atlas and CDN studies
// and export every artifact's underlying series as CSV, mirroring the
// paper's supplemental data release.
//
// Usage: dynamips_study [output_dir] [--scale S] [--window HOURS]
//                       [--seed N] [--threads N] [--metrics-out FILE]
//                       [--atlas-only|--cdn-only]
//                       [--atlas-in F[,F...]] [--cdn-in F[,F...]]
//                       [--quarantine-out FILE]
//                       [--max-reject-fraction R]
//                       [--max-consecutive-rejects N]
//                       [--checkpoint-every N] [--checkpoint-out FILE]
//                       [--resume-from FILE] [--deadline-seconds S]
//
// Numeric flag values are parsed strictly (parse_number): the whole token
// must be a number inside the flag's range, so `--threads abc`, `12x`, an
// empty value, `-1` for a count, or `--max-reject-fraction 1.5` exit 2
// naming the flag instead of silently becoming 0.
//
// With --metrics-out the pipeline records throughput counters, per-phase
// timings, and shard balance into the process-wide metrics registry and
// writes the schema-versioned JSON document (obs/metrics_json.h) to FILE;
// tools/check_metrics.py diffs such documents against checked-in
// baselines. Counters are identical for every --threads value.
//
// With --bench-out a small throughput document (schema dynamips.bench.v1)
// is written on success: per-study wall time and records/sec at the run's
// (scale, seed, window, threads). tools/check_bench.py gates such
// documents against bench/baselines/BENCH_*.json to catch throughput
// regressions; unlike the metrics counters these values are wall-clock
// measurements and are compared with a relative tolerance.
//
// --atlas-in / --cdn-in switch the corresponding study from the in-process
// generator to real-data mode: exported CSV datasets are streamed through
// the fault-tolerant readers (io/readers.h), malformed lines are counted
// into ingest.reject.* metrics and optionally appended to the
// --quarantine-out file with their line numbers, and a file exceeding the
// error budget fails the run with a descriptive status and exit code 1
// (stale result CSVs of the failed study are removed).
//
// Streaming mode: --follow DIR (with exactly one of --atlas-only/--cdn-only)
// switches from one-shot ingestion to a long-lived stream. Batch files
// dropped into DIR are consumed in natural name order through the same
// fault-tolerant readers, a monotone batch high-water-mark checkpoint is
// written after every batch, and every --refinalize-every N batches (or
// --refinalize-seconds S) the study is re-finalized and the result CSVs are
// atomically re-published while the stream keeps running. A file named
// `stream.stop` in DIR ends the stream: the final re-finalization records
// metrics and the tool exits 0 with results byte-identical to a one-shot
// run over the same batches. SIGINT/SIGTERM exits 3; re-running with
// --resume-from replays only unconsumed batches, at any --threads value.
//
// Looking-glass mode: --serve PORT starts the src/lg/ HTTP service (GET
// /v1/durations/<asn>, /v1/assoc/<asn>, /v1/infer/<prefix>,
// /v1/pfx2as/<addr>, /v1/healthz, /v1/metricsz) on 127.0.0.1:PORT (0 picks
// an ephemeral port, printed at startup). One-shot runs publish their final
// study and serve until SIGINT/SIGTERM (exit 0); composed with --follow,
// every re-finalization atomically publishes a new immutable snapshot
// generation, so queries are served — without torn reads — while the
// stream keeps ingesting. --no-csv (streaming only) skips the CSV
// re-publications when the service is the only consumer.
//
// Crash safety: SIGINT/SIGTERM (and the --deadline-seconds watchdog)
// interrupt the run at the next round boundary, write a checkpoint
// (io/checkpoint.h; default <output_dir>/study.ckpt), flush partial
// metrics, and exit with code 3. --checkpoint-every N additionally
// snapshots every N work items per shard. Re-running with
// --resume-from FILE and the identical study parameters continues the run
// and produces results byte-identical to an uninterrupted one, at any
// --threads value. Every output file is published via tmp + rename, so an
// interrupted run never leaves a half-written CSV, metrics document, or
// checkpoint behind.
// Supervision: --supervise re-runs this binary as a child process under
// src/core/supervise.h: the supervisor restarts a crashed/killed child
// with capped exponential backoff, re-injecting --resume-from whenever a
// durable checkpoint exists, watches liveness via a heartbeat file
// (DYNAMIPS_HEARTBEAT_FILE, refreshed by the child once a second) and
// progress via the checkpoint high-water mark, and gives up with a
// diagnosis naming the last durable checkpoint once --restart-max
// failures land inside --restart-window-seconds with no progress.
//
// Out-of-core and multi-process scale: --spill-mb M bounds the CDN
// analyzer's sort memory — past the budget, sorted runs spill to
// --spill-dir (default: the system temp dir) and are k-way merged, with
// results byte-identical to the in-memory path at every budget.
// --shard i/N (0-based, with exactly one of --atlas-only/--cdn-only)
// analyzes only the i-th contiguous 1/N of the work items and writes a
// completed per-process checkpoint (default
// <output_dir>/study.shard-i-of-N.ckpt) instead of result CSVs; run the N
// shard processes anywhere, then merge with
// --merge-shards F0,F1,...,F(N-1) under the *identical* study parameters:
// the checkpoints are validated (same kind/fingerprint/item count, ranges
// tile the item space), combined, and resumed through the ordered
// reduction, producing CSVs byte-identical to a single-process run.
//
// Resource governance: --max-rss-mb / --min-disk-free-mb arm the
// core/resource.h governor; the stream degrades gracefully under pressure
// (early checkpoints, deferred re-finalizations, keep-last-1 retention,
// quarantine shedding, ingest pauses) without changing final outputs, and
// /v1/readyz reports the governed state (503 + Retry-After while
// degraded) while /v1/healthz stays a pure liveness probe.
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <optional>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#ifdef __unix__
#include <unistd.h>
#endif

#include "core/failpoint.h"
#include "core/pipeline.h"
#include "core/resource.h"
#include "core/shutdown.h"
#include "core/supervise.h"
#include "io/atomic_file.h"
#include "lg/server.h"
#include "lg/service.h"
#include "io/checkpoint.h"
#include "io/results_io.h"
#include "obs/metrics.h"
#include "obs/metrics_json.h"
#include "simnet/isp.h"
#include "stats/summary.h"

using namespace dynamips;

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [output_dir] [--scale S] [--window HOURS] "
               "[--seed N] [--threads N] [--metrics-out FILE] "
               "[--bench-out FILE] "
               "[--atlas-only|--cdn-only] "
               "[--atlas-in F[,F...]] [--cdn-in F[,F...]] "
               "[--quarantine-out FILE] [--max-reject-fraction R] "
               "[--max-consecutive-rejects N] "
               "[--checkpoint-every N] [--checkpoint-out FILE] "
               "[--resume-from FILE] [--deadline-seconds S] "
               "[--follow DIR] [--refinalize-every N] "
               "[--refinalize-seconds S] [--poll-ms MS] [--max-batches N] "
               "[--io-retries N] [--io-retry-base-ms MS] "
               "[--serve PORT] [--send-timeout-ms MS] [--max-connections N] "
               "[--no-csv] [--failpoints SPEC] "
               "[--spill-mb N] [--spill-dir DIR] "
               "[--shard I/N] [--merge-shards F[,F...]] "
               "[--max-rss-mb N] [--min-disk-free-mb N] "
               "[--max-lag-seconds S] [--max-backlog-batches N] "
               "[--supervise] [--restart-max N] "
               "[--restart-window-seconds S] [--restart-backoff-ms MS] "
               "[--restart-backoff-max-ms MS] [--stall-timeout-seconds S] "
               "[--heartbeat-timeout-seconds S]\n",
               argv0);
}

template <typename T>
std::string bound_text(T bound) {
  if constexpr (std::is_integral_v<T>) {
    return std::to_string(bound);
  } else {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", bound);
    return buf;
  }
}

/// Parse a numeric flag value strictly: the whole token must be a number
/// in [lo, hi]. std::from_chars takes no sign on an unsigned flag, no
/// leading blank and no trailing junk; NaN fails the range check. A bad
/// value exits 2 naming the flag instead of silently becoming 0.
template <typename T>
T parse_number(const std::string& flag, const char* text, T lo, T hi) {
  const char* end = text + std::strlen(text);
  T value{};
  auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec == std::errc() && ptr == end && ptr != text && value >= lo &&
      value <= hi)
    return value;
  std::fprintf(stderr, "%s: expected %s in [%s, %s], got '%s'\n",
               flag.c_str(), std::is_integral_v<T> ? "an integer" : "a number",
               bound_text(lo).c_str(), bound_text(hi).c_str(), text);
  std::exit(2);
}

std::vector<std::string> split_paths(const std::string& list) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    if (comma > start) out.push_back(list.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

/// Write one result CSV via tmp + rename: readers never observe a
/// half-written file, and a crash leaves the previous version intact.
template <typename Fn>
bool write_file(const std::filesystem::path& path, Fn&& writer) {
  io::AtomicFileWriter out(path.string());
  if (!out.ok()) {
    std::fprintf(stderr, "cannot write %s\n", path.string().c_str());
    return false;
  }
  writer(out.stream());
  core::Status st = out.commit();
  if (!st.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.string().c_str(),
                 st.message().c_str());
    return false;
  }
  std::printf("  wrote %s\n", path.string().c_str());
  return true;
}

/// Publish the Atlas study's result CSVs (shared by the one-shot path, the
/// streaming re-finalization callback, and the stream's final write).
bool write_atlas_outputs(const std::filesystem::path& out_dir,
                         const core::AtlasStudy& study) {
  return write_file(out_dir / "fig1_duration_curves.csv",
                    [&](std::ostream& os) {
                      io::write_duration_curves_csv(os, study);
                    }) &&
         write_file(out_dir / "fig5_cpl.csv",
                    [&](std::ostream& os) { io::write_cpl_csv(os, study); }) &&
         write_file(out_dir / "table2_bgp_moves.csv",
                    [&](std::ostream& os) {
                      io::write_bgp_moves_csv(os, study);
                    }) &&
         write_file(out_dir / "fig6_inference.csv", [&](std::ostream& os) {
           io::write_inference_csv(os, study);
         });
}

bool write_cdn_outputs(const std::filesystem::path& out_dir,
                       const core::CdnStudy& study) {
  return write_file(out_dir / "fig23_assoc_durations.csv",
                    [&](std::ostream& os) {
                      io::write_assoc_durations_csv(os, study);
                    }) &&
         write_file(out_dir / "fig4_degrees.csv",
                    [&](std::ostream& os) {
                      io::write_degrees_csv(os, study);
                    }) &&
         write_file(out_dir / "fig7_zero_boundaries.csv",
                    [&](std::ostream& os) {
                      io::write_zero_boundaries_csv(os, study);
                    });
}

/// Remove output files a failed study may have left from a previous run, so
/// a nonzero exit never pairs with stale-but-plausible results.
void remove_stale_outputs(const std::filesystem::path& out_dir,
                          std::initializer_list<const char*> names) {
  for (const char* name : names) {
    std::error_code ec;
    if (std::filesystem::remove(out_dir / name, ec))
      std::fprintf(stderr, "  removed stale %s\n",
                   (out_dir / name).string().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::filesystem::path out_dir = "dynamips_results";
  double scale = 0.3;
  std::uint64_t window = 30000, seed = 1;
  unsigned threads = 0;  // 0 = hardware_concurrency
  bool atlas = true, cdn = true;
  std::string metrics_out, bench_out;
  std::string atlas_in, cdn_in, quarantine_out;
  std::string checkpoint_out, resume_from;
  std::uint64_t checkpoint_every = 0;
  double deadline_seconds = 0;
  std::string follow_dir;
  std::uint64_t refinalize_every = 8, poll_ms = 200, max_batches = 0;
  double refinalize_seconds = 0;
  bool serve = false, no_csv = false;
  std::uint64_t serve_port = 0;
  std::uint64_t io_retries = 3, io_retry_base_ms = 20;
  std::uint64_t send_timeout_ms = 5000, max_connections = 0;
  std::string failpoints_spec;
  bool failpoints_flag = false;
  io::ReaderOptions reader_opts;
  std::uint64_t spill_mb = 0;
  std::string spill_dir;
  std::string shard_spec, merge_shards;
  std::uint32_t shard_index = 0, shard_count = 1;
  std::uint64_t max_rss_mb = 0, min_disk_free_mb = 0;
  double max_lag_seconds = 0;
  std::uint64_t max_backlog_batches = 64;
  bool supervise_flag = false;
  std::uint64_t restart_max = 5;
  double restart_window_seconds = 60;
  std::uint64_t restart_backoff_ms = 500, restart_backoff_max_ms = 30000;
  double stall_timeout_seconds = 0, heartbeat_timeout_seconds = 60;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    // Numeric flag families; see parse_number.
    auto u64 = [&](std::uint64_t lo = 0, std::uint64_t hi = UINT64_MAX) {
      return parse_number(arg, next(), lo, hi);
    };
    auto seconds = [&] { return parse_number(arg, next(), 0.0, 1e9); };
    auto millis = [&] { return u64(0, 1000000000); };
    auto megabytes = [&] { return u64(0, UINT64_MAX >> 20); };
    if (arg == "--scale") {
      scale = parse_number(arg, next(), 1e-6, 100.0);
    } else if (arg == "--window") {
      window = u64(1, 10000000);
    } else if (arg == "--seed") {
      seed = u64();
    } else if (arg == "--threads") {
      threads = unsigned(u64(0, 4096));
    } else if (arg == "--metrics-out") {
      metrics_out = next();
    } else if (arg == "--bench-out") {
      bench_out = next();
    } else if (arg == "--atlas-in") {
      atlas_in = next();
    } else if (arg == "--cdn-in") {
      cdn_in = next();
    } else if (arg == "--quarantine-out") {
      quarantine_out = next();
    } else if (arg == "--max-reject-fraction") {
      reader_opts.max_reject_fraction = parse_number(arg, next(), 0.0, 1.0);
    } else if (arg == "--max-consecutive-rejects") {
      reader_opts.max_consecutive_rejects = u64();
    } else if (arg == "--checkpoint-every") {
      checkpoint_every = u64();
    } else if (arg == "--checkpoint-out") {
      checkpoint_out = next();
    } else if (arg == "--resume-from") {
      resume_from = next();
    } else if (arg == "--deadline-seconds") {
      deadline_seconds = seconds();
    } else if (arg == "--follow") {
      follow_dir = next();
    } else if (arg == "--refinalize-every") {
      refinalize_every = u64();
    } else if (arg == "--refinalize-seconds") {
      refinalize_seconds = seconds();
    } else if (arg == "--poll-ms") {
      poll_ms = millis();
    } else if (arg == "--max-batches") {
      max_batches = u64();
    } else if (arg == "--io-retries") {
      io_retries = u64(0, 1000);
    } else if (arg == "--io-retry-base-ms") {
      io_retry_base_ms = millis();
    } else if (arg == "--send-timeout-ms") {
      send_timeout_ms = millis();
    } else if (arg == "--max-connections") {
      max_connections = u64();
    } else if (arg == "--failpoints") {
      failpoints_spec = next();
      failpoints_flag = true;
    } else if (arg == "--spill-mb") {
      spill_mb = megabytes();
    } else if (arg == "--spill-dir") {
      spill_dir = next();
    } else if (arg == "--shard") {
      shard_spec = next();
    } else if (arg == "--merge-shards") {
      merge_shards = next();
    } else if (arg == "--max-rss-mb") {
      max_rss_mb = megabytes();
    } else if (arg == "--min-disk-free-mb") {
      min_disk_free_mb = megabytes();
    } else if (arg == "--max-lag-seconds") {
      max_lag_seconds = seconds();
    } else if (arg == "--max-backlog-batches") {
      max_backlog_batches = u64();
    } else if (arg == "--supervise") {
      supervise_flag = true;
    } else if (arg == "--restart-max") {
      restart_max = u64();
    } else if (arg == "--restart-window-seconds") {
      restart_window_seconds = seconds();
    } else if (arg == "--restart-backoff-ms") {
      restart_backoff_ms = millis();
    } else if (arg == "--restart-backoff-max-ms") {
      restart_backoff_max_ms = millis();
    } else if (arg == "--stall-timeout-seconds") {
      stall_timeout_seconds = seconds();
    } else if (arg == "--heartbeat-timeout-seconds") {
      heartbeat_timeout_seconds = seconds();
    } else if (arg == "--serve") {
      serve = true;
      serve_port = u64(0, 65535);
    } else if (arg == "--no-csv") {
      no_csv = true;
    } else if (arg == "--atlas-only") {
      cdn = false;
    } else if (arg == "--cdn-only") {
      atlas = false;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      usage(argv[0]);
      return 2;
    } else {
      out_dir = arg;
    }
  }

  if (!follow_dir.empty()) {
    if (atlas == cdn) {
      std::fprintf(stderr,
                   "--follow requires exactly one of --atlas-only or "
                   "--cdn-only (a stream carries one batch schema)\n");
      return 2;
    }
    if (!atlas_in.empty() || !cdn_in.empty()) {
      std::fprintf(stderr,
                   "--follow and --atlas-in/--cdn-in are mutually "
                   "exclusive\n");
      return 2;
    }
  }
  if (no_csv && follow_dir.empty()) {
    std::fprintf(stderr,
                 "--no-csv only applies to streaming runs (--follow); "
                 "one-shot runs exist to write CSVs\n");
    return 2;
  }

  // Multi-process sharding: parse "--shard I/N" and reject the modes a
  // partial run cannot compose with.
  if (!shard_spec.empty()) {
    // Both parts strict, like every numeric flag: digits only, nothing
    // trailing ("0/2x" is rejected, not read as 0/2).
    auto part = [&](std::size_t from, std::size_t to, std::uint32_t& out) {
      const char* end = shard_spec.data() + to;
      auto [ptr, ec] = std::from_chars(shard_spec.data() + from, end, out);
      return from < to && ec == std::errc() && ptr == end;
    };
    const std::size_t slash = shard_spec.find('/');
    if (slash == std::string::npos || !part(0, slash, shard_index) ||
        !part(slash + 1, shard_spec.size(), shard_count) ||
        shard_index >= shard_count || shard_count > 4096) {
      std::fprintf(stderr,
                   "--shard: expected I/N with 0 <= I < N (e.g. --shard 0/4), "
                   "got '%s'\n",
                   shard_spec.c_str());
      return 2;
    }
    if (atlas == cdn) {
      std::fprintf(stderr,
                   "--shard requires exactly one of --atlas-only or "
                   "--cdn-only (one checkpoint kind per shard file)\n");
      return 2;
    }
    if (!follow_dir.empty() || serve || supervise_flag ||
        !resume_from.empty() || !merge_shards.empty()) {
      std::fprintf(stderr,
                   "--shard is a batch mode: it cannot combine with "
                   "--follow, --serve, --supervise, --resume-from or "
                   "--merge-shards\n");
      return 2;
    }
  }
  if (!merge_shards.empty() &&
      (!follow_dir.empty() || !resume_from.empty())) {
    std::fprintf(stderr,
                 "--merge-shards cannot combine with --follow or "
                 "--resume-from\n");
    return 2;
  }
  const bool sharding = shard_count > 1;

  // Chaos arming: the env var first, then --failpoints (the flag wins when
  // both are given). Disarmed, every instrumented site is one relaxed
  // atomic load.
  if (core::Status st = core::arm_failpoints_from_env(); !st.ok()) {
    std::fprintf(stderr, "DYNAMIPS_FAILPOINTS: %s\n", st.to_string().c_str());
    return 2;
  }
  if (failpoints_flag) {
    if (core::Status st = core::arm_failpoints(failpoints_spec); !st.ok()) {
      std::fprintf(stderr, "--failpoints: %s\n", st.to_string().c_str());
      return 2;
    }
  }

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", out_dir.string().c_str(),
                 ec.message().c_str());
    return 1;
  }
  if (!spill_dir.empty()) {
    std::filesystem::create_directories(spill_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create --spill-dir %s: %s\n",
                   spill_dir.c_str(), ec.message().c_str());
      return 1;
    }
  }

  const unsigned effective = core::resolve_threads(threads);
  // The looking-glass serves /v1/metricsz from the registry, so --serve
  // enables it even without --metrics-out (the file is still only written
  // when asked for).
  obs::MetricsRegistry* registry = (metrics_out.empty() && !serve)
                                       ? nullptr
                                       : &obs::MetricsRegistry::global();
  obs::MetricsMeta run_meta;
  run_meta.binary = "dynamips_study";
  run_meta.scale = scale;
  run_meta.seed = seed;
  run_meta.window_hours = window;
  run_meta.threads = effective;

  // Graceful shutdown: SIGINT/SIGTERM (and the optional deadline) set a
  // token the studies poll at round boundaries.
  core::install_shutdown_handlers();
  core::ShutdownToken& token = core::global_shutdown_token();
  if (checkpoint_out.empty())
    checkpoint_out =
        sharding ? (out_dir / ("study.shard-" + std::to_string(shard_index) +
                               "-of-" + std::to_string(shard_count) + ".ckpt"))
                       .string()
                 : (out_dir / "study.ckpt").string();

  // Supervisor mode: re-run this binary as a child (minus the
  // supervisor-only flags) and keep it alive — restart with capped
  // exponential backoff, re-inject --resume-from whenever a durable
  // checkpoint exists, kill a hung/stalled child, give up on a crash loop.
  if (supervise_flag) {
    std::vector<std::string> child_argv;
#ifdef __unix__
    char exe[4096];
    ssize_t n = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
    child_argv.push_back(n > 0 ? std::string(exe, std::size_t(n))
                               : std::string(argv[0]));
#else
    child_argv.push_back(argv[0]);
#endif
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--supervise") continue;
      if (arg == "--resume-from" || arg == "--restart-max" ||
          arg == "--restart-window-seconds" ||
          arg == "--restart-backoff-ms" ||
          arg == "--restart-backoff-max-ms" ||
          arg == "--stall-timeout-seconds" ||
          arg == "--heartbeat-timeout-seconds") {
        ++i;  // drop the flag's value too
        continue;
      }
      child_argv.push_back(arg);
    }
    // Children inherit the heartbeat path (and any DYNAMIPS_FAILPOINTS
    // already in our environment) by plain env inheritance.
    const std::string heartbeat_path = (out_dir / ".heartbeat").string();
#ifdef __unix__
    ::setenv("DYNAMIPS_HEARTBEAT_FILE", heartbeat_path.c_str(), 1);
#endif

    core::SuperviseConfig scfg;
    scfg.backoff_base_ms = restart_backoff_ms;
    scfg.backoff_max_ms = restart_backoff_max_ms;
    scfg.crash_loop_failures = restart_max;
    scfg.crash_loop_window_ms =
        std::uint64_t(restart_window_seconds * 1000.0);
    scfg.stall_timeout_ms = std::uint64_t(stall_timeout_seconds * 1000.0);
    scfg.heartbeat_timeout_ms =
        std::uint64_t(heartbeat_timeout_seconds * 1000.0);

    core::ProcessChild child(child_argv);
    core::SuperviseHooks hooks;
    hooks.stop = [&token] { return token.requested(); };
    hooks.sleep_ms = [&token](std::uint64_t ms) {
      core::interruptible_sleep_ms(ms, &token);
    };
    hooks.resume_path = [&]() -> std::string {
      std::error_code rec;
      if (std::filesystem::exists(checkpoint_out, rec) ||
          std::filesystem::exists(checkpoint_out + ".prev", rec))
        return checkpoint_out;  // with_fallback reads .prev when needed
      if (!resume_from.empty() &&
          std::filesystem::exists(resume_from, rec))
        return resume_from;
      return "";
    };
    hooks.progress = [&] {
      return core::file_progress_token(checkpoint_out);
    };
    hooks.heartbeat_age_ms = [&] {
      return core::file_age_ms(heartbeat_path);
    };
    hooks.describe_checkpoint = [&]() -> std::string {
      std::string used;
      auto ck = io::read_checkpoint_with_fallback(checkpoint_out, &used);
      if (!ck.ok())
        return "no durable checkpoint yet; the next launch starts fresh";
      return "last durable checkpoint: " + used + " (" +
             io::checkpoint_kind_name(ck.value().kind) + ", " +
             std::to_string(ck.value().items_done()) + " of " +
             std::to_string(ck.value().item_count) + " items)";
    };
    hooks.metrics = &obs::MetricsRegistry::global();
    hooks.log = [&child](const std::string& line) {
      std::fprintf(stderr, "supervise[child pid %ld]: %s\n", child.pid(),
                   line.c_str());
      std::fflush(stderr);
    };

    core::SuperviseReport rep = core::supervise(child, scfg, hooks);
    std::fprintf(stderr,
                 "supervise: exiting %d (%llu launches, %llu restarts, "
                 "%llu stall kills)%s%s\n",
                 rep.exit_code, (unsigned long long)rep.launches,
                 (unsigned long long)rep.restarts,
                 (unsigned long long)rep.stall_kills,
                 rep.diagnosis.empty() ? "" : ": ",
                 rep.diagnosis.c_str());
    return rep.exit_code;
  }

  if (deadline_seconds > 0) token.arm_deadline_seconds(deadline_seconds);

  // Child side of supervision: refresh the heartbeat file once a second so
  // the supervisor can tell "hung" from "slow", and fold the supervision
  // history it forwards through the environment into our registry so
  // /v1/metricsz shows launches/restarts mid-run.
  core::Heartbeat heartbeat;
  if (const char* hb = std::getenv("DYNAMIPS_HEARTBEAT_FILE"); hb && *hb)
    heartbeat.start(hb);
  if (registry) {
    if (const char* v = std::getenv("DYNAMIPS_SUPERVISE_LAUNCHES"); v && *v)
      registry->add_counter("supervise.launches",
                            std::strtoull(v, nullptr, 10));
    if (const char* v = std::getenv("DYNAMIPS_SUPERVISE_RESTARTS"); v && *v)
      registry->add_counter("supervise.restarts",
                            std::strtoull(v, nullptr, 10));
  }

  // Resource governor: budgets from the flags (0 = unlimited), probing the
  // output and checkpoint filesystems. Always constructed — with no
  // budgets it never reports pressure, but /v1/readyz still reports the
  // sampled state.
  core::ResourceBudgets budgets;
  budgets.max_rss_mb = max_rss_mb;
  budgets.min_disk_free_mb = min_disk_free_mb;
  budgets.disk_paths.push_back(out_dir.string());
  {
    std::filesystem::path ckpt_dir =
        std::filesystem::path(checkpoint_out).parent_path();
    if (!ckpt_dir.empty() && ckpt_dir != out_dir)
      budgets.disk_paths.push_back(ckpt_dir.string());
  }
  budgets.metrics = registry;
  core::ResourceGovernor governor(budgets);

  // Looking-glass: start serving before the studies run so /v1/healthz
  // answers during a long stream; snapshots are published as they finalize.
  lg::ServiceConfig service_cfg;
  service_cfg.metrics = registry;
  service_cfg.meta = run_meta;
  service_cfg.governor = &governor;
  lg::LgService service(service_cfg);
  std::optional<lg::LgServer> server;
  if (serve) {
    lg::ServerConfig server_cfg;
    server_cfg.port = std::uint16_t(serve_port);
    server_cfg.token = &token;
    server_cfg.metrics = registry;
    server_cfg.send_timeout_ms = send_timeout_ms;
    server_cfg.max_connections = max_connections;
    server.emplace(service, server_cfg);
    core::Status st = server->start();
    if (!st.ok()) {
      std::fprintf(stderr, "cannot start looking-glass: %s\n",
                   st.to_string().c_str());
      return 1;
    }
    std::printf("looking-glass serving on http://127.0.0.1:%u/v1/healthz\n",
                unsigned(server->port()));
    std::fflush(stdout);
  }

  // Resolve the resume checkpoint up front (with .prev fallback) and route
  // it to the study that wrote it. A cdn-kind checkpoint means the atlas
  // study already completed in the interrupted run — its CSVs are durable
  // (atomic writes), so it is skipped entirely.
  std::optional<io::StudyCheckpoint> resume;
  const io::StudyCheckpoint* atlas_resume = nullptr;
  const io::StudyCheckpoint* cdn_resume = nullptr;
  if (!resume_from.empty()) {
    std::string used_path;
    auto loaded = io::read_checkpoint_with_fallback(resume_from, &used_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot resume: %s\n",
                   loaded.status().to_string().c_str());
      return 1;
    }
    resume = loaded.take();
    std::printf("resuming from %s (%s, %llu of %llu items done)\n",
                used_path.c_str(), io::checkpoint_kind_name(resume->kind),
                (unsigned long long)resume->items_done(),
                (unsigned long long)resume->item_count);
    if (io::is_stream_checkpoint_kind(resume->kind) != !follow_dir.empty()) {
      std::fprintf(stderr,
                   io::is_stream_checkpoint_kind(resume->kind)
                       ? "cannot resume: checkpoint is from a streaming run; "
                         "re-run with --follow\n"
                       : "cannot resume: checkpoint is from a one-shot run, "
                         "not a stream; drop --follow\n");
      return 1;
    }
    if (io::is_atlas_checkpoint_kind(resume->kind)) {
      if (!atlas) {
        std::fprintf(stderr,
                     "cannot resume: checkpoint is for the atlas study but "
                     "--cdn-only was given\n");
        return 1;
      }
      atlas_resume = &*resume;
    } else {
      if (!cdn) {
        std::fprintf(stderr,
                     "cannot resume: checkpoint is for the cdn study but "
                     "--atlas-only was given\n");
        return 1;
      }
      cdn_resume = &*resume;
      atlas = false;  // completed before the interrupt
    }
  }

  // Shard merge: combine the completed per-process checkpoints into one
  // resumable checkpoint and run the normal study path against it. Every
  // item is already done, so dispatch finds no work and the ordered
  // reduction + finalize produce CSVs byte-identical to a single-process
  // run — provided the study parameters (inputs, scale, seed, ...) match
  // the shard runs, which the config fingerprint enforces.
  if (!merge_shards.empty()) {
    auto combined = io::combine_shard_checkpoints(split_paths(merge_shards));
    if (!combined.ok()) {
      std::fprintf(stderr, "cannot merge shards: %s\n",
                   combined.status().to_string().c_str());
      return 1;
    }
    resume = combined.take();
    std::printf("merging shard checkpoints (%s, %llu items, %zu shards)\n",
                io::checkpoint_kind_name(resume->kind),
                (unsigned long long)resume->item_count,
                resume->shards.size());
    if (io::is_atlas_checkpoint_kind(resume->kind)) {
      if (!atlas) {
        std::fprintf(stderr,
                     "cannot merge: shard checkpoints are for the atlas "
                     "study but --cdn-only was given\n");
        return 1;
      }
      atlas_resume = &*resume;
      cdn = false;  // the shard runs were atlas-only by construction
    } else {
      if (!cdn) {
        std::fprintf(stderr,
                     "cannot merge: shard checkpoints are for the cdn "
                     "study but --atlas-only was given\n");
        return 1;
      }
      cdn_resume = &*resume;
      atlas = false;
    }
  }

  // Quarantined lines are published even when ingestion fails — that is
  // when they matter — but never as a half-written file.
  std::optional<io::AtomicFileWriter> quarantine;
  if (!quarantine_out.empty()) {
    quarantine.emplace(quarantine_out);
    if (!quarantine->ok()) {
      std::fprintf(stderr, "cannot open quarantine file %s\n",
                   quarantine_out.c_str());
      return 1;
    }
    reader_opts.quarantine = &quarantine->stream();
  }

  // Throughput accounting for --bench-out (filled by run_studies). The
  // ingest figures are file-driven only: records accepted and wall time
  // inside the load phase, the number the columnar format exists to move.
  std::uint64_t atlas_probes = 0, cdn_tuples = 0;
  double atlas_secs = 0, cdn_secs = 0;
  std::uint64_t atlas_ingest_records = 0, cdn_ingest_records = 0;
  double atlas_ingest_secs = 0, cdn_ingest_secs = 0;

  auto run_studies = [&]() -> int {
    if (atlas) {
      core::CheckpointConfig supervision;
      supervision.every_items = checkpoint_every;
      supervision.path = checkpoint_out;
      supervision.token = &token;
      supervision.resume = atlas_resume;
      supervision.shard_index = shard_index;
      supervision.shard_count = shard_count;

      core::AtlasStudy study;
      auto t0 = std::chrono::steady_clock::now();
      core::Expected<core::AtlasStudy> result{core::Status(
          core::StatusCode::kInternal, "atlas study did not run")};
      if (!atlas_in.empty()) {
        std::printf("Atlas study from %s (%u shards)...\n", atlas_in.c_str(),
                    effective);
        core::AtlasFileStudyConfig cfg;
        cfg.threads = threads;
        cfg.metrics = registry;
        cfg.reader = reader_opts;
        io::IngestStats stats;
        result = core::run_atlas_study_from_files(
            split_paths(atlas_in), simnet::paper_isps(), cfg, &stats,
            supervision);
        std::printf("  ingested %s\n", stats.summary().c_str());
        atlas_ingest_records = stats.records_accepted;
        atlas_ingest_secs = double(stats.load_wall_ns) * 1e-9;
      } else {
        std::printf("Atlas study (scale %.2f, window %llu h, seed %llu, "
                    "%u shards)...\n",
                    scale, (unsigned long long)window,
                    (unsigned long long)seed, effective);
        core::AtlasStudyConfig cfg;
        cfg.atlas.probe_scale = scale;
        cfg.atlas.window_hours = window;
        cfg.atlas.seed = seed;
        cfg.threads = threads;
        cfg.metrics = registry;
        result =
            core::run_atlas_study_supervised(simnet::paper_isps(), cfg,
                                             supervision);
      }
      if (!result.ok()) {
        if (result.status().code() == core::StatusCode::kCancelled) {
          std::fprintf(stderr, "%s\n  resume with --resume-from %s\n",
                       result.status().to_string().c_str(),
                       checkpoint_out.c_str());
          return 3;
        }
        std::fprintf(stderr, "atlas study failed: %s\n",
                     result.status().to_string().c_str());
        remove_stale_outputs(out_dir,
                             {"fig1_duration_curves.csv", "fig5_cpl.csv",
                              "table2_bgp_moves.csv", "fig6_inference.csv"});
        return 1;
      }
      study = result.take();
      double secs = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
      if (registry)
        registry->record_phase("study.atlas_wall", std::uint64_t(secs * 1e9));
      atlas_probes = study.sanitize.probes_seen;
      atlas_secs = secs;
      std::printf("  analyzed %llu probes in %.2fs\n",
                  (unsigned long long)study.sanitize.probes_seen, secs);
      if (sharding) {
        std::printf("  shard %u/%u complete; merge with --merge-shards %s\n",
                    shard_index, shard_count, checkpoint_out.c_str());
      } else {
        if (serve)
          service.publish_atlas(
              lg::build_atlas_snapshot(study, 1, 0, atlas_probes));
        if (!write_atlas_outputs(out_dir, study)) return 1;
      }
    }

    if (cdn) {
      core::CheckpointConfig supervision;
      supervision.every_items = checkpoint_every;
      supervision.path = checkpoint_out;
      supervision.token = &token;
      supervision.resume = cdn_resume;
      supervision.shard_index = shard_index;
      supervision.shard_count = shard_count;

      core::CdnStudy study;
      auto t0 = std::chrono::steady_clock::now();
      core::Expected<core::CdnStudy> result{core::Status(
          core::StatusCode::kInternal, "cdn study did not run")};
      if (!cdn_in.empty()) {
        std::printf("CDN study from %s (%u shards)...\n", cdn_in.c_str(),
                    effective);
        core::CdnFileStudyConfig cfg;
        cfg.threads = threads;
        cfg.metrics = registry;
        cfg.reader = reader_opts;
        cfg.assoc.spill_mb = spill_mb;
        cfg.assoc.spill_dir = spill_dir;
        // The CSV schema carries no access-type/registry ground truth; take
        // the attribution of the known population profiles (ASNs absent from
        // it analyze as fixed-line RIPE).
        for (const auto& entry : cdn::default_cdn_population()) {
          if (entry.isp.mobile) cfg.mobile_asns.insert(entry.isp.asn);
          cfg.registries[entry.isp.asn] = entry.isp.registry;
          cfg.asn_names[entry.isp.asn] = entry.isp.name;
        }
        io::IngestStats stats;
        result = core::run_cdn_study_from_files(split_paths(cdn_in), cfg,
                                                &stats, supervision);
        std::printf("  ingested %s\n", stats.summary().c_str());
        cdn_ingest_records = stats.records_accepted;
        cdn_ingest_secs = double(stats.load_wall_ns) * 1e-9;
      } else {
        std::printf("CDN study (scale %.2f, seed %llu, %u shards)...\n",
                    scale, (unsigned long long)seed, effective);
        core::CdnStudyConfig cfg;
        cfg.cdn.subscriber_scale = scale;
        cfg.cdn.seed = seed * 977;
        cfg.threads = threads;
        cfg.metrics = registry;
        cfg.assoc.spill_mb = spill_mb;
        cfg.assoc.spill_dir = spill_dir;
        result = core::run_cdn_study_supervised(
            cdn::default_cdn_population(scale), cfg, supervision);
      }
      if (!result.ok()) {
        if (result.status().code() == core::StatusCode::kCancelled) {
          std::fprintf(stderr, "%s\n  resume with --resume-from %s\n",
                       result.status().to_string().c_str(),
                       checkpoint_out.c_str());
          return 3;
        }
        std::fprintf(stderr, "cdn study failed: %s\n",
                     result.status().to_string().c_str());
        remove_stale_outputs(out_dir,
                             {"fig23_assoc_durations.csv", "fig4_degrees.csv",
                              "fig7_zero_boundaries.csv"});
        return 1;
      }
      study = result.take();
      double secs = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
      if (registry)
        registry->record_phase("study.cdn_wall", std::uint64_t(secs * 1e9));
      cdn_tuples =
          study.analyzer.total_tuples() + study.analyzer.total_mismatched();
      cdn_secs = secs;
      std::printf("  analyzed %llu tuples in %.2fs\n",
                  (unsigned long long)(study.analyzer.total_tuples() +
                                       study.analyzer.total_mismatched()),
                  secs);
      if (sharding) {
        std::printf("  shard %u/%u complete; merge with --merge-shards %s\n",
                    shard_index, shard_count, checkpoint_out.c_str());
      } else {
        if (serve)
          service.publish_cdn(
              lg::build_cdn_snapshot(study, 1, 0, cdn_tuples));
        if (!write_cdn_outputs(out_dir, study)) return 1;
      }
    }
    return 0;
  };

  // Streaming mode: follow a watch directory, re-publishing the result CSVs
  // on every windowed re-finalization and once more (with metrics recorded)
  // when the stop sentinel arrives.
  auto run_follow = [&]() -> int {
    core::StreamConfig stream;
    stream.refinalize_every_batches = refinalize_every;
    stream.refinalize_seconds = refinalize_seconds;
    stream.poll_ms = poll_ms;
    stream.max_batches = max_batches;
    stream.checkpoint_path = checkpoint_out;
    stream.token = &token;
    stream.resume = resume ? &*resume : nullptr;
    stream.io_retry_attempts = io_retries;
    stream.io_retry_base_ms = io_retry_base_ms;
    stream.io_retry_seed = seed;
    stream.governor = &governor;
    stream.max_lag_seconds = max_lag_seconds;
    stream.max_backlog_batches = max_backlog_batches;

    core::StreamDriver driver(threads);
    core::StreamStats sstats;
    io::IngestStats istats;
    auto report = [&](const core::Status& st,
                      std::initializer_list<const char*> outputs) -> int {
      if (st.code() == core::StatusCode::kCancelled) {
        std::fprintf(stderr, "%s\n  resume with --resume-from %s\n",
                     st.to_string().c_str(), checkpoint_out.c_str());
        return 3;
      }
      std::fprintf(stderr, "stream failed: %s\n", st.to_string().c_str());
      remove_stale_outputs(out_dir, outputs);
      return 1;
    };

    if (atlas) {
      std::printf("Following %s for echo batches (%u shards)...\n",
                  follow_dir.c_str(), effective);
      core::AtlasFileStudyConfig cfg;
      cfg.threads = threads;
      cfg.metrics = registry;
      cfg.reader = reader_opts;
      auto t0 = std::chrono::steady_clock::now();
      auto result = driver.follow_atlas(
          follow_dir, simnet::paper_isps(), cfg, stream,
          [&](const core::AtlasStudy& snap, const core::StreamStats& st) {
            std::printf("[stream] refinalize #%llu: %llu batches, "
                        "%llu records\n",
                        (unsigned long long)st.refinalizes,
                        (unsigned long long)st.batches,
                        (unsigned long long)st.records);
            if (serve)
              service.publish_atlas(lg::build_atlas_snapshot(
                  snap, st.refinalizes, st.batches, st.records));
            if (!no_csv) write_atlas_outputs(out_dir, snap);
          },
          &istats, &sstats);
      if (!result.ok())
        return report(result.status(),
                      {"fig1_duration_curves.csv", "fig5_cpl.csv",
                       "table2_bgp_moves.csv", "fig6_inference.csv"});
      core::AtlasStudy study = result.take();
      double secs = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
      if (registry)
        registry->record_phase("study.atlas_wall", std::uint64_t(secs * 1e9));
      atlas_probes = study.sanitize.probes_seen;
      atlas_secs = secs;
      std::printf("  stream done: %llu batches, %llu records, "
                  "%llu refinalizes; ingested %s\n",
                  (unsigned long long)sstats.batches,
                  (unsigned long long)sstats.records,
                  (unsigned long long)sstats.refinalizes,
                  istats.summary().c_str());
      // The final re-finalization does not fire on_snapshot; publish the
      // completed study as its own generation.
      if (serve)
        service.publish_atlas(lg::build_atlas_snapshot(
            study, sstats.refinalizes + 1, sstats.batches, sstats.records));
      if (!no_csv && !write_atlas_outputs(out_dir, study)) return 1;
      return 0;
    }

    std::printf("Following %s for association batches (%u shards)...\n",
                follow_dir.c_str(), effective);
    core::CdnFileStudyConfig cfg;
    cfg.threads = threads;
    cfg.metrics = registry;
    cfg.reader = reader_opts;
    for (const auto& entry : cdn::default_cdn_population()) {
      if (entry.isp.mobile) cfg.mobile_asns.insert(entry.isp.asn);
      cfg.registries[entry.isp.asn] = entry.isp.registry;
      cfg.asn_names[entry.isp.asn] = entry.isp.name;
    }
    auto t0 = std::chrono::steady_clock::now();
    auto result = driver.follow_cdn(
        follow_dir, cfg, stream,
        [&](const core::CdnStudy& snap, const core::StreamStats& st) {
          std::printf("[stream] refinalize #%llu: %llu batches, "
                      "%llu records\n",
                      (unsigned long long)st.refinalizes,
                      (unsigned long long)st.batches,
                      (unsigned long long)st.records);
          if (serve)
            service.publish_cdn(lg::build_cdn_snapshot(
                snap, st.refinalizes, st.batches, st.records));
          if (!no_csv) write_cdn_outputs(out_dir, snap);
        },
        &istats, &sstats);
    if (!result.ok())
      return report(result.status(),
                    {"fig23_assoc_durations.csv", "fig4_degrees.csv",
                     "fig7_zero_boundaries.csv"});
    core::CdnStudy study = result.take();
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    if (registry)
      registry->record_phase("study.cdn_wall", std::uint64_t(secs * 1e9));
    cdn_tuples =
        study.analyzer.total_tuples() + study.analyzer.total_mismatched();
    cdn_secs = secs;
    std::printf("  stream done: %llu batches, %llu records, "
                "%llu refinalizes; ingested %s\n",
                (unsigned long long)sstats.batches,
                (unsigned long long)sstats.records,
                (unsigned long long)sstats.refinalizes,
                istats.summary().c_str());
    if (serve)
      service.publish_cdn(lg::build_cdn_snapshot(
          study, sstats.refinalizes + 1, sstats.batches, sstats.records));
    if (!no_csv && !write_cdn_outputs(out_dir, study)) return 1;
    return 0;
  };

  int rc = follow_dir.empty() ? run_studies() : run_follow();

  // Keep serving the last published snapshots after a successful run until
  // the operator stops us; either way the server drains before metrics are
  // written so lg.* counters land in the document.
  if (server) {
    if (rc == 0 && !token.requested()) {
      std::printf("studies complete; looking-glass still serving "
                  "(SIGINT/SIGTERM to stop)\n");
      std::fflush(stdout);
      server->serve_until_shutdown();
    } else {
      server->stop();
    }
    lg::ServerStats lstats = server->stats();
    std::printf("  served %llu requests on %llu connections\n",
                (unsigned long long)lstats.requests,
                (unsigned long long)lstats.connections);
  }

  if (quarantine) {
    core::Status st = quarantine->commit();
    if (!st.ok()) {
      std::fprintf(stderr, "cannot write quarantine file: %s\n",
                   st.message().c_str());
      if (rc == 0) rc = 1;
    } else {
      std::printf("  wrote %s\n", quarantine_out.c_str());
    }
  }

  // Metrics are written on every exit path: an interrupted run reports its
  // partial counters (the checkpoint snapshot excludes them, so a resumed
  // run never double-counts).
  if (registry && !metrics_out.empty()) {
    registry->add_counter("stats.nan_dropped", stats::nan_dropped());
    registry->set_gauge("process.peak_rss_bytes",
                        double(obs::peak_rss_bytes()));
    if (!obs::write_metrics_json(metrics_out, registry->snapshot(),
                                 run_meta)) {
      std::fprintf(stderr, "cannot write metrics to %s\n",
                   metrics_out.c_str());
      if (rc == 0) rc = 1;
    } else {
      std::printf("  wrote %s\n", metrics_out.c_str());
    }
  }

  // Throughput document for tools/check_bench.py. Success only: a
  // cancelled or failed run's wall time measures nothing.
  if (rc == 0 && !bench_out.empty()) {
    io::AtomicFileWriter bench(bench_out);
    if (!bench.ok()) {
      std::fprintf(stderr, "cannot write %s\n", bench_out.c_str());
      rc = 1;
    } else {
      double total_secs = atlas_secs + cdn_secs;
      std::uint64_t total_records = atlas_probes + cdn_tuples;
      auto rate = [](double n, double secs) { return secs > 0 ? n / secs : 0; };
      auto& os = bench.stream();
      char buf[2048];
      std::snprintf(
          buf, sizeof buf,
          "{\n"
          "  \"schema\": \"dynamips.bench.v1\",\n"
          "  \"meta\": {\"binary\": \"dynamips_study\", \"scale\": %g, "
          "\"seed\": %llu, \"window_hours\": %llu, \"threads\": %u},\n"
          "  \"counts\": {\"atlas_probes\": %llu, \"cdn_tuples\": %llu, "
          "\"nan_dropped\": %llu},\n"
          "  \"wall_s\": {\"atlas\": %.3f, \"cdn\": %.3f, \"total\": %.3f, "
          "\"atlas_ingest\": %.3f, \"cdn_ingest\": %.3f},\n"
          "  \"metrics\": {\n"
          "    \"atlas_probes_per_sec\": %.1f,\n"
          "    \"cdn_tuples_per_sec\": %.1f,\n"
          "    \"records_per_sec\": %.1f,\n"
          "    \"atlas_ingest_records_per_sec\": %.1f,\n"
          "    \"cdn_ingest_tuples_per_sec\": %.1f\n"
          "  }\n"
          "}\n",
          scale, (unsigned long long)seed, (unsigned long long)window,
          effective, (unsigned long long)atlas_probes,
          (unsigned long long)cdn_tuples,
          (unsigned long long)stats::nan_dropped(), atlas_secs, cdn_secs,
          total_secs, atlas_ingest_secs, cdn_ingest_secs,
          rate(double(atlas_probes), atlas_secs),
          rate(double(cdn_tuples), cdn_secs),
          rate(double(total_records), total_secs),
          rate(double(atlas_ingest_records), atlas_ingest_secs),
          rate(double(cdn_ingest_records), cdn_ingest_secs));
      os << buf;
      core::Status st = bench.commit();
      if (!st.ok()) {
        std::fprintf(stderr, "cannot write %s: %s\n", bench_out.c_str(),
                     st.message().c_str());
        rc = 1;
      } else {
        std::printf("  wrote %s\n", bench_out.c_str());
      }
    }
  }

  if (core::failpoints_armed())
    std::fprintf(stderr, "failpoints: %s\n",
                 core::failpoint_report().c_str());

  if (rc == 0) {
    if (sharding) {
      // The shard checkpoint IS the run's product — keep it (and its
      // `.prev`/`.tmp` siblings are already gone via atomic publish).
      std::printf("done (shard %u/%u).\n", shard_index, shard_count);
    } else {
      // The run is fully durable; retire the checkpoint chain, including
      // the per-process shard checkpoints a merge run consumed.
      io::remove_checkpoint_files(checkpoint_out);
      if (!resume_from.empty() && resume_from != checkpoint_out)
        io::remove_checkpoint_files(resume_from);
      for (const std::string& shard_path : split_paths(merge_shards))
        if (shard_path != checkpoint_out)
          io::remove_checkpoint_files(shard_path);
      std::printf("done.\n");
    }
  }
  return rc;
}
