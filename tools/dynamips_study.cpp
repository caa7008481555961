// dynamips_study — command-line driver: run the full Atlas and CDN studies
// and export every artifact's underlying series as CSV, mirroring the
// paper's supplemental data release.
//
// Usage: dynamips_study [output_dir] [flags]; `dynamips_study --help` lists
// every flag with its value range and default, generated from the flag
// table (flag_table) that the parser itself reads. Numeric values are parsed
// strictly (core/parse_number.h): `--threads abc`, `12x`, an empty value,
// `-1` for a count or `--max-reject-fraction 1.5` exit 2 naming the flag.
// Contradictory flag combinations (kConflicts) exit 2 as well.
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
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <variant>
#include <vector>

#ifdef __unix__
#include <unistd.h>
#endif

#include "core/failpoint.h"
#include "core/parse_number.h"
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

// ------------------------------------------------------------ flag table

/// Every setting the command line can change. A subsystem's settings live
/// in its own config struct, whose defaults are the command-line defaults.
struct Options {
  std::filesystem::path out_dir = "dynamips_results";
  double scale = 0.3;
  std::uint64_t window = 30000, seed = 1;
  std::uint64_t threads = 0;  // 0 = hardware_concurrency
  bool atlas_only = false, cdn_only = false;
  std::string metrics_out, bench_out;
  std::string atlas_in, cdn_in, quarantine_out;
  io::ReaderOptions reader;
  std::string checkpoint_out, resume_from;
  std::uint64_t checkpoint_every = 0;
  double deadline_seconds = 0;
  std::string follow_dir;
  core::StreamConfig stream;
  bool serve = false, no_csv = false;
  std::uint64_t serve_port = 0;
  lg::ServerConfig server;
  bool failpoints = false;
  std::string failpoints_spec;
  core::AssocOptions assoc;  // spill budget and directory
  std::string shard_spec, merge_shards;
  std::uint32_t shard_index = 0, shard_count = 1;  // parsed from shard_spec
  core::ResourceBudgets budgets;
  bool supervise = false;
  core::SuperviseConfig restart;
  double restart_window_seconds = 60, stall_timeout_seconds = 0,
         heartbeat_timeout_seconds = 60;
  bool help = false;

  bool follows() const { return !follow_dir.empty(); }
  bool shards() const { return !shard_spec.empty(); }
  bool merges() const { return !merge_shards.empty(); }
  bool resumes() const { return !resume_from.empty(); }
  bool reads_files() const { return !atlas_in.empty() || !cdn_in.empty(); }
  bool one_study() const { return atlas_only != cdn_only; }
};
using O = Options;

/// What a flag's value sets: nothing (a switch), a string, or a number
/// parsed strictly into [lo, hi].
struct Switch {};
struct Text {
  std::string* field;
};
template <typename T>
struct Number {
  T* field;
  T lo, hi;
};
using Target =
    std::variant<Switch, Text, Number<std::uint64_t>, Number<double>>;

// The numeric families.
Number<std::uint64_t> count(std::uint64_t& field, std::uint64_t lo = 0,
                            std::uint64_t hi = UINT64_MAX) {
  return {&field, lo, hi};
}
Number<std::uint64_t> millis(std::uint64_t& field) {
  return {&field, 0, 1000000000};
}
Number<std::uint64_t> megabytes(std::uint64_t& field) {
  return {&field, 0, UINT64_MAX >> 20};
}
Number<double> seconds(double& field) { return {&field, 0, 1e9}; }

struct Flag {
  const char* name;
  const char* metavar;  // "" for a switch
  Target target;
  const char* help;
  bool* given = nullptr;     // set whenever the flag appears
  bool child_drops = false;  // --supervise strips it (and its value)
};

/// The flag table over `o`'s fields: the parser, usage() and the
/// supervisor's child-argv filter all read it.
std::vector<Flag> flag_table(Options& o) {
  return {
      {"--scale", "S", Number<double>{&o.scale, 1e-6, 100},
       "probe/subscriber scale factor"},
      {"--window", "HOURS", count(o.window, 1, 10000000),
       "Atlas observation window"},
      {"--seed", "N", count(o.seed), "simulation seed"},
      {"--threads", "N", count(o.threads, 0, 4096),
       "shard/thread count, 0 = all cores"},
      {"--atlas-only", "", Switch{}, "run only the Atlas IP-echo study",
       &o.atlas_only},
      {"--cdn-only", "", Switch{}, "run only the CDN association study",
       &o.cdn_only},
      {"--atlas-in", "F[,F...]", Text{&o.atlas_in},
       "analyze echo datasets (.csv/.col) instead of generating"},
      {"--cdn-in", "F[,F...]", Text{&o.cdn_in},
       "analyze association datasets (.csv/.col) instead of generating"},
      {"--quarantine-out", "FILE", Text{&o.quarantine_out},
       "write rejected input lines to FILE"},
      {"--max-reject-fraction", "R",
       Number<double>{&o.reader.max_reject_fraction, 0, 1},
       "fail an input whose share of rejected lines exceeds R"},
      {"--max-consecutive-rejects", "N",
       count(o.reader.max_consecutive_rejects),
       "fail an input after N rejected lines in a row"},
      {"--metrics-out", "FILE", Text{&o.metrics_out},
       "write the metrics JSON document to FILE"},
      {"--bench-out", "FILE", Text{&o.bench_out},
       "write a dynamips.bench.v1 throughput document to FILE"},
      {"--checkpoint-every", "N", count(o.checkpoint_every),
       "checkpoint every N items per shard, 0 = only on interrupt"},
      {"--checkpoint-out", "FILE", Text{&o.checkpoint_out},
       "checkpoint path (default <output_dir>/study.ckpt)"},
      {"--resume-from", "FILE", Text{&o.resume_from},
       "continue an interrupted run from its checkpoint", nullptr, true},
      {"--deadline-seconds", "S", seconds(o.deadline_seconds),
       "interrupt the run after S seconds, 0 = never"},
      {"--follow", "DIR", Text{&o.follow_dir},
       "stream the batch files dropped into DIR"},
      {"--refinalize-every", "N", count(o.stream.refinalize_every_batches),
       "re-finalize the stream every N batches"},
      {"--refinalize-seconds", "S", seconds(o.stream.refinalize_seconds),
       "also re-finalize every S seconds"},
      {"--poll-ms", "MS", millis(o.stream.poll_ms),
       "watch-directory poll interval"},
      {"--max-batches", "N", count(o.stream.max_batches),
       "end the stream after N batches, 0 = never"},
      {"--io-retries", "N", count(o.stream.io_retry_attempts, 0, 1000),
       "retries of a failed batch load or checkpoint write"},
      {"--io-retry-base-ms", "MS", millis(o.stream.io_retry_base_ms),
       "first retry backoff"},
      {"--serve", "PORT", count(o.serve_port, 0, 65535),
       "serve the looking-glass on 127.0.0.1:PORT, 0 = any free port",
       &o.serve},
      {"--send-timeout-ms", "MS", millis(o.server.send_timeout_ms),
       "looking-glass per-connection send deadline"},
      {"--max-connections", "N", count(o.server.max_connections),
       "looking-glass connection cap, 0 = none"},
      {"--no-csv", "", Switch{}, "streaming: skip the CSV re-publications",
       &o.no_csv},
      {"--failpoints", "SPEC", Text{&o.failpoints_spec},
       "arm fault injection (wins over DYNAMIPS_FAILPOINTS)", &o.failpoints},
      {"--spill-mb", "N", megabytes(o.assoc.spill_mb),
       "CDN sort memory before spilling to disk, 0 = unbounded"},
      {"--spill-dir", "DIR", Text{&o.assoc.spill_dir},
       "spill directory (default: the system temp dir)"},
      {"--shard", "I/N", Text{&o.shard_spec},
       "analyze slice I of N into a shard checkpoint"},
      {"--merge-shards", "F[,F...]", Text{&o.merge_shards},
       "merge completed shard checkpoints into the results"},
      {"--max-rss-mb", "N", megabytes(o.budgets.max_rss_mb),
       "resident-memory budget, 0 = none"},
      {"--min-disk-free-mb", "N", megabytes(o.budgets.min_disk_free_mb),
       "free-disk floor, 0 = none"},
      {"--max-lag-seconds", "S", seconds(o.stream.max_lag_seconds),
       "stream lag budget, 0 = none"},
      {"--max-backlog-batches", "N", count(o.stream.max_backlog_batches),
       "stream backlog budget"},
      {"--supervise", "", Switch{},
       "run the study as a child process, restarted when it fails",
       &o.supervise, true},
      {"--restart-max", "N", count(o.restart.crash_loop_failures),
       "give up after N failures inside the restart window", nullptr, true},
      {"--restart-window-seconds", "S", seconds(o.restart_window_seconds),
       "crash-loop window", nullptr, true},
      {"--restart-backoff-ms", "MS", millis(o.restart.backoff_base_ms),
       "first restart backoff", nullptr, true},
      {"--restart-backoff-max-ms", "MS", millis(o.restart.backoff_max_ms),
       "restart backoff cap", nullptr, true},
      {"--stall-timeout-seconds", "S", seconds(o.stall_timeout_seconds),
       "kill a child whose checkpoint stalls this long, 0 = never", nullptr,
       true},
      {"--heartbeat-timeout-seconds", "S",
       seconds(o.heartbeat_timeout_seconds),
       "kill a child whose heartbeat is older than this", nullptr, true},
      {"--help", "", Switch{}, "print this help and exit", &o.help},
      {"-h", "", Switch{}, "same as --help", &o.help},
  };
}

/// Flag combinations that select no coherent run; each exits 2.
struct Conflict {
  bool (*applies)(const Options&);
  const char* message;
};

const Conflict kConflicts[] = {
    {[](const O& o) { return o.follows() && !o.one_study(); },
     "--follow requires exactly one of --atlas-only or --cdn-only (a stream "
     "carries one batch schema)"},
    {[](const O& o) { return o.follows() && o.reads_files(); },
     "--follow and --atlas-in/--cdn-in are mutually exclusive"},
    {[](const O& o) { return o.no_csv && !o.follows(); },
     "--no-csv only applies to streaming runs (--follow); one-shot runs "
     "exist to write CSVs"},
    {[](const O& o) { return o.shards() && !o.one_study(); },
     "--shard requires exactly one of --atlas-only or --cdn-only (one "
     "checkpoint kind per shard file)"},
    {[](const O& o) {
       return o.shards() && (o.follows() || o.serve || o.supervise ||
                             o.resumes() || o.merges());
     },
     "--shard is a batch mode: it cannot combine with --follow, --serve, "
     "--supervise, --resume-from or --merge-shards"},
    {[](const O& o) { return o.merges() && (o.follows() || o.resumes()); },
     "--merge-shards cannot combine with --follow or --resume-from"},
    {[](const O& o) { return o.atlas_only && o.cdn_only; },
     "--atlas-only and --cdn-only are mutually exclusive (together they "
     "select no study)"},
    {[](const O& o) { return o.cdn_only && !o.atlas_in.empty(); },
     "--atlas-in cannot combine with --cdn-only (the Atlas study does not "
     "run)"},
    {[](const O& o) { return o.atlas_only && !o.cdn_in.empty(); },
     "--cdn-in cannot combine with --atlas-only (the CDN study does not "
     "run)"},
};

template <typename... Fs>
struct overloaded : Fs... {
  using Fs::operator()...;
};
template <typename... Fs>
overloaded(Fs...) -> overloaded<Fs...>;

const Flag* find_flag(const std::vector<Flag>& flags, std::string_view arg) {
  for (const Flag& flag : flags)
    if (arg == flag.name) return &flag;
  return nullptr;
}

bool takes_value(const Flag& flag) {
  return !std::holds_alternative<Switch>(flag.target);
}

/// The usage text, generated from the flag table: each flag with its help,
/// and a number's range and nonzero default.
void usage(const char* argv0) {
  Options defaults;
  std::fprintf(stderr, "usage: %s [output_dir] [flags]\n", argv0);
  for (const Flag& flag : flag_table(defaults)) {
    std::string notes;
    std::visit(overloaded{[](const auto&) {},
                          [&]<typename T>(const Number<T>& n) {
                            notes = "; [" + core::bound_text(n.lo) + ", " +
                                    core::bound_text(n.hi) + "]";
                            if (*n.field != 0)
                              notes += ", default " +
                                       core::bound_text(*n.field);
                          }},
               flag.target);
    std::fprintf(stderr, "  %-34s %s%s\n",
                 (std::string(flag.name) + " " + flag.metavar).c_str(),
                 flag.help, notes.c_str());
  }
}

/// "I/N" with 0 <= I < N <= 4096; both parts strict like every numeric
/// flag ("0/2x" is rejected, not read as 0/2).
bool parse_shard(Options& opt) {
  const std::string_view spec = opt.shard_spec;
  const std::size_t slash = spec.find('/');
  std::optional<std::uint32_t> index, count;
  if (slash != std::string_view::npos) {
    index = core::parse_number<std::uint32_t>(spec.substr(0, slash));
    count = core::parse_number<std::uint32_t>(spec.substr(slash + 1), 0, 4096);
  }
  if (!index || !count || *index >= *count) {
    std::fprintf(stderr,
                 "--shard: expected I/N with 0 <= I < N (e.g. --shard 0/4), "
                 "got '%s'\n",
                 opt.shard_spec.c_str());
    return false;
  }
  opt.shard_index = *index;
  opt.shard_count = *count;
  return true;
}

/// Parse argv into `opt` through its flag table, then reject kConflicts.
/// Returns the exit code when the run ends here: 0 for --help, 2 for a
/// usage error.
std::optional<int> parse_args(int argc, char** argv, Options& opt) {
  const std::vector<Flag> flags = flag_table(opt);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const Flag* flag = find_flag(flags, arg);
    if (!flag && (arg.empty() || arg[0] != '-')) {
      opt.out_dir = arg;
      continue;
    }
    if (!flag || (takes_value(*flag) && i + 1 >= argc)) {
      usage(argv[0]);  // unknown flag or missing value
      return 2;
    }
    if (flag->given) *flag->given = true;
    const char* value = takes_value(*flag) ? argv[++i] : nullptr;
    std::visit(overloaded{[](Switch) {},
                          [&](Text t) { *t.field = value; },
                          [&]<typename T>(Number<T> n) {
                            *n.field = core::parse_number_or_exit(
                                flag->name, value, n.lo, n.hi);
                          }},
               flag->target);
    if (opt.help) {
      usage(argv[0]);
      return 0;
    }
  }
  if (opt.shards() && !parse_shard(opt)) return 2;
  for (const Conflict& conflict : kConflicts) {
    if (conflict.applies(opt)) {
      std::fprintf(stderr, "%s\n", conflict.message);
      return 2;
    }
  }
  return std::nullopt;
}

// ----------------------------------------------------------------- outputs

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

/// Write one output file via tmp + rename: readers never observe a
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

/// Publish a study's result CSVs (the one-shot path, every streaming
/// re-finalization, and the stream's final write).
template <typename Kind>
bool write_outputs(const std::filesystem::path& out_dir,
                   const typename Kind::Study& study) {
  for (const auto& output : Kind::outputs)
    if (!write_file(out_dir / output.file,
                    [&](std::ostream& os) { output.write(os, study); }))
      return false;
  return true;
}

/// Remove output files a failed study may have left from a previous run, so
/// a nonzero exit never pairs with stale-but-plausible results.
template <typename Kind>
void remove_stale_outputs(const std::filesystem::path& out_dir) {
  for (const auto& output : Kind::outputs) {
    std::error_code ec;
    if (std::filesystem::remove(out_dir / output.file, ec))
      std::fprintf(stderr, "  removed stale %s\n",
                   (out_dir / output.file).string().c_str());
  }
}

// ------------------------------------------------------------ study runner

/// The run-wide state every study shares: options and the services main()
/// sets up before the studies run.
struct Run {
  const Options& opt;
  unsigned effective;  // resolved thread count, for the banners
  obs::MetricsRegistry* registry;
  core::ShutdownToken& token;
  core::ResourceGovernor& governor;
  lg::LgService& service;
};

/// Throughput accounting for --bench-out. The ingest figures are
/// file-driven only: records accepted and wall time inside the load phase,
/// the number the columnar format exists to move.
struct Tally {
  std::uint64_t records = 0, ingest_records = 0;
  double secs = 0, ingest_secs = 0;
};

template <typename Study>
struct Output {
  const char* file;
  void (*write)(std::ostream&, const Study&);
};

/// Per-study traits for run_study: outputs, record count, looking-glass
/// publisher, wall phase, and the three ways to produce the study.
struct AtlasKind {
  using Study = core::AtlasStudy;
  static constexpr const char *name = "atlas", *label = "Atlas",
                              *unit = "probes", *batches = "echo",
                              *wall_phase = "study.atlas_wall";
  static constexpr std::string O::*input = &O::atlas_in;
  static constexpr Output<Study> outputs[] = {
      {"fig1_duration_curves.csv", io::write_duration_curves_csv},
      {"fig5_cpl.csv", io::write_cpl_csv},
      {"table2_bgp_moves.csv", io::write_bgp_moves_csv},
      {"fig6_inference.csv", io::write_inference_csv},
  };
  static constexpr auto snapshot = lg::build_atlas_snapshot;
  static constexpr auto publish = &lg::LgService::publish_atlas;

  static std::uint64_t records(const Study& study) {
    return study.sanitize.probes_seen;
  }
  static core::AtlasFileStudyConfig file_config(const Run& run) {
    core::AtlasFileStudyConfig cfg;
    cfg.threads = unsigned(run.opt.threads);
    cfg.metrics = run.registry;
    cfg.reader = run.opt.reader;
    return cfg;
  }
  static auto generate(const Run& run, const core::CheckpointConfig& cc) {
    const Options& o = run.opt;
    std::printf("Atlas study (scale %.2f, window %llu h, seed %llu, "
                "%u shards)...\n",
                o.scale, (unsigned long long)o.window,
                (unsigned long long)o.seed, run.effective);
    core::AtlasStudyConfig cfg;
    cfg.atlas.probe_scale = o.scale;
    cfg.atlas.window_hours = o.window;
    cfg.atlas.seed = o.seed;
    cfg.threads = unsigned(o.threads);
    cfg.metrics = run.registry;
    return core::run_atlas_study_supervised(simnet::paper_isps(), cfg, cc);
  }
  static auto from_files(const Run& run, const std::vector<std::string>& in,
                         auto... rest) {
    return core::run_atlas_study_from_files(in, simnet::paper_isps(),
                                            file_config(run), rest...);
  }
  static auto follow(core::StreamDriver& driver, const Run& run,
                     auto... rest) {
    return driver.follow_atlas(run.opt.follow_dir, simnet::paper_isps(),
                               file_config(run), rest...);
  }
};

struct CdnKind {
  using Study = core::CdnStudy;
  static constexpr const char *name = "cdn", *label = "CDN",
                              *unit = "tuples", *batches = "association",
                              *wall_phase = "study.cdn_wall";
  static constexpr std::string O::*input = &O::cdn_in;
  static constexpr Output<Study> outputs[] = {
      {"fig23_assoc_durations.csv", io::write_assoc_durations_csv},
      {"fig4_degrees.csv", io::write_degrees_csv},
      {"fig7_zero_boundaries.csv", io::write_zero_boundaries_csv},
  };
  static constexpr auto snapshot = lg::build_cdn_snapshot;
  static constexpr auto publish = &lg::LgService::publish_cdn;

  static std::uint64_t records(const Study& study) {
    return study.analyzer.total_tuples() + study.analyzer.total_mismatched();
  }
  static core::CdnFileStudyConfig file_config(const Run& run) {
    core::CdnFileStudyConfig cfg;
    cfg.threads = unsigned(run.opt.threads);
    cfg.metrics = run.registry;
    cfg.reader = run.opt.reader;
    cfg.assoc = run.opt.assoc;
    // The CSV schema carries no access-type/registry ground truth; take
    // the attribution of the known population profiles (ASNs absent from
    // it analyze as fixed-line RIPE).
    for (const auto& entry : cdn::default_cdn_population()) {
      if (entry.isp.mobile) cfg.mobile_asns.insert(entry.isp.asn);
      cfg.registries[entry.isp.asn] = entry.isp.registry;
      cfg.asn_names[entry.isp.asn] = entry.isp.name;
    }
    return cfg;
  }
  static auto generate(const Run& run, const core::CheckpointConfig& cc) {
    const Options& o = run.opt;
    std::printf("CDN study (scale %.2f, seed %llu, %u shards)...\n", o.scale,
                (unsigned long long)o.seed, run.effective);
    core::CdnStudyConfig cfg;
    cfg.cdn.subscriber_scale = o.scale;
    cfg.cdn.seed = o.seed * 977;
    cfg.threads = unsigned(o.threads);
    cfg.metrics = run.registry;
    cfg.assoc = o.assoc;
    return core::run_cdn_study_supervised(cdn::default_cdn_population(o.scale),
                                          cfg, cc);
  }
  static auto from_files(const Run& run, const std::vector<std::string>& in,
                         auto... rest) {
    return core::run_cdn_study_from_files(in, file_config(run), rest...);
  }
  static auto follow(core::StreamDriver& driver, const Run& run,
                     auto... rest) {
    return driver.follow_cdn(run.opt.follow_dir, file_config(run), rest...);
  }
};

/// Run one study — generated, from files, or streamed with --follow — and
/// publish it: the shard checkpoint under --shard, else the looking-glass
/// snapshot and the result CSVs. Returns the exit code: 0, 1 on failure
/// (stale CSVs removed), 3 when interrupted and resumable.
template <typename Kind>
int run_study(const Run& run, const io::StudyCheckpoint* resume,
              Tally& tally) {
  using Study = typename Kind::Study;
  const Options& opt = run.opt;
  const bool follow = opt.follows();
  io::IngestStats istats;
  core::StreamStats sstats;
  auto t0 = std::chrono::steady_clock::now();
  core::Expected<Study> result = [&]() -> core::Expected<Study> {
    if (follow) {
      std::printf("Following %s for %s batches (%u shards)...\n",
                  opt.follow_dir.c_str(), Kind::batches, run.effective);
      core::StreamConfig stream = opt.stream;
      stream.checkpoint_path = opt.checkpoint_out;
      stream.token = &run.token;
      stream.resume = resume;
      stream.io_retry_seed = opt.seed;
      stream.governor = &run.governor;
      core::StreamDriver driver(unsigned(opt.threads));
      return Kind::follow(
          driver, run, stream,
          [&](const Study& snap, const core::StreamStats& st) {
            std::printf("[stream] refinalize #%llu: %llu batches, "
                        "%llu records\n",
                        (unsigned long long)st.refinalizes,
                        (unsigned long long)st.batches,
                        (unsigned long long)st.records);
            if (opt.serve)
              (run.service.*Kind::publish)(Kind::snapshot(
                  snap, st.refinalizes, st.batches, st.records));
            if (!opt.no_csv) write_outputs<Kind>(opt.out_dir, snap);
          },
          &istats, &sstats);
    }
    core::CheckpointConfig cc;
    cc.every_items = opt.checkpoint_every;
    cc.path = opt.checkpoint_out;
    cc.token = &run.token;
    cc.resume = resume;
    cc.shard_index = opt.shard_index;
    cc.shard_count = opt.shard_count;
    const std::string& input = opt.*Kind::input;
    if (input.empty()) return Kind::generate(run, cc);
    std::printf("%s study from %s (%u shards)...\n", Kind::label,
                input.c_str(), run.effective);
    auto loaded = Kind::from_files(run, split_paths(input), &istats, cc);
    std::printf("  ingested %s\n", istats.summary().c_str());
    tally.ingest_records = istats.records_accepted;
    tally.ingest_secs = double(istats.load_wall_ns) * 1e-9;
    return loaded;
  }();

  if (!result.ok()) {
    const core::Status& st = result.status();
    if (st.code() == core::StatusCode::kCancelled) {
      std::fprintf(stderr, "%s\n  resume with --resume-from %s\n",
                   st.to_string().c_str(), opt.checkpoint_out.c_str());
      return 3;
    }
    std::fprintf(stderr, "%s%s failed: %s\n", follow ? "stream" : Kind::name,
                 follow ? "" : " study", st.to_string().c_str());
    remove_stale_outputs<Kind>(opt.out_dir);
    return 1;
  }
  const Study study = result.take();
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  if (run.registry)
    run.registry->record_phase(Kind::wall_phase, std::uint64_t(secs * 1e9));
  tally.records = Kind::records(study);
  tally.secs = secs;
  if (follow) {
    std::printf("  stream done: %llu batches, %llu records, "
                "%llu refinalizes; ingested %s\n",
                (unsigned long long)sstats.batches,
                (unsigned long long)sstats.records,
                (unsigned long long)sstats.refinalizes,
                istats.summary().c_str());
  } else {
    std::printf("  analyzed %llu %s in %.2fs\n",
                (unsigned long long)tally.records, Kind::unit, secs);
  }
  if (opt.shard_count > 1) {
    std::printf("  shard %u/%u complete; merge with --merge-shards %s\n",
                opt.shard_index, opt.shard_count, opt.checkpoint_out.c_str());
    return 0;
  }
  // One-shot studies publish generation 1; a stream's final
  // re-finalization does not fire on_snapshot, so the completed study is
  // published as its own generation.
  if (opt.serve)
    (run.service.*Kind::publish)(
        Kind::snapshot(study, sstats.refinalizes + 1, sstats.batches,
                       follow ? sstats.records : tally.records));
  if (!opt.no_csv && !write_outputs<Kind>(opt.out_dir, study)) return 1;
  return 0;
}

/// The dynamips.bench.v1 document: per-study wall time and records/sec.
void write_bench(std::ostream& os, const Options& opt, unsigned effective,
                 const Tally& atlas, const Tally& cdn) {
  const double total_secs = atlas.secs + cdn.secs;
  auto rate = [](double n, double secs) { return secs > 0 ? n / secs : 0; };
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
      opt.scale, (unsigned long long)opt.seed, (unsigned long long)opt.window,
      effective, (unsigned long long)atlas.records,
      (unsigned long long)cdn.records,
      (unsigned long long)stats::nan_dropped(), atlas.secs, cdn.secs,
      total_secs, atlas.ingest_secs, cdn.ingest_secs,
      rate(double(atlas.records), atlas.secs),
      rate(double(cdn.records), cdn.secs),
      rate(double(atlas.records + cdn.records), total_secs),
      rate(double(atlas.ingest_records), atlas.ingest_secs),
      rate(double(cdn.ingest_records), cdn.ingest_secs));
  os << buf;
}

// -------------------------------------------------------------- supervisor

/// Supervisor mode: re-run this binary as a child (minus the flags marked
/// child_drops) and keep it alive — restart with capped exponential
/// backoff, re-inject --resume-from whenever a durable checkpoint exists,
/// kill a hung/stalled child, give up on a crash loop.
int supervise_child(int argc, char** argv, const Options& opt,
                    core::ShutdownToken& token) {
  const std::string& checkpoint_out = opt.checkpoint_out;
  std::vector<std::string> child_argv;
#ifdef __unix__
  char exe[4096];
  ssize_t n = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
  child_argv.push_back(n > 0 ? std::string(exe, std::size_t(n))
                             : std::string(argv[0]));
#else
  child_argv.push_back(argv[0]);
#endif
  Options unused;  // the filter only reads the table's names and shapes
  const std::vector<Flag> flags = flag_table(unused);
  for (int i = 1; i < argc; ++i) {
    const Flag* flag = find_flag(flags, argv[i]);
    const int span = flag && takes_value(*flag) ? 2 : 1;  // flag + value
    if (!flag || !flag->child_drops)
      child_argv.insert(child_argv.end(), argv + i, argv + i + span);
    i += span - 1;
  }
  // Children inherit the heartbeat path (and any DYNAMIPS_FAILPOINTS
  // already in our environment) by plain env inheritance.
  const std::string heartbeat_path = (opt.out_dir / ".heartbeat").string();
#ifdef __unix__
  ::setenv("DYNAMIPS_HEARTBEAT_FILE", heartbeat_path.c_str(), 1);
#endif

  core::SuperviseConfig scfg = opt.restart;
  scfg.crash_loop_window_ms =
      std::uint64_t(opt.restart_window_seconds * 1000.0);
  scfg.stall_timeout_ms = std::uint64_t(opt.stall_timeout_seconds * 1000.0);
  scfg.heartbeat_timeout_ms =
      std::uint64_t(opt.heartbeat_timeout_seconds * 1000.0);

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
    if (!opt.resume_from.empty() &&
        std::filesystem::exists(opt.resume_from, rec))
      return opt.resume_from;
    return "";
  };
  hooks.progress = [&] { return core::file_progress_token(checkpoint_out); };
  hooks.heartbeat_age_ms = [&] { return core::file_age_ms(heartbeat_path); };
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
               rep.diagnosis.empty() ? "" : ": ", rep.diagnosis.c_str());
  return rep.exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (std::optional<int> rc = parse_args(argc, argv, opt)) return *rc;
  const bool sharding = opt.shard_count > 1;

  // Chaos arming: the env var first, then --failpoints (the flag wins when
  // both are given). Disarmed, every instrumented site is one relaxed
  // atomic load.
  if (core::Status st = core::arm_failpoints_from_env(); !st.ok()) {
    std::fprintf(stderr, "DYNAMIPS_FAILPOINTS: %s\n", st.to_string().c_str());
    return 2;
  }
  if (opt.failpoints) {
    if (core::Status st = core::arm_failpoints(opt.failpoints_spec);
        !st.ok()) {
      std::fprintf(stderr, "--failpoints: %s\n", st.to_string().c_str());
      return 2;
    }
  }

  const std::filesystem::path& out_dir = opt.out_dir;
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", out_dir.string().c_str(),
                 ec.message().c_str());
    return 1;
  }
  if (!opt.assoc.spill_dir.empty()) {
    std::filesystem::create_directories(opt.assoc.spill_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create --spill-dir %s: %s\n",
                   opt.assoc.spill_dir.c_str(), ec.message().c_str());
      return 1;
    }
  }

  const unsigned effective = core::resolve_threads(unsigned(opt.threads));
  // The looking-glass serves /v1/metricsz from the registry, so --serve
  // enables it even without --metrics-out (the file is still only written
  // when asked for).
  obs::MetricsRegistry* registry = (opt.metrics_out.empty() && !opt.serve)
                                       ? nullptr
                                       : &obs::MetricsRegistry::global();
  obs::MetricsMeta run_meta;
  run_meta.binary = "dynamips_study";
  run_meta.scale = opt.scale;
  run_meta.seed = opt.seed;
  run_meta.window_hours = opt.window;
  run_meta.threads = effective;

  // Graceful shutdown: SIGINT/SIGTERM (and the optional deadline) set a
  // token the studies poll at round boundaries.
  core::install_shutdown_handlers();
  core::ShutdownToken& token = core::global_shutdown_token();
  if (opt.checkpoint_out.empty()) {
    const std::string name =
        sharding ? "study.shard-" + std::to_string(opt.shard_index) + "-of-" +
                       std::to_string(opt.shard_count) + ".ckpt"
                 : "study.ckpt";
    opt.checkpoint_out = (out_dir / name).string();
  }

  const std::string& checkpoint_out = opt.checkpoint_out;
  if (opt.supervise) return supervise_child(argc, argv, opt, token);

  if (opt.deadline_seconds > 0)
    token.arm_deadline_seconds(opt.deadline_seconds);

  // Child side of supervision: fold the supervision history the supervisor
  // forwards through the environment into our registry so /v1/metricsz
  // shows launches/restarts mid-run, and refresh the heartbeat file once a
  // second so the supervisor can tell "hung" from "slow".
  if (registry) {
    for (auto [env, counter] :
         {std::pair{"DYNAMIPS_SUPERVISE_LAUNCHES", "supervise.launches"},
          std::pair{"DYNAMIPS_SUPERVISE_RESTARTS", "supervise.restarts"}})
      if (const char* v = std::getenv(env); v && *v)
        registry->add_counter(
            counter,
            core::parse_number_or_exit<std::uint64_t>(env, v, 0, UINT64_MAX));
  }
  core::Heartbeat heartbeat;
  if (const char* hb = std::getenv("DYNAMIPS_HEARTBEAT_FILE"); hb && *hb)
    heartbeat.start(hb);

  // Resource governor: budgets from the flags (0 = unlimited), probing the
  // output and checkpoint filesystems. Always constructed — with no
  // budgets it never reports pressure, but /v1/readyz still reports the
  // sampled state.
  core::ResourceBudgets budgets = opt.budgets;
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
  if (opt.serve) {
    lg::ServerConfig server_cfg = opt.server;
    server_cfg.port = std::uint16_t(opt.serve_port);
    server_cfg.token = &token;
    server_cfg.metrics = registry;
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

  // The checkpoint to continue from: --resume-from (with .prev fallback),
  // or --merge-shards combining the completed per-process checkpoints
  // into one resumable checkpoint whose items are all done, so the ordered
  // reduction + finalize produce CSVs byte-identical to a single-process
  // run — provided the study parameters match the shard runs, which the
  // config fingerprint enforces.
  std::optional<io::StudyCheckpoint> resume;
  const bool merging = opt.merges();
  if (opt.resumes()) {
    std::string used_path;
    auto loaded =
        io::read_checkpoint_with_fallback(opt.resume_from, &used_path);
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
    if (io::is_stream_checkpoint_kind(resume->kind) != opt.follows()) {
      std::fprintf(stderr,
                   io::is_stream_checkpoint_kind(resume->kind)
                       ? "cannot resume: checkpoint is from a streaming run; "
                         "re-run with --follow\n"
                       : "cannot resume: checkpoint is from a one-shot run, "
                         "not a stream; drop --follow\n");
      return 1;
    }
  } else if (merging) {
    auto combined =
        io::combine_shard_checkpoints(split_paths(opt.merge_shards));
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
  }

  // Route the checkpoint to the study that wrote it. A cdn-kind checkpoint
  // means the atlas study already completed in the interrupted run — its
  // CSVs are durable (atomic writes) — so it is skipped; shard runs were
  // single-study by construction, so a merge runs only that study.
  bool atlas = !opt.cdn_only, cdn = !opt.atlas_only;
  const io::StudyCheckpoint* atlas_resume = nullptr;
  const io::StudyCheckpoint* cdn_resume = nullptr;
  if (resume) {
    const bool for_atlas = io::is_atlas_checkpoint_kind(resume->kind);
    if (!(for_atlas ? atlas : cdn)) {
      std::fprintf(stderr,
                   "cannot %s: %s for the %s study but --%s-only was given\n",
                   merging ? "merge" : "resume",
                   merging ? "shard checkpoints are" : "checkpoint is",
                   for_atlas ? "atlas" : "cdn", for_atlas ? "cdn" : "atlas");
      return 1;
    }
    (for_atlas ? atlas_resume : cdn_resume) = &*resume;
    if (merging || !for_atlas) (for_atlas ? cdn : atlas) = false;
  }

  // Quarantined lines are published even when ingestion fails — that is
  // when they matter — but never as a half-written file.
  std::optional<io::AtomicFileWriter> quarantine;
  if (!opt.quarantine_out.empty()) {
    quarantine.emplace(opt.quarantine_out);
    if (!quarantine->ok()) {
      std::fprintf(stderr, "cannot open quarantine file %s\n",
                   opt.quarantine_out.c_str());
      return 1;
    }
    opt.reader.quarantine = &quarantine->stream();
  }

  const Run run{opt, effective, registry, token, governor, service};
  Tally atlas_tally, cdn_tally;
  int rc = atlas ? run_study<AtlasKind>(run, atlas_resume, atlas_tally) : 0;
  if (rc == 0 && cdn) rc = run_study<CdnKind>(run, cdn_resume, cdn_tally);

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
      std::printf("  wrote %s\n", opt.quarantine_out.c_str());
    }
  }

  // Metrics are written on every exit path: an interrupted run reports its
  // partial counters (the checkpoint snapshot excludes them, so a resumed
  // run never double-counts).
  if (registry && !opt.metrics_out.empty()) {
    registry->add_counter("stats.nan_dropped", stats::nan_dropped());
    registry->set_gauge("process.peak_rss_bytes",
                        double(obs::peak_rss_bytes()));
    if (!obs::write_metrics_json(opt.metrics_out, registry->snapshot(),
                                 run_meta)) {
      std::fprintf(stderr, "cannot write metrics to %s\n",
                   opt.metrics_out.c_str());
      if (rc == 0) rc = 1;
    } else {
      std::printf("  wrote %s\n", opt.metrics_out.c_str());
    }
  }

  // Throughput document for tools/check_bench.py. Success only: a
  // cancelled or failed run's wall time measures nothing.
  if (rc == 0 && !opt.bench_out.empty() &&
      !write_file(opt.bench_out, [&](std::ostream& os) {
        write_bench(os, opt, effective, atlas_tally, cdn_tally);
      }))
    rc = 1;

  if (core::failpoints_armed())
    std::fprintf(stderr, "failpoints: %s\n",
                 core::failpoint_report().c_str());

  if (rc == 0) {
    if (sharding) {
      // The shard checkpoint IS the run's product — keep it (and its
      // `.prev`/`.tmp` siblings are already gone via atomic publish).
      std::printf("done (shard %u/%u).\n", opt.shard_index, opt.shard_count);
    } else {
      // The run is fully durable; retire the checkpoint chain, including
      // the per-process shard checkpoints a merge run consumed.
      io::remove_checkpoint_files(checkpoint_out);
      if (!opt.resume_from.empty() && opt.resume_from != checkpoint_out)
        io::remove_checkpoint_files(opt.resume_from);
      for (const std::string& shard_path : split_paths(opt.merge_shards))
        if (shard_path != checkpoint_out)
          io::remove_checkpoint_files(shard_path);
      std::printf("done.\n");
    }
  }
  return rc;
}
