#include "harness/workloads.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "cdn/generator.h"
#include "harness/replay.h"
#include "io/atomic_file.h"
#include "io/checkpoint.h"
#include "io/columnar.h"
#include "io/readers.h"
#include "io/results_io.h"
#include "simnet/isp.h"

namespace perfbench {

using namespace dynamips;
namespace fs = std::filesystem;

namespace {

/// Looking-glass requests sent after each one-shot publish.
constexpr std::uint64_t kBurstRequests = 10000;
constexpr unsigned kClientConnections = 2;

// ------------------------------------------------------------ CSV outputs

template <typename Study>
struct CsvSpec {
  const char* name;
  void (*write)(std::ostream&, const Study&);
};

const CsvSpec<core::AtlasStudy> kAtlasCsv[] = {
    {"fig1_duration_curves.csv", io::write_duration_curves_csv},
    {"fig5_cpl.csv", io::write_cpl_csv},
    {"table2_bgp_moves.csv", io::write_bgp_moves_csv},
    {"fig6_inference.csv", io::write_inference_csv},
};
const CsvSpec<core::CdnStudy> kCdnCsv[] = {
    {"fig23_assoc_durations.csv", io::write_assoc_durations_csv},
    {"fig4_degrees.csv", io::write_degrees_csv},
    {"fig7_zero_boundaries.csv", io::write_zero_boundaries_csv},
};

/// Write a study's CSVs the way tools/dynamips_study does (tmp + fsync +
/// rename), one "io.results" span per file when traced. Returns bytes.
template <typename Study, std::size_t N>
std::uint64_t write_csvs(const fs::path& dir, const Study& study,
                         const CsvSpec<Study> (&specs)[N], Lane* lane) {
  std::uint64_t total = 0;
  for (const auto& spec : specs) {
    std::optional<Scope> span;
    if (lane) span.emplace(*lane, "io.results");
    const fs::path path = dir / spec.name;
    io::AtomicFileWriter out(path.string());
    if (!out.ok()) throw std::runtime_error("cannot write " + path.string());
    spec.write(out.stream(), study);
    core::Status st = out.commit();
    if (!st.ok())
      throw std::runtime_error("cannot write " + path.string() + ": " +
                               st.message());
    const std::uint64_t bytes = fs::file_size(path);
    if (span) span->work = bytes;
    total += bytes;
  }
  return total;
}

template <typename Study, std::size_t N>
std::map<std::string, std::string> render_csvs(
    const Study& study, const CsvSpec<Study> (&specs)[N]) {
  std::map<std::string, std::string> out;
  for (const auto& spec : specs) {
    std::ostringstream os;
    spec.write(os, study);
    out[spec.name] = os.str();
  }
  return out;
}

std::vector<std::string> csv_names(Workload w) {
  std::vector<std::string> names;
  for (const auto& spec : kAtlasCsv) names.push_back(spec.name);
  if (w != Workload::kFollowServe)
    for (const auto& spec : kCdnCsv) names.push_back(spec.name);
  return names;
}

// ------------------------------------------------------- small file codecs

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

using Digests = std::map<std::string, std::string>;

Digests dir_digests(const fs::path& dir, const std::vector<std::string>& names) {
  Digests out;
  for (const auto& name : names) out[name] = digest(read_file(dir / name));
  return out;
}

void write_lines(const fs::path& path, const std::vector<std::string>& lines) {
  std::ofstream out(path);
  for (const auto& line : lines) out << line << '\n';
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

std::vector<std::string> read_lines(const fs::path& path) {
  std::istringstream in(read_file(path));
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) lines.push_back(line);
  return lines;
}

/// "key value" lines; neither side contains a space.
void write_kv(const fs::path& path, const std::map<std::string, std::string>& kv) {
  std::vector<std::string> lines;
  for (const auto& [k, v] : kv) lines.push_back(k + " " + v);
  write_lines(path, lines);
}

std::map<std::string, std::string> read_kv(const fs::path& path) {
  std::map<std::string, std::string> kv;
  for (const auto& line : read_lines(path)) {
    std::size_t sp = line.find(' ');
    if (sp == std::string::npos)
      throw std::runtime_error("malformed line in " + path.string());
    kv[line.substr(0, sp)] = line.substr(sp + 1);
  }
  return kv;
}

// ----------------------------------------------------------- measurement

/// Start a run's memory accounting from a trimmed heap, as a fresh process
/// would: return freed arena memory to the kernel, then reset the kernel's
/// peak-RSS mark (VmHWM) to the current RSS ("5" to clear_refs).
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;
}

double seconds_since(std::uint64_t t0) { return double(now_ns() - t0) * 1e-9; }

/// Nearest-rank quantile; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t rank = std::size_t(std::ceil(q * double(v.size())));
  return v[rank == 0 ? 0 : rank - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "dynbench: check failed: %s\n", what.c_str());
    }
  }
  void check_many(std::uint64_t attempts, std::uint64_t failures,
                  const std::string& what) {
    attempted += attempts;
    failed += failures;
    if (failures)
      std::fprintf(stderr, "dynbench: %llu of %llu %s failed\n",
                   (unsigned long long)failures, (unsigned long long)attempts,
                   what.c_str());
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.15g", v);
  return buf;
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (tally.failed == 0 ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(tally.attempted) +
                    ", \"failed\": " + std::to_string(tally.failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// Looking-glass responses per window: rate and latency are taken per
/// window of this many consecutive completions (so p99 keeps ten samples
/// beyond it) and reported as the median over windows, which keeps a
/// short stall on a shared host from deciding a whole run's figure.
constexpr std::size_t kLgWindow = 1000;

/// Samples behind the end-to-end metrics of a run, and the client-side
/// looking-glass figures.
struct EndToEnd {
  std::vector<double> wall_s, records_per_s, peak_rss_mb, refresh_ms, lg_rps,
      lg_ms_p50, lg_ms_p99;

  void add_run(double wall, std::uint64_t records, double rss) {
    wall_s.push_back(wall);
    records_per_s.push_back(double(records) / wall);
    peak_rss_mb.push_back(rss);
  }
  void add_lg(const LgTraffic& t) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> by_done;  // done, ns
    for (std::size_t i = 0; i < t.done_ns.size(); ++i)
      by_done.emplace_back(t.done_ns[i], t.latency_ns[i]);
    std::sort(by_done.begin(), by_done.end());
    for (std::size_t at = 0; at + kLgWindow <= by_done.size(); at += kLgWindow) {
      const std::uint64_t span =
          by_done[at + kLgWindow - 1].first - by_done[at].first;
      if (span) lg_rps.push_back(double(kLgWindow - 1) / (double(span) * 1e-9));
      std::vector<double> ms;
      for (std::size_t i = at; i < at + kLgWindow; ++i)
        ms.push_back(double(by_done[i].second) * 1e-6);
      lg_ms_p50.push_back(quantile(ms, 0.50));
      lg_ms_p99.push_back(quantile(ms, 0.99));
    }
  }
  std::vector<Metric> metrics() const {
    return {
        {"wall_s", median(wall_s), "s"},
        {"records_per_s", median(records_per_s), "1/s"},
        {"peak_rss_mb", median(peak_rss_mb), "MB"},
        {"refresh_ms_p50", median(refresh_ms), "ms"},
    };
  }
  /// Reported with the per-layer table, not gated: loopback request timing
  /// on a shared virtual machine swings 3x with the host's load.
  std::vector<Metric> lg_client_metrics() const {
    return {
        {"lg.client.rps", median(lg_rps), "1/s"},
        {"lg.client.ms_p50", median(lg_ms_p50), "ms"},
        {"lg.client.ms_p99", median(lg_ms_p99), "ms"},
    };
  }
};

// -------------------------------------------------------- public studies

template <typename T>
T take_or_throw(core::Expected<T> result, const char* what) {
  if (!result.ok())
    throw std::runtime_error(std::string(what) + " failed: " +
                             result.status().to_string());
  return result.take();
}

core::AtlasStudy public_atlas_gen(const Params& p, unsigned threads,
                                  obs::MetricsRegistry* metrics) {
  core::AtlasStudyConfig cfg;
  cfg.atlas = atlas_config(p);
  cfg.threads = threads;
  cfg.metrics = metrics;
  return take_or_throw(
      core::run_atlas_study_supervised(simnet::paper_isps(), cfg),
      "atlas study");
}

core::CdnStudy public_cdn_gen(const Params& p, unsigned threads,
                              obs::MetricsRegistry* metrics) {
  core::CdnStudyConfig cfg;
  cfg.cdn = cdn_config(p);
  cfg.threads = threads;
  cfg.metrics = metrics;
  return take_or_throw(core::run_cdn_study_supervised(
                           cdn::default_cdn_population(p.scale), cfg),
                       "cdn study");
}

core::AtlasStudy public_atlas_files(const std::vector<std::string>& paths,
                                    unsigned threads,
                                    obs::MetricsRegistry* metrics) {
  core::AtlasFileStudyConfig cfg;
  cfg.threads = threads;
  cfg.metrics = metrics;
  return take_or_throw(
      core::run_atlas_study_from_files(paths, simnet::paper_isps(), cfg),
      "atlas file study");
}

core::CdnStudy public_cdn_files(const std::vector<std::string>& paths,
                                unsigned threads,
                                obs::MetricsRegistry* metrics) {
  core::CdnFileStudyConfig cfg;
  cfg.threads = threads;
  cfg.metrics = metrics;
  CdnAttribution attribution = default_cdn_attribution();
  cfg.mobile_asns = std::move(attribution.mobile);
  cfg.registries = std::move(attribution.registries);
  cfg.asn_names = std::move(attribution.names);
  return take_or_throw(core::run_cdn_study_from_files(paths, cfg),
                       "cdn file study");
}

std::vector<cdn::AssociationLog> generate_assoc(const Params& p,
                                                core::ShardExecutor& exec) {
  cdn::CdnSimulator sim(cdn::default_cdn_population(p.scale), cdn_config(p));
  std::vector<cdn::AssociationLog> out(sim.entry_count());
  const auto ranges = core::shard_ranges(out.size(), exec.thread_count());
  exec.dispatch(ranges.size(), [&](std::size_t s) {
    for (std::size_t i = ranges[s].begin; i < ranges[s].end; ++i)
      out[i] = sim.generate(i);
  });
  return out;
}

/// What `setup` left in the working directory.
struct Inputs {
  Digests reference;                       ///< CSV name -> digest
  std::map<std::string, std::string> counts;  ///< reference-run counters
  std::vector<std::string> mix;            ///< looking-glass request paths
  std::vector<std::string> batches;        ///< follow-serve batch files
  std::uint64_t records = 0;               ///< echo records + assoc tuples

  std::uint64_t count(const std::string& name) const {
    auto it = counts.find(name);
    return it == counts.end() ? 0 : std::stoull(it->second);
  }
};

Inputs load_inputs(const fs::path& dir, Workload w) {
  Inputs in;
  in.reference = read_kv(dir / "ref.digests");
  in.counts = read_kv(dir / "ref.counts");
  in.mix = read_lines(dir / "lg.mix");
  if (w == Workload::kFollowServe) in.batches = read_lines(dir / "batches.list");
  in.records = in.count("atlas.echo_records") + in.count("cdn.association_tuples");
  if (in.mix.empty() || in.records == 0)
    throw std::runtime_error("set-up outputs in " + dir.string() +
                             " are incomplete; run `dynbench setup` first");
  return in;
}

// ---------------------------------------------------------- per-layer

/// Values a traced run adds to its span table.
struct LayerExtras {
  std::uint64_t traced_iterations = 0;
  unsigned threads = 1;
  std::uint64_t columnar_bytes = 0;
  std::uint64_t reader_data = 0, reader_rejects = 0;
  std::uint64_t checkpoint_writes = 0, checkpoint_bytes = 0;
  double checkpoint_busy_s = 0;
  std::uint64_t stream_batches = 0, stream_refinalizes = 0;
  double cycle_ms_p50 = 0;
  double handle_ns = 0, server_ns = 0;
  double obs_overhead = 0, trace_overhead = 0;
};

/// The named layers whose self time should cover the shard tasks.
const std::vector<std::string> kShardLayers = {
    "atlas.series_for",   "core.from_series",   "core.sanitize",
    "core.durations.add", "core.spatial.add",   "core.inference.add",
    "cdn.generate",       "core.assoc.add_log",
};

std::vector<Metric> layer_metrics(const Tracer& tracer, const LayerExtras& x) {
  const auto layers = tracer.layers();
  const double n = double(std::max<std::uint64_t>(x.traced_iterations, 1));
  auto L = [&](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() ? LayerStats{} : it->second;
  };
  auto per_iter_s = [&](std::uint64_t ns) { return double(ns) * 1e-9 / n; };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  std::vector<Metric> m;
  const LayerStats gen = L("atlas.series_for");
  m.push_back({"atlas.series_for.calls", double(gen.calls) / n, "count"});
  m.push_back({"atlas.series_for.busy_s", per_iter_s(gen.busy_ns), "s"});
  m.push_back({"atlas.series_for.ns_per_record",
               ratio(double(gen.busy_ns), double(gen.work)), "ns"});
  const LayerStats cgen = L("cdn.generate");
  m.push_back({"cdn.generate.calls", double(cgen.calls) / n, "count"});
  m.push_back({"cdn.generate.busy_s", per_iter_s(cgen.busy_ns), "s"});
  m.push_back({"cdn.generate.ns_per_tuple",
               ratio(double(cgen.busy_ns), double(cgen.work)), "ns"});
  m.push_back({"core.from_series.busy_s",
               per_iter_s(L("core.from_series").busy_ns), "s"});
  const LayerStats san = L("core.sanitize");
  m.push_back({"core.sanitize.busy_s", per_iter_s(san.busy_ns), "s"});
  m.push_back({"core.sanitize.ns_per_record",
               ratio(double(san.busy_ns), double(san.work)), "ns"});
  m.push_back({"core.sanitize.kept_ratio",
               ratio(double(san.kept), double(san.calls)), "ratio"});
  for (const char* a : {"durations", "spatial", "inference"}) {
    const std::string base = std::string("core.") + a + ".add";
    const LayerStats s = L(base.c_str());
    m.push_back({base + ".busy_s", per_iter_s(s.busy_ns), "s"});
    m.push_back({base + ".ns_per_probe",
                 ratio(double(s.busy_ns), double(s.calls)), "ns"});
  }
  const LayerStats add_log = L("core.assoc.add_log");
  m.push_back({"core.assoc.add_log.busy_s", per_iter_s(add_log.busy_ns), "s"});
  m.push_back({"core.assoc.add_log.ns_per_tuple",
               ratio(double(add_log.busy_ns), double(add_log.work)), "ns"});
  m.push_back({"core.assoc.add_log.kept_ratio",
               ratio(double(add_log.kept), double(add_log.work)), "ratio"});

  const std::uint64_t shard_busy = tracer.shard_busy_ns();
  const LayerStats dispatch = L("core.parallel.dispatch");
  m.push_back({"core.parallel.shard_busy_max_s",
               per_iter_s(tracer.pass_max_shard_ns()), "s"});
  m.push_back({"core.parallel.shard_busy_mean_s",
               per_iter_s(tracer.pass_mean_shard_ns()), "s"});
  const double idle_ns =
      double(x.threads) * double(dispatch.busy_ns) - double(shard_busy);
  m.push_back({"core.parallel.idle_s", idle_ns * 1e-9 / n, "s"});
  m.push_back({"core.parallel.merge_s",
               per_iter_s(L("core.parallel.merge").busy_ns), "s"});
  m.push_back({"core.parallel.snapshot_s",
               per_iter_s(L("core.parallel.snapshot").busy_ns), "s"});
  m.push_back({"core.parallel.named_self_share",
               ratio(double(tracer.named_self_ns(kShardLayers)),
                     double(shard_busy)),
               "ratio"});

  const LayerStats col = L("io.columnar");
  m.push_back({"io.columnar.busy_s", per_iter_s(col.busy_ns), "s"});
  m.push_back({"io.columnar.mb_per_s",
               ratio(double(x.columnar_bytes) / 1e6, double(col.busy_ns) * 1e-9),
               "MB/s"});
  m.push_back({"io.columnar.rows_per_s",
               ratio(double(col.work), double(col.busy_ns) * 1e-9), "1/s"});
  const LayerStats rd = L("io.readers");
  m.push_back({"io.readers.busy_s", per_iter_s(rd.busy_ns), "s"});
  m.push_back({"io.readers.rows_per_s",
               ratio(double(rd.work), double(rd.busy_ns) * 1e-9), "1/s"});
  m.push_back({"io.readers.reject_ratio",
               ratio(double(x.reader_rejects), double(x.reader_data)), "ratio"});
  m.push_back({"io.checkpoint.writes", double(x.checkpoint_writes) / n, "count"});
  m.push_back({"io.checkpoint.busy_s", x.checkpoint_busy_s / n, "s"});
  m.push_back({"io.checkpoint.bytes", double(x.checkpoint_bytes) / n, "B"});

  m.push_back({"stream.batches", double(x.stream_batches) / n, "count"});
  m.push_back({"stream.refinalizes", double(x.stream_refinalizes) / n, "count"});
  m.push_back({"stream.cycle_ms_p50", x.cycle_ms_p50, "ms"});
  // Driver time not covered by the callbacks or the replayed layers.
  const double covered = double(L("stream.on_snapshot").busy_ns) * 1e-9 +
                         x.checkpoint_busy_s +
                         double(rd.busy_ns + L("stream.merge").busy_ns +
                                L("stream.refinalize_pass").busy_ns) *
                             1e-9;
  const double follow_s = double(L("stream.follow").busy_ns) * 1e-9;
  m.push_back({"stream.driver_self_s",
               follow_s > 0 ? (follow_s - covered) / n : 0.0, "s"});

  const LayerStats res = L("io.results");
  m.push_back({"io.results.busy_s", per_iter_s(res.busy_ns), "s"});
  m.push_back({"io.results.bytes", double(res.work) / n, "B"});
  const LayerStats snap = L("lg.build_snapshot");
  m.push_back({"lg.build_snapshot.calls", double(snap.calls) / n, "count"});
  m.push_back({"lg.build_snapshot.busy_s", per_iter_s(snap.busy_ns), "s"});
  m.push_back({"lg.handle.ns_per_req", x.handle_ns, "ns"});
  m.push_back({"lg.server.ns_per_req", x.server_ns, "ns"});
  m.push_back({"obs.overhead_frac", x.obs_overhead, "ratio"});
  m.push_back({"trace.overhead_frac", x.trace_overhead, "ratio"});
  return m;
}

/// The ns one LgService::handle call takes on the request mix, replayed
/// directly (no sockets) against the given published snapshots.
double handle_ns_per_request(
    std::shared_ptr<const lg::LgSnapshot> atlas,
    std::shared_ptr<const lg::LgSnapshot> cdn,
    const std::vector<std::string>& mix) {
  lg::LgService service;
  service.publish_atlas(std::move(atlas));
  if (cdn) service.publish_cdn(std::move(cdn));
  std::vector<lg::Request> requests;
  for (const auto& path : mix) requests.push_back({"GET", path, "HTTP/1.1", true});
  constexpr std::size_t kCalls = 20000;
  std::size_t bytes = 0;
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < kCalls; ++i)
    bytes += service.handle(requests[i % requests.size()]).body.size();
  const double ns = double(now_ns() - t0) / double(kCalls);
  return bytes ? ns : 0;
}

/// Chrome trace + dynamips.bench.v1 document of a traced run.
void write_trace_outputs(const fs::path& out_dir, const Params& p,
                         const Tracer& tracer, const LayerExtras& x,
                         const std::vector<Metric>& per_layer, double wall_s,
                         double records_per_s) {
  if (out_dir.empty()) return;
  fs::create_directories(out_dir);
  const std::string stem = std::string(workload_name(p.workload)) + "-seed" +
                           std::to_string(p.seed);
  {
    std::ofstream out(out_dir / (stem + ".trace.json"));
    out << tracer.chrome_json();
  }
  const double n = double(std::max<std::uint64_t>(x.traced_iterations, 1));
  std::string doc = "{\n  \"schema\": \"dynamips.bench.v1\",\n";
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "  \"meta\": {\"binary\": \"dynbench\", \"workload\": \"%s\", "
                "\"scale\": %g, \"seed\": %llu, \"window_hours\": %llu, "
                "\"threads\": %u},\n",
                std::string(workload_name(p.workload)).c_str(), p.scale,
                (unsigned long long)p.seed,
                (unsigned long long)p.window_hours, p.threads);
  doc += buf;
  doc += "  \"wall_s\": {\"total\": " + json_number(wall_s) + "},\n";
  doc += "  \"metrics\": {\"records_per_sec\": " + json_number(records_per_s) +
         "},\n  \"layers\": {";
  bool first = true;
  for (const auto& [name, l] : tracer.layers()) {
    const double busy_s = double(l.busy_ns) * 1e-9;
    const double items = double(l.work ? l.work : l.calls);
    doc += std::string(first ? "\n" : ",\n") + "    \"" + name +
           "\": {\"calls\": " + json_number(double(l.calls) / n) +
           ", \"busy_s\": " + json_number(busy_s / n) +
           ", \"self_s\": " + json_number(double(l.self_ns) * 1e-9 / n) +
           ", \"items\": " + json_number(items / n) +
           ", \"ns_per_item\": " + json_number(items ? l.busy_ns / items : 0) +
           ", \"items_per_s\": " + json_number(busy_s > 0 ? items / busy_s : 0) +
           "}";
    first = false;
  }
  doc += "\n  },\n  \"layer_metrics\": {";
  for (std::size_t i = 0; i < per_layer.size(); ++i)
    doc += std::string(i ? ",\n" : "\n") + "    \"" + per_layer[i].name +
           "\": " + json_number(per_layer[i].value);
  doc += "\n  }\n}\n";
  std::ofstream(out_dir / (stem + ".bench.json")) << doc;
}

// ------------------------------------------------------ one-shot studies

enum class Mode { kPlain, kMetrics, kTraced };

struct OneShot {
  double wall_s = 0;
  double refresh_ms = 0;
  double peak_rss_mb = 0;
  LgTraffic traffic;
  obs::MetricsSink metrics;
  std::shared_ptr<const lg::LgSnapshot> atlas_snap, cdn_snap;
};

template <typename Dataset>
Dataset load_columnar_traced(
    const std::string& path,
    core::Expected<Dataset> (*load)(const std::string&, const io::ReaderOptions&,
                                    io::IngestStats*),
    void (*merge)(Dataset&, Dataset&&), Lane& lane, LayerExtras& extras) {
  io::IngestStats ingest;
  std::optional<core::Expected<Dataset>> part;
  {
    Scope span(lane, "io.columnar");
    part.emplace(load(path, io::ReaderOptions{}, &ingest));
    span.work = ingest.records_accepted;
  }
  extras.columnar_bytes += fs::file_size(path);
  Dataset dataset;
  merge(dataset, take_or_throw(std::move(*part), "columnar load"));
  return dataset;
}

/// One gen-full / col-full run: both studies, all seven CSVs, then the
/// looking-glass publish and a request burst, then the output checks.
OneShot one_shot(const Params& p, const fs::path& dir, const Inputs& in,
                 Mode mode, Tracer* tracer, LayerExtras& extras, LgRig& rig,
                 LgClient& client, std::uint64_t generation, Tally& tally) {
  const fs::path out = dir / "out";
  fs::create_directories(out);
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* metrics = mode == Mode::kMetrics ? &registry : nullptr;
  Lane* lane = tracer ? &tracer->main() : nullptr;
  const std::string echo_col = (dir / "echo.col").string();
  const std::string assoc_col = (dir / "assoc.col").string();

  OneShot r;
  reset_peak_rss();
  const std::uint64_t t0 = now_ns();
  {
    core::AtlasStudy atlas;
    core::CdnStudy cdn;
    if (p.workload == Workload::kGenFull) {
      if (tracer) {
        core::ShardExecutor exec(p.threads);
        atlas = traced_atlas_generated(simnet::paper_isps(), atlas_config(p),
                                       exec, *tracer);
      } else {
        atlas = public_atlas_gen(p, p.threads, metrics);
      }
      write_csvs(out, atlas, kAtlasCsv, lane);
      if (tracer) {
        core::ShardExecutor exec(p.threads);
        cdn = traced_cdn_generated(cdn::default_cdn_population(p.scale),
                                   cdn_config(p), exec, *tracer);
      } else {
        cdn = public_cdn_gen(p, p.threads, metrics);
      }
      write_csvs(out, cdn, kCdnCsv, lane);
    } else {
      if (tracer) {
        auto dataset = load_columnar_traced(echo_col, io::load_echo_file,
                                            io::merge_echo_datasets, *lane,
                                            extras);
        core::ShardExecutor exec(p.threads);
        atlas = traced_atlas_dataset(dataset, simnet::paper_isps(), exec,
                                     *tracer);
      } else {
        atlas = public_atlas_files({echo_col}, p.threads, metrics);
      }
      write_csvs(out, atlas, kAtlasCsv, lane);
      if (tracer) {
        auto dataset = load_columnar_traced(assoc_col, io::load_assoc_file,
                                            io::merge_assoc_datasets, *lane,
                                            extras);
        core::ShardExecutor exec(p.threads);
        cdn = traced_cdn_dataset(dataset, default_cdn_attribution(), exec,
                                 *tracer);
      } else {
        cdn = public_cdn_files({assoc_col}, p.threads, metrics);
      }
      write_csvs(out, cdn, kCdnCsv, lane);
    }
    r.wall_s = seconds_since(t0);

    // Publish as `dynamips_study --serve` does after a one-shot run.
    {
      std::optional<Scope> span;
      if (lane) span.emplace(*lane, "lg.build_snapshot");
      r.atlas_snap = lg::build_atlas_snapshot(atlas, generation, 0,
                                              atlas.sanitize.probes_seen);
    }
    {
      std::optional<Scope> span;
      if (lane) span.emplace(*lane, "lg.build_snapshot");
      r.cdn_snap = lg::build_cdn_snapshot(
          cdn, generation, 0,
          cdn.analyzer.total_tuples() + cdn.analyzer.total_mismatched());
    }
    rig.publish(r.atlas_snap, r.cdn_snap);
    r.refresh_ms = double(now_ns() - t0) * 1e-6;
    r.peak_rss_mb = peak_rss_mb();
  }
  r.traffic = client.burst(kBurstRequests);
  std::fprintf(stderr, "dynbench: %s run %llu: wall %.3f s, peak RSS %.0f MB\n",
               std::string(workload_name(p.workload)).c_str(),
               (unsigned long long)generation, r.wall_s, r.peak_rss_mb);

  const Digests got = dir_digests(out, csv_names(p.workload));
  for (const auto& [name, want] : in.reference)
    tally.check(got.count(name) && got.at(name) == want,
                name + " matches the reference");
  tally.check_many(r.traffic.requests,
                   rig.failed_responses(r.traffic, client.paths()),
                   "looking-glass responses");
  if (metrics) r.metrics = registry.snapshot();
  return r;
}

/// Span counts of one traced one-shot iteration against the program's own
/// counters from a metrics-on iteration.
void check_span_counts(const Params& p, const Tracer& tracer,
                       std::uint64_t iterations, const obs::MetricsSink& m,
                       Tally& tally) {
  const auto layers = tracer.layers();
  auto per_iter = [&](const char* layer, bool work) -> std::uint64_t {
    auto it = layers.find(layer);
    if (it == layers.end()) return 0;
    return (work ? it->second.work : it->second.calls) / iterations;
  };
  auto counter = [&](const char* name) -> std::uint64_t {
    auto it = m.counters().find(name);
    return it == m.counters().end() ? 0 : it->second.value;
  };
  const bool gen = p.workload == Workload::kGenFull;
  tally.check(per_iter(gen ? "atlas.series_for" : "core.from_series", false) ==
                  counter(gen ? "atlas.probes_generated" : "atlas.probes_loaded"),
              "probe spans equal the probes counter");
  tally.check(per_iter("core.durations.add", false) ==
                  counter("atlas.clean_probes"),
              "analyzer spans equal atlas.clean_probes");
  tally.check(per_iter(gen ? "cdn.generate" : "core.assoc.add_log", false) ==
                  counter(gen ? "cdn.logs_generated" : "cdn.logs_loaded"),
              "log spans equal the logs counter");
  tally.check(per_iter("core.assoc.add_log", true) ==
                  counter("cdn.association_tuples"),
              "add_log tuples equal cdn.association_tuples");
}

int measure_one_shot(const Options& o, const Params& p, const Inputs& in) {
  const fs::path dir(o.dir);
  LgRig rig;
  LgClient client(rig.port(), in.mix, kClientConnections, p.seed);
  Tally tally;
  LayerExtras extras;
  extras.threads = p.threads;
  Tracer tracer;
  EndToEnd e2e;
  std::vector<double> traced_walls, metrics_walls, traced_latency;
  obs::MetricsSink last_metrics;
  std::shared_ptr<const lg::LgSnapshot> atlas_snap, cdn_snap;
  std::uint64_t generation = 0;

  const std::uint64_t start = now_ns();
  do {
    OneShot plain = one_shot(p, dir, in, Mode::kPlain, nullptr, extras, rig,
                             client, ++generation, tally);
    e2e.add_run(plain.wall_s, in.records, plain.peak_rss_mb);
    e2e.refresh_ms.push_back(plain.refresh_ms);
    e2e.add_lg(plain.traffic);
    if (!o.trace) continue;

    OneShot with_metrics = one_shot(p, dir, in, Mode::kMetrics, nullptr, extras,
                                    rig, client, ++generation, tally);
    metrics_walls.push_back(with_metrics.wall_s);
    last_metrics = std::move(with_metrics.metrics);

    OneShot traced = one_shot(p, dir, in, Mode::kTraced, &tracer, extras, rig,
                              client, ++generation, tally);
    traced_walls.push_back(traced.wall_s);
    ++extras.traced_iterations;
    for (std::uint64_t ns : traced.traffic.latency_ns)
      traced_latency.push_back(double(ns));
    atlas_snap = traced.atlas_snap;
    cdn_snap = traced.cdn_snap;
  } while (seconds_since(start) < double(o.seconds));

  if (!o.trace) {
    print_result(tally, e2e.metrics());
    return tally.failed ? 1 : 0;
  }

  check_span_counts(p, tracer, extras.traced_iterations, last_metrics, tally);
  extras.handle_ns = handle_ns_per_request(atlas_snap, cdn_snap, in.mix);
  extras.server_ns = quantile(traced_latency, 0.5) - extras.handle_ns;
  const double wall = median(e2e.wall_s);
  extras.obs_overhead = median(metrics_walls) / wall - 1;
  extras.trace_overhead = median(traced_walls) / wall - 1;
  std::vector<Metric> per_layer = layer_metrics(tracer, extras);
  for (Metric& m : e2e.lg_client_metrics()) per_layer.push_back(std::move(m));
  write_trace_outputs(o.out_dir, p, tracer, extras, per_layer, wall,
                      median(e2e.records_per_s));
  print_result(tally, per_layer);
  return tally.failed ? 1 : 0;
}

// ---------------------------------------------------------- follow-serve

/// Replay, outside the driver, the per-batch work of a traced stream run:
/// each batch through the echo reader, merged into the accumulated
/// dataset, and one traced analysis pass per re-finalization (one per
/// batch plus the final pass). Returns the final pass's study.
core::AtlasStudy replay_stream(const Params& p,
                               const std::vector<std::string>& batches,
                               Tracer& tracer, LayerExtras& extras) {
  core::ShardExecutor exec(p.threads);
  const auto isps = simnet::paper_isps();
  std::vector<atlas::ProbeSeries> dataset;
  core::AtlasStudy study;
  auto pass = [&] {
    Scope span(tracer.main(), "stream.refinalize_pass");
    study = traced_atlas_dataset(dataset, isps, exec, tracer);
  };
  for (const auto& path : batches) {
    io::IngestStats ingest;
    std::optional<core::Expected<std::vector<atlas::ProbeSeries>>> part;
    {
      Scope span(tracer.main(), "io.readers");
      part.emplace(io::load_echo_file(path, io::ReaderOptions{}, &ingest));
      span.work = ingest.records_accepted;
    }
    extras.reader_data += ingest.data_lines;
    extras.reader_rejects += ingest.total_rejects();
    {
      Scope span(tracer.main(), "stream.merge");
      io::merge_echo_datasets(dataset,
                              take_or_throw(std::move(*part), "batch load"));
    }
    pass();
  }
  pass();
  return study;
}

void check_follow(const FollowRun& r, const Params& p, const Inputs& in,
                  LgRig& rig, const LgClient& client, Tally& tally) {
  for (const auto& [name, want] : in.reference)
    tally.check(r.final_csvs.count(name) && r.final_csvs.at(name) == want,
                name + " matches the one-shot reference");
  tally.check_many(p.batches,
                   p.batches - std::min(p.batches, r.stats.batches),
                   "stream batches");
  tally.check_many(r.traffic.requests,
                   rig.failed_responses(r.traffic, client.paths()),
                   "looking-glass responses");
}

int measure_follow(const Options& o, const Params& p, const Inputs& in) {
  const fs::path dir(o.dir);
  LgRig rig;
  LgClient client(rig.port(), in.mix, kClientConnections, p.seed);
  Tally tally;

  if (!o.trace) {
    EndToEnd e2e;
    const std::uint64_t start = now_ns();
    do {
      FollowRun r = follow_run(p, in.batches, dir, nullptr, nullptr, rig, &client);
      check_follow(r, p, in, rig, client, tally);
      std::fprintf(stderr, "dynbench: follow-serve run: wall %.3f s, peak RSS %.0f MB\n",
                   r.wall_s, r.peak_rss_mb);
      e2e.add_run(r.wall_s, r.stats.records, r.peak_rss_mb);
      e2e.refresh_ms.insert(e2e.refresh_ms.end(), r.refresh_ms.begin(),
                            r.refresh_ms.end());
      e2e.add_lg(r.traffic);
    } while (seconds_since(start) < double(o.seconds));
    print_result(tally, e2e.metrics());
    return tally.failed ? 1 : 0;
  }

  // Traced: an untraced run, a metrics-on run, and a traced run (metrics
  // on too: the checkpoint writes are timed by the driver's own
  // checkpoint.write phase), then the replay of the per-batch layers.
  FollowRun plain = follow_run(p, in.batches, dir, nullptr, nullptr, rig, &client);
  check_follow(plain, p, in, rig, client, tally);
  obs::MetricsRegistry metrics_only;
  FollowRun with_metrics =
      follow_run(p, in.batches, dir, &metrics_only, nullptr, rig, &client);
  check_follow(with_metrics, p, in, rig, client, tally);
  obs::MetricsRegistry registry;
  Tracer tracer;
  FollowRun traced =
      follow_run(p, in.batches, dir, &registry, &tracer, rig, &client);
  check_follow(traced, p, in, rig, client, tally);

  LayerExtras extras;
  extras.threads = p.threads;
  extras.traced_iterations = 1;
  const core::AtlasStudy replayed = replay_stream(p, in.batches, tracer, extras);
  for (const auto& [name, bytes] : atlas_csvs(replayed))
    tally.check(in.reference.count(name) && digest(bytes) == in.reference.at(name),
                name + " from the replayed stream matches the reference");

  const obs::MetricsSink m = registry.snapshot();
  const auto writes = m.counters().find("checkpoint.writes");
  tally.check(writes != m.counters().end() &&
                  writes->second.value == traced.checkpoint_writes_seen,
              "checkpoints seen at publishes equal checkpoint.writes");
  const auto phase = m.phases().find("checkpoint.write");
  extras.checkpoint_busy_s =
      phase == m.phases().end() ? 0 : double(phase->second.total_ns) * 1e-9;
  extras.checkpoint_writes = traced.checkpoint_writes_seen;
  extras.checkpoint_bytes = traced.checkpoint_bytes_seen;
  extras.stream_batches = traced.stats.batches;
  extras.stream_refinalizes = traced.stats.refinalizes;
  extras.cycle_ms_p50 = median(traced.refresh_ms);

  extras.handle_ns = handle_ns_per_request(
      lg::build_atlas_snapshot(replayed, 1, 0, 0), nullptr, in.mix);
  std::vector<double> traced_latency;
  for (std::uint64_t ns : traced.traffic.latency_ns)
    traced_latency.push_back(double(ns));
  extras.server_ns = quantile(traced_latency, 0.5) - extras.handle_ns;
  extras.obs_overhead = with_metrics.wall_s / plain.wall_s - 1;
  extras.trace_overhead = traced.wall_s / plain.wall_s - 1;
  std::vector<Metric> per_layer = layer_metrics(tracer, extras);
  EndToEnd plain_lg;
  plain_lg.add_lg(plain.traffic);
  for (Metric& m : plain_lg.lg_client_metrics()) per_layer.push_back(std::move(m));
  write_trace_outputs(o.out_dir, p, tracer, extras, per_layer, plain.wall_s,
                      double(plain.stats.records) / plain.wall_s);
  print_result(tally, per_layer);
  return tally.failed ? 1 : 0;
}

}  // namespace

// ------------------------------------------------------------- public API

Params workload_params(const Options& o) {
  Params p;
  p.workload = o.workload;
  p.seed = o.seed;
  if (o.workload == Workload::kFollowServe) {
    p.scale = 0.05;
    p.threads = 2;
  }
  // Half of gen-full's scale: at 0.3 the echo file is 1.1 GB and set-up
  // and run peak near 4 GB of RSS.
  if (o.workload == Workload::kColFull) p.scale = 0.15;
  if (o.scale > 0) p.scale = o.scale;
  if (o.threads > 0) p.threads = o.threads;
  // Below the echo-record count of any seed at this scale (about 60 M per
  // unit of scale, varying ~10 % with the seed), so the cap always bites.
  if (o.workload == Workload::kFollowServe)
    p.stream_records = std::uint64_t(44e6 * p.scale);
  return p;
}

atlas::AtlasConfig atlas_config(const Params& p) {
  atlas::AtlasConfig c;
  c.probe_scale = p.scale;
  c.window_hours = p.window_hours;
  c.seed = p.seed;
  return c;
}

cdn::CdnConfig cdn_config(const Params& p) {
  cdn::CdnConfig c;
  c.subscriber_scale = p.scale;
  c.seed = p.seed * 977;
  return c;
}

std::map<std::string, std::string> atlas_csvs(const core::AtlasStudy& study) {
  return render_csvs(study, kAtlasCsv);
}

std::map<std::string, std::string> cdn_csvs(const core::CdnStudy& study) {
  return render_csvs(study, kCdnCsv);
}

std::string digest(std::string_view bytes) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%zu:%08x:%016llx", bytes.size(),
                unsigned(io::ckpt::crc32(bytes)),
                (unsigned long long)io::ckpt::fnv1a(bytes));
  return buf;
}

std::vector<atlas::ProbeSeries> generate_echo(const Params& p,
                                              core::ShardExecutor& exec) {
  atlas::AtlasSimulator sim(simnet::paper_isps(), atlas_config(p));
  std::vector<atlas::ProbeSeries> out(sim.probe_count());
  const auto ranges = core::shard_ranges(out.size(), exec.thread_count());
  exec.dispatch(ranges.size(), [&](std::size_t s) {
    for (std::size_t i = ranges[s].begin; i < ranges[s].end; ++i)
      out[i] = sim.series_for(i);
  });
  return out;
}

std::vector<std::string> write_echo_batches(
    const std::vector<atlas::ProbeSeries>& dataset, std::uint64_t batches,
    const fs::path& dir, std::uint64_t max_records) {
  fs::create_directories(dir);
  std::map<std::uint64_t, std::uint64_t> per_hour;
  for (const auto& series : dataset)
    for (const auto& rec : series.records) ++per_hour[rec.hour];
  std::uint64_t total = 0;
  for (const auto& [hour, n] : per_hour) total += n;
  if (total == 0) throw std::runtime_error("echo dataset has no records");
  const std::uint64_t kept = max_records > 0 ? std::min(max_records, total) : total;
  // Whole hours go to the batch their first record's rank falls in; hours
  // after the one holding the kept-th record are dropped (batch -1).
  std::vector<std::int64_t> batch_of(per_hour.rbegin()->first + 1, -1);
  std::uint64_t before = 0;
  for (const auto& [hour, n] : per_hour) {
    if (before >= kept) break;
    batch_of[hour] = std::int64_t(before * batches / kept);
    before += n;
  }
  std::vector<std::vector<atlas::ProbeSeries>> parts(batches);
  for (const auto& series : dataset) {
    std::vector<atlas::ProbeSeries> slices(batches);
    for (const auto& rec : series.records)
      if (batch_of[rec.hour] >= 0)
        slices[std::size_t(batch_of[rec.hour])].records.push_back(rec);
    for (std::uint64_t b = 0; b < batches; ++b)
      if (!slices[b].records.empty()) {
        slices[b].meta = series.meta;
        parts[b].push_back(std::move(slices[b]));
      }
  }
  std::vector<std::string> paths;
  for (std::uint64_t b = 0; b < batches; ++b) {
    const std::vector<atlas::ProbeSeries>& part = parts[b];
    char name[32];
    std::snprintf(name, sizeof name, "batch-%02llu.csv", (unsigned long long)b);
    const fs::path path = dir / name;
    io::AtomicFileWriter out(path.string());
    if (!out.ok()) throw std::runtime_error("cannot write " + path.string());
    io::write_echo_dataset(out.stream(), part);
    if (core::Status st = out.commit(); !st.ok())
      throw std::runtime_error("cannot write " + path.string() + ": " +
                               st.message());
    paths.push_back(path.string());
  }
  return paths;
}

namespace {
lg::ServerConfig one_worker() {
  lg::ServerConfig c;
  c.threads = 1;
  return c;
}

bool parse_generation(const std::string& body, std::uint64_t* generation) {
  constexpr std::string_view kHead = "{\"snapshot\": ";
  if (body.compare(0, kHead.size(), kHead) != 0) return false;
  const char* begin = body.data() + kHead.size();
  auto [ptr, ec] = std::from_chars(begin, body.data() + body.size(), *generation);
  return ec == std::errc() && ptr != begin;
}
}  // namespace

LgRig::LgRig() : server_(service_, one_worker()) {
  core::Status st = server_.start();
  if (!st.ok())
    throw std::runtime_error("cannot start the looking glass: " +
                             st.to_string());
}

void LgRig::publish(std::shared_ptr<const lg::LgSnapshot> atlas,
                    std::shared_ptr<const lg::LgSnapshot> cdn) {
  generations_[atlas->generation] = {atlas, cdn};
  service_.publish_atlas(std::move(atlas));
  if (cdn) service_.publish_cdn(std::move(cdn));
}

const lg::Response& LgRig::render(const std::string& path,
                                  std::uint64_t generation) {
  auto key = std::make_pair(path, generation);
  auto it = rendered_.find(key);
  if (it != rendered_.end()) return it->second;
  lg::LgService service;
  const Published& pub = generations_.at(generation);
  service.publish_atlas(pub.atlas);
  if (pub.cdn) service.publish_cdn(pub.cdn);
  return rendered_[key] = service.handle({"GET", path, "HTTP/1.1", true});
}

std::uint64_t LgRig::failed_responses(const LgTraffic& traffic,
                                      const std::vector<std::string>& paths) {
  std::uint64_t failed = traffic.transport_failures;
  for (const auto& [key, count] : traffic.bodies) {
    const auto& [path_index, status, body] = key;
    const std::string& path = paths.at(path_index);
    bool ok = false;
    std::uint64_t generation = 0;
    if (status == 200) {
      if (parse_generation(body, &generation) && generations_.count(generation)) {
        const lg::Response& want = render(path, generation);
        ok = want.status == 200 && want.body == body;
      }
    } else {
      for (const auto& [g, pub] : generations_) {
        const lg::Response& want = render(path, g);
        if (want.status == status && want.body == body) {
          ok = true;
          break;
        }
      }
    }
    if (!ok) failed += count;
  }
  return failed;
}

std::vector<std::string> request_mix(const core::AtlasStudy& study) {
  constexpr std::size_t kPerKind = 12;
  auto snap = lg::build_atlas_snapshot(study, 1, 0, 0);
  const auto v4 = snap->rib.v4_routes();
  const auto v6 = snap->rib.v6_routes();
  std::vector<std::string> durations, infer, pfx2as;
  for (const auto& [asn, body] : snap->payloads)
    if (durations.size() < kPerKind)
      durations.push_back("/v1/durations/" + std::to_string(asn));
  for (const auto& [asn, body] : snap->inference)
    for (const auto& route : v6)
      if (route.origin.asn == asn && infer.size() < kPerKind) {
        infer.push_back("/v1/infer/" + route.prefix.to_string());
        break;
      }
  for (std::size_t i = 0; pfx2as.size() < kPerKind &&
                          (i < v4.size() || i < v6.size());
       ++i) {
    if (i < v6.size())
      pfx2as.push_back("/v1/pfx2as/" + v6[i].prefix.address().to_string());
    if (i < v4.size() && pfx2as.size() < kPerKind)
      pfx2as.push_back("/v1/pfx2as/" + v4[i].prefix.address().to_string());
  }
  // Keep only requests the finished study answers with 200, interleaved.
  lg::LgService service;
  service.publish_atlas(snap);
  std::vector<std::string> mix;
  for (std::size_t i = 0; i < kPerKind; ++i)
    for (const auto* kind : {&durations, &infer, &pfx2as})
      if (i < kind->size() &&
          service.handle({"GET", (*kind)[i], "HTTP/1.1", true}).status == 200)
        mix.push_back((*kind)[i]);
  return mix;
}

FollowRun follow_run(const Params& p,
                     const std::vector<std::string>& batch_paths,
                     const fs::path& work, obs::MetricsRegistry* metrics,
                     Tracer* tracer, LgRig& rig, LgClient* client) {
  const fs::path watch = work / "watch";
  const fs::path out = work / "out";
  const fs::path ckpt_dir = work / "ckpt";
  const std::string ckpt = (ckpt_dir / "stream.ckpt").string();
  fs::remove_all(watch);
  fs::create_directories(watch);
  fs::create_directories(out);
  fs::create_directories(ckpt_dir);
  io::remove_checkpoint_files(ckpt);
  for (const auto& batch : batch_paths) {
    const fs::path target = watch / fs::path(batch).filename();
    std::error_code ec;
    fs::create_hard_link(batch, target, ec);
    if (ec) fs::copy_file(batch, target);
  }
  std::ofstream(watch / "stream.stop").put('\n');

  FollowRun r;
  Lane* lane = tracer ? &tracer->main() : nullptr;
  rig.reset_generations();
  bool client_running = false;
  std::uint64_t last_size = 0;
  fs::file_time_type last_mtime{};

  reset_peak_rss();
  const std::uint64_t t0 = now_ns();
  std::uint64_t last_publish = t0;
  // Publish one re-finalization; returns the publish time.
  auto publish = [&](const core::AtlasStudy& study, std::uint64_t generation,
                     const core::StreamStats& st) -> std::uint64_t {
    std::shared_ptr<const lg::LgSnapshot> snap;
    {
      std::optional<Scope> span;
      if (lane) span.emplace(*lane, "lg.build_snapshot");
      snap = lg::build_atlas_snapshot(study, generation, st.batches, st.records);
    }
    rig.publish(std::move(snap), nullptr);
    const std::uint64_t published = now_ns();
    std::error_code ec;
    const std::uint64_t size = fs::file_size(ckpt, ec);
    const auto mtime = fs::last_write_time(ckpt, ec);
    if (!ec && (size != last_size || mtime != last_mtime)) {
      ++r.checkpoint_writes_seen;
      r.checkpoint_bytes_seen += size;
      last_size = size;
      last_mtime = mtime;
    }
    write_csvs(out, study, kAtlasCsv, lane);
    if (client && !client_running) {
      client->start();
      client_running = true;
    }
    return published;
  };

  core::AtlasFileStudyConfig cfg;
  cfg.threads = p.threads;
  cfg.metrics = metrics;
  core::StreamConfig stream;
  stream.refinalize_every_batches = 1;
  stream.poll_ms = 10;
  stream.checkpoint_path = ckpt;
  stream.io_retry_seed = p.seed;
  core::Expected<core::AtlasStudy> result{
      core::Status(core::StatusCode::kInternal, "stream did not run")};
  {
    std::optional<Scope> span;
    if (lane) span.emplace(*lane, "stream.follow");
    core::StreamDriver driver(p.threads);
    result = driver.follow_atlas(
        watch.string(), simnet::paper_isps(), cfg, stream,
        [&](const core::AtlasStudy& snap, const core::StreamStats& st) {
          std::optional<Scope> cb;
          if (lane) cb.emplace(*lane, "stream.on_snapshot");
          const std::uint64_t at = publish(snap, st.refinalizes, st);
          r.refresh_ms.push_back(double(at - last_publish) * 1e-6);
          last_publish = at;
        },
        nullptr, &r.stats);
  }
  if (!result.ok()) {
    if (client_running) client->stop();
    throw std::runtime_error("follow_atlas failed: " +
                             result.status().to_string());
  }
  // The final re-finalization does not fire on_snapshot; publish it as its
  // own generation, as dynamips_study does.
  const core::AtlasStudy study = result.take();
  const std::uint64_t final_publish =
      publish(study, r.stats.refinalizes + 1, r.stats);
  r.wall_s = double(final_publish - t0) * 1e-9;
  r.peak_rss_mb = peak_rss_mb();
  if (client_running) r.traffic = client->stop();
  for (const auto& spec : kAtlasCsv)
    r.final_csvs[spec.name] = digest(read_file(out / spec.name));
  io::remove_checkpoint_files(ckpt);
  fs::remove_all(watch);
  return r;
}

int run_setup(const Options& o) {
  const Params p = workload_params(o);
  const fs::path dir(o.dir);
  const fs::path ref = dir / "ref";
  fs::create_directories(ref);
  obs::MetricsRegistry registry;
  core::AtlasStudy atlas;
  switch (p.workload) {
    case Workload::kGenFull: {
      // The threads-1 reference the gen-full CSVs must match. The two
      // studies are independent, so they run side by side.
      auto cdn = std::async(std::launch::async,
                            [&] { return public_cdn_gen(p, 1, &registry); });
      atlas = public_atlas_gen(p, 1, &registry);
      write_csvs(ref, atlas, kAtlasCsv, nullptr);
      write_csvs(ref, cdn.get(), kCdnCsv, nullptr);
      break;
    }
    case Workload::kColFull: {
      // The col-full CSVs must equal what gen-full writes for this seed;
      // that reference runs while the columnar inputs are written.
      auto reference = std::async(std::launch::async, [&] {
        core::AtlasStudy a = public_atlas_gen(p, p.threads, &registry);
        write_csvs(ref, a, kAtlasCsv, nullptr);
        write_csvs(ref, public_cdn_gen(p, p.threads, &registry), kCdnCsv,
                   nullptr);
        return a;
      });
      core::ShardExecutor exec(p.threads);
      core::Status st = io::write_echo_columnar((dir / "echo.col").string(),
                                                generate_echo(p, exec));
      if (st.ok())
        st = io::write_assoc_columnar((dir / "assoc.col").string(),
                                      generate_assoc(p, exec));
      atlas = reference.get();
      if (!st.ok())
        throw std::runtime_error("cannot write columnar inputs: " +
                                 st.to_string());
      break;
    }
    case Workload::kFollowServe: {
      core::ShardExecutor exec(p.threads);
      const auto batches =
          write_echo_batches(generate_echo(p, exec), p.batches,
                             dir / "batches", p.stream_records);
      write_lines(dir / "batches.list", batches);
      // The stream's final CSVs must equal a one-shot run over the batches.
      atlas = public_atlas_files(batches, p.threads, &registry);
      write_csvs(ref, atlas, kAtlasCsv, nullptr);
      break;
    }
  }
  write_kv(dir / "ref.digests", dir_digests(ref, csv_names(p.workload)));
  std::map<std::string, std::string> counts;
  const obs::MetricsSink reference_metrics = registry.snapshot();
  for (const auto& [name, c] : reference_metrics.counters())
    counts[name] = std::to_string(c.value);
  write_kv(dir / "ref.counts", counts);
  const auto mix = request_mix(atlas);
  if (mix.empty()) throw std::runtime_error("empty looking-glass request mix");
  write_lines(dir / "lg.mix", mix);
  return 0;
}

int run_measure(const Options& o) {
  const Params p = workload_params(o);
  const Inputs in = load_inputs(o.dir, p.workload);
  return p.workload == Workload::kFollowServe ? measure_follow(o, p, in)
                                              : measure_one_shot(o, p, in);
}

}  // namespace perfbench
