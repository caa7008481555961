// test_obs — the observability layer (src/obs/).
//
// Four layers of coverage:
//  * merge algebra of every metric value type and of MetricsSink/
//    MetricsRegistry: two halves merged must equal everything in one;
//  * JSON export: schema version, stable (byte-identical) serialization,
//    sorted keys, escaping;
//  * zero overhead when disabled: a study run with `metrics == nullptr`
//    records nothing and produces byte-identical results to a metered run;
//  * thread-count invariance: every counter and histogram in a study's
//    metrics document is identical for threads=1 and threads=4;
//  * the metric surface: the exact names each study path records, and each
//    phase's sample count, pinned per path (generator, files, stream).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "cdn/generator.h"
#include "core/pipeline.h"
#include "io/readers.h"
#include "obs/metrics.h"
#include "obs/metrics_json.h"
#include "simnet/isp.h"

namespace dynamips {
namespace {

// ------------------------------------------------------------- value types

TEST(ObsCounter, MergeSums) {
  obs::Counter full, a, b;
  full.add(5);
  full.add();
  a.add(5);
  b.add();
  a.merge(b);
  EXPECT_EQ(a.value, full.value);
  EXPECT_EQ(a.value, 6u);
}

TEST(ObsGauge, MergeIsLastWriterInReductionOrder) {
  obs::Gauge a, b;
  a.set(1.5);
  b.set(2.5);
  a.merge(b);
  EXPECT_EQ(a.value, 2.5);
  // An unset gauge never clobbers a set one.
  obs::Gauge unset;
  a.merge(unset);
  EXPECT_EQ(a.value, 2.5);
}

TEST(ObsHistogram, BucketsAndClamping) {
  obs::Histogram h(0, 3, 1);  // buckets at 10^0..10^3, 1 bin per decade
  h.record(1.0);
  h.record(5.0);      // same decade as 1.0
  h.record(50.0);     // second decade
  h.record(1e9);      // clamps into the last bucket
  h.record(0.0);      // clamps into the first bucket
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.buckets().front(), 3u);
  EXPECT_EQ(h.buckets().back(), 1u);
}

TEST(ObsHistogram, MergeHalvesEqualFull) {
  obs::Histogram full(0, 6, 5), a(0, 6, 5), b(0, 6, 5);
  for (double v : {1.0, 10.0, 256.0, 80000.0, 999999.0}) full.record(v);
  for (double v : {1.0, 10.0}) a.record(v);
  for (double v : {256.0, 80000.0, 999999.0}) b.record(v);
  a.merge(b);
  EXPECT_EQ(a, full);
}

TEST(ObsPhaseStats, MergeCombinesExtrema) {
  obs::PhaseStats full, a, b;
  for (std::uint64_t ns : {10u, 30u, 20u}) full.record(ns);
  a.record(10);
  b.record(30);
  b.record(20);
  a.merge(b);
  EXPECT_EQ(a.count, full.count);
  EXPECT_EQ(a.total_ns, full.total_ns);
  EXPECT_EQ(a.min_ns, 10u);
  EXPECT_EQ(a.max_ns, 30u);
  // Merging an empty PhaseStats is a no-op (UINT64_MAX min sentinel).
  a.merge(obs::PhaseStats{});
  EXPECT_EQ(a.min_ns, 10u);
  EXPECT_EQ(a.max_ns, 30u);
}

TEST(ObsPhaseTimer, RecordsSpanAndNullIsNoop) {
  obs::PhaseStats stats;
  {
    obs::PhaseTimer t(&stats);
  }
  EXPECT_EQ(stats.count, 1u);
  {
    obs::PhaseTimer t(nullptr);  // must not crash or record anywhere
    t.stop();
  }
  obs::PhaseTimer twice(&stats);
  twice.stop();
  twice.stop();  // second stop is a no-op
  EXPECT_EQ(stats.count, 2u);
}

// ------------------------------------------------------------ sink algebra

obs::MetricsSink make_sink(std::uint64_t base) {
  obs::MetricsSink s;
  s.counter("c.events").add(base);
  s.counter("c.only_sometimes").add(base * 2);
  s.gauge("g.level").set(double(base));
  s.histogram("h.sizes", 0, 6, 5).record(double(base + 1));
  s.phase("p.step").record(base * 100);
  return s;
}

TEST(ObsMetricsSink, MergeHalvesEqualFull) {
  obs::MetricsSink full, a, b;
  for (std::uint64_t i = 1; i <= 6; ++i) full.merge(make_sink(i));
  for (std::uint64_t i = 1; i <= 3; ++i) a.merge(make_sink(i));
  for (std::uint64_t i = 4; i <= 6; ++i) b.merge(make_sink(i));
  a.merge(std::move(b));
  EXPECT_EQ(a.counters().at("c.events").value,
            full.counters().at("c.events").value);
  EXPECT_EQ(a.counters().at("c.only_sometimes").value,
            full.counters().at("c.only_sometimes").value);
  EXPECT_EQ(a.gauges().at("g.level").value, full.gauges().at("g.level").value);
  EXPECT_EQ(a.histograms().at("h.sizes"), full.histograms().at("h.sizes"));
  EXPECT_EQ(a.phases().at("p.step").count, full.phases().at("p.step").count);
  EXPECT_EQ(a.phases().at("p.step").total_ns,
            full.phases().at("p.step").total_ns);
}

TEST(ObsMetricsSink, MergeConsumesArgumentAndHandlesDisjointNames) {
  obs::MetricsSink a, b;
  a.counter("x").add(1);
  b.counter("y").add(2);
  b.histogram("h", 0, 3, 2).record(10.0);
  a.merge(std::move(b));
  EXPECT_EQ(a.counters().at("x").value, 1u);
  EXPECT_EQ(a.counters().at("y").value, 2u);
  EXPECT_EQ(a.histograms().at("h").total(), 1u);
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move): documented
}

TEST(ObsMetricsSink, SatisfiesMergeableAnalyzerConcept) {
  static_assert(core::MergeableAnalyzer<obs::MetricsSink>);
  obs::MetricsSink s;
  s.finalize();
  EXPECT_TRUE(s.empty());
}

TEST(ObsRegistry, ConcurrentMergesSumExactly) {
  obs::MetricsRegistry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t)
    threads.emplace_back([&registry] {
      for (int i = 0; i < 100; ++i) {
        obs::MetricsSink s;
        s.counter("c").add(1);
        registry.merge(std::move(s));
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.snapshot().counters().at("c").value, 800u);
}

TEST(ObsRegistry, PointUpdatesAndReset) {
  obs::MetricsRegistry registry;
  EXPECT_TRUE(registry.empty());
  registry.add_counter("c", 3);
  registry.set_gauge("g", 1.25);
  registry.record_phase("p", 1000);
  auto snap = registry.snapshot();
  EXPECT_EQ(snap.counters().at("c").value, 3u);
  EXPECT_EQ(snap.gauges().at("g").value, 1.25);
  EXPECT_EQ(snap.phases().at("p").count, 1u);
  registry.reset();
  EXPECT_TRUE(registry.empty());
}

TEST(ObsRegistry, GlobalIsASingleton) {
  EXPECT_EQ(&obs::MetricsRegistry::global(), &obs::MetricsRegistry::global());
}

TEST(ObsPeakRss, ReportsSomethingPlausible) {
  std::uint64_t rss = obs::peak_rss_bytes();
  EXPECT_GT(rss, 1u << 20);  // a running gtest binary exceeds 1 MiB
}

// -------------------------------------------------------------- JSON export

obs::MetricsMeta test_meta() {
  obs::MetricsMeta meta;
  meta.binary = "test_obs";
  meta.scale = 0.05;
  meta.seed = 1;
  meta.window_hours = 6000;
  meta.threads = 4;
  return meta;
}

TEST(ObsJson, SchemaVersionAndSections) {
  std::string json = obs::metrics_to_json(make_sink(1), test_meta());
  EXPECT_NE(json.find("\"schema\": \"dynamips.metrics.v1\""),
            std::string::npos);
  for (const char* key :
       {"\"meta\"", "\"counters\"", "\"gauges\"", "\"phases\"",
        "\"histograms\"", "\"binary\"", "\"scale\"", "\"threads\""})
    EXPECT_NE(json.find(key), std::string::npos) << key;
  EXPECT_NE(json.find("\"c.events\": 1"), std::string::npos);
}

TEST(ObsJson, StableByteIdenticalSerialization) {
  // Same state serialized twice — and built in a different insertion
  // order — must produce byte-identical documents.
  obs::MetricsSink a, b;
  a.counter("zz").add(1);
  a.counter("aa").add(2);
  b.counter("aa").add(2);
  b.counter("zz").add(1);
  EXPECT_EQ(obs::metrics_to_json(a, test_meta()),
            obs::metrics_to_json(b, test_meta()));
  // Sorted key order: "aa" precedes "zz" in the document.
  std::string json = obs::metrics_to_json(a, test_meta());
  EXPECT_LT(json.find("\"aa\""), json.find("\"zz\""));
}

TEST(ObsJson, EscapesControlAndQuoteCharacters) {
  obs::MetricsSink s;
  s.counter("weird\"name\\with\nnoise").add(1);
  std::string json = obs::metrics_to_json(s, test_meta());
  EXPECT_NE(json.find("weird\\\"name\\\\with\\nnoise"), std::string::npos);
}

TEST(ObsJson, WriteToFileRoundTrips) {
  std::string path = testing::TempDir() + "/obs_metrics.json";
  ASSERT_TRUE(obs::write_metrics_json(path, make_sink(2), test_meta()));
  std::ifstream is(path);
  std::string contents((std::istreambuf_iterator<char>(is)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, obs::metrics_to_json(make_sink(2), test_meta()));
  EXPECT_FALSE(
      obs::write_metrics_json("/nonexistent-dir/x.json", make_sink(2),
                              test_meta()));
}

// ------------------------------------------- pipeline integration contracts

core::AtlasStudyConfig small_atlas_config(obs::MetricsRegistry* registry,
                                          unsigned threads) {
  core::AtlasStudyConfig cfg;
  cfg.atlas.probe_scale = 0.05;
  cfg.atlas.window_hours = 6000;
  cfg.atlas.seed = 7;
  cfg.threads = threads;
  cfg.metrics = registry;
  return cfg;
}

TEST(ObsPipeline, DisabledMetricsRecordNothingAndChangeNothing) {
  auto isps = simnet::paper_isps();
  isps.resize(2);

  obs::MetricsRegistry registry;
  auto metered =
      core::run_atlas_study(isps, small_atlas_config(&registry, 2));
  EXPECT_FALSE(registry.empty());

  obs::MetricsRegistry untouched;
  auto plain = core::run_atlas_study(isps, small_atlas_config(nullptr, 2));
  EXPECT_TRUE(untouched.empty());

  // Metrics on vs off: study results are identical.
  EXPECT_EQ(plain.sanitize.probes_seen, metered.sanitize.probes_seen);
  EXPECT_EQ(plain.sanitize.virtual_probes, metered.sanitize.virtual_probes);
  ASSERT_EQ(plain.durations.size(), metered.durations.size());
  for (const auto& [asn, stats] : metered.durations) {
    EXPECT_EQ(plain.durations.at(asn).v4_changes, stats.v4_changes);
    EXPECT_EQ(plain.durations.at(asn).v6_changes, stats.v6_changes);
    EXPECT_EQ(plain.durations.at(asn).probes, stats.probes);
  }
}

TEST(ObsPipeline, AtlasCountersThreadInvariant) {
  auto isps = simnet::paper_isps();
  isps.resize(3);

  obs::MetricsRegistry serial, sharded;
  core::run_atlas_study(isps, small_atlas_config(&serial, 1));
  core::run_atlas_study(isps, small_atlas_config(&sharded, 4));

  auto a = serial.snapshot(), b = sharded.snapshot();
  ASSERT_EQ(a.counters().size(), b.counters().size());
  for (const auto& [name, counter] : a.counters())
    EXPECT_EQ(counter.value, b.counters().at(name).value) << name;
  ASSERT_EQ(a.histograms().size(), b.histograms().size());
  for (const auto& [name, hist] : a.histograms())
    EXPECT_TRUE(hist == b.histograms().at(name)) << name;
  // Sanity: the expected metric families are present.
  EXPECT_GT(a.counters().at("atlas.echo_records").value, 0u);
  EXPECT_GT(a.counters().at("sanitize.probes_seen").value, 0u);
  EXPECT_GT(a.counters().at("atlas.gen.probes").value, 0u);
  EXPECT_GT(a.phases().at("atlas.generate").count, 0u);
  EXPECT_TRUE(b.gauges().count("atlas.shard_imbalance"));
}

TEST(ObsPipeline, CdnCountersThreadInvariant) {
  auto population = cdn::default_cdn_population(0.05);
  core::CdnStudyConfig cfg;
  cfg.cdn.subscriber_scale = 0.05;
  cfg.cdn.seed = 13;

  obs::MetricsRegistry serial, sharded;
  cfg.threads = 1;
  cfg.metrics = &serial;
  core::run_cdn_study(population, cfg);
  cfg.threads = 4;
  cfg.metrics = &sharded;
  core::run_cdn_study(population, cfg);

  auto a = serial.snapshot(), b = sharded.snapshot();
  ASSERT_EQ(a.counters().size(), b.counters().size());
  for (const auto& [name, counter] : a.counters())
    EXPECT_EQ(counter.value, b.counters().at(name).value) << name;
  for (const auto& [name, hist] : a.histograms())
    EXPECT_TRUE(hist == b.histograms().at(name)) << name;
  EXPECT_GT(a.counters().at("cdn.association_tuples").value, 0u);
  EXPECT_EQ(a.counters().at("cdn.logs_generated").value,
            population.size());
  // The kept/mismatched split covers every generated tuple.
  EXPECT_EQ(a.counters().at("cdn.tuples_kept").value +
                a.counters().at("cdn.tuples_mismatched").value,
            a.counters().at("cdn.association_tuples").value);
}

TEST(ObsPipeline, MetricsJsonStableAcrossIdenticalRuns) {
  auto isps = simnet::paper_isps();
  isps.resize(2);
  obs::MetricsRegistry r1, r2;
  core::run_atlas_study(isps, small_atlas_config(&r1, 2));
  core::run_atlas_study(isps, small_atlas_config(&r2, 2));

  // Counters/histograms (the gated sections) are deterministic run to
  // run; timings differ, so compare documents with phases/gauges zeroed.
  auto strip = [](const obs::MetricsSink& sink) {
    obs::MetricsSink out;
    for (const auto& [name, c] : sink.counters())
      out.counter(name).add(c.value);
    for (const auto& [name, h] : sink.histograms()) {
      auto& copy = out.histogram(name, h.lo_exp(), h.hi_exp(),
                                 h.bins_per_decade());
      copy.merge(h);
    }
    return out;
  };
  EXPECT_EQ(obs::metrics_to_json(strip(r1.snapshot()), test_meta()),
            obs::metrics_to_json(strip(r2.snapshot()), test_meta()));
}


// ------------------------------------------------------- metric surface
//
// Which metrics each study path records is part of its contract: the
// generator path counts `*_generated` and times `*.generate`, the file
// path counts `*_loaded` and times `*.ingest`, and a stream records the
// analysis metrics of its final pass only. Each test pins the sorted
// names of one path, and every phase's sample count, at threads = 2.

/// "counter:NAME", "gauge:NAME", "histogram:NAME" and "phase:NAME=COUNT"
/// for every metric in `sink`, sorted.
std::vector<std::string> metric_surface(const obs::MetricsSink& sink) {
  std::vector<std::string> out;
  for (const auto& [name, c] : sink.counters())
    out.push_back("counter:" + name);
  for (const auto& [name, g] : sink.gauges()) out.push_back("gauge:" + name);
  for (const auto& [name, h] : sink.histograms())
    out.push_back("histogram:" + name);
  for (const auto& [name, p] : sink.phases())
    out.push_back("phase:" + name + "=" + std::to_string(p.count));
  std::sort(out.begin(), out.end());
  return out;
}

/// The sorted union of metric-name groups.
std::vector<std::string> surface_of(
    std::initializer_list<std::vector<std::string>> groups) {
  std::vector<std::string> out;
  for (const auto& group : groups)
    out.insert(out.end(), group.begin(), group.end());
  std::sort(out.begin(), out.end());
  return out;
}

// What every Atlas path records for the 49 probes (48 clean) it analyzes
// on two shards in one round.
const std::vector<std::string> kAtlasAnalysis = {
    "counter:atlas.clean_probes",
    "counter:atlas.echo_records",
    "counter:sanitize.dropped_bad_tag",
    "counter:sanitize.dropped_multihomed",
    "counter:sanitize.dropped_public_src",
    "counter:sanitize.dropped_short",
    "counter:sanitize.dropped_v6_mismatch",
    "counter:sanitize.probes_kept",
    "counter:sanitize.probes_seen",
    "counter:sanitize.split_probes",
    "counter:sanitize.test_address_records",
    "counter:sanitize.virtual_probes",
    "gauge:atlas.shard_imbalance",
    "gauge:atlas.shards",
    "histogram:atlas.records_per_probe",
    "phase:atlas.durations.add=48",
    "phase:atlas.finalize=1",
    "phase:atlas.inference.add=48",
    "phase:atlas.merge=1",
    "phase:atlas.sanitize=49",
    "phase:atlas.shard_wall=2",
    "phase:atlas.spatial.add=48",
};

// What every CDN path records for its 17 logs on two shards.
const std::vector<std::string> kCdnAnalysis = {
    "counter:cdn.association_tuples",
    "counter:cdn.spill_bytes",
    "counter:cdn.spill_runs",
    "counter:cdn.tuples_kept",
    "counter:cdn.tuples_mismatched",
    "gauge:cdn.shard_imbalance",
    "gauge:cdn.shards",
    "histogram:cdn.tuples_per_log",
    "phase:cdn.analyzer.add=17",
    "phase:cdn.finalize=1",
    "phase:cdn.merge=1",
    "phase:cdn.shard_wall=2",
};

// Reader accounting of a clean input.
const std::vector<std::string> kIngest = {
    "counter:ingest.lines",
    "counter:ingest.records",
};

// A stream of 3 batches with a checkpoint after each.
const std::vector<std::string> kStream = {
    "counter:checkpoint.writes",
    "counter:stream.batches",
    "counter:stream.records",
    "counter:stream.refinalize",
    "gauge:stream.backlog_batches",
    "gauge:stream.lag_seconds",
    "phase:checkpoint.write=3",
};

std::vector<simnet::IspProfile> surface_isps() {
  auto isps = simnet::paper_isps();
  isps.resize(2);
  return isps;
}

std::vector<atlas::ProbeSeries> surface_echo_dataset() {
  auto cfg = small_atlas_config(nullptr, 2).atlas;
  atlas::AtlasSimulator sim(surface_isps(), cfg);
  std::vector<atlas::ProbeSeries> out;
  for (std::size_t i = 0; i < sim.probe_count(); ++i)
    out.push_back(sim.series_for(i));
  return out;
}

core::CdnStudyConfig surface_cdn_config(obs::MetricsRegistry* registry) {
  core::CdnStudyConfig cfg;
  cfg.cdn.subscriber_scale = 0.02;
  cfg.cdn.seed = 13;
  cfg.threads = 2;
  cfg.metrics = registry;
  return cfg;
}

std::vector<cdn::AssociationLog> surface_assoc_dataset() {
  cdn::CdnSimulator sim(cdn::default_cdn_population(0.02),
                        surface_cdn_config(nullptr).cdn);
  std::vector<cdn::AssociationLog> out;
  for (std::size_t i = 0; i < sim.entry_count(); ++i)
    out.push_back(sim.generate(i));
  return out;
}

core::CdnFileStudyConfig surface_cdn_file_config(
    obs::MetricsRegistry* registry) {
  core::CdnFileStudyConfig cfg;
  cfg.threads = 2;
  cfg.metrics = registry;
  for (const auto& entry : cdn::default_cdn_population(0.02)) {
    if (entry.isp.mobile) cfg.mobile_asns.insert(entry.isp.asn);
    cfg.registries[entry.isp.asn] = entry.isp.registry;
  }
  return cfg;
}

/// A fresh directory under the test temp dir.
std::filesystem::path surface_dir(const std::string& name) {
  auto dir = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Write `items` as `parts` batch files (batch-0.csv, ...) plus the stop
/// sentinel; returns the batch paths in order.
template <typename Item, typename WriteFn>
std::vector<std::string> write_surface_batches(
    const std::filesystem::path& dir, const std::vector<Item>& items,
    std::size_t parts, WriteFn&& write) {
  std::vector<std::string> paths;
  for (std::size_t p = 0; p < parts; ++p) {
    std::vector<Item> part(items.begin() + p * items.size() / parts,
                           items.begin() + (p + 1) * items.size() / parts);
    paths.push_back((dir / ("batch-" + std::to_string(p) + ".csv")).string());
    std::ofstream os(paths.back());
    write(os, part);
  }
  std::ofstream(dir / "stream.stop") << "stop\n";
  return paths;
}

/// Stream settings shared by both stream surface tests: a re-finalization
/// every 2 of the 3 batches and a checkpoint, kept outside the watched
/// directory, after each.
core::StreamConfig surface_stream(const std::string& name) {
  core::StreamConfig stream;
  stream.refinalize_every_batches = 2;
  stream.poll_ms = 1;
  stream.checkpoint_path = (surface_dir(name) / "stream.ckpt").string();
  return stream;
}

TEST(ObsSurface, AtlasGenerator) {
  obs::MetricsRegistry registry;
  core::run_atlas_study(surface_isps(), small_atlas_config(&registry, 2));
  EXPECT_EQ(metric_surface(registry.snapshot()),
            surface_of({kAtlasAnalysis,
                        {"counter:atlas.gen.privacy_iid_probes",
                         "counter:atlas.gen.probes",
                         "counter:atlas.gen.role_as_switch",
                         "counter:atlas.gen.role_bad_tag",
                         "counter:atlas.gen.role_multihomed",
                         "counter:atlas.gen.role_normal",
                         "counter:atlas.gen.role_public_src",
                         "counter:atlas.gen.role_short_lived",
                         "counter:atlas.gen.test_addr_probes",
                         "counter:atlas.probes_generated",
                         "phase:atlas.generate=49"}}));
}

TEST(ObsSurface, AtlasFiles) {
  const auto dir = surface_dir("obs_surface_atlas_files");
  const auto paths = write_surface_batches(
      dir, surface_echo_dataset(), 1,
      [](std::ostream& os, const auto& part) {
        io::write_echo_dataset(os, part);
      });
  obs::MetricsRegistry registry;
  core::AtlasFileStudyConfig cfg;
  cfg.threads = 2;
  cfg.metrics = &registry;
  auto study = core::run_atlas_study_from_files(paths, surface_isps(), cfg);
  ASSERT_TRUE(study.ok()) << study.status().to_string();
  EXPECT_EQ(metric_surface(registry.snapshot()),
            surface_of({kAtlasAnalysis, kIngest,
                        {"counter:atlas.probes_loaded",
                         "phase:atlas.ingest=1"}}));
}

TEST(ObsSurface, AtlasStream) {
  const auto dir = surface_dir("obs_surface_atlas_stream");
  write_surface_batches(dir, surface_echo_dataset(), 3,
                        [](std::ostream& os, const auto& part) {
                          io::write_echo_dataset(os, part);
                        });
  obs::MetricsRegistry registry;
  core::AtlasFileStudyConfig cfg;
  cfg.metrics = &registry;
  int snapshots = 0;
  core::StreamDriver driver(2);
  auto study = driver.follow_atlas(
      dir.string(), surface_isps(), cfg,
      surface_stream("obs_surface_atlas_stream_ckpt"),
      [&](const core::AtlasStudy&, const core::StreamStats&) { ++snapshots; });
  ASSERT_TRUE(study.ok()) << study.status().to_string();
  EXPECT_EQ(snapshots, 1);
  EXPECT_EQ(metric_surface(registry.snapshot()),
            surface_of({kAtlasAnalysis, kIngest, kStream,
                        {"counter:atlas.probes_loaded"}}));
}

TEST(ObsSurface, CdnGenerator) {
  obs::MetricsRegistry registry;
  core::run_cdn_study(cdn::default_cdn_population(0.02),
                      surface_cdn_config(&registry));
  EXPECT_EQ(metric_surface(registry.snapshot()),
            surface_of({kCdnAnalysis,
                        {"counter:cdn.gen.mobile_entries",
                         "counter:cdn.gen.population_entries",
                         "counter:cdn.gen.subscribers",
                         "counter:cdn.logs_generated",
                         "phase:cdn.generate=17"}}));
}

TEST(ObsSurface, CdnFiles) {
  const auto dir = surface_dir("obs_surface_cdn_files");
  const auto paths = write_surface_batches(
      dir, surface_assoc_dataset(), 1,
      [](std::ostream& os, const auto& part) {
        io::write_assoc_dataset(os, part);
      });
  obs::MetricsRegistry registry;
  auto study = core::run_cdn_study_from_files(
      paths, surface_cdn_file_config(&registry));
  ASSERT_TRUE(study.ok()) << study.status().to_string();
  EXPECT_EQ(metric_surface(registry.snapshot()),
            surface_of({kCdnAnalysis, kIngest,
                        {"counter:cdn.logs_loaded", "phase:cdn.ingest=1"}}));
}

TEST(ObsSurface, CdnStream) {
  const auto dir = surface_dir("obs_surface_cdn_stream");
  write_surface_batches(dir, surface_assoc_dataset(), 3,
                        [](std::ostream& os, const auto& part) {
                          io::write_assoc_dataset(os, part);
                        });
  obs::MetricsRegistry registry;
  int snapshots = 0;
  core::StreamDriver driver(2);
  auto study = driver.follow_cdn(
      dir.string(), surface_cdn_file_config(&registry),
      surface_stream("obs_surface_cdn_stream_ckpt"),
      [&](const core::CdnStudy&, const core::StreamStats&) { ++snapshots; });
  ASSERT_TRUE(study.ok()) << study.status().to_string();
  EXPECT_EQ(snapshots, 1);
  EXPECT_EQ(metric_surface(registry.snapshot()),
            surface_of({kCdnAnalysis, kIngest, kStream,
                        {"counter:cdn.logs_loaded"}}));
}

}  // namespace
}  // namespace dynamips
