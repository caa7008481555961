// fidelity_test — the benchmark's traced replay is the pipeline.
//
// The per-layer numbers come from a replay of the analysis loop with spans
// around each call; they describe the program only if the replay does the
// program's work. These tests hold it to that at small scale: the replayed
// studies' CSVs equal the public entrypoints' byte for byte, and the span
// counts equal the program's own counters. They also pin the harness's
// strict flag parsing.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <unistd.h>

#include "cdn/generator.h"
#include "core/pipeline.h"
#include "harness/flags.h"
#include "harness/replay.h"
#include "harness/trace.h"
#include "harness/workloads.h"
#include "io/columnar.h"
#include "obs/metrics.h"
#include "simnet/isp.h"

namespace perfbench {
namespace {

using namespace dynamips;
namespace fs = std::filesystem;

Params small_params() {
  Params p;
  p.seed = 5;
  p.scale = 0.02;
  p.threads = 3;
  p.window_hours = 6000;
  p.batches = 4;
  return p;
}

std::uint64_t counter(const obs::MetricsRegistry& registry,
                      const std::string& name) {
  const obs::MetricsSink m = registry.snapshot();
  auto it = m.counters().find(name);
  return it == m.counters().end() ? 0 : it->second.value;
}

LayerStats layer(const Tracer& tracer, const std::string& name) {
  const auto layers = tracer.layers();
  auto it = layers.find(name);
  return it == layers.end() ? LayerStats{} : it->second;
}

/// A scratch directory under the test's working directory.
fs::path scratch(const std::string& name) {
  fs::path dir = fs::path("fidelity_work") / (name + "-" + std::to_string(getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(Fidelity, GeneratedReplayMatchesPublicEntrypoints) {
  const Params p = small_params();
  obs::MetricsRegistry registry;
  core::AtlasStudyConfig acfg;
  acfg.atlas = atlas_config(p);
  acfg.threads = p.threads;
  acfg.metrics = &registry;
  auto atlas = core::run_atlas_study_supervised(simnet::paper_isps(), acfg);
  ASSERT_TRUE(atlas.ok());
  core::CdnStudyConfig ccfg;
  ccfg.cdn = cdn_config(p);
  ccfg.threads = p.threads;
  ccfg.metrics = &registry;
  auto cdn = core::run_cdn_study_supervised(
      cdn::default_cdn_population(p.scale), ccfg);
  ASSERT_TRUE(cdn.ok());

  Tracer tracer;
  core::ShardExecutor exec(p.threads);
  const core::AtlasStudy traced_atlas = traced_atlas_generated(
      simnet::paper_isps(), atlas_config(p), exec, tracer);
  const core::CdnStudy traced_cdn = traced_cdn_generated(
      cdn::default_cdn_population(p.scale), cdn_config(p), exec, tracer);

  EXPECT_EQ(atlas_csvs(traced_atlas), atlas_csvs(atlas.value()));
  EXPECT_EQ(cdn_csvs(traced_cdn), cdn_csvs(cdn.value()));

  EXPECT_GT(counter(registry, "atlas.probes_generated"), 0u);
  EXPECT_EQ(layer(tracer, "atlas.series_for").calls,
            counter(registry, "atlas.probes_generated"));
  EXPECT_EQ(layer(tracer, "core.durations.add").calls,
            counter(registry, "atlas.clean_probes"));
  EXPECT_EQ(layer(tracer, "cdn.generate").calls,
            counter(registry, "cdn.logs_generated"));
  EXPECT_EQ(layer(tracer, "core.assoc.add_log").work,
            counter(registry, "cdn.association_tuples"));
  EXPECT_EQ(layer(tracer, kShardSpan).calls, 2u * p.threads);
}

TEST(Fidelity, ColumnarReplayMatchesFileEntrypoints) {
  const Params p = small_params();
  const fs::path dir = scratch("columnar");
  core::ShardExecutor exec(p.threads);
  const std::string echo = (dir / "echo.col").string();
  const std::string assoc = (dir / "assoc.col").string();
  ASSERT_TRUE(io::write_echo_columnar(echo, generate_echo(p, exec)).ok());
  cdn::CdnSimulator sim(cdn::default_cdn_population(p.scale), cdn_config(p));
  std::vector<cdn::AssociationLog> logs;
  for (std::size_t i = 0; i < sim.entry_count(); ++i)
    logs.push_back(sim.generate(i));
  ASSERT_TRUE(io::write_assoc_columnar(assoc, logs).ok());

  obs::MetricsRegistry registry;
  core::AtlasFileStudyConfig acfg;
  acfg.threads = p.threads;
  acfg.metrics = &registry;
  auto atlas =
      core::run_atlas_study_from_files({echo}, simnet::paper_isps(), acfg);
  ASSERT_TRUE(atlas.ok());
  const CdnAttribution attribution = default_cdn_attribution();
  core::CdnFileStudyConfig ccfg;
  ccfg.threads = p.threads;
  ccfg.metrics = &registry;
  ccfg.mobile_asns = attribution.mobile;
  ccfg.registries = attribution.registries;
  ccfg.asn_names = attribution.names;
  auto cdn = core::run_cdn_study_from_files({assoc}, ccfg);
  ASSERT_TRUE(cdn.ok());

  Tracer tracer;
  auto echo_data = io::load_echo_file(echo);
  ASSERT_TRUE(echo_data.ok());
  auto assoc_data = io::load_assoc_file(assoc);
  ASSERT_TRUE(assoc_data.ok());
  const core::AtlasStudy traced_atlas = traced_atlas_dataset(
      echo_data.value(), simnet::paper_isps(), exec, tracer);
  const core::CdnStudy traced_cdn =
      traced_cdn_dataset(assoc_data.value(), attribution, exec, tracer);

  EXPECT_EQ(atlas_csvs(traced_atlas), atlas_csvs(atlas.value()));
  EXPECT_EQ(cdn_csvs(traced_cdn), cdn_csvs(cdn.value()));
  EXPECT_EQ(layer(tracer, "core.from_series").calls,
            counter(registry, "atlas.probes_loaded"));
  EXPECT_EQ(layer(tracer, "core.durations.add").calls,
            counter(registry, "atlas.clean_probes"));
  EXPECT_EQ(layer(tracer, "core.assoc.add_log").calls,
            counter(registry, "cdn.logs_loaded"));
  EXPECT_EQ(layer(tracer, "core.assoc.add_log").work,
            counter(registry, "cdn.association_tuples"));
  fs::remove_all(dir);
}

TEST(Fidelity, StreamRunMatchesOneShotAndCountsCheckpoints) {
  const Params p = small_params();
  const fs::path dir = scratch("stream");
  core::ShardExecutor exec(p.threads);
  const auto batches =
      write_echo_batches(generate_echo(p, exec), p.batches, dir / "batches");
  ASSERT_EQ(batches.size(), p.batches);

  core::AtlasFileStudyConfig cfg;
  cfg.threads = p.threads;
  auto one_shot =
      core::run_atlas_study_from_files(batches, simnet::paper_isps(), cfg);
  ASSERT_TRUE(one_shot.ok());

  LgRig rig;
  obs::MetricsRegistry registry;
  Tracer tracer;
  const FollowRun run =
      follow_run(p, batches, dir, &registry, &tracer, rig, nullptr);
  EXPECT_EQ(run.stats.batches, p.batches);
  EXPECT_EQ(run.refresh_ms.size(), p.batches);
  for (const auto& [name, bytes] : atlas_csvs(one_shot.value()))
    EXPECT_EQ(run.final_csvs.at(name), digest(bytes)) << name;
  EXPECT_EQ(run.checkpoint_writes_seen, p.batches);
  EXPECT_EQ(run.checkpoint_writes_seen,
            counter(registry, "checkpoint.writes"));
  EXPECT_EQ(layer(tracer, "stream.on_snapshot").calls, p.batches);
  fs::remove_all(dir);
}

TEST(Flags, ParsesOnlyCompleteInRangeValues) {
  EXPECT_EQ(parse_u64("42", 0, 100), 42u);
  EXPECT_FALSE(parse_u64("abc", 0, 100));
  EXPECT_FALSE(parse_u64("4x", 0, 100));
  EXPECT_FALSE(parse_u64("", 0, 100));
  EXPECT_FALSE(parse_u64("-1", 0, 100));
  EXPECT_FALSE(parse_u64("101", 0, 100));
  EXPECT_FALSE(parse_u64("99999999999999999999999", 0, UINT64_MAX));
  EXPECT_EQ(parse_u64("18446744073709551615", 0, UINT64_MAX), UINT64_MAX);
  EXPECT_FALSE(parse_u64("18446744073709551616", 0, UINT64_MAX));
  EXPECT_EQ(parse_double("0.3", 0, 3), 0.3);
  EXPECT_FALSE(parse_double("0", 0, 3));
  EXPECT_FALSE(parse_double("3.5", 0, 3));
  EXPECT_FALSE(parse_double("nan", 0, 3));
  EXPECT_FALSE(parse_double("1e999", 0, 3));
  EXPECT_FALSE(parse_double("0.3s", 0, 3));
  EXPECT_EQ(parse_workload("follow-serve"), Workload::kFollowServe);
  EXPECT_FALSE(parse_workload("gen"));
}

void parse(std::vector<std::string> args) {
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  parse_options(int(argv.size()), argv.data());
}

TEST(Flags, UsageErrorsExitTwoNamingTheFlag) {
  const std::vector<std::string> base = {"dynbench", "run", "--dir", "d"};
  auto with = [&](std::vector<std::string> extra) {
    std::vector<std::string> args = base;
    args.insert(args.end(), extra.begin(), extra.end());
    return args;
  };
  EXPECT_EXIT(parse(with({"--workload", "gen-full", "--seed", "x1"})),
              testing::ExitedWithCode(2), "--seed");
  EXPECT_EXIT(parse(with({"--workload", "gen-full", "--seed",
                          "18446744073709551616"})),
              testing::ExitedWithCode(2), "--seed");
  EXPECT_EXIT(parse(with({"--workload", "nope", "--seed", "1"})),
              testing::ExitedWithCode(2), "--workload");
  EXPECT_EXIT(parse(with({"--workload", "gen-full", "--seed", "1",
                          "--threads", "0"})),
              testing::ExitedWithCode(2), "--threads");
  EXPECT_EXIT(parse(with({"--workload", "gen-full", "--seed", "1",
                          "--scale", "abc"})),
              testing::ExitedWithCode(2), "--scale");
  EXPECT_EXIT(parse(with({"--workload", "gen-full", "--seed", "1",
                          "--seconds"})),
              testing::ExitedWithCode(2), "--seconds");
}

}  // namespace
}  // namespace perfbench
