// test_parallel — shard-and-merge execution (core/parallel.h) and the
// thread-count invariance of the study pipeline.
//
// Four layers of coverage:
//  * the primitives: shard_ranges partitioning and ShardExecutor dispatch;
//  * merge-correctness of every mergeable accumulator and analyzer:
//    feeding two halves into two instances and merging must equal feeding
//    everything into one instance;
//  * end-to-end: run_atlas_study / run_cdn_study with threads=1 and
//    threads=4 produce identical results, down to vector element order;
//  * the chunk scheduler: skewed item costs, edge plans and resumed
//    checkpoint layouts give the serial run's CSVs and shard state.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <filesystem>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "atlas/generator.h"
#include "core/parallel.h"
#include "core/pipeline.h"
#include "core/shutdown.h"
#include "io/atomic_file.h"
#include "io/checkpoint.h"
#include "io/readers.h"
#include "io/results_io.h"
#include "simnet/isp.h"
#include "stats/ecdf.h"
#include "stats/loghist.h"
#include "stats/periodicity.h"
#include "stats/ttf.h"

namespace dynamips {
namespace {

// ---------------------------------------------------------------- primitives

TEST(ShardRanges, PartitionsIndexSpace) {
  for (std::size_t count : {0ul, 1ul, 2ul, 7ul, 64ul, 1000ul}) {
    for (unsigned shards : {0u, 1u, 2u, 3u, 8u, 200u}) {
      auto ranges = core::shard_ranges(count, shards);
      ASSERT_FALSE(ranges.empty());
      // Never more ranges than items (except the single empty range for 0).
      if (count > 0) {
        EXPECT_LE(ranges.size(), count);
      }
      // Contiguous cover of [0, count).
      EXPECT_EQ(ranges.front().begin, 0u);
      EXPECT_EQ(ranges.back().end, count);
      std::size_t total = 0, max_len = 0, min_len = count + 1;
      for (std::size_t i = 0; i < ranges.size(); ++i) {
        if (i > 0) {
          EXPECT_EQ(ranges[i].begin, ranges[i - 1].end);
        }
        total += ranges[i].size();
        max_len = std::max(max_len, ranges[i].size());
        min_len = std::min(min_len, ranges[i].size());
      }
      EXPECT_EQ(total, count);
      // Balanced: lengths differ by at most one.
      if (count > 0) {
        EXPECT_LE(max_len - min_len, 1u);
      }
    }
  }
}

TEST(ShardRanges, ZeroCountYieldsSingleEmptyRange) {
  auto ranges = core::shard_ranges(0, 4);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_TRUE(ranges[0].empty());
}

TEST(ShardExecutor, RunsEveryTaskExactlyOnce) {
  for (unsigned threads : {1u, 2u, 4u}) {
    core::ShardExecutor exec(threads);
    EXPECT_EQ(exec.thread_count(), threads);
    std::vector<std::atomic<int>> hits(101);
    for (auto& h : hits) h = 0;
    exec.dispatch(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ShardExecutor, ReusableAcrossDispatches) {
  core::ShardExecutor exec(4);
  for (int round = 0; round < 3; ++round) {
    std::atomic<std::size_t> sum{0};
    exec.dispatch(50, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 50u * 49u / 2u);
  }
  exec.dispatch(0, [](std::size_t) { FAIL() << "no tasks expected"; });
}

TEST(ShardExecutor, LanesNameDistinctThreads) {
  for (unsigned threads : {1u, 3u}) {
    core::ShardExecutor exec(threads);
    std::vector<unsigned> lane_of(64, ~0u);
    std::vector<std::thread::id> owner(threads);
    std::vector<int> claims(threads, 0);
    std::mutex mu;
    exec.dispatch(lane_of.size(), [&](unsigned lane, std::size_t i) {
      ASSERT_LT(lane, threads);
      lane_of[i] = lane;
      std::lock_guard<std::mutex> lk(mu);
      if (claims[lane]++ == 0) owner[lane] = std::this_thread::get_id();
      EXPECT_EQ(owner[lane], std::this_thread::get_id()) << "lane " << lane;
    });
    for (unsigned lane : lane_of) {
      EXPECT_LT(lane, threads);
      if (threads == 1) {
        EXPECT_EQ(lane, 0u);
      }
    }
  }
}

TEST(ShardExecutor, PropagatesTaskExceptions) {
  for (unsigned threads : {1u, 4u}) {
    core::ShardExecutor exec(threads);
    EXPECT_THROW(
        exec.dispatch(8,
                      [](std::size_t i) {
                        if (i == 3) throw std::runtime_error("boom");
                      }),
        std::runtime_error);
    // The pool must still be usable after a failed dispatch.
    std::atomic<int> ran{0};
    exec.dispatch(8, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 8);
  }
}

TEST(ResolveThreads, ZeroMeansHardwareConcurrency) {
  EXPECT_GE(core::resolve_threads(0), 1u);
  EXPECT_EQ(core::resolve_threads(3), 3u);
}

// ------------------------------------------------- accumulator merge algebra

TEST(MergeAccumulators, TotalTimeFraction) {
  stats::TotalTimeFraction full, a, b;
  for (std::uint64_t h : {24u, 24u, 48u, 7u, 24u, 168u}) full.add(h);
  for (std::uint64_t h : {24u, 24u, 48u}) a.add(h);
  for (std::uint64_t h : {7u, 24u, 168u}) b.add(h);
  a.merge(b);
  EXPECT_EQ(a.counts(), full.counts());
  EXPECT_EQ(a.total_hours(), full.total_hours());
  EXPECT_EQ(a.total_count(), full.total_count());
}

TEST(MergeAccumulators, Ecdf) {
  stats::Ecdf full, a, b;
  for (double x : {5.0, 1.0, 3.0, 9.0, 2.0, 2.0}) full.add(x);
  for (double x : {5.0, 1.0, 3.0}) a.add(x);
  for (double x : {9.0, 2.0, 2.0}) b.add(x);
  a.merge(b);  // merge finalizes: samples come back sorted
  full.finalize();
  EXPECT_EQ(a.samples(), full.samples());
  a.merge(stats::Ecdf{});  // merging an empty ECDF is a no-op
  EXPECT_EQ(a.size(), full.size());
}

// Regression for a data race: Ecdf::at/quantile used to sort the sample
// buffer lazily under `mutable`, so two threads reading the same finalized
// ECDF could both kick off a sort. Reads are now const-clean after
// finalize(); this fails under TSAN if lazy mutation ever comes back.
TEST(MergeAccumulators, EcdfConcurrentReadsAreConst) {
  stats::Ecdf e;
  for (int i = 1000; i > 0; --i) e.add(double(i));
  e.finalize();
  std::vector<std::thread> readers;
  std::array<double, 8> got{};
  for (std::size_t t = 0; t < got.size(); ++t) {
    readers.emplace_back([&, t] {
      double acc = 0;
      for (int i = 0; i < 1000; ++i) {
        acc += e.quantile(0.5);
        acc += e.at(250.0);
      }
      got[t] = acc;
    });
  }
  for (auto& r : readers) r.join();
  for (double g : got) EXPECT_EQ(g, got[0]);
}

TEST(MergeAccumulators, LogHistogram) {
  stats::LogHistogram full(0, 6, 10), a(0, 6, 10), b(0, 6, 10);
  for (double v : {1.0, 10.0, 256.0, 80000.0}) full.add(v, 2.0);
  for (double v : {1.0, 10.0}) a.add(v, 2.0);
  for (double v : {256.0, 80000.0}) b.add(v, 2.0);
  a.merge(b);
  EXPECT_EQ(a.total_weight(), full.total_weight());
  EXPECT_EQ(a.density(), full.density());
  EXPECT_EQ(a.mode_bin(), full.mode_bin());
}

TEST(MergeAccumulators, CplHistogram) {
  core::CplHistogram full{}, a{}, b{};
  full.changes[40] = 3;
  full.probes[40] = 2;
  full.changes[64] = 1;
  a.changes[40] = 1;
  a.probes[40] = 1;
  b.changes[40] = 2;
  b.probes[40] = 1;
  b.changes[64] = 1;
  a.merge(b);
  EXPECT_EQ(a.changes, full.changes);
  EXPECT_EQ(a.probes, full.probes);
}

TEST(MergeAccumulators, ZeroBoundaryCounts) {
  core::ZeroBoundaryCounts full{}, a{}, b{};
  full.add(core::ZeroBoundary::k56);
  full.add(core::ZeroBoundary::k56);
  full.add(core::ZeroBoundary::kNone);
  a.add(core::ZeroBoundary::k56);
  b.add(core::ZeroBoundary::k56);
  b.add(core::ZeroBoundary::kNone);
  a.merge(b);
  EXPECT_EQ(a.counts, full.counts);
}

TEST(MergeAccumulators, PeriodicNetworkCounter) {
  // A strongly periodic accumulator (24h mode) and an aperiodic one.
  stats::TotalTimeFraction periodic, flat;
  periodic.add(24, 500);
  periodic.add(48, 10);
  // Spread over [1, 100] so no candidate period captures >= 25% of time.
  for (std::uint64_t h = 1; h <= 100; h += 3) flat.add(h);

  stats::PeriodicNetworkCounter full, a, b;
  full.add(periodic);
  full.add(flat);
  full.add(periodic);
  a.add(periodic);
  a.add(flat);
  b.add(periodic);
  a.merge(b);
  EXPECT_EQ(a.networks(), full.networks());
  EXPECT_EQ(a.periodic_networks(), full.periodic_networks());
  EXPECT_EQ(a.by_period(), full.by_period());
  EXPECT_EQ(full.networks(), 3u);
  EXPECT_EQ(full.periodic_networks(), 2u);
}

// --------------------------------------------------- analyzer merge algebra

// Shared small Atlas dataset: all CleanProbes of a two-ISP deployment.
struct CleanDataset {
  bgp::Rib rib;
  std::vector<core::CleanProbe> probes;
};

const CleanDataset& clean_dataset() {
  static CleanDataset* ds = [] {
    auto* d = new CleanDataset;
    auto isps = simnet::paper_isps();
    isps.resize(2);
    simnet::announce_all(isps, d->rib);
    atlas::AtlasConfig cfg;
    cfg.probe_scale = 0.05;
    cfg.window_hours = 6000;
    cfg.seed = 42;
    atlas::AtlasSimulator sim(isps, cfg);
    core::Sanitizer sanitizer(d->rib, {});
    for (std::size_t i = 0; i < sim.probe_count(); ++i) {
      auto obs = core::from_series(sim.series_for(i));
      for (auto& cp : sanitizer.sanitize(obs))
        d->probes.push_back(std::move(cp));
    }
    EXPECT_GT(d->probes.size(), 10u);
    return d;
  }();
  return *ds;
}

void expect_eq(const core::AsDurationStats& a, const core::AsDurationStats& b) {
  EXPECT_EQ(a.v4_nds.counts(), b.v4_nds.counts());
  EXPECT_EQ(a.v4_ds.counts(), b.v4_ds.counts());
  EXPECT_EQ(a.v6.counts(), b.v6.counts());
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.ds_probes, b.ds_probes);
  EXPECT_EQ(a.probes_with_change, b.probes_with_change);
  EXPECT_EQ(a.v4_changes, b.v4_changes);
  EXPECT_EQ(a.v4_changes_ds, b.v4_changes_ds);
  EXPECT_EQ(a.v6_changes, b.v6_changes);
  EXPECT_EQ(a.cooccur_hits, b.cooccur_hits);
  EXPECT_EQ(a.cooccur_total, b.cooccur_total);
}

void expect_eq(const core::AsSpatialStats& a, const core::AsSpatialStats& b) {
  EXPECT_EQ(a.cpl.changes, b.cpl.changes);
  EXPECT_EQ(a.cpl.probes, b.cpl.probes);
  EXPECT_EQ(a.v4_changes, b.v4_changes);
  EXPECT_EQ(a.v4_diff_24, b.v4_diff_24);
  EXPECT_EQ(a.v4_diff_bgp, b.v4_diff_bgp);
  EXPECT_EQ(a.v6_changes, b.v6_changes);
  EXPECT_EQ(a.v6_diff_bgp, b.v6_diff_bgp);
  EXPECT_EQ(a.unique_prefixes, b.unique_prefixes);
  EXPECT_EQ(a.unique_bgp, b.unique_bgp);
}

TEST(MergeAnalyzers, DurationAnalyzerHalvesEqualFull) {
  const auto& ds = clean_dataset();
  std::size_t half = ds.probes.size() / 2;
  core::DurationAnalyzer full, a, b;
  for (std::size_t i = 0; i < ds.probes.size(); ++i) {
    full.add(ds.probes[i]);
    (i < half ? a : b).add(ds.probes[i]);
  }
  a.merge(std::move(b));
  ASSERT_EQ(a.by_as().size(), full.by_as().size());
  for (const auto& [asn, stats] : full.by_as()) {
    ASSERT_TRUE(a.by_as().count(asn));
    expect_eq(a.by_as().at(asn), stats);
  }
}

TEST(MergeAnalyzers, SpatialAnalyzerHalvesEqualFull) {
  const auto& ds = clean_dataset();
  std::size_t half = ds.probes.size() / 2;
  core::SpatialAnalyzer full(ds.rib), a(ds.rib), b(ds.rib);
  for (std::size_t i = 0; i < ds.probes.size(); ++i) {
    full.add(ds.probes[i]);
    (i < half ? a : b).add(ds.probes[i]);
  }
  a.merge(std::move(b));
  ASSERT_EQ(a.by_as().size(), full.by_as().size());
  for (const auto& [asn, stats] : full.by_as()) {
    ASSERT_TRUE(a.by_as().count(asn));
    expect_eq(a.by_as().at(asn), stats);
  }
}

TEST(MergeAnalyzers, InferenceCollectorHalvesEqualFull) {
  const auto& ds = clean_dataset();
  std::size_t half = ds.probes.size() / 2;
  core::InferenceCollector full, a, b;
  for (std::size_t i = 0; i < ds.probes.size(); ++i) {
    full.add(ds.probes[i]);
    (i < half ? a : b).add(ds.probes[i]);
  }
  a.merge(std::move(b));
  ASSERT_EQ(a.subscriber().size(), full.subscriber().size());
  for (const auto& [asn, infs] : full.subscriber()) {
    const auto& got = a.subscriber().at(asn);
    ASSERT_EQ(got.size(), infs.size());
    for (std::size_t i = 0; i < infs.size(); ++i) {
      EXPECT_EQ(got[i].inferred_len, infs[i].inferred_len);
      EXPECT_EQ(got[i].changes, infs[i].changes);
    }
  }
  ASSERT_EQ(a.pools().size(), full.pools().size());
  for (const auto& [asn, infs] : full.pools()) {
    const auto& got = a.pools().at(asn);
    ASSERT_EQ(got.size(), infs.size());
    for (std::size_t i = 0; i < infs.size(); ++i) {
      EXPECT_EQ(got[i].pool_len, infs[i].pool_len);
      EXPECT_EQ(got[i].coverage, infs[i].coverage);
    }
  }
}

TEST(MergeAnalyzers, SanitizerStatsHalvesEqualFull) {
  auto isps = simnet::paper_isps();
  isps.resize(2);
  bgp::Rib rib;
  simnet::announce_all(isps, rib);
  atlas::AtlasConfig cfg;
  cfg.probe_scale = 0.05;
  cfg.window_hours = 6000;
  cfg.seed = 42;
  atlas::AtlasSimulator sim(isps, cfg);
  core::Sanitizer full(rib, {}), a(rib, {}), b(rib, {});
  std::size_t half = sim.probe_count() / 2;
  for (std::size_t i = 0; i < sim.probe_count(); ++i) {
    auto obs = core::from_series(sim.series_for(i));
    full.sanitize(obs);
    (i < half ? a : b).sanitize(obs);
  }
  a.merge(std::move(b));
  const auto& fs = full.stats();
  const auto& as = a.stats();
  EXPECT_EQ(as.probes_seen, fs.probes_seen);
  EXPECT_EQ(as.probes_kept, fs.probes_kept);
  EXPECT_EQ(as.virtual_probes, fs.virtual_probes);
  EXPECT_EQ(as.split_probes, fs.split_probes);
  EXPECT_EQ(as.dropped_short, fs.dropped_short);
  EXPECT_EQ(as.dropped_bad_tag, fs.dropped_bad_tag);
  EXPECT_EQ(as.dropped_public_src, fs.dropped_public_src);
  EXPECT_EQ(as.dropped_v6_mismatch, fs.dropped_v6_mismatch);
  EXPECT_EQ(as.dropped_multihomed, fs.dropped_multihomed);
  EXPECT_EQ(as.test_address_records, fs.test_address_records);
}

// Works for any mix of CdnAnalyzer and CdnSnapshot (same accessor surface).
template <typename A, typename B>
void expect_eq_cdn(const A& a, const B& b) {
  ASSERT_EQ(a.by_asn().size(), b.by_asn().size());
  for (const auto& [asn, stats] : b.by_asn()) {
    const auto& got = a.by_asn().at(asn);
    EXPECT_EQ(got.mobile, stats.mobile);
    EXPECT_EQ(got.registry, stats.registry);
    EXPECT_EQ(got.durations_days, stats.durations_days);
    EXPECT_EQ(got.tuples, stats.tuples);
    EXPECT_EQ(got.mismatched, stats.mismatched);
    EXPECT_EQ(got.unique_64s, stats.unique_64s);
  }
  ASSERT_EQ(a.registry_durations().size(), b.registry_durations().size());
  for (const auto& [cls, durations] : b.registry_durations())
    EXPECT_EQ(a.registry_durations().at(cls), durations);
  EXPECT_EQ(a.degrees(), b.degrees());
  ASSERT_EQ(a.zero_counts().size(), b.zero_counts().size());
  for (const auto& [cls, counts] : b.zero_counts())
    EXPECT_EQ(a.zero_counts().at(cls).counts, counts.counts);
  EXPECT_EQ(a.total_tuples(), b.total_tuples());
  EXPECT_EQ(a.total_mismatched(), b.total_mismatched());
  EXPECT_EQ(a.fraction_64s_with_single_24(false),
            b.fraction_64s_with_single_24(false));
  EXPECT_EQ(a.fraction_64s_with_single_24(true),
            b.fraction_64s_with_single_24(true));
}

TEST(MergeAnalyzers, CdnAnalyzerHalvesEqualFull) {
  auto population = cdn::default_cdn_population(0.05);
  cdn::CdnConfig cfg;
  cfg.subscriber_scale = 0.05;
  cfg.seed = 99;
  cdn::CdnSimulator sim(population, cfg);
  core::AssocOptions opts;
  core::CdnAnalyzer full(opts, sim.mobile_asns()), a(opts, sim.mobile_asns()),
      b(opts, sim.mobile_asns());
  std::size_t half = sim.entry_count() / 2;
  for (std::size_t i = 0; i < sim.entry_count(); ++i) {
    auto log = sim.generate(i);
    full.add(log);
    (i < half ? a : b).add(log);
  }
  a.merge(std::move(b));
  expect_eq_cdn(a, full);
}

// --------------------------------------------------- end-to-end invariance

void expect_eq(const core::AtlasStudy& a, const core::AtlasStudy& b) {
  EXPECT_EQ(a.sanitize.probes_seen, b.sanitize.probes_seen);
  EXPECT_EQ(a.sanitize.virtual_probes, b.sanitize.virtual_probes);
  EXPECT_EQ(a.sanitize.dropped_short, b.sanitize.dropped_short);
  EXPECT_EQ(a.sanitize.dropped_multihomed, b.sanitize.dropped_multihomed);
  ASSERT_EQ(a.durations.size(), b.durations.size());
  for (const auto& [asn, stats] : b.durations)
    expect_eq(a.durations.at(asn), stats);
  ASSERT_EQ(a.spatial.size(), b.spatial.size());
  for (const auto& [asn, stats] : b.spatial)
    expect_eq(a.spatial.at(asn), stats);
  ASSERT_EQ(a.subscriber_inference.size(), b.subscriber_inference.size());
  for (const auto& [asn, infs] : b.subscriber_inference) {
    const auto& got = a.subscriber_inference.at(asn);
    ASSERT_EQ(got.size(), infs.size());
    for (std::size_t i = 0; i < infs.size(); ++i) {
      EXPECT_EQ(got[i].inferred_len, infs[i].inferred_len);
      EXPECT_EQ(got[i].changes, infs[i].changes);
    }
  }
  ASSERT_EQ(a.pool_inference.size(), b.pool_inference.size());
  for (const auto& [asn, infs] : b.pool_inference) {
    const auto& got = a.pool_inference.at(asn);
    ASSERT_EQ(got.size(), infs.size());
    for (std::size_t i = 0; i < infs.size(); ++i) {
      EXPECT_EQ(got[i].pool_len, infs[i].pool_len);
      EXPECT_EQ(got[i].coverage, infs[i].coverage);
    }
  }
  EXPECT_EQ(a.as_names, b.as_names);
}

TEST(PipelineInvariance, AtlasStudyIdenticalAcrossThreadCounts) {
  core::AtlasStudyConfig cfg;
  cfg.atlas.probe_scale = 0.05;
  cfg.atlas.window_hours = 6000;
  cfg.atlas.seed = 7;
  auto isps = simnet::paper_isps();
  isps.resize(3);

  cfg.threads = 1;
  auto serial = core::run_atlas_study(isps, cfg);
  cfg.threads = 4;
  auto sharded = core::run_atlas_study(isps, cfg);
  expect_eq(sharded, serial);
}

TEST(PipelineInvariance, CdnStudyIdenticalAcrossThreadCounts) {
  core::CdnStudyConfig cfg;
  cfg.cdn.subscriber_scale = 0.05;
  cfg.cdn.seed = 13;
  auto population = cdn::default_cdn_population(0.05);

  cfg.threads = 1;
  auto serial = core::run_cdn_study(population, cfg);
  cfg.threads = 4;
  auto sharded = core::run_cdn_study(population, cfg);
  expect_eq_cdn(sharded.analyzer, serial.analyzer);
  EXPECT_EQ(sharded.asn_names, serial.asn_names);
}


// ------------------------------------------------------- chunk scheduler
//
// Every pass cuts each round into cost-ordered chunks and folds them back
// into the checkpoint ranges in index order. Whatever the schedule, the
// CSVs and every range's shard state must be those of a serial run.

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

std::string atlas_csv(const core::AtlasStudy& s) {
  std::ostringstream os;
  io::write_duration_curves_csv(os, s);
  io::write_cpl_csv(os, s);
  io::write_bgp_moves_csv(os, s);
  io::write_inference_csv(os, s);
  return os.str();
}

std::string cdn_csv(const core::CdnStudy& s) {
  std::ostringstream os;
  io::write_assoc_durations_csv(os, s);
  io::write_degrees_csv(os, s);
  io::write_zero_boundaries_csv(os, s);
  return os.str();
}

constexpr unsigned kThreadCounts[] = {1, 2, 3, 4, 7};

// One network with ~50x the subscribers of each other one: its log costs
// more than all the rest together, the case cost ordering exists for.
std::vector<cdn::PopulationEntry> skewed_population() {
  auto population = cdn::default_cdn_population(0.05);
  std::size_t big = 0;
  for (std::size_t i = 0; i < population.size(); ++i)
    if (population[i].subscribers > population[big].subscribers) big = i;
  for (std::size_t i = 0; i < population.size(); ++i)
    if (i != big)
      population[i].subscribers =
          std::max(1, population[big].subscribers / 50);
  return population;
}

core::CdnStudyConfig skewed_config(unsigned threads) {
  core::CdnStudyConfig cfg;
  cfg.cdn.subscriber_scale = 0.05;
  cfg.cdn.days = 40;
  cfg.cdn.seed = 21;
  cfg.threads = threads;
  return cfg;
}

TEST(ChunkScheduler, SkewedCdnGeneratorMatchesSerial) {
  const auto population = skewed_population();
  const auto serial = core::run_cdn_study(population, skewed_config(1));
  for (unsigned threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto study = core::run_cdn_study(population, skewed_config(threads));
    expect_eq_cdn(study.analyzer, serial.analyzer);
    EXPECT_EQ(cdn_csv(study), cdn_csv(serial));
  }
}

TEST(ChunkScheduler, SkewedCdnLoadedMatchesSerial) {
  const auto population = skewed_population();
  const auto config = skewed_config(1);
  cdn::CdnSimulator sim(population, config.cdn);
  std::vector<cdn::AssociationLog> logs;
  for (std::size_t i = 0; i < sim.entry_count(); ++i)
    logs.push_back(sim.generate(i));
  const std::string input = temp_path("skewed_assoc.csv");
  {
    io::AtomicFileWriter out(input);
    ASSERT_TRUE(out.ok());
    io::write_assoc_dataset(out.stream(), logs);
    ASSERT_TRUE(out.commit().ok());
  }
  core::CdnFileStudyConfig cfg;
  for (const auto& entry : population) {
    if (entry.isp.mobile) cfg.mobile_asns.insert(entry.isp.asn);
    cfg.registries[entry.isp.asn] = entry.isp.registry;
  }
  cfg.threads = 1;
  auto serial = core::run_cdn_study_from_files({input}, cfg);
  ASSERT_TRUE(serial.ok()) << serial.status().to_string();
  for (unsigned threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    cfg.threads = threads;
    auto study = core::run_cdn_study_from_files({input}, cfg);
    ASSERT_TRUE(study.ok()) << study.status().to_string();
    expect_eq_cdn(study->analyzer, serial->analyzer);
    EXPECT_EQ(cdn_csv(*study), cdn_csv(*serial));
  }
  std::filesystem::remove(input);
}

/// The schedule-independent part of a completed checkpoint: its item count
/// and every range's bounds, progress and shard blob. The supervisor blob
/// is left out; it carries checkpoint-write timings.
using ShardTable =
    std::vector<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                           std::uint64_t, std::string>>;

ShardTable shard_table(const std::string& path) {
  auto ck = io::read_checkpoint(path);
  EXPECT_TRUE(ck.ok()) << ck.status().to_string();
  ShardTable out;
  if (!ck.ok()) return out;
  for (const auto& shard : ck->shards) {
    EXPECT_EQ(shard.next, shard.end) << path << " is not complete";
    out.emplace_back(ck->item_count, shard.begin, shard.end, shard.next,
                     shard.blob);
  }
  return out;
}

/// Drive `run(threads, cc)` (an Expected<Study>) through one edge plan:
///  * a one-shot run, checkpointing every `every` items when nonzero, must
///    give the threads-1 CSVs;
///  * each half of a `--shard i/2` run is first interrupted after one
///    round at `layout_threads` (fixing its range layout), then resumed to
///    completion; the completed checkpoint must hold the shard state the
///    threads-1 resume wrote;
///  * resuming the combined halves must give the threads-1 CSVs again.
template <typename Run, typename Csv>
void expect_plan_matches_serial(const std::string& name, unsigned layout_threads,
                                std::uint64_t every, Run&& run, Csv&& csv) {
  auto one_shot = run(1u, core::CheckpointConfig{});
  ASSERT_TRUE(one_shot.ok()) << one_shot.status().to_string();
  const std::string reference = csv(*one_shot);

  std::vector<std::string> layout_paths;
  std::vector<io::StudyCheckpoint> layouts;
  for (std::uint32_t index = 0; index < 2; ++index) {
    const std::string path =
        temp_path(name + "_layout" + std::to_string(index) + ".ckpt");
    io::remove_checkpoint_files(path);
    core::ShutdownToken token;
    token.request();
    core::CheckpointConfig cc;
    cc.every_items = every;
    cc.path = path;
    cc.token = &token;
    cc.shard_index = index;
    cc.shard_count = 2;
    auto first = run(layout_threads, cc);
    ASSERT_TRUE(first.ok() ||
                first.status().code() == core::StatusCode::kCancelled)
        << first.status().to_string();
    auto ck = io::read_checkpoint(path);
    ASSERT_TRUE(ck.ok()) << ck.status().to_string();
    layouts.push_back(std::move(*ck));
    layout_paths.push_back(path);
  }

  std::vector<ShardTable> serial_tables;
  for (unsigned threads : kThreadCounts) {
    SCOPED_TRACE(name + " threads=" + std::to_string(threads));
    const std::string ckpt = temp_path(name + "_run.ckpt");
    io::remove_checkpoint_files(ckpt);
    core::CheckpointConfig cc;
    cc.every_items = every;
    if (every) cc.path = ckpt;
    auto supervised = run(threads, cc);
    ASSERT_TRUE(supervised.ok()) << supervised.status().to_string();
    EXPECT_EQ(csv(*supervised), reference);

    std::vector<std::string> done_paths;
    for (std::uint32_t index = 0; index < 2; ++index) {
      const std::string path =
          temp_path(name + "_done" + std::to_string(index) + ".ckpt");
      io::remove_checkpoint_files(path);
      core::CheckpointConfig resume;
      resume.every_items = every;
      resume.path = path;
      resume.resume = &layouts[index];
      resume.shard_index = index;
      resume.shard_count = 2;
      auto half = run(threads, resume);
      ASSERT_TRUE(half.ok()) << half.status().to_string();
      ShardTable table = shard_table(path);
      if (threads == 1)
        serial_tables.push_back(table);
      else
        EXPECT_TRUE(table == serial_tables[index]) << "shard " << index;
      done_paths.push_back(path);
    }

    auto combined = io::combine_shard_checkpoints(done_paths);
    ASSERT_TRUE(combined.ok()) << combined.status().to_string();
    core::CheckpointConfig merge;
    merge.resume = &*combined;
    auto merged = run(threads, merge);
    ASSERT_TRUE(merged.ok()) << merged.status().to_string();
    EXPECT_EQ(csv(*merged), reference);
    for (const auto& path : done_paths) io::remove_checkpoint_files(path);
    io::remove_checkpoint_files(ckpt);
  }
  for (const auto& path : layout_paths) io::remove_checkpoint_files(path);
}

core::AtlasStudyConfig edge_atlas_config(unsigned threads) {
  core::AtlasStudyConfig cfg;
  cfg.atlas.probe_scale = 0.05;
  cfg.atlas.window_hours = 6000;
  cfg.atlas.seed = 7;
  cfg.threads = threads;
  return cfg;
}

auto cdn_runner(std::vector<cdn::PopulationEntry> population) {
  return [population](unsigned threads, const core::CheckpointConfig& cc) {
    core::CdnStudyConfig cfg;
    cfg.cdn.subscriber_scale = 0.05;
    cfg.cdn.days = 40;
    cfg.cdn.seed = 13;
    cfg.threads = threads;
    return core::run_cdn_study_supervised(population, cfg, cc);
  };
}

auto atlas_runner() {
  auto isps = simnet::paper_isps();
  isps.resize(3);
  return [isps](unsigned threads, const core::CheckpointConfig& cc) {
    return core::run_atlas_study_supervised(isps, edge_atlas_config(threads),
                                            cc);
  };
}

TEST(ChunkScheduler, ZeroItemsMatchSerial) {
  expect_plan_matches_serial("zero_items", 4, 0, cdn_runner({}), cdn_csv);
}

TEST(ChunkScheduler, FewerItemsThanThreadsMatchSerial) {
  auto population = cdn::default_cdn_population(0.05);
  population.resize(3);
  expect_plan_matches_serial("few_items", 4, 0, cdn_runner(population),
                             cdn_csv);
}

TEST(ChunkScheduler, CheckpointEveryThreeItemsMatchesSerial) {
  expect_plan_matches_serial("every_three", 4, 3, atlas_runner(), atlas_csv);
}

TEST(ChunkScheduler, TwoRangeCheckpointResumedAtFourThreadsMatchesSerial) {
  expect_plan_matches_serial("two_ranges", 2, 5, atlas_runner(), atlas_csv);
}

}  // namespace
}  // namespace dynamips
