// test_stream.cpp — the streaming incremental pipeline.
//
// Covers the re-finalizable analyzer lifecycle (add / merge / snapshot)
// and the directory-watching stream driver end to end: every analyzer's
// interleaved add+finalize+snapshot sequence must leave state byte-identical
// to a one-shot run over the same items; the stream checkpoint must carry
// the consumed-batch high-water mark; and a streamed study over batch files
// B1..Bk — at any thread count, across a resume at a different thread
// count, and across a cooperative interrupt — must produce result CSVs
// byte-identical to a one-shot file study over [B1, ..., Bk].
#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "atlas/generator.h"
#include "cdn/generator.h"
#include "core/failpoint.h"
#include "core/observations.h"
#include "core/resource.h"
#include "core/sanitize.h"
#include "io/checkpoint.h"
#include "io/columnar.h"
#include "io/results_io.h"
#include "simnet/isp.h"
#include "stats/ecdf.h"

namespace dynamips {
namespace {

namespace fs = std::filesystem;
using core::Status;
using core::StatusCode;

// ------------------------------------------------------------ test helpers

/// Fresh per-test scratch directory (removed and recreated on each call).
fs::path temp_dir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Serialize every Atlas artifact; byte equality here is the "results are
/// identical" acceptance criterion (same helper as test_ingest.cpp).
std::string atlas_signature(const core::AtlasStudy& study) {
  std::ostringstream os;
  io::write_duration_curves_csv(os, study);
  io::write_cpl_csv(os, study);
  io::write_bgp_moves_csv(os, study);
  io::write_inference_csv(os, study);
  return os.str();
}

std::string cdn_signature(const core::CdnStudy& study) {
  std::ostringstream os;
  io::write_assoc_durations_csv(os, study);
  io::write_degrees_csv(os, study);
  io::write_zero_boundaries_csv(os, study);
  return os.str();
}

template <typename A>
std::string save_bytes(const A& analyzer) {
  io::ckpt::Writer w;
  io::ckpt::save(w, analyzer);
  return w.take();
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// Shared Atlas fixture: a small generated dataset plus the CleanProbes a
// producer-side sanitizer extracts from it (the analyzer property tests
// feed those probes; the stream tests feed the raw series as batch files).
struct AtlasFixture {
  std::vector<simnet::IspProfile> isps;
  bgp::Rib rib;
  std::vector<atlas::ProbeSeries> dataset;
  std::vector<core::CleanProbe> probes;
};

const AtlasFixture& atlas_fixture() {
  static const AtlasFixture* fixture = [] {
    auto* f = new AtlasFixture;
    f->isps = simnet::paper_isps();
    f->isps.resize(3);
    atlas::AtlasConfig cfg;
    cfg.probe_scale = 0.02;
    cfg.window_hours = 3000;
    cfg.seed = 5;
    atlas::AtlasSimulator sim(f->isps, cfg);
    f->dataset.reserve(sim.probe_count());
    for (std::size_t i = 0; i < sim.probe_count(); ++i)
      f->dataset.push_back(sim.series_for(i));
    simnet::announce_all(f->isps, f->rib);
    core::Sanitizer producer(f->rib, {});
    for (const auto& series : f->dataset) {
      auto cleaned = producer.sanitize(core::from_series(series));
      f->probes.insert(f->probes.end(), cleaned.begin(), cleaned.end());
    }
    return f;
  }();
  return *fixture;
}

struct CdnFixture {
  std::vector<cdn::PopulationEntry> population;
  std::vector<cdn::AssociationLog> logs;
  std::unordered_set<bgp::Asn> mobile_asns;
};

const CdnFixture& cdn_fixture() {
  static const CdnFixture* fixture = [] {
    auto* f = new CdnFixture;
    f->population = cdn::default_cdn_population(0.02);
    cdn::CdnConfig cfg;
    cfg.subscriber_scale = 0.02;
    cfg.seed = 13;
    cdn::CdnSimulator sim(f->population, cfg);
    f->logs.reserve(sim.entry_count());
    for (std::size_t i = 0; i < sim.entry_count(); ++i)
      f->logs.push_back(sim.generate(i));
    f->mobile_asns = sim.mobile_asns();
    return f;
  }();
  return *fixture;
}

/// Split an echo dataset into `nbatches` batch files by record hour
/// (equal-width slices, same scheme as tools/stream_feed.py, which
/// AtlasStream.StreamFeedBatchesMatchOneShotSourceStudy runs) and write
/// them into `dir` with lexicographically ordered names. Returns the paths
/// in production order.
std::vector<std::string> write_atlas_batches(
    const fs::path& dir, const std::vector<atlas::ProbeSeries>& dataset,
    std::size_t nbatches) {
  std::uint64_t tmin = ~std::uint64_t(0), tmax = 0;
  for (const auto& series : dataset)
    for (const auto& r : series.records) {
      tmin = std::min<std::uint64_t>(tmin, r.hour);
      tmax = std::max<std::uint64_t>(tmax, r.hour);
    }
  const std::uint64_t span = tmax - tmin + 1;
  auto slice_of = [&](std::uint64_t t) {
    return std::min(nbatches - 1, std::size_t((t - tmin) * nbatches / span));
  };
  std::vector<std::string> paths;
  for (std::size_t b = 0; b < nbatches; ++b) {
    std::vector<atlas::ProbeSeries> slice;
    for (const auto& series : dataset) {
      atlas::ProbeSeries s;
      s.meta = series.meta;
      for (const auto& r : series.records)
        if (slice_of(r.hour) == b) s.records.push_back(r);
      if (!s.records.empty()) slice.push_back(std::move(s));
    }
    char name[32];
    std::snprintf(name, sizeof name, "batch-%03zu.csv", b);
    std::ofstream out(dir / name, std::ios::binary);
    io::write_echo_dataset(out, slice);
    paths.push_back((dir / name).string());
  }
  return paths;
}

/// Association-side analog: split by record day.
std::vector<std::string> write_cdn_batches(
    const fs::path& dir, const std::vector<cdn::AssociationLog>& logs,
    std::size_t nbatches) {
  std::uint32_t tmin = ~std::uint32_t(0), tmax = 0;
  for (const auto& log : logs)
    for (const auto& r : log.records) {
      tmin = std::min(tmin, r.day);
      tmax = std::max(tmax, r.day);
    }
  const std::uint64_t span = std::uint64_t(tmax) - tmin + 1;
  auto slice_of = [&](std::uint32_t t) {
    return std::min(nbatches - 1,
                    std::size_t(std::uint64_t(t - tmin) * nbatches / span));
  };
  std::vector<std::string> paths;
  for (std::size_t b = 0; b < nbatches; ++b) {
    std::vector<cdn::AssociationLog> slice;
    for (const auto& log : logs) {
      cdn::AssociationLog l;
      l.asn = log.asn;
      l.mobile = log.mobile;
      l.registry = log.registry;
      for (const auto& r : log.records)
        if (slice_of(r.day) == b) l.records.push_back(r);
      if (!l.records.empty()) slice.push_back(std::move(l));
    }
    char name[32];
    std::snprintf(name, sizeof name, "batch-%03zu.csv", b);
    std::ofstream out(dir / name, std::ios::binary);
    io::write_assoc_dataset(out, slice);
    paths.push_back((dir / name).string());
  }
  return paths;
}

void drop_sentinel(const fs::path& dir, const std::string& name) {
  std::ofstream(dir / name, std::ios::binary).put('\n');
}

core::CdnFileStudyConfig cdn_file_config(unsigned threads) {
  const CdnFixture& fx = cdn_fixture();
  core::CdnFileStudyConfig cfg;
  cfg.threads = threads;
  cfg.mobile_asns = fx.mobile_asns;
  for (const auto& entry : fx.population) {
    cfg.registries[entry.isp.asn] = entry.isp.registry;
    cfg.asn_names[entry.isp.asn] = entry.isp.name;
  }
  return cfg;
}

// ------------------------------------------- re-finalizable accumulators

TEST(EcdfRefinalize, IncrementalFinalizeMatchesOneShot) {
  // Deterministic sample stream (LCG), added in windows with a finalize()
  // after each window — the streaming access pattern.
  std::vector<double> samples;
  std::uint64_t state = 42;
  for (int i = 0; i < 5000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    samples.push_back(double(state >> 11) / double(1ull << 53));
  }

  stats::Ecdf inc, once;
  const std::size_t kWindows = 7;
  const std::size_t per = (samples.size() + kWindows - 1) / kWindows;
  for (std::size_t b = 0; b < kWindows; ++b) {
    const std::size_t lo = b * per;
    const std::size_t hi = std::min(samples.size(), lo + per);
    for (std::size_t i = lo; i < hi; ++i) inc.add(samples[i]);
    inc.finalize();
    ASSERT_TRUE(inc.finalized());
  }
  for (double s : samples) once.add(s);
  once.finalize();

  // The incremental tail-sort + inplace_merge must land on the identical
  // sorted buffer a single full sort produces.
  EXPECT_EQ(inc.samples(), once.samples());
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0})
    EXPECT_EQ(inc.quantile(q), once.quantile(q)) << "q=" << q;
  for (double x : {0.0, 0.05, 0.33, 0.5, 0.77, 1.0})
    EXPECT_EQ(inc.at(x), once.at(x)) << "x=" << x;
}

TEST(EcdfRefinalize, UnfinalizedQueriesAreExact) {
  stats::Ecdf e;
  for (double s : {0.9, 0.1, 0.5, 0.3, 0.7}) e.add(s);
  e.finalize();
  e.add(0.2);  // unsorted tail past the watermark
  e.add(0.8);
  ASSERT_FALSE(e.finalized());
  stats::Ecdf ref = e;
  ref.finalize();
  // Queries on the unfinalized accumulator fall back to exact linear /
  // copy-sort paths — same answers, no mutation.
  EXPECT_EQ(e.at(0.45), ref.at(0.45));
  EXPECT_EQ(e.quantile(0.5), ref.quantile(0.5));
  EXPECT_FALSE(e.finalized());
  e.finalize();
  EXPECT_EQ(e.samples(), ref.samples());
}

/// Interleaved add+finalize+snapshot windows must leave an analyzer's
/// serialized state byte-identical to one-shot feeding, and snapshot() must
/// never consume (state unchanged across repeated snapshots).
template <typename Item, typename MakeFn, typename FeedFn>
void check_incremental_bytes(const std::vector<Item>& items, MakeFn make,
                             FeedFn feed) {
  ASSERT_FALSE(items.empty());
  auto inc = make();
  auto once = make();
  const std::size_t kWindows = 4;
  const std::size_t per = (items.size() + kWindows - 1) / kWindows;
  for (std::size_t b = 0; b < kWindows; ++b) {
    const std::size_t lo = b * per;
    const std::size_t hi = std::min(items.size(), lo + per);
    for (std::size_t i = lo; i < hi; ++i) feed(inc, items[i]);
    inc.finalize();
    (void)inc.snapshot();
  }
  for (const auto& item : items) feed(once, item);
  once.finalize();
  EXPECT_EQ(save_bytes(inc), save_bytes(once));

  const std::string before = save_bytes(inc);
  (void)inc.snapshot();
  (void)inc.snapshot();
  EXPECT_EQ(save_bytes(inc), before);
}

TEST(AnalyzerRefinalize, SanitizerAccountingMatchesOneShot) {
  const AtlasFixture& fx = atlas_fixture();
  check_incremental_bytes(
      fx.dataset,
      [&] { return core::Sanitizer(fx.rib, core::SanitizeOptions{}); },
      [](core::Sanitizer& a, const atlas::ProbeSeries& s) {
        a.sanitize(core::from_series(s));
      });
}

TEST(AnalyzerRefinalize, DurationAnalyzerMatchesOneShot) {
  const AtlasFixture& fx = atlas_fixture();
  check_incremental_bytes(
      fx.probes, [] { return core::DurationAnalyzer(core::ChangeOptions{}); },
      [](core::DurationAnalyzer& a, const core::CleanProbe& p) { a.add(p); });
}

TEST(AnalyzerRefinalize, SpatialAnalyzerMatchesOneShot) {
  const AtlasFixture& fx = atlas_fixture();
  check_incremental_bytes(
      fx.probes, [&] { return core::SpatialAnalyzer(fx.rib); },
      [](core::SpatialAnalyzer& a, const core::CleanProbe& p) { a.add(p); });
}

TEST(AnalyzerRefinalize, InferenceCollectorMatchesOneShot) {
  const AtlasFixture& fx = atlas_fixture();
  check_incremental_bytes(
      fx.probes, [] { return core::InferenceCollector(); },
      [](core::InferenceCollector& a, const core::CleanProbe& p) { a.add(p); });
}

TEST(AnalyzerRefinalize, CdnAnalyzerMatchesOneShot) {
  const CdnFixture& fx = cdn_fixture();
  check_incremental_bytes(
      fx.logs,
      [&] { return core::CdnAnalyzer(core::AssocOptions{}, fx.mobile_asns); },
      [](core::CdnAnalyzer& a, const cdn::AssociationLog& l) { a.add(l); });
}

void expect_ttf_eq(const stats::TotalTimeFraction& a,
                   const stats::TotalTimeFraction& b) {
  EXPECT_EQ(a.total_hours(), b.total_hours());
  EXPECT_EQ(a.total_count(), b.total_count());
  static constexpr std::uint64_t kGrid[] = {1, 6, 24, 72, 168, 720, 2160};
  EXPECT_EQ(a.cumulative(kGrid), b.cumulative(kGrid));
}

// EvolutionAnalyzer has no checkpoint serialization (it is not part of the
// supervised one-shot studies), so compare the snapshot maps structurally.
TEST(AnalyzerRefinalize, EvolutionAnalyzerMatchesOneShot) {
  const AtlasFixture& fx = atlas_fixture();
  core::EvolutionAnalyzer inc, once;
  const std::size_t kWindows = 4;
  const std::size_t per = (fx.probes.size() + kWindows - 1) / kWindows;
  for (std::size_t b = 0; b < kWindows; ++b) {
    const std::size_t lo = b * per;
    const std::size_t hi = std::min(fx.probes.size(), lo + per);
    for (std::size_t i = lo; i < hi; ++i) inc.add(fx.probes[i]);
    inc.finalize();
    (void)inc.snapshot();
  }
  for (const auto& p : fx.probes) once.add(p);
  once.finalize();

  const auto got = inc.snapshot();
  const auto want = once.snapshot();
  ASSERT_FALSE(want.empty());
  ASSERT_EQ(got.size(), want.size());
  for (auto gi = got.begin(), wi = want.begin(); gi != got.end(); ++gi, ++wi) {
    EXPECT_EQ(gi->first, wi->first);
    expect_ttf_eq(gi->second.v4_nds, wi->second.v4_nds);
    expect_ttf_eq(gi->second.v4_ds, wi->second.v4_ds);
    expect_ttf_eq(gi->second.v6, wi->second.v6);
  }
  // snapshot() must not consume: a second snapshot is identical.
  const auto again = inc.snapshot();
  EXPECT_EQ(again.size(), got.size());
}

TEST(AnalyzerRefinalize, TrackingAnalyzerMatchesOneShot) {
  const AtlasFixture& fx = atlas_fixture();
  core::TrackingAnalyzer inc, once;
  const std::size_t kWindows = 4;
  const std::size_t per = (fx.probes.size() + kWindows - 1) / kWindows;
  for (std::size_t b = 0; b < kWindows; ++b) {
    const std::size_t lo = b * per;
    const std::size_t hi = std::min(fx.probes.size(), lo + per);
    for (std::size_t i = lo; i < hi; ++i) inc.add(fx.probes[i]);
    inc.finalize();
    (void)inc.snapshot();
  }
  for (const auto& p : fx.probes) once.add(p);
  once.finalize();

  const auto got = inc.snapshot();
  const auto want = once.snapshot();
  ASSERT_EQ(got.size(), want.size());
  for (auto gi = got.begin(), wi = want.begin(); gi != got.end(); ++gi, ++wi) {
    EXPECT_EQ(gi->first, wi->first);
    EXPECT_EQ(gi->second.probes, wi->second.probes);
    EXPECT_EQ(gi->second.eui64_probes, wi->second.eui64_probes);
    EXPECT_EQ(gi->second.devices, wi->second.devices);
    EXPECT_EQ(gi->second.eui64_devices, wi->second.eui64_devices);
    EXPECT_EQ(gi->second.cross_network_tracked,
              wi->second.cross_network_tracked);
    EXPECT_EQ(gi->second.eui64_tracked_days, wi->second.eui64_tracked_days);
  }
}

// -------------------------------------------------- stream checkpointing

TEST(StreamCheckpoint, RoundTripCarriesConsumedBatches) {
  io::StudyCheckpoint ck;
  ck.kind = io::kCkptAtlasStream;
  ck.config_fingerprint = 0xfeedfacecafef00dull;
  ck.item_count = 2;
  ck.shards.push_back({0, 2, 2, ""});
  ck.supervisor_blob = "stream-sink";
  ck.consumed = {"batch-000.csv", "batch-001.csv"};
  ck.journal = {{1000, 0x11223344u}, {2500, 0x55667788u}};

  const std::string bytes = io::encode_checkpoint(ck);
  auto back = io::decode_checkpoint(bytes);
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back->kind, io::kCkptAtlasStream);
  EXPECT_TRUE(io::is_stream_checkpoint_kind(back->kind));
  EXPECT_EQ(back->config_fingerprint, ck.config_fingerprint);
  EXPECT_EQ(back->item_count, 2u);
  ASSERT_EQ(back->shards.size(), 1u);
  EXPECT_TRUE(back->shards[0].blob.empty());
  EXPECT_EQ(back->supervisor_blob, "stream-sink");
  EXPECT_EQ(back->consumed, ck.consumed);
  EXPECT_EQ(back->journal, ck.journal);
  EXPECT_EQ(back->journal_length(), 3500u);

  // A journal table that does not list one segment per consumed batch is
  // a corrupt manifest.
  ck.journal.pop_back();
  auto short_table = io::decode_checkpoint(io::encode_checkpoint(ck));
  ASSERT_FALSE(short_table.ok());
  EXPECT_EQ(short_table.status().code(), StatusCode::kDataLoss);
}

TEST(StreamCheckpoint, OneShotKindsOmitTheBatchSection) {
  io::StudyCheckpoint ck;
  ck.kind = io::kCkptAtlasFile;
  ck.config_fingerprint = 7;
  ck.item_count = 1;
  ck.shards.push_back({0, 1, 1, "blob"});
  auto back = io::decode_checkpoint(io::encode_checkpoint(ck));
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_FALSE(io::is_stream_checkpoint_kind(back->kind));
  EXPECT_TRUE(back->consumed.empty());
}

// ------------------------------------------------------- batch ordering

TEST(BatchOrdering, NaturalNameLessComparesDigitRunsNumerically) {
  // The regression that blocked billion-tuple runs: once a feed outgrows
  // its zero-pad width, lexicographic order replays batch-1000 before
  // batch-999. Digit runs must compare by numeric value.
  EXPECT_TRUE(core::natural_name_less("batch-999.csv", "batch-1000.csv"));
  EXPECT_FALSE(core::natural_name_less("batch-1000.csv", "batch-999.csv"));
  EXPECT_TRUE(core::natural_name_less("batch-2.csv", "batch-10.csv"));
  EXPECT_TRUE(core::natural_name_less("batch-9.col", "batch-10.col"));
  // Irreflexive and consistent on equal names (strict weak ordering).
  EXPECT_FALSE(core::natural_name_less("batch-007.csv", "batch-007.csv"));
  // Leading zeros: equal values tie-break toward the shorter digit run so
  // the order stays strict; either way 2 < 3 regardless of padding.
  EXPECT_TRUE(core::natural_name_less("batch-2.csv", "batch-002.csv"));
  EXPECT_FALSE(core::natural_name_less("batch-002.csv", "batch-2.csv"));
  EXPECT_TRUE(core::natural_name_less("batch-002.csv", "batch-3.csv"));
  EXPECT_TRUE(core::natural_name_less("batch-2.csv", "batch-003.csv"));
  // Non-digit segments still compare bytewise; digits sort before letters.
  EXPECT_TRUE(core::natural_name_less("alpha.csv", "beta.csv"));
  EXPECT_TRUE(core::natural_name_less("batch-10.csv", "batch-a.csv"));
  // Multiple digit runs: earliest differing run decides.
  EXPECT_TRUE(
      core::natural_name_less("day2-batch-100.csv", "day10-batch-1.csv"));
  EXPECT_TRUE(
      core::natural_name_less("day2-batch-9.csv", "day2-batch-10.csv"));
  // Prefix of the other sorts first.
  EXPECT_TRUE(core::natural_name_less("batch", "batch-1.csv"));
  // Transitivity over a mixed-width sequence: std::sort must be safe.
  std::vector<std::string> names = {"batch-1000.csv", "batch-2.csv",
                                    "batch-999.csv", "batch-10.csv",
                                    "batch-0.csv"};
  std::sort(names.begin(), names.end(),
            [](const std::string& a, const std::string& b) {
              return core::natural_name_less(a, b);
            });
  EXPECT_EQ(names,
            (std::vector<std::string>{"batch-0.csv", "batch-2.csv",
                                      "batch-10.csv", "batch-999.csv",
                                      "batch-1000.csv"}));
}

TEST(BatchOrdering, MixedWidthNamesConsumeInProductionOrder) {
  // End-to-end regression: batches whose numeric suffixes outgrow the pad
  // width must be consumed in production (numeric) order. Lexicographic
  // order here would be batch-10, batch-1000, batch-2, batch-999 — a
  // different merge order, and a checkpoint `consumed` list that replays
  // the tail before the middle on resume.
  const AtlasFixture& fx = atlas_fixture();
  const fs::path watch = temp_dir("stream_natural_order_watch");
  const fs::path ckdir = temp_dir("stream_natural_order_ckpt");
  const std::string ckpt = (ckdir / "study.ckpt").string();
  const auto padded = write_atlas_batches(watch, fx.dataset, 4);
  const std::vector<std::string> names = {"batch-2.csv", "batch-10.csv",
                                          "batch-999.csv", "batch-1000.csv"};
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < padded.size(); ++i) {
    fs::rename(padded[i], watch / names[i]);
    paths.push_back((watch / names[i]).string());
  }

  // Reference: the one-shot study over the batches in production order.
  core::AtlasFileStudyConfig ref_cfg;
  ref_cfg.threads = 1;
  auto ref = core::run_atlas_study_from_files(paths, fx.isps, ref_cfg);
  ASSERT_TRUE(ref.ok()) << ref.status().to_string();
  const std::string want = atlas_signature(*ref);

  // Phase 1: consume exactly two batches. The checkpoint must record the
  // numerically first two, not the lexicographically first two.
  {
    core::AtlasFileStudyConfig cfg;
    cfg.threads = 1;
    core::StreamConfig stream;
    stream.max_batches = 2;
    stream.checkpoint_path = ckpt;
    core::StreamStats stats;
    auto study = core::StreamDriver(cfg.threads).follow_atlas(
        watch.string(), fx.isps, cfg, stream, {}, nullptr, &stats);
    ASSERT_TRUE(study.ok()) << study.status().to_string();
    EXPECT_EQ(stats.batches, 2u);
  }
  auto ck = io::read_checkpoint(ckpt);
  ASSERT_TRUE(ck.ok()) << ck.status().to_string();
  ASSERT_EQ(ck->consumed.size(), 2u);
  EXPECT_EQ(ck->consumed[0], "batch-2.csv");
  EXPECT_EQ(ck->consumed[1], "batch-10.csv");

  // Phase 2: resume past the high-water mark. Only batch-999 and
  // batch-1000 replay — in that order — and the final study matches the
  // one-shot reference byte for byte.
  drop_sentinel(watch, "stream.stop");
  {
    core::AtlasFileStudyConfig cfg;
    cfg.threads = 1;
    core::StreamConfig stream;
    stream.checkpoint_path = ckpt;
    stream.resume = &*ck;
    core::StreamStats stats;
    auto study = core::StreamDriver(cfg.threads).follow_atlas(
        watch.string(), fx.isps, cfg, stream, {}, nullptr, &stats);
    ASSERT_TRUE(study.ok()) << study.status().to_string();
    EXPECT_EQ(stats.batches, 4u);
    EXPECT_EQ(atlas_signature(*study), want);
  }
  auto done = io::read_checkpoint(ckpt);
  ASSERT_TRUE(done.ok()) << done.status().to_string();
  EXPECT_EQ(done->consumed,
            (std::vector<std::string>{"batch-2.csv", "batch-10.csv",
                                      "batch-999.csv", "batch-1000.csv"}));
}

TEST(BatchOrdering, ColumnarBatchesMixFreelyWithCsvInOneStream) {
  // The stream driver dispatches per file: `.col` batches ride alongside
  // `.csv` in the same watch directory and land on the same bytes.
  const AtlasFixture& fx = atlas_fixture();
  const fs::path watch = temp_dir("stream_mixed_col_watch");
  const auto paths = write_atlas_batches(watch, fx.dataset, 4);

  core::AtlasFileStudyConfig ref_cfg;
  ref_cfg.threads = 1;
  auto ref = core::run_atlas_study_from_files(paths, fx.isps, ref_cfg);
  ASSERT_TRUE(ref.ok()) << ref.status().to_string();
  const std::string want = atlas_signature(*ref);

  // Re-encode every other batch as columnar, keeping its batch number.
  for (std::size_t i = 0; i < paths.size(); i += 2) {
    auto part = io::load_echo_file(paths[i]);
    ASSERT_TRUE(part.ok()) << part.status().to_string();
    fs::path col = fs::path(paths[i]).replace_extension(".col");
    ASSERT_TRUE(io::write_echo_columnar(col.string(), *part).ok());
    fs::remove(paths[i]);
  }
  drop_sentinel(watch, "stream.stop");

  core::AtlasFileStudyConfig cfg;
  cfg.threads = 2;
  core::StreamConfig stream;
  core::StreamStats stats;
  auto study = core::StreamDriver(cfg.threads).follow_atlas(
      watch.string(), fx.isps, cfg, stream, {}, nullptr, &stats);
  ASSERT_TRUE(study.ok()) << study.status().to_string();
  EXPECT_EQ(stats.batches, 4u);
  EXPECT_EQ(atlas_signature(*study), want);
}

// ------------------------------------------------- streaming end to end

TEST(AtlasStream, MatchesOneShotAtAnyThreadCount) {
  const AtlasFixture& fx = atlas_fixture();
  const fs::path watch = temp_dir("stream_atlas_watch");
  const auto paths = write_atlas_batches(watch, fx.dataset, 4);
  drop_sentinel(watch, "stream.stop");

  // Reference: the one-shot file study over the same batches in order.
  core::AtlasFileStudyConfig ref_cfg;
  ref_cfg.threads = 1;
  auto ref = core::run_atlas_study_from_files(paths, fx.isps, ref_cfg);
  ASSERT_TRUE(ref.ok()) << ref.status().to_string();
  const std::string want = atlas_signature(*ref);

  for (unsigned threads : {1u, 4u}) {
    core::AtlasFileStudyConfig cfg;
    cfg.threads = threads;
    core::StreamConfig stream;
    stream.refinalize_every_batches = 2;
    std::uint64_t windowed = 0;
    std::string mid_signature;
    core::StreamStats stats;
    auto study = core::StreamDriver(cfg.threads).follow_atlas(
        watch.string(), fx.isps, cfg, stream,
        [&](const core::AtlasStudy& snap, const core::StreamStats& at) {
          ++windowed;
          EXPECT_GT(at.batches, 0u);
          mid_signature = atlas_signature(snap);
        },
        nullptr, &stats);
    ASSERT_TRUE(study.ok()) << study.status().to_string();
    EXPECT_EQ(atlas_signature(*study), want) << "threads=" << threads;
    EXPECT_EQ(stats.batches, 4u);
    EXPECT_GT(stats.records, 0u);
    // Windowed re-finalizations after batches 2 and 4, plus the final pass.
    EXPECT_EQ(windowed, 2u);
    EXPECT_EQ(stats.refinalizes, 3u);
    // The last windowed snapshot saw all four batches, so it already equals
    // the final study: snapshots never consume the accumulators.
    EXPECT_EQ(mid_signature, want);
  }
}

// The producer the CI soaks run: tools/stream_feed.py slices an exported
// echo CSV into batch files and drops the stop sentinel. Following those
// batches must give the study the source file gives in one shot.
TEST(AtlasStream, StreamFeedBatchesMatchOneShotSourceStudy) {
  if (std::system("python3 --version > /dev/null 2>&1") != 0)
    GTEST_SKIP() << "python3 not on PATH";
  const AtlasFixture& fx = atlas_fixture();
  const fs::path dir = temp_dir("stream_feed_source");
  const fs::path source = dir / "echo.csv";
  {
    std::ofstream out(source, std::ios::binary);
    io::write_echo_dataset(out, fx.dataset);
  }
  const fs::path watch = dir / "watch";
  const std::string cmd =
      "PYTHONDONTWRITEBYTECODE=1 python3 '" +
      (fs::path(DYNAMIPS_TOOLS_DIR) / "stream_feed.py").string() + "' '" +
      source.string() + "' '" + watch.string() +
      "' --kind echo --batches 5 > /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  core::AtlasFileStudyConfig ref_cfg;
  ref_cfg.threads = 1;
  auto ref =
      core::run_atlas_study_from_files({source.string()}, fx.isps, ref_cfg);
  ASSERT_TRUE(ref.ok()) << ref.status().to_string();

  core::AtlasFileStudyConfig cfg;
  cfg.threads = 4;
  core::StreamStats stats;
  auto study = core::StreamDriver(cfg.threads).follow_atlas(
      watch.string(), fx.isps, cfg, core::StreamConfig{}, {}, nullptr,
      &stats);
  ASSERT_TRUE(study.ok()) << study.status().to_string();
  EXPECT_EQ(atlas_signature(*study), atlas_signature(*ref));
  EXPECT_EQ(stats.batches, 5u);
}

// One (probe, hour, family) in two batch files. The duplicate rule holds
// within each file's reader, and merging files keeps every record, so the
// stream keeps the record twice, as the one-shot run over the same files
// does. In the second file the repeat also goes back in time, which that
// file's reader checks exactly and admits.
TEST(AtlasStream, RecordRepeatedAcrossBatchesMatchesOneShot) {
  const AtlasFixture& fx = atlas_fixture();
  const fs::path watch = temp_dir("stream_atlas_repeat_watch");
  const auto paths = write_atlas_batches(watch, fx.dataset, 2);
  auto first = io::load_echo_file(paths[0]);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  const atlas::EchoRecord repeat = first->front().records.back();
  {
    std::ofstream out(paths[1], std::ios::binary | std::ios::app);
    out << io::to_csv(repeat) << '\n';
  }
  drop_sentinel(watch, "stream.stop");
  std::uint64_t records = 1;
  for (const auto& series : fx.dataset) records += series.records.size();

  core::AtlasFileStudyConfig cfg;
  cfg.threads = 1;
  io::IngestStats ref_ingest;
  auto ref =
      core::run_atlas_study_from_files(paths, fx.isps, cfg, &ref_ingest);
  ASSERT_TRUE(ref.ok()) << ref.status().to_string();
  io::IngestStats ingest;
  core::StreamStats stats;
  auto study = core::StreamDriver(cfg.threads).follow_atlas(
      watch.string(), fx.isps, cfg, core::StreamConfig{}, {}, &ingest,
      &stats);
  ASSERT_TRUE(study.ok()) << study.status().to_string();
  EXPECT_EQ(atlas_signature(*study), atlas_signature(*ref));
  EXPECT_EQ(stats.batches, 2u);
  for (const io::IngestStats* s : {&ref_ingest, &ingest}) {
    EXPECT_EQ(s->rejects_for(io::RejectReason::kDuplicate), 0u);
    EXPECT_EQ(s->records_accepted, records);
  }
}

TEST(AtlasStream, ResumeAtDifferentThreadCountIsByteIdentical) {
  const AtlasFixture& fx = atlas_fixture();
  const fs::path watch = temp_dir("stream_atlas_resume_watch");
  const fs::path ckdir = temp_dir("stream_atlas_resume_ckpt");
  const std::string ckpt = (ckdir / "study.ckpt").string();
  const auto paths = write_atlas_batches(watch, fx.dataset, 4);

  core::AtlasFileStudyConfig ref_cfg;
  ref_cfg.threads = 1;
  auto ref = core::run_atlas_study_from_files(paths, fx.isps, ref_cfg);
  ASSERT_TRUE(ref.ok()) << ref.status().to_string();
  const std::string want = atlas_signature(*ref);

  // Phase 1: consume exactly two batches at threads=1, leaving the batch
  // high-water-mark checkpoint behind.
  {
    core::AtlasFileStudyConfig cfg;
    cfg.threads = 1;
    core::StreamConfig stream;
    stream.max_batches = 2;
    stream.checkpoint_path = ckpt;
    core::StreamStats stats;
    auto study = core::StreamDriver(cfg.threads).follow_atlas(
        watch.string(), fx.isps, cfg, stream, {}, nullptr, &stats);
    ASSERT_TRUE(study.ok()) << study.status().to_string();
    EXPECT_EQ(stats.batches, 2u);
  }

  auto ck = io::read_checkpoint(ckpt);
  ASSERT_TRUE(ck.ok()) << ck.status().to_string();
  EXPECT_EQ(ck->kind, io::kCkptAtlasStream);
  ASSERT_EQ(ck->consumed.size(), 2u);
  EXPECT_EQ(ck->consumed[0], "batch-000.csv");
  EXPECT_EQ(ck->consumed[1], "batch-001.csv");

  // Phase 2: resume at threads=4; only the unconsumed batches are replayed.
  drop_sentinel(watch, "stream.stop");
  {
    core::AtlasFileStudyConfig cfg;
    cfg.threads = 4;
    core::StreamConfig stream;
    stream.checkpoint_path = ckpt;
    stream.resume = &*ck;
    core::StreamStats stats;
    auto study = core::StreamDriver(cfg.threads).follow_atlas(
        watch.string(), fx.isps, cfg, stream, {}, nullptr, &stats);
    ASSERT_TRUE(study.ok()) << study.status().to_string();
    EXPECT_EQ(atlas_signature(*study), want);
    EXPECT_EQ(stats.batches, 4u);
  }

  // Retention: tmp + rename with a `.prev` survivor means the checkpoint
  // directory never holds more than the live manifest, one predecessor
  // and the journal they share.
  std::set<std::string> entries;
  for (const auto& e : fs::directory_iterator(ckdir))
    entries.insert(e.path().filename().string());
  EXPECT_EQ(entries, (std::set<std::string>{"study.ckpt", "study.ckpt.prev",
                                            "study.ckpt.journal"}));
}

TEST(AtlasStream, PreTrippedTokenCancelsWithDurableCheckpoint) {
  const AtlasFixture& fx = atlas_fixture();
  const fs::path watch = temp_dir("stream_atlas_cancel_watch");
  const fs::path ckdir = temp_dir("stream_atlas_cancel_ckpt");
  const std::string ckpt = (ckdir / "study.ckpt").string();
  const auto paths = write_atlas_batches(watch, fx.dataset, 3);
  drop_sentinel(watch, "stream.stop");

  core::AtlasFileStudyConfig ref_cfg;
  ref_cfg.threads = 1;
  auto ref = core::run_atlas_study_from_files(paths, fx.isps, ref_cfg);
  ASSERT_TRUE(ref.ok()) << ref.status().to_string();
  const std::string want = atlas_signature(*ref);

  core::ShutdownToken token;
  token.request();
  core::AtlasFileStudyConfig cfg;
  cfg.threads = 1;
  core::StreamConfig stream;
  stream.checkpoint_path = ckpt;
  stream.token = &token;
  auto cancelled = core::StreamDriver(cfg.threads).follow_atlas(
      watch.string(), fx.isps, cfg, stream);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  EXPECT_TRUE(contains(cancelled.status().message(),
                       "interrupted by shutdown request"))
      << cancelled.status().to_string();
  ASSERT_TRUE(fs::exists(ckpt));

  // Resuming the zero-batch checkpoint replays everything and still lands
  // on the one-shot results.
  token.clear();
  auto ck = io::read_checkpoint(ckpt);
  ASSERT_TRUE(ck.ok()) << ck.status().to_string();
  EXPECT_TRUE(ck->consumed.empty());
  core::StreamConfig stream2;
  stream2.checkpoint_path = ckpt;
  stream2.token = &token;
  stream2.resume = &*ck;
  core::StreamStats stats;
  auto study = core::StreamDriver(cfg.threads).follow_atlas(
      watch.string(), fx.isps, cfg, stream2, {}, nullptr, &stats);
  ASSERT_TRUE(study.ok()) << study.status().to_string();
  EXPECT_EQ(atlas_signature(*study), want);
  EXPECT_EQ(stats.batches, 3u);
}

TEST(AtlasStream, ResumeValidationRejectsMismatches) {
  const AtlasFixture& fx = atlas_fixture();
  const fs::path watch = temp_dir("stream_atlas_validate_watch");
  const fs::path ckdir = temp_dir("stream_atlas_validate_ckpt");
  const std::string ckpt = (ckdir / "study.ckpt").string();
  write_atlas_batches(watch, fx.dataset, 2);

  core::AtlasFileStudyConfig cfg;
  cfg.threads = 1;

  // Missing watch directory.
  {
    core::StreamConfig stream;
    auto missing = core::StreamDriver(cfg.threads).follow_atlas(
        (watch / "does-not-exist").string(), fx.isps, cfg, stream);
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  }

  // A CDN-stream checkpoint cannot resume the Atlas stream.
  {
    io::StudyCheckpoint wrong;
    wrong.kind = io::kCkptCdnStream;
    core::StreamConfig stream;
    stream.resume = &wrong;
    auto rejected = core::StreamDriver(cfg.threads).follow_atlas(
        watch.string(), fx.isps, cfg, stream);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_TRUE(contains(rejected.status().message(), "cannot resume"))
        << rejected.status().to_string();
  }

  // A genuine checkpoint taken under different analysis options is refused:
  // the config fingerprint no longer matches.
  {
    core::StreamConfig stream;
    stream.max_batches = 1;
    stream.checkpoint_path = ckpt;
    auto phase1 = core::StreamDriver(cfg.threads).follow_atlas(
        watch.string(), fx.isps, cfg, stream);
    ASSERT_TRUE(phase1.ok()) << phase1.status().to_string();
    auto ck = io::read_checkpoint(ckpt);
    ASSERT_TRUE(ck.ok()) << ck.status().to_string();

    core::AtlasFileStudyConfig other = cfg;
    other.sanitize.min_observation_hours += 1;
    core::StreamConfig resume;
    resume.resume = &*ck;
    auto rejected = core::StreamDriver(other.threads).follow_atlas(
        watch.string(), fx.isps, other, resume);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_TRUE(contains(rejected.status().message(), "fingerprint"))
        << rejected.status().to_string();
  }
}

TEST(CdnStream, ResumeAtDifferentThreadCountIsByteIdentical) {
  const CdnFixture& fx = cdn_fixture();
  const fs::path watch = temp_dir("stream_cdn_watch");
  const fs::path ckdir = temp_dir("stream_cdn_ckpt");
  const std::string ckpt = (ckdir / "study.ckpt").string();
  const auto paths = write_cdn_batches(watch, fx.logs, 3);

  auto ref = core::run_cdn_study_from_files(paths, cdn_file_config(1));
  ASSERT_TRUE(ref.ok()) << ref.status().to_string();
  const std::string want = cdn_signature(*ref);

  // Phase 1 at threads=4 stops after one batch; phase 2 resumes at
  // threads=1 — the thread knob must not leak into results.
  {
    core::StreamConfig stream;
    stream.max_batches = 1;
    stream.checkpoint_path = ckpt;
    core::StreamStats stats;
    auto study = core::StreamDriver(4).follow_cdn(
        watch.string(), cdn_file_config(4), stream, {}, nullptr, &stats);
    ASSERT_TRUE(study.ok()) << study.status().to_string();
    EXPECT_EQ(stats.batches, 1u);
  }

  auto ck = io::read_checkpoint(ckpt);
  ASSERT_TRUE(ck.ok()) << ck.status().to_string();
  EXPECT_EQ(ck->kind, io::kCkptCdnStream);
  ASSERT_EQ(ck->consumed.size(), 1u);

  drop_sentinel(watch, "stream.stop");
  {
    core::StreamConfig stream;
    stream.checkpoint_path = ckpt;
    stream.resume = &*ck;
    core::StreamStats stats;
    auto study = core::StreamDriver(1).follow_cdn(
        watch.string(), cdn_file_config(1), stream, {}, nullptr, &stats);
    ASSERT_TRUE(study.ok()) << study.status().to_string();
    EXPECT_EQ(cdn_signature(*study), want);
    EXPECT_EQ(stats.batches, 3u);
  }
}

// ------------------------------------------- golden stream checkpoints
//
// tests/golden/{atlas,cdn}-stream.ckpt are stream checkpoints taken after
// the first batches of small slices of the shared fixtures, each with its
// `.journal` of DYNCOL1 segments. The fixtures were written by a build
// whose accounting sink saved timings (the `checkpoint.write` phase and the
// `stream.lag_seconds` gauge), so the manifest is pinned by its consumed
// list and journal table and the journal byte for byte: a fresh stream over
// the same batches must write both again, and resuming the fixture into
// another checkpoint path with a tripped token must leave the same journal
// there and drop the timings. Resuming over the remaining batches must then
// land on the one-shot results. A manifest now saves no wall-clock value,
// so two fresh streams over the same batches write it byte for byte. After
// a deliberate format change, copy the `fresh.ckpt` and
// `fresh.ckpt.journal` the failure message names over the fixtures.
//
// tests/golden/{atlas,cdn}-stream-v1.ckpt are the version-1 fixtures,
// which held the accumulated dataset inline; they must be refused.

/// The golden stream inputs: every fourth hour of the first 1200 of the
/// first three probes, and the first 300 records of the first three CDN
/// logs, so the committed checkpoints stay a few tens of kilobytes.
std::vector<atlas::ProbeSeries> golden_echo_dataset() {
  std::vector<atlas::ProbeSeries> out;
  for (const auto& series : atlas_fixture().dataset) {
    atlas::ProbeSeries s;
    s.meta = series.meta;
    for (const auto& r : series.records)
      if (r.hour < 1200 && r.hour % 4 == 0) s.records.push_back(r);
    if (!s.records.empty()) out.push_back(std::move(s));
    if (out.size() == 3) break;
  }
  return out;
}

std::vector<cdn::AssociationLog> golden_assoc_dataset() {
  std::vector<cdn::AssociationLog> out;
  for (const auto& log : cdn_fixture().logs) {
    if (out.size() == 3) break;
    cdn::AssociationLog l = log;
    if (l.records.size() > 300) l.records.resize(300);
    out.push_back(std::move(l));
  }
  return out;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::string golden_path(const std::string& name) {
  return std::string(DYNAMIPS_TEST_GOLDEN_DIR) + "/" + name + ".ckpt";
}

/// Read tests/golden/<name>.ckpt and check its kind and batch mark.
io::StudyCheckpoint golden_stream(const std::string& name, std::uint32_t kind,
                                  const std::vector<std::string>& consumed) {
  auto fixture = io::read_checkpoint(golden_path(name));
  EXPECT_TRUE(fixture.ok()) << fixture.status().to_string();
  if (!fixture.ok()) return {};
  EXPECT_EQ(fixture->kind, kind);
  EXPECT_EQ(fixture->consumed, consumed);
  EXPECT_EQ(fixture->shards.size(), 1u);
  EXPECT_EQ(fixture->journal.size(), consumed.size());
  return fixture.take();
}

/// Require the checkpoint at `path` to commit the fixture's batches and
/// segments, in a journal byte-identical to the fixture's.
void expect_fixture_journal(const io::StudyCheckpoint& fixture,
                            const std::string& path) {
  auto written = io::read_checkpoint(path);
  ASSERT_TRUE(written.ok()) << written.status().to_string();
  EXPECT_EQ(written->consumed, fixture.consumed);
  EXPECT_EQ(written->journal, fixture.journal);
  EXPECT_TRUE(file_bytes(written->journal_path) ==
              file_bytes(fixture.journal_path))
      << "the journal at " << written->journal_path
      << " differs from the golden fixture's " << fixture.journal_path;
}

/// The stream accounting a manifest saves.
obs::MetricsSink saved_accounting(const io::StudyCheckpoint& ck) {
  obs::MetricsSink sink;
  io::ckpt::Reader r(ck.supervisor_blob);
  EXPECT_TRUE(io::ckpt::load(r, sink) && r.remaining() == 0);
  return sink;
}

/// The stream accounting saved in the manifest at `path`.
obs::MetricsSink saved_accounting(const std::string& path) {
  auto ck = io::read_checkpoint(path);
  EXPECT_TRUE(ck.ok()) << ck.status().to_string();
  return ck.ok() ? saved_accounting(*ck) : obs::MetricsSink();
}

/// Whether `sink` holds a wall-clock entry of the stream accounting.
bool has_timings(const obs::MetricsSink& sink) {
  return sink.phases().count("checkpoint.write") != 0 ||
         sink.gauges().count("stream.lag_seconds") != 0;
}

/// A fresh stream over the fixture's `batches` writes the fixture's
/// journal; resuming the fixture with a tripped token elsewhere copies it
/// and drops the timings the fixture's manifest saved.
template <typename Follow>
void expect_journal_rewritten(const io::StudyCheckpoint& fixture,
                              std::uint64_t batches, const fs::path& dir,
                              Follow&& follow) {
  core::StreamConfig fresh;
  fresh.checkpoint_path = (dir / "fresh.ckpt").string();
  fresh.max_batches = batches;
  auto study = follow(fresh);
  ASSERT_TRUE(study.ok()) << study.status().to_string();
  expect_fixture_journal(fixture, fresh.checkpoint_path);
  ASSERT_EQ(fixture.consumed.size(), batches);

  core::ShutdownToken token;
  token.request();
  core::StreamConfig resumed;
  resumed.checkpoint_path = (dir / "resumed.ckpt").string();
  resumed.resume = &fixture;
  resumed.token = &token;
  auto cancelled = follow(resumed);
  ASSERT_EQ(cancelled.status().code(), StatusCode::kCancelled)
      << cancelled.status().to_string();
  expect_fixture_journal(fixture, resumed.checkpoint_path);
  EXPECT_TRUE(has_timings(saved_accounting(fixture)));
  EXPECT_FALSE(has_timings(saved_accounting(fresh.checkpoint_path)));
  EXPECT_FALSE(has_timings(saved_accounting(resumed.checkpoint_path)));
}

TEST(GoldenCheckpoint, AtlasStream) {
  const AtlasFixture& fx = atlas_fixture();
  const fs::path watch = temp_dir("golden_atlas_stream_watch");
  const fs::path ckdir = temp_dir("golden_atlas_stream_ckpt");
  const auto paths = write_atlas_batches(watch, golden_echo_dataset(), 4);
  core::AtlasFileStudyConfig cfg;
  cfg.threads = 1;
  auto ref = core::run_atlas_study_from_files(paths, fx.isps, cfg);
  ASSERT_TRUE(ref.ok()) << ref.status().to_string();

  const io::StudyCheckpoint fixture =
      golden_stream("atlas-stream", io::kCkptAtlasStream,
                    {"batch-000.csv", "batch-001.csv"});
  auto follow = [&](const core::StreamConfig& stream) {
    return core::StreamDriver(cfg.threads)
        .follow_atlas(watch.string(), fx.isps, cfg, stream);
  };
  expect_journal_rewritten(fixture, 2, ckdir, follow);
  ASSERT_FALSE(fixture.consumed.empty());

  drop_sentinel(watch, "stream.stop");
  core::StreamConfig stream;
  stream.resume = &fixture;
  auto study = follow(stream);
  ASSERT_TRUE(study.ok()) << study.status().to_string();
  EXPECT_EQ(atlas_signature(*study), atlas_signature(*ref));
}

TEST(GoldenCheckpoint, CdnStream) {
  const fs::path watch = temp_dir("golden_cdn_stream_watch");
  const fs::path ckdir = temp_dir("golden_cdn_stream_ckpt");
  const auto paths = write_cdn_batches(watch, golden_assoc_dataset(), 3);
  auto ref = core::run_cdn_study_from_files(paths, cdn_file_config(1));
  ASSERT_TRUE(ref.ok()) << ref.status().to_string();

  const io::StudyCheckpoint fixture =
      golden_stream("cdn-stream", io::kCkptCdnStream, {"batch-000.csv"});
  auto follow = [&](const core::StreamConfig& stream) {
    return core::StreamDriver(1).follow_cdn(watch.string(),
                                            cdn_file_config(1), stream);
  };
  expect_journal_rewritten(fixture, 1, ckdir, follow);
  ASSERT_FALSE(fixture.consumed.empty());

  drop_sentinel(watch, "stream.stop");
  core::StreamConfig stream;
  stream.resume = &fixture;
  auto study = follow(stream);
  ASSERT_TRUE(study.ok()) << study.status().to_string();
  EXPECT_EQ(cdn_signature(*study), cdn_signature(*ref));
}

TEST(GoldenCheckpoint, FreshStreamsWriteIdenticalManifests) {
  const AtlasFixture& fx = atlas_fixture();
  const fs::path watch = temp_dir("golden_manifest_watch");
  const fs::path ckdir = temp_dir("golden_manifest_ckpt");
  write_atlas_batches(watch, golden_echo_dataset(), 4);
  core::AtlasFileStudyConfig cfg;
  cfg.threads = 2;
  std::string manifests[2];
  for (int run = 0; run < 2; ++run) {
    core::StreamConfig stream;
    stream.checkpoint_path =
        (ckdir / ("run" + std::to_string(run) + ".ckpt")).string();
    stream.max_batches = 3;
    stream.refinalize_every_batches = 1;
    auto study = core::StreamDriver(cfg.threads)
                     .follow_atlas(watch.string(), fx.isps, cfg, stream,
                                   [](const core::AtlasStudy&,
                                      const core::StreamStats&) {});
    ASSERT_TRUE(study.ok()) << study.status().to_string();
    manifests[run] = file_bytes(stream.checkpoint_path);
  }
  EXPECT_FALSE(manifests[0].empty());
  EXPECT_TRUE(manifests[0] == manifests[1]);
}

TEST(GoldenCheckpoint, VersionOneStreamCheckpointsAreRefused) {
  for (const char* name : {"atlas-stream-v1", "cdn-stream-v1"}) {
    auto v1 = io::read_checkpoint_with_fallback(golden_path(name));
    ASSERT_FALSE(v1.ok()) << name;
    EXPECT_EQ(v1.status().code(), StatusCode::kFailedPrecondition) << name;
    EXPECT_TRUE(contains(v1.status().message(), "version-1"))
        << v1.status().to_string();
    EXPECT_TRUE(contains(v1.status().message(), "restart the stream"))
        << v1.status().to_string();
  }
}

// ------------------------------------------------------- stream journal
//
// The stream checkpoint is a manifest plus an append-only journal of one
// DYNCOL1 segment per consumed batch. These pin what a crash, a damaged
// byte, a stale file or a failed append leave behind, and what a resume
// makes of it.

/// Run the Atlas stream over `watch` with a checkpoint at `ckpt`, stopping
/// after `max_batches` (0: at the sentinel), optionally resuming.
core::Expected<core::AtlasStudy> follow_atlas_stream(
    const fs::path& watch, const std::string& ckpt, unsigned threads,
    std::uint64_t max_batches = 0,
    const io::StudyCheckpoint* resume = nullptr,
    core::ShutdownToken* token = nullptr) {
  const AtlasFixture& fx = atlas_fixture();
  core::AtlasFileStudyConfig cfg;
  cfg.threads = threads;
  core::StreamConfig stream;
  stream.checkpoint_path = ckpt;
  stream.max_batches = max_batches;
  stream.resume = resume;
  stream.token = token;
  return core::StreamDriver(threads).follow_atlas(watch.string(), fx.isps,
                                                  cfg, stream);
}

/// The one-shot signature over `paths`, the streamed results' reference.
std::string one_shot_atlas(const std::vector<std::string>& paths) {
  core::AtlasFileStudyConfig cfg;
  cfg.threads = 1;
  auto ref = core::run_atlas_study_from_files(paths, atlas_fixture().isps, cfg);
  EXPECT_TRUE(ref.ok()) << ref.status().to_string();
  return ref.ok() ? atlas_signature(*ref) : std::string();
}

/// The journal holds exactly the segments its manifest commits.
void expect_journal_committed(const std::string& ckpt) {
  auto ck = io::read_checkpoint(ckpt);
  ASSERT_TRUE(ck.ok()) << ck.status().to_string();
  EXPECT_EQ(fs::file_size(ck->journal_path), ck->journal_length());
}

TEST(StreamJournal, TornTailPastTheManifestResumesByteIdentical) {
  const AtlasFixture& fx = atlas_fixture();
  for (unsigned threads : {1u, 4u}) {
    const std::string tag = std::to_string(threads);
    const fs::path watch = temp_dir("journal_torn_watch_" + tag);
    const fs::path ckdir = temp_dir("journal_torn_ckpt_" + tag);
    const std::string ckpt = (ckdir / "study.ckpt").string();
    const auto paths = write_atlas_batches(watch, fx.dataset, 4);
    const std::string want = one_shot_atlas(paths);

    ASSERT_TRUE(follow_atlas_stream(watch, ckpt, threads, 2).ok());
    // What `kill -9` mid-append leaves: half of the next batch's segment
    // past the committed length.
    auto next = io::load_echo_file(paths[2]);
    ASSERT_TRUE(next.ok()) << next.status().to_string();
    const std::string segment = io::encode_echo_columnar(*next).bytes;
    const std::string journal = io::journal_path(ckpt);
    const std::uint64_t committed = fs::file_size(journal);
    {
      std::ofstream out(journal, std::ios::binary | std::ios::app);
      out.write(segment.data(), std::streamsize(segment.size() / 2));
    }
    ASSERT_GT(fs::file_size(journal), committed);

    auto ck = io::read_checkpoint_with_fallback(ckpt);
    ASSERT_TRUE(ck.ok()) << ck.status().to_string();
    ASSERT_EQ(ck->consumed.size(), 2u);
    EXPECT_EQ(ck->journal_length(), committed);
    drop_sentinel(watch, "stream.stop");
    auto study = follow_atlas_stream(watch, ckpt, threads, 0, &*ck);
    ASSERT_TRUE(study.ok()) << study.status().to_string();
    EXPECT_EQ(atlas_signature(*study), want) << "threads=" << threads;
    expect_journal_committed(ckpt);
  }
}

// An append writes its segment at the committed length and cuts the file
// there, whatever stale bytes lay past it; then the segment reads back.
TEST(StreamJournal, AppendCutsAStaleTailPastTheSegment) {
  const fs::path dir = temp_dir("journal_append_cut");
  const std::string ckpt = (dir / "study.ckpt").string();
  std::ofstream(io::journal_path(ckpt), std::ios::binary)
      << std::string(1000, 'x');
  io::StudyCheckpoint manifest;
  manifest.kind = io::kCkptAtlasStream;
  manifest.item_count = 1;
  manifest.shards = {{0, 1, 1, {}}};
  manifest.consumed = {"batch-000.csv"};
  const std::string segment = "a short segment";
  ASSERT_TRUE(io::commit_stream_checkpoint(ckpt, manifest, segment,
                                           io::ckpt::crc32(segment))
                  .ok());
  EXPECT_EQ(file_bytes(io::journal_path(ckpt)), segment);
  auto ck = io::read_checkpoint(ckpt);
  ASSERT_TRUE(ck.ok()) << ck.status().to_string();
  std::string read;
  ASSERT_TRUE(io::read_journal(*ck, [&](std::size_t, std::string_view bytes) {
                read = bytes;
                return Status::Ok();
              }).ok());
  EXPECT_EQ(read, segment);
}

TEST(StreamJournal, FlippedBitInACommittedSegmentIsDataLoss) {
  const AtlasFixture& fx = atlas_fixture();
  const fs::path watch = temp_dir("journal_flip_watch");
  const fs::path ckdir = temp_dir("journal_flip_ckpt");
  const std::string ckpt = (ckdir / "study.ckpt").string();
  write_atlas_batches(watch, fx.dataset, 3);
  ASSERT_TRUE(follow_atlas_stream(watch, ckpt, 1, 2).ok());

  auto ck = io::read_checkpoint(ckpt);
  ASSERT_TRUE(ck.ok()) << ck.status().to_string();
  ASSERT_EQ(ck->journal.size(), 2u);
  {
    std::fstream f(ck->journal_path,
                   std::ios::binary | std::ios::in | std::ios::out);
    const auto at =
        std::streamoff(ck->journal[0].length + ck->journal[1].length / 2);
    f.seekg(at);
    char byte = 0;
    f.get(byte);
    f.seekp(at);
    f.put(char(byte ^ 0x10));
  }
  auto resumed = follow_atlas_stream(watch, ckpt, 1, 0, &*ck);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(contains(resumed.status().message(),
                       "journal segment 1 (batch-001.csv)"))
      << resumed.status().to_string();
}

TEST(StreamJournal, ShortJournalIsDataLossNamingTheSegment) {
  const AtlasFixture& fx = atlas_fixture();
  const fs::path watch = temp_dir("journal_short_watch");
  const fs::path ckdir = temp_dir("journal_short_ckpt");
  const std::string ckpt = (ckdir / "study.ckpt").string();
  write_atlas_batches(watch, fx.dataset, 3);
  ASSERT_TRUE(follow_atlas_stream(watch, ckpt, 1, 2).ok());

  auto ck = io::read_checkpoint(ckpt);
  ASSERT_TRUE(ck.ok()) << ck.status().to_string();
  fs::resize_file(ck->journal_path, ck->journal_length() - 1);
  auto resumed = follow_atlas_stream(watch, ckpt, 1, 0, &*ck);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(contains(resumed.status().message(),
                       "journal segment 1 (batch-001.csv) is cut short"))
      << resumed.status().to_string();
}

TEST(StreamJournal, PrevManifestWithALongerJournalResumes) {
  const AtlasFixture& fx = atlas_fixture();
  const fs::path watch = temp_dir("journal_prev_watch");
  const fs::path ckdir = temp_dir("journal_prev_ckpt");
  const std::string ckpt = (ckdir / "study.ckpt").string();
  const auto paths = write_atlas_batches(watch, fx.dataset, 4);
  const std::string want = one_shot_atlas(paths);

  // Three batches: the primary commits three segments, `.prev` two, and
  // the journal holds all three. Then the primary is damaged.
  ASSERT_TRUE(follow_atlas_stream(watch, ckpt, 1, 3).ok());
  fs::resize_file(ckpt, fs::file_size(ckpt) / 2);
  std::string used;
  auto ck = io::read_checkpoint_with_fallback(ckpt, &used);
  ASSERT_TRUE(ck.ok()) << ck.status().to_string();
  EXPECT_EQ(used, ckpt + ".prev");
  ASSERT_EQ(ck->consumed.size(), 2u);
  EXPECT_EQ(ck->journal_path, io::journal_path(ckpt));
  EXPECT_GT(fs::file_size(ck->journal_path), ck->journal_length());

  drop_sentinel(watch, "stream.stop");
  auto study = follow_atlas_stream(watch, ckpt, 4, 0, &*ck);
  ASSERT_TRUE(study.ok()) << study.status().to_string();
  EXPECT_EQ(atlas_signature(*study), want);
  expect_journal_committed(ckpt);
}

TEST(StreamJournal, FreshStreamTruncatesAStaleJournal) {
  const AtlasFixture& fx = atlas_fixture();
  const fs::path watch = temp_dir("journal_stale_watch");
  const fs::path ckdir = temp_dir("journal_stale_ckpt");
  const std::string ckpt = (ckdir / "study.ckpt").string();
  const auto paths = write_atlas_batches(watch, fx.dataset, 3);
  const std::string want = one_shot_atlas(paths);
  std::ofstream(io::journal_path(ckpt), std::ios::binary)
      << std::string(5000, 'x');

  // Interrupted before its first batch: the stale bytes are gone.
  core::ShutdownToken token;
  token.request();
  auto cancelled = follow_atlas_stream(watch, ckpt, 1, 0, nullptr, &token);
  ASSERT_EQ(cancelled.status().code(), StatusCode::kCancelled)
      << cancelled.status().to_string();
  EXPECT_EQ(fs::file_size(io::journal_path(ckpt)), 0u);

  std::ofstream(io::journal_path(ckpt), std::ios::binary)
      << std::string(5000, 'x');
  ASSERT_TRUE(follow_atlas_stream(watch, ckpt, 1, 1).ok());
  expect_journal_committed(ckpt);
  auto ck = io::read_checkpoint(ckpt);
  ASSERT_TRUE(ck.ok()) << ck.status().to_string();
  drop_sentinel(watch, "stream.stop");
  auto study = follow_atlas_stream(watch, ckpt, 1, 0, &*ck);
  ASSERT_TRUE(study.ok()) << study.status().to_string();
  EXPECT_EQ(atlas_signature(*study), want);
}

TEST(StreamJournal, CheckpointCostFollowsTheBatchNotTheDataset) {
  // The same records streamed as 12 and as 24 batches, and half of them as
  // 12 batches. The journal is always the sum of its segments, and the
  // manifest grows with the batch count, never with the records.
  const AtlasFixture& fx = atlas_fixture();
  std::vector<atlas::ProbeSeries> half = fx.dataset;
  for (auto& series : half) {
    std::vector<atlas::EchoRecord> kept;
    for (std::size_t i = 0; i < series.records.size(); i += 2)
      kept.push_back(series.records[i]);
    series.records = std::move(kept);
  }
  struct Run {
    std::uint64_t manifest = 0, journal = 0;
  };
  auto run = [&](const std::vector<atlas::ProbeSeries>& dataset,
                 std::size_t nbatches, const std::string& name) {
    const fs::path watch = temp_dir("journal_cost_watch_" + name);
    const fs::path ckdir = temp_dir("journal_cost_ckpt_" + name);
    const std::string ckpt = (ckdir / "study.ckpt").string();
    write_atlas_batches(watch, dataset, nbatches);
    drop_sentinel(watch, "stream.stop");
    EXPECT_TRUE(follow_atlas_stream(watch, ckpt, 2).ok());
    auto ck = io::read_checkpoint(ckpt);
    EXPECT_TRUE(ck.ok()) << ck.status().to_string();
    if (!ck.ok()) return Run{};
    EXPECT_EQ(ck->journal.size(), nbatches);
    EXPECT_EQ(fs::file_size(ck->journal_path), ck->journal_length());
    return Run{fs::file_size(ckpt), fs::file_size(ck->journal_path)};
  };
  const Run twelve = run(fx.dataset, 12, "12");
  const Run twenty_four = run(fx.dataset, 24, "24");
  const Run halved = run(half, 12, "half");

  EXPECT_LT(twelve.manifest * 20, twelve.journal);
  EXPECT_LT(halved.journal * 3, twelve.journal * 2);
  // Per batch the manifest adds one name and one segment entry (tens of
  // bytes); the accounting sink's timings may shift it by a few more.
  EXPECT_LT(twenty_four.manifest, twelve.manifest + 12 * 64 + 256);
  EXPECT_LT(halved.manifest, twelve.manifest + 256);
  EXPECT_LT(twelve.manifest, halved.manifest + 256);
}

// ---------------------------------------------- injected-fault streaming

/// Every test arms failpoints and must leave the process disarmed even on
/// assertion failure; state is global (see core/failpoint.h).
class StreamFailpoints : public ::testing::Test {
 protected:
  void SetUp() override { core::disarm_failpoints(); }
  void TearDown() override { core::disarm_failpoints(); }
};

TEST_F(StreamFailpoints, TransientIoFaultsRetryAndConverge) {
  const AtlasFixture& fx = atlas_fixture();
  const fs::path watch = temp_dir("stream_fp_transient_watch");
  const fs::path ckdir = temp_dir("stream_fp_transient_ckpt");
  const std::string ckpt = (ckdir / "study.ckpt").string();
  const auto paths = write_atlas_batches(watch, fx.dataset, 3);
  drop_sentinel(watch, "stream.stop");

  // Reference computed before arming: the fault-free one-shot study.
  core::AtlasFileStudyConfig ref_cfg;
  ref_cfg.threads = 1;
  auto ref = core::run_atlas_study_from_files(paths, fx.isps, ref_cfg);
  ASSERT_TRUE(ref.ok()) << ref.status().to_string();
  const std::string want = atlas_signature(*ref);

  // One directory-scan failure, one checkpoint-write failure, one read
  // failure mid-batch: each transient, each inside the default 3-attempt
  // retry budget. The streamed results must still be byte-identical to
  // the fault-free reference — retried work never double-merges.
  ASSERT_TRUE(core::arm_failpoints("stream.scan=err@1; "
                                   "checkpoint.write=err(EIO)@1; "
                                   "readers.line=err@7")
                  .ok());
  obs::MetricsRegistry reg;
  core::AtlasFileStudyConfig cfg;
  cfg.threads = 1;
  cfg.metrics = &reg;
  core::StreamConfig stream;
  stream.checkpoint_path = ckpt;
  stream.poll_ms = 10;
  stream.io_retry_base_ms = 1;
  stream.io_retry_seed = 42;
  core::StreamStats stats;
  auto study = core::StreamDriver(cfg.threads).follow_atlas(
      watch.string(), fx.isps, cfg, stream, {}, nullptr, &stats);
  ASSERT_TRUE(study.ok()) << study.status().to_string();
  EXPECT_EQ(atlas_signature(*study), want);
  EXPECT_EQ(stats.batches, 3u);

  auto snap = reg.snapshot();
  EXPECT_GE(snap.counter("io.retries").value, 3u);
  EXPECT_EQ(snap.counter("io.giveups").value, 0u);
  EXPECT_EQ(snap.counter("checkpoint.write_failures").value, 1u);
}

TEST_F(StreamFailpoints, ExhaustedRetriesGiveUpResumably) {
  const AtlasFixture& fx = atlas_fixture();
  const fs::path watch = temp_dir("stream_fp_giveup_watch");
  const fs::path ckdir = temp_dir("stream_fp_giveup_ckpt");
  const std::string ckpt = (ckdir / "study.ckpt").string();
  const auto paths = write_atlas_batches(watch, fx.dataset, 3);
  drop_sentinel(watch, "stream.stop");

  core::AtlasFileStudyConfig ref_cfg;
  ref_cfg.threads = 1;
  auto ref = core::run_atlas_study_from_files(paths, fx.isps, ref_cfg);
  ASSERT_TRUE(ref.ok()) << ref.status().to_string();
  const std::string want = atlas_signature(*ref);

  // Every checkpoint write from the second on fails — a disk going hard
  // read-only after one durable snapshot. The run must give up resumably:
  // kCancelled, pointing at the intact high-water-mark checkpoint.
  ASSERT_TRUE(core::arm_failpoints("checkpoint.write=err(ENOSPC)@2..").ok());
  core::AtlasFileStudyConfig cfg;
  cfg.threads = 1;
  core::StreamConfig stream;
  stream.checkpoint_path = ckpt;
  stream.poll_ms = 10;
  stream.io_retry_attempts = 2;
  stream.io_retry_base_ms = 1;
  auto gave_up = core::StreamDriver(cfg.threads).follow_atlas(
      watch.string(), fx.isps, cfg, stream);
  ASSERT_FALSE(gave_up.ok());
  EXPECT_EQ(gave_up.status().code(), StatusCode::kCancelled);
  EXPECT_TRUE(contains(gave_up.status().message(), "is intact"))
      << gave_up.status().to_string();

  // The checkpoint it points at is genuinely loadable, and resuming it
  // fault-free finishes the study byte-identical to the reference. The
  // failed journal appends left a torn segment past the committed length,
  // which the resumed stream overwrites.
  core::disarm_failpoints();
  auto ck = io::read_checkpoint(ckpt);
  ASSERT_TRUE(ck.ok()) << ck.status().to_string();
  ASSERT_EQ(ck->consumed.size(), 1u);
  EXPECT_GT(fs::file_size(ck->journal_path), ck->journal_length());
  core::StreamConfig resume;
  resume.checkpoint_path = ckpt;
  resume.resume = &*ck;
  core::StreamStats stats;
  auto study = core::StreamDriver(cfg.threads).follow_atlas(
      watch.string(), fx.isps, cfg, resume, {}, nullptr, &stats);
  ASSERT_TRUE(study.ok()) << study.status().to_string();
  EXPECT_EQ(atlas_signature(*study), want);
  EXPECT_EQ(stats.batches, 3u);
  expect_journal_committed(ckpt);
}

// The commit of batch k runs on a writer thread while the batch merges and
// the re-finalization including it runs; that snapshot is published only
// once the commit is durable. These streams run on 2 threads and publish
// after every batch, so the commit and the pass overlap.

/// What an overlapped stream published: each snapshot's batch count and
/// results.
struct Published {
  std::vector<std::uint64_t> batches;
  std::vector<std::string> signatures;
};

core::Expected<core::AtlasStudy> follow_overlapped(
    const fs::path& watch, const std::string& ckpt, Published& published,
    core::StreamStats& stats, obs::MetricsRegistry* metrics = nullptr,
    std::uint64_t attempts = 3, core::ShutdownToken* token = nullptr,
    core::ResourceGovernor* governor = nullptr) {
  core::AtlasFileStudyConfig cfg;
  cfg.threads = 2;
  cfg.metrics = metrics;
  core::StreamConfig stream;
  stream.checkpoint_path = ckpt;
  stream.refinalize_every_batches = 1;
  stream.poll_ms = 10;
  stream.io_retry_attempts = attempts;
  stream.io_retry_base_ms = 1;
  stream.token = token;
  stream.governor = governor;
  return core::StreamDriver(cfg.threads)
      .follow_atlas(
          watch.string(), atlas_fixture().isps, cfg, stream,
          [&](const core::AtlasStudy& snap, const core::StreamStats& st) {
            published.batches.push_back(st.batches);
            published.signatures.push_back(atlas_signature(snap));
          },
          nullptr, &stats);
}

/// Records in the batch file at `path`.
std::uint64_t records_in(const std::string& path) {
  auto batch = io::load_echo_file(path);
  EXPECT_TRUE(batch.ok()) << batch.status().to_string();
  std::uint64_t records = 0;
  if (batch.ok())
    for (const auto& series : *batch) records += series.records.size();
  return records;
}

/// Resume the checkpoint at `ckpt` fault-free and require the one-shot
/// results over `paths`.
void expect_resume_matches(const fs::path& watch, const std::string& ckpt,
                           const std::vector<std::string>& paths) {
  auto ck = io::read_checkpoint(ckpt);
  ASSERT_TRUE(ck.ok()) << ck.status().to_string();
  auto study = follow_atlas_stream(watch, ckpt, 2, 0, &*ck);
  ASSERT_TRUE(study.ok()) << study.status().to_string();
  EXPECT_EQ(atlas_signature(*study), one_shot_atlas(paths));
  expect_journal_committed(ckpt);
}

TEST_F(StreamFailpoints, RetriedOverlappedCommitPublishesEveryBatchOnce) {
  const fs::path watch = temp_dir("stream_overlap_retry_watch");
  const fs::path ckdir = temp_dir("stream_overlap_retry_ckpt");
  const auto paths = write_atlas_batches(watch, atlas_fixture().dataset, 3);
  drop_sentinel(watch, "stream.stop");
  std::vector<std::string> want;
  for (std::size_t k = 1; k <= paths.size(); ++k)
    want.push_back(one_shot_atlas({paths.begin(), paths.begin() + k}));

  ASSERT_TRUE(core::arm_failpoints("checkpoint.write=err(EIO)@2").ok());
  obs::MetricsRegistry reg;
  Published published;
  core::StreamStats stats;
  auto study = follow_overlapped(watch, (ckdir / "study.ckpt").string(),
                                 published, stats, &reg);
  ASSERT_TRUE(study.ok()) << study.status().to_string();
  EXPECT_EQ(atlas_signature(*study), want.back());
  EXPECT_EQ(published.batches, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(published.signatures, want);
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.refinalizes, 4u);
  auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter("checkpoint.writes").value, 3u);
  EXPECT_EQ(snap.counter("checkpoint.write_failures").value, 1u);
  EXPECT_EQ(snap.counter("io.retries").value, 1u);
  EXPECT_EQ(snap.counter("io.giveups").value, 0u);
  EXPECT_EQ(snap.counter("stream.refinalize").value, 4u);
  EXPECT_EQ(snap.phase("checkpoint.write").count, 3u);
}

// Every commit from batch 2's on fails, in the checkpoint write or in the
// journal fsync: no snapshot that includes batch 2 is published, and the
// stream gives up resumably with the stats a serial commit gives.
TEST_F(StreamFailpoints, FailedOverlappedCommitNeverPublishesItsBatch) {
  const fs::path watch = temp_dir("stream_overlap_fail_watch");
  const auto paths = write_atlas_batches(watch, atlas_fixture().dataset, 3);
  drop_sentinel(watch, "stream.stop");
  const std::string first = one_shot_atlas({paths[0]});
  // The first commit's journal and manifest fsyncs are hits 1 and 2.
  for (const char* spec :
       {"checkpoint.write=err(ENOSPC)@2..", "atomic_file.fsync=err@3.."}) {
    SCOPED_TRACE(spec);
    const fs::path ckdir = temp_dir("stream_overlap_fail_ckpt");
    const std::string ckpt = (ckdir / "study.ckpt").string();
    ASSERT_TRUE(core::arm_failpoints(spec).ok());
    Published published;
    core::StreamStats stats;
    auto gave_up = follow_overlapped(watch, ckpt, published, stats, nullptr,
                                     /*attempts=*/2);
    core::disarm_failpoints();
    ASSERT_FALSE(gave_up.ok());
    EXPECT_EQ(gave_up.status().code(), StatusCode::kCancelled)
        << gave_up.status().to_string();
    EXPECT_TRUE(contains(gave_up.status().message(), "is intact"))
        << gave_up.status().to_string();
    EXPECT_EQ(published.batches, (std::vector<std::uint64_t>{1}));
    EXPECT_EQ(published.signatures, (std::vector<std::string>{first}));
    EXPECT_EQ(stats.batches, 2u);
    EXPECT_EQ(stats.records, records_in(paths[0]) + records_in(paths[1]));
    EXPECT_EQ(stats.refinalizes, 1u);
    // The manifest commits batch 1, with the accounting saved before its
    // own commit.
    auto ck = io::read_checkpoint(ckpt);
    ASSERT_TRUE(ck.ok()) << ck.status().to_string();
    EXPECT_EQ(ck->consumed, (std::vector<std::string>{"batch-000.csv"}));
    const obs::MetricsSink saved = saved_accounting(ckpt);
    EXPECT_EQ(saved.counters().at("stream.batches").value, 1u);
    EXPECT_EQ(saved.counters().count("checkpoint.writes"), 0u);
    EXPECT_EQ(saved.counters().count("stream.refinalize"), 0u);
    expect_resume_matches(watch, ckpt, paths);
  }
}

// The token trips right after the first snapshot is published, so batch 2
// is consumed and its pass runs with the token set, overlapped with its
// commit. The fixture's pass is one round, so it completes and is published
// once batch 2 is durable; the stream then stops before batch 3 with a
// final commit.
TEST(StreamOverlap, TokenTrippedDuringAnOverlappedPass) {
  const fs::path watch = temp_dir("stream_overlap_token_watch");
  const fs::path ckdir = temp_dir("stream_overlap_token_ckpt");
  const std::string ckpt = (ckdir / "study.ckpt").string();
  const auto paths = write_atlas_batches(watch, atlas_fixture().dataset, 3);
  drop_sentinel(watch, "stream.stop");

  // The governor probes memory at the top of every batch; the first probe
  // after a snapshot is batch 2's.
  core::ShutdownToken token;
  bool armed = false;
  core::ResourceBudgets budgets;
  budgets.max_rss_mb = 1 << 20;
  budgets.sample_interval_ms = 0;
  budgets.rss_probe = [&] {
    if (armed) token.request();
    return std::uint64_t(1);
  };
  core::ResourceGovernor governor(budgets);
  Published published;
  core::StreamStats stats;
  core::AtlasFileStudyConfig cfg;
  cfg.threads = 2;
  core::StreamConfig stream;
  stream.checkpoint_path = ckpt;
  stream.refinalize_every_batches = 1;
  stream.token = &token;
  stream.governor = &governor;
  auto stopped = core::StreamDriver(cfg.threads).follow_atlas(
      watch.string(), atlas_fixture().isps, cfg, stream,
      [&](const core::AtlasStudy&, const core::StreamStats& st) {
        published.batches.push_back(st.batches);
        armed = true;
      },
      nullptr, &stats);
  ASSERT_FALSE(stopped.ok());
  EXPECT_EQ(stopped.status().code(), StatusCode::kCancelled)
      << stopped.status().to_string();
  EXPECT_TRUE(contains(stopped.status().message(),
                       "interrupted by shutdown request after 2 consumed"))
      << stopped.status().to_string();
  EXPECT_EQ(published.batches, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.refinalizes, 2u);
  auto ck = io::read_checkpoint(ckpt);
  ASSERT_TRUE(ck.ok()) << ck.status().to_string();
  EXPECT_EQ(ck->consumed.size(), 2u);
  expect_resume_matches(watch, ckpt, paths);
}

TEST(StreamDriver, ReusesOneExecutorAcrossFollows) {
  // The long-lived driver owns the pool; back-to-back follows on one driver
  // must behave exactly like fresh runs (state is per-follow, not per-pool).
  const AtlasFixture& fx = atlas_fixture();
  const fs::path watch = temp_dir("stream_driver_watch");
  const auto paths = write_atlas_batches(watch, fx.dataset, 2);
  drop_sentinel(watch, "stream.stop");

  core::AtlasFileStudyConfig ref_cfg;
  ref_cfg.threads = 1;
  auto ref = core::run_atlas_study_from_files(paths, fx.isps, ref_cfg);
  ASSERT_TRUE(ref.ok()) << ref.status().to_string();
  const std::string want = atlas_signature(*ref);

  core::StreamDriver driver(2);
  EXPECT_EQ(driver.thread_count(), 2u);
  core::AtlasFileStudyConfig cfg;  // threads ignored: the driver's pool runs
  for (int round = 0; round < 2; ++round) {
    core::StreamConfig stream;
    core::StreamStats stats;
    auto study = driver.follow_atlas(watch.string(), fx.isps, cfg, stream, {},
                                     nullptr, &stats);
    ASSERT_TRUE(study.ok()) << study.status().to_string();
    EXPECT_EQ(atlas_signature(*study), want) << "round=" << round;
    EXPECT_EQ(stats.batches, 2u);
  }
}

// ------------------------------------------- resource-governed streaming
//
// The degradation ladder (core/resource.h) must be results-safe: every
// test here pins the final CSVs byte-identical to the unpressured
// reference while asserting the governor's named `resource.*` counters
// actually moved. Probes are injected, so pressure is deterministic.

constexpr std::uint64_t kMiB = 1024 * 1024;

TEST(StreamGovernor, MemoryPressureDefersIntermediateRefinalizes) {
  const AtlasFixture& fx = atlas_fixture();
  const fs::path watch = temp_dir("stream_gov_mem_watch");
  const auto paths = write_atlas_batches(watch, fx.dataset, 4);
  drop_sentinel(watch, "stream.stop");

  core::AtlasFileStudyConfig ref_cfg;
  ref_cfg.threads = 1;
  auto ref = core::run_atlas_study_from_files(paths, fx.isps, ref_cfg);
  ASSERT_TRUE(ref.ok()) << ref.status().to_string();
  const std::string want = atlas_signature(*ref);

  for (unsigned threads : {1u, 4u}) {
    const fs::path ckdir =
        temp_dir("stream_gov_mem_ckpt_" + std::to_string(threads));
    obs::MetricsRegistry govreg;
    core::ResourceBudgets budgets;
    budgets.max_rss_mb = 1;
    budgets.sample_interval_ms = 0;
    budgets.metrics = &govreg;
    budgets.rss_probe = [] { return std::uint64_t(4096) * kMiB; };  // over
    core::ResourceGovernor governor(budgets);

    core::AtlasFileStudyConfig cfg;
    cfg.threads = threads;
    core::StreamConfig stream;
    stream.refinalize_every_batches = 2;
    stream.checkpoint_path = (ckdir / "study.ckpt").string();
    stream.governor = &governor;
    std::uint64_t windowed = 0;
    core::StreamStats stats;
    auto study = core::StreamDriver(cfg.threads).follow_atlas(
        watch.string(), fx.isps, cfg, stream,
        [&](const core::AtlasStudy&, const core::StreamStats&) {
          ++windowed;
        },
        nullptr, &stats);
    ASSERT_TRUE(study.ok()) << study.status().to_string();
    // Intermediate publications were all deferred; the final pass still
    // ran and the results are byte-identical to the unpressured run.
    EXPECT_EQ(windowed, 0u) << "threads=" << threads;
    EXPECT_EQ(stats.refinalizes, 1u);
    EXPECT_EQ(atlas_signature(*study), want) << "threads=" << threads;
    auto snap = govreg.snapshot();
    EXPECT_GE(snap.counter("resource.refinalize_deferred").value, 1u);
    // The rising edge of pressure forced one early checkpoint.
    EXPECT_GE(snap.counter("resource.early_checkpoints").value, 1u);
    EXPECT_TRUE(fs::exists(stream.checkpoint_path));
  }
}

TEST(StreamGovernor, DiskSoftPressureDropsRetentionAndShedsQuarantine) {
  const AtlasFixture& fx = atlas_fixture();
  const fs::path watch = temp_dir("stream_gov_soft_watch");
  const fs::path ckdir = temp_dir("stream_gov_soft_ckpt");
  const auto paths = write_atlas_batches(watch, fx.dataset, 4);
  drop_sentinel(watch, "stream.stop");
  // One malformed line in the first batch: rejected (and normally
  // quarantined) identically by the reference and the streamed run.
  {
    std::ofstream out(paths[0], std::ios::binary | std::ios::app);
    out << "this,is,not,an,echo,record\n";
  }

  core::AtlasFileStudyConfig cfg;
  cfg.threads = 1;
  std::ostringstream ref_quarantine;
  cfg.reader.quarantine = &ref_quarantine;
  auto ref = core::run_atlas_study_from_files(paths, fx.isps, cfg);
  ASSERT_TRUE(ref.ok()) << ref.status().to_string();
  const std::string want = atlas_signature(*ref);
  EXPECT_TRUE(contains(ref_quarantine.str(), "this,is,not"));

  obs::MetricsRegistry govreg;
  core::ResourceBudgets budgets;
  budgets.min_disk_free_mb = 100;
  budgets.sample_interval_ms = 0;
  budgets.metrics = &govreg;
  budgets.disk_paths = {ckdir.string()};
  // Between min/2 and min: soft but never hard.
  budgets.disk_free_probe = [](const std::string&) {
    return std::uint64_t(80) * kMiB;
  };
  core::ResourceGovernor governor(budgets);

  std::ostringstream stream_quarantine;
  cfg.reader.quarantine = &stream_quarantine;
  core::StreamConfig stream;
  stream.checkpoint_path = (ckdir / "study.ckpt").string();
  stream.governor = &governor;
  core::StreamStats stats;
  auto study = core::StreamDriver(cfg.threads).follow_atlas(
      watch.string(), fx.isps, cfg, stream, {}, nullptr, &stats);
  ASSERT_TRUE(study.ok()) << study.status().to_string();
  EXPECT_EQ(atlas_signature(*study), want);
  EXPECT_EQ(stats.batches, 4u);

  // Keep-last-1 retention: four checkpoint writes, no `.prev` survivor;
  // the journal is the one file both generations would share.
  std::set<std::string> entries;
  for (const auto& e : fs::directory_iterator(ckdir))
    entries.insert(e.path().filename().string());
  EXPECT_EQ(entries,
            (std::set<std::string>{"study.ckpt", "study.ckpt.journal"}));

  // The quarantine copy was shed — but the reject stayed counted and the
  // shed volume is observable.
  EXPECT_TRUE(stream_quarantine.str().empty()) << stream_quarantine.str();
  auto snap = govreg.snapshot();
  EXPECT_GE(snap.counter("resource.retention_drops").value, 1u);
  EXPECT_GE(snap.counter("resource.quarantine_shed").value, 1u);
}

TEST(StreamGovernor, DiskHardPressurePausesIngestUntilSpaceRecovers) {
  const AtlasFixture& fx = atlas_fixture();
  const fs::path watch = temp_dir("stream_gov_hard_watch");
  const fs::path ckdir = temp_dir("stream_gov_hard_ckpt");
  const auto paths = write_atlas_batches(watch, fx.dataset, 3);
  drop_sentinel(watch, "stream.stop");

  core::AtlasFileStudyConfig ref_cfg;
  ref_cfg.threads = 1;
  auto ref = core::run_atlas_study_from_files(paths, fx.isps, ref_cfg);
  ASSERT_TRUE(ref.ok()) << ref.status().to_string();
  const std::string want = atlas_signature(*ref);

  // The first few probes see a nearly full disk (below min/2: hard), then
  // space recovers — as if an operator cleared logs mid-pause.
  obs::MetricsRegistry govreg;
  std::uint64_t probe_calls = 0;
  core::ResourceBudgets budgets;
  budgets.min_disk_free_mb = 100;
  budgets.sample_interval_ms = 0;
  budgets.metrics = &govreg;
  budgets.disk_paths = {ckdir.string()};
  budgets.disk_free_probe = [&](const std::string&) {
    return (++probe_calls <= 3 ? std::uint64_t(10) : std::uint64_t(10000)) *
           kMiB;
  };
  core::ResourceGovernor governor(budgets);

  core::AtlasFileStudyConfig cfg;
  cfg.threads = 1;
  core::StreamConfig stream;
  stream.checkpoint_path = (ckdir / "study.ckpt").string();
  stream.governor = &governor;
  stream.poll_ms = 5;
  core::StreamStats stats;
  auto study = core::StreamDriver(cfg.threads).follow_atlas(
      watch.string(), fx.isps, cfg, stream, {}, nullptr, &stats);
  ASSERT_TRUE(study.ok()) << study.status().to_string();
  EXPECT_EQ(atlas_signature(*study), want);
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_GE(govreg.snapshot().counter("resource.ingest_pauses").value, 1u);
}

TEST(StreamGovernor, LagBackpressureSkipsIntermediateRefinalizes) {
  const AtlasFixture& fx = atlas_fixture();
  const fs::path watch = temp_dir("stream_gov_lag_watch");
  const auto paths = write_atlas_batches(watch, fx.dataset, 4);
  drop_sentinel(watch, "stream.stop");
  // Every batch is an hour old by mtime: the stream is far behind its
  // producer, so intermediate publications must yield to catch-up.
  for (const auto& p : paths)
    fs::last_write_time(
        p, fs::file_time_type::clock::now() - std::chrono::hours(1));

  core::AtlasFileStudyConfig ref_cfg;
  ref_cfg.threads = 1;
  auto ref = core::run_atlas_study_from_files(paths, fx.isps, ref_cfg);
  ASSERT_TRUE(ref.ok()) << ref.status().to_string();
  const std::string want = atlas_signature(*ref);

  obs::MetricsRegistry reg;
  core::AtlasFileStudyConfig cfg;
  cfg.threads = 1;
  cfg.metrics = &reg;
  core::StreamConfig stream;
  stream.refinalize_every_batches = 2;
  stream.max_lag_seconds = 1.0;
  std::uint64_t windowed = 0;
  core::StreamStats stats;
  auto study = core::StreamDriver(cfg.threads).follow_atlas(
      watch.string(), fx.isps, cfg, stream,
      [&](const core::AtlasStudy&, const core::StreamStats&) { ++windowed; },
      nullptr, &stats);
  ASSERT_TRUE(study.ok()) << study.status().to_string();
  EXPECT_EQ(windowed, 0u);
  EXPECT_EQ(atlas_signature(*study), want);
  EXPECT_GE(reg.snapshot().counter("stream.refinalize_skipped").value, 1u);
}

TEST(StreamGovernor, BoundedBacklogStillConsumesEveryBatch) {
  const AtlasFixture& fx = atlas_fixture();
  const fs::path watch = temp_dir("stream_gov_backlog_watch");
  const auto paths = write_atlas_batches(watch, fx.dataset, 4);
  drop_sentinel(watch, "stream.stop");

  core::AtlasFileStudyConfig ref_cfg;
  ref_cfg.threads = 1;
  auto ref = core::run_atlas_study_from_files(paths, fx.isps, ref_cfg);
  ASSERT_TRUE(ref.ok()) << ref.status().to_string();
  const std::string want = atlas_signature(*ref);

  // Admit one batch per sweep: a four-batch burst takes four sweeps, but
  // nothing is dropped and the sentinel cannot finalize early.
  core::AtlasFileStudyConfig cfg;
  cfg.threads = 1;
  core::StreamConfig stream;
  stream.max_backlog_batches = 1;
  stream.poll_ms = 5;
  core::StreamStats stats;
  auto study = core::StreamDriver(cfg.threads).follow_atlas(
      watch.string(), fx.isps, cfg, stream, {}, nullptr, &stats);
  ASSERT_TRUE(study.ok()) << study.status().to_string();
  EXPECT_EQ(stats.batches, 4u);
  EXPECT_EQ(atlas_signature(*study), want);
}

}  // namespace
}  // namespace dynamips
