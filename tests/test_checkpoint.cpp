// test_checkpoint — crash-safe studies: the checkpoint codec and container
// (io/checkpoint.h), atomic file publication (io/atomic_file.h), analyzer
// save/load round-trips, and the end-to-end guarantee of the supervised
// pipeline: a run interrupted at every round boundary and resumed — at any
// thread count — produces results byte-identical to an uninterrupted run.
//
// Corruption coverage is exhaustive at this file size: every single-byte
// flip and every truncation of an encoded checkpoint must be rejected with
// a descriptive Status, never a crash or a silently wrong resume.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "atlas/generator.h"
#include "cdn/generator.h"
#include "core/assoc.h"
#include "core/failpoint.h"
#include "core/pipeline.h"
#include "core/shutdown.h"
#include "io/atomic_file.h"
#include "io/checkpoint.h"
#include "io/results_io.h"
#include "obs/metrics.h"
#include "simnet/isp.h"
#include "stats/ttf.h"

namespace dynamips {
namespace {

using io::ckpt::Reader;
using io::ckpt::Writer;

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

// ------------------------------------------------------------------- codec

TEST(CheckpointCodec, RoundTripsEveryType) {
  Writer w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-42);
  w.f64(0.1);            // not exactly representable: must be bit-exact
  w.f64(-0.0);           // sign of zero must survive
  w.str("hello\0world");  // embedded NUL via string_view would stop at \0;
  w.str(std::string("a\0b", 3));  // explicit length keeps it
  w.str("");

  Reader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.f64(), 0.1);
  double z = r.f64();
  EXPECT_EQ(z, 0.0);
  EXPECT_TRUE(std::signbit(z));
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), std::string("a\0b", 3));
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(CheckpointCodec, ReaderFailsStickyOnUnderflow) {
  Writer w;
  w.u32(7);
  Reader r(w.buffer());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_EQ(r.u64(), 0u);  // out of bytes
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0u);  // sticky: every later read is zero
  EXPECT_FALSE(r.ok());
}

TEST(CheckpointCodec, SizeGuardRejectsImpossibleCounts) {
  Writer w;
  w.u64(1u << 30);  // claims 2^30 elements with no bytes behind it
  Reader r(w.buffer());
  EXPECT_EQ(r.size(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(CheckpointCodec, Crc32MatchesKnownVector) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(io::ckpt::crc32("123456789"), 0xCBF43926u);
}

// crc32_combine over the parts of a random split, empty parts included,
// must give crc32 of the whole.
TEST(CheckpointCodec, Crc32CombineMatchesTheConcatenation) {
  using io::ckpt::crc32;
  using io::ckpt::crc32_combine;
  std::mt19937_64 rng(17);
  for (int trial = 0; trial < 400; ++trial) {
    std::string bytes(rng() % 600, '\0');
    for (char& c : bytes) c = char(rng());
    std::vector<std::size_t> cuts{0, bytes.size()};
    for (std::uint64_t n = rng() % 5; n > 0; --n)
      cuts.push_back(bytes.empty() ? 0 : rng() % (bytes.size() + 1));
    if (trial % 3 == 0) cuts.push_back(cuts.back());  // an empty part
    std::sort(cuts.begin(), cuts.end());
    std::uint32_t crc = 0;  // crc32 of no bytes
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      const std::string_view part =
          std::string_view(bytes).substr(cuts[i], cuts[i + 1] - cuts[i]);
      crc = crc32_combine(crc, crc32(part), part.size());
    }
    EXPECT_EQ(crc, crc32(bytes)) << "trial " << trial;
  }
  // Lengths past 2^32 bytes: combining is associative however long the
  // parts are.
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint32_t a = std::uint32_t(rng()), b = std::uint32_t(rng()),
                        c = std::uint32_t(rng());
    const std::uint64_t lb = rng() >> (1 + rng() % 63), lc = rng() >> 24;
    EXPECT_EQ(crc32_combine(crc32_combine(a, b, lb), c, lc),
              crc32_combine(a, crc32_combine(b, c, lc), lb + lc));
  }
}

// --------------------------------------------------------------- container

io::StudyCheckpoint sample_checkpoint() {
  io::StudyCheckpoint ck;
  ck.kind = io::kCkptAtlasGen;
  ck.config_fingerprint = 0x1122334455667788ull;
  ck.item_count = 10;
  ck.shards = {{0, 5, 3, "shard-zero-state"}, {5, 10, 5, "shard-one"}};
  ck.registry_blob = "registry-bytes";
  ck.supervisor_blob = "supervisor-bytes";
  return ck;
}

TEST(CheckpointContainer, EncodeDecodeRoundTrips) {
  io::StudyCheckpoint ck = sample_checkpoint();
  auto decoded = io::decode_checkpoint(io::encode_checkpoint(ck));
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded->kind, ck.kind);
  EXPECT_EQ(decoded->config_fingerprint, ck.config_fingerprint);
  EXPECT_EQ(decoded->item_count, ck.item_count);
  ASSERT_EQ(decoded->shards.size(), 2u);
  EXPECT_EQ(decoded->shards[0].begin, 0u);
  EXPECT_EQ(decoded->shards[0].next, 3u);
  EXPECT_EQ(decoded->shards[0].blob, "shard-zero-state");
  EXPECT_EQ(decoded->shards[1].blob, "shard-one");
  EXPECT_EQ(decoded->registry_blob, "registry-bytes");
  EXPECT_EQ(decoded->supervisor_blob, "supervisor-bytes");
  EXPECT_EQ(decoded->items_done(), 3u + 0u);
}

TEST(CheckpointContainer, EveryByteFlipIsRejected) {
  std::string bytes = io::encode_checkpoint(sample_checkpoint());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string damaged = bytes;
    damaged[i] = char(damaged[i] ^ 0x20);
    auto decoded = io::decode_checkpoint(damaged);
    ASSERT_FALSE(decoded.ok()) << "flip at byte " << i << " was accepted";
    EXPECT_FALSE(decoded.status().message().empty());
  }
}

TEST(CheckpointContainer, EveryTruncationIsRejected) {
  std::string bytes = io::encode_checkpoint(sample_checkpoint());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    auto decoded =
        io::decode_checkpoint(std::string_view(bytes).substr(0, len));
    ASSERT_FALSE(decoded.ok()) << "truncation to " << len << " was accepted";
    EXPECT_EQ(decoded.status().code(), core::StatusCode::kDataLoss);
  }
}

TEST(CheckpointContainer, VersionSkewIsFailedPrecondition) {
  std::string bytes = io::encode_checkpoint(sample_checkpoint());
  bytes[8] = char(io::kCheckpointVersion + 1);  // u32 LE version low byte
  // Re-stamp the whole-file CRC so only the version differs.
  std::uint32_t crc =
      io::ckpt::crc32(std::string_view(bytes).substr(0, bytes.size() - 4));
  for (int i = 0; i < 4; ++i)
    bytes[bytes.size() - 4 + std::size_t(i)] = char((crc >> (8 * i)) & 0xFF);
  auto decoded = io::decode_checkpoint(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), core::StatusCode::kFailedPrecondition);
  EXPECT_NE(decoded.status().message().find("version"), std::string::npos);
}

TEST(CheckpointContainer, InconsistentShardTableIsRejected) {
  io::StudyCheckpoint ck = sample_checkpoint();
  ck.shards[1].begin = 6;  // gap after shard 0
  auto decoded = io::decode_checkpoint(io::encode_checkpoint(ck));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), core::StatusCode::kDataLoss);
}

// ------------------------------------------------------- files & retention

TEST(CheckpointFiles, MissingFileIsNotFound) {
  auto loaded = io::read_checkpoint(temp_path("no_such.ckpt"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), core::StatusCode::kNotFound);
}

TEST(CheckpointFiles, WriteRetainsPreviousAndFallsBackToIt) {
  const std::string path = temp_path("retained.ckpt");
  io::remove_checkpoint_files(path);

  io::StudyCheckpoint first = sample_checkpoint();
  ASSERT_TRUE(io::write_checkpoint(path, first).ok());
  io::StudyCheckpoint second = sample_checkpoint();
  second.shards[0].next = 5;
  ASSERT_TRUE(io::write_checkpoint(path, second).ok());

  // The previous snapshot survives as .prev.
  auto prev = io::read_checkpoint(path + ".prev");
  ASSERT_TRUE(prev.ok()) << prev.status().to_string();
  EXPECT_EQ(prev->shards[0].next, 3u);

  // Damage the primary: the fallback reader serves .prev and says so.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "not a checkpoint";
  }
  std::string used;
  auto fallback = io::read_checkpoint_with_fallback(path, &used);
  ASSERT_TRUE(fallback.ok()) << fallback.status().to_string();
  EXPECT_EQ(used, path + ".prev");
  EXPECT_EQ(fallback->shards[0].next, 3u);

  // With both damaged the Status describes both attempts.
  {
    std::ofstream out(path + ".prev", std::ios::binary | std::ios::trunc);
    out << "also not a checkpoint";
  }
  auto none = io::read_checkpoint_with_fallback(path, &used);
  ASSERT_FALSE(none.ok());
  EXPECT_NE(none.status().message().find(".prev"), std::string::npos);

  io::remove_checkpoint_files(path);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".prev"));
}

TEST(AtomicFile, AbandonedWriterLeavesDestinationUntouched) {
  const std::string path = temp_path("atomic_abandon.txt");
  ASSERT_TRUE(io::write_file_atomic(path, "original").ok());
  {
    io::AtomicFileWriter w(path);
    ASSERT_TRUE(w.ok());
    w.stream() << "half-written";
    // no commit: simulated crash
  }
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "original");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

TEST(AtomicFile, DoubleCommitIsFailedPrecondition) {
  const std::string path = temp_path("atomic_double.txt");
  io::AtomicFileWriter w(path);
  ASSERT_TRUE(w.ok());
  w.stream() << "bytes";
  ASSERT_TRUE(w.commit().ok());
  EXPECT_EQ(w.commit().code(), core::StatusCode::kFailedPrecondition);
  std::filesystem::remove(path);
}

// ------------------------------------------------------- fault injection
//
// The same crash-safety claims, but exercised through core/failpoint.h
// instead of hoping the error paths never run: injected ENOSPC, torn
// writes, fsync failures, and primary-corruption must all leave the last
// good version readable and never publish a partial file.

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

class FailpointInjection : public ::testing::Test {
 protected:
  void SetUp() override { core::disarm_failpoints(); }
  void TearDown() override { core::disarm_failpoints(); }
};

TEST_F(FailpointInjection, InjectedEnospcRemovesTmpAndKeepsDestination) {
  const std::string path = temp_path("fp_enospc.txt");
  ASSERT_TRUE(io::write_file_atomic(path, "original").ok());

  ASSERT_TRUE(core::arm_failpoints("atomic_file.write=err(ENOSPC)@1").ok());
  core::Status st = io::write_file_atomic(path, "replacement");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("ENOSPC"), std::string::npos);
  EXPECT_EQ(slurp(path), "original");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // Disarmed again, the very same write goes through.
  core::disarm_failpoints();
  ASSERT_TRUE(io::write_file_atomic(path, "replacement").ok());
  EXPECT_EQ(slurp(path), "replacement");
  std::filesystem::remove(path);
}

TEST_F(FailpointInjection, TornWriteLeavesTmpButNeverTouchesDestination) {
  const std::string path = temp_path("fp_torn.txt");
  ASSERT_TRUE(io::write_file_atomic(path, "original").ok());

  ASSERT_TRUE(core::arm_failpoints("atomic_file.write=short@1").ok());
  const std::string contents = "0123456789abcdef";
  ASSERT_FALSE(io::write_file_atomic(path, contents).ok());
  // The torn .tmp is exactly what a crash leaves behind: a prefix, never
  // published. The destination still holds the previous good bytes.
  EXPECT_EQ(slurp(path), "original");
  ASSERT_TRUE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(slurp(path + ".tmp"), contents.substr(0, contents.size() / 2));

  // The torn leftover is ignored (overwritten) by the next write and
  // cleaned by the checkpoint retirement helper.
  core::disarm_failpoints();
  ASSERT_TRUE(io::write_file_atomic(path, contents).ok());
  EXPECT_EQ(slurp(path), contents);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

TEST_F(FailpointInjection, FsyncFailureRemovesTmpAndKeepsDestination) {
  const std::string path = temp_path("fp_fsync.txt");
  ASSERT_TRUE(io::write_file_atomic(path, "original").ok());

  ASSERT_TRUE(core::arm_failpoints("atomic_file.fsync=err@1").ok());
  core::Status st = io::write_file_atomic(path, "replacement");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("fsync"), std::string::npos);
  EXPECT_EQ(slurp(path), "original");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

TEST_F(FailpointInjection, DirsyncFailureSurfacesThroughStatus) {
  const std::string path = temp_path("fp_dirsync.txt");
  ASSERT_TRUE(core::arm_failpoints("atomic_file.dirsync=err@1").ok());
  core::Status st = io::write_file_atomic(path, "bytes");
  // The rename happened but its durability could not be guaranteed; the
  // caller hears about it instead of silently trusting the publish.
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("directory fsync"), std::string::npos);
  std::filesystem::remove(path);
}

TEST_F(FailpointInjection, EnospcMidCheckpointKeepsLastSnapshotLoadable) {
  const std::string path = temp_path("fp_ckpt_enospc.ckpt");
  io::remove_checkpoint_files(path);
  io::StudyCheckpoint first = sample_checkpoint();
  ASSERT_TRUE(io::write_checkpoint(path, first).ok());

  ASSERT_TRUE(core::arm_failpoints("checkpoint.write=err(ENOSPC)@1").ok());
  io::StudyCheckpoint second = sample_checkpoint();
  second.shards[0].next = 5;
  core::Status st = io::write_checkpoint(path, second);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("ENOSPC"), std::string::npos);

  // The disk still holds the first snapshot, byte-for-byte loadable.
  auto loaded = io::read_checkpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->shards[0].next, 3u);
  io::remove_checkpoint_files(path);
}

TEST_F(FailpointInjection, TornCheckpointSectionFallsBackToPrev) {
  const std::string path = temp_path("fp_ckpt_torn.ckpt");
  io::remove_checkpoint_files(path);
  io::StudyCheckpoint first = sample_checkpoint();
  ASSERT_TRUE(io::write_checkpoint(path, first).ok());
  io::StudyCheckpoint second = sample_checkpoint();
  second.shards[0].next = 5;
  ASSERT_TRUE(io::write_checkpoint(path, second).ok());
  // .prev now holds `first`, the primary holds `second`.

  // A torn section write clobbers the primary non-atomically (the failure
  // mode the atomic writer exists to prevent, forced on purpose).
  ASSERT_TRUE(core::arm_failpoints("checkpoint.torn=short@1").ok());
  io::StudyCheckpoint third = sample_checkpoint();
  third.shards[0].next = 4;
  EXPECT_EQ(io::write_checkpoint(path, third).code(),
            core::StatusCode::kDataLoss);

  // The primary is now torn garbage; resume falls back to .prev and says
  // so — no crash, no silently wrong state.
  ASSERT_FALSE(io::read_checkpoint(path).ok());
  std::string used;
  auto fallback = io::read_checkpoint_with_fallback(path, &used);
  ASSERT_TRUE(fallback.ok()) << fallback.status().to_string();
  EXPECT_EQ(used, path + ".prev");
  EXPECT_EQ(fallback->shards[0].next, 3u);
  io::remove_checkpoint_files(path);
}

TEST_F(FailpointInjection, RenameFailureLeavesDestinationUntouched) {
  const std::string path = temp_path("fp_rename.txt");
  ASSERT_TRUE(io::write_file_atomic(path, "original").ok());
  ASSERT_TRUE(core::arm_failpoints("atomic_file.rename=err@1").ok());
  ASSERT_FALSE(io::write_file_atomic(path, "replacement").ok());
  EXPECT_EQ(slurp(path), "original");
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".tmp");
}

// ------------------------------------------------- analyzer save/load state
//
// Serialized bytes are a pure function of analyzer state, so "load restores
// the state exactly" reduces to: feed half the data, round-trip through
// save/load, feed the other half to both the original and the loaded copy,
// and compare the final serializations byte for byte.

template <typename T>
std::string saved_bytes(const T& t) {
  Writer w;
  io::ckpt::save(w, t);
  return w.take();
}

struct AtlasFixture {
  bgp::Rib rib;
  std::vector<atlas::ProbeSeries> series;
};

const AtlasFixture& atlas_fixture() {
  static AtlasFixture* fx = [] {
    auto* f = new AtlasFixture;
    auto isps = simnet::paper_isps();
    isps.resize(2);
    simnet::announce_all(isps, f->rib);
    atlas::AtlasConfig cfg;
    cfg.probe_scale = 0.05;
    cfg.window_hours = 6000;
    cfg.seed = 42;
    atlas::AtlasSimulator sim(isps, cfg);
    for (std::size_t i = 0; i < sim.probe_count(); ++i)
      f->series.push_back(sim.series_for(i));
    EXPECT_GT(f->series.size(), 10u);
    return f;
  }();
  return *fx;
}

/// Round-trip `half_fed` through save/load into `fresh`, then feed the
/// second half of the fixture to both via `feed` and compare bytes.
template <typename T, typename Feed>
void expect_continue_after_load_identical(T& half_fed, T fresh, Feed&& feed,
                                          std::size_t half,
                                          std::size_t count) {
  std::string snapshot = saved_bytes(half_fed);
  Reader r(snapshot);
  ASSERT_TRUE(io::ckpt::load(r, fresh));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(saved_bytes(fresh), snapshot);

  for (std::size_t i = half; i < count; ++i) {
    feed(half_fed, i);
    feed(fresh, i);
  }
  EXPECT_EQ(saved_bytes(fresh), saved_bytes(half_fed));
}

TEST(AnalyzerState, SanitizerSaveLoadContinues) {
  const auto& fx = atlas_fixture();
  std::size_t half = fx.series.size() / 2;
  core::Sanitizer a(fx.rib, {});
  auto feed = [&](core::Sanitizer& s, std::size_t i) {
    s.sanitize(core::from_series(fx.series[i]));
  };
  for (std::size_t i = 0; i < half; ++i) feed(a, i);
  expect_continue_after_load_identical(a, core::Sanitizer(fx.rib, {}), feed,
                                       half, fx.series.size());
}

TEST(AnalyzerState, AtlasAnalyzersSaveLoadContinue) {
  const auto& fx = atlas_fixture();
  // Pre-sanitize into CleanProbes shared by all three analyzers.
  core::Sanitizer sanitizer(fx.rib, {});
  std::vector<core::CleanProbe> probes;
  for (const auto& s : fx.series)
    for (auto& cp : sanitizer.sanitize(core::from_series(s)))
      probes.push_back(std::move(cp));
  ASSERT_GT(probes.size(), 10u);
  std::size_t half = probes.size() / 2;

  core::DurationAnalyzer dur;
  auto feed_dur = [&](core::DurationAnalyzer& d, std::size_t i) {
    d.add(probes[i]);
  };
  for (std::size_t i = 0; i < half; ++i) feed_dur(dur, i);
  expect_continue_after_load_identical(dur, core::DurationAnalyzer(),
                                       feed_dur, half, probes.size());

  core::SpatialAnalyzer spa(fx.rib);
  auto feed_spa = [&](core::SpatialAnalyzer& s, std::size_t i) {
    s.add(probes[i]);
  };
  for (std::size_t i = 0; i < half; ++i) feed_spa(spa, i);
  expect_continue_after_load_identical(spa, core::SpatialAnalyzer(fx.rib),
                                       feed_spa, half, probes.size());

  core::InferenceCollector inf;
  auto feed_inf = [&](core::InferenceCollector& c, std::size_t i) {
    c.add(probes[i]);
  };
  for (std::size_t i = 0; i < half; ++i) feed_inf(inf, i);
  expect_continue_after_load_identical(inf, core::InferenceCollector(),
                                       feed_inf, half, probes.size());
}

TEST(AnalyzerState, CdnAnalyzerSaveLoadContinues) {
  auto population = cdn::default_cdn_population(0.05);
  cdn::CdnConfig cfg;
  cfg.subscriber_scale = 0.05;
  cfg.seed = 99;
  cdn::CdnSimulator sim(population, cfg);
  std::size_t half = sim.entry_count() / 2;
  core::CdnAnalyzer a({}, sim.mobile_asns());
  auto feed = [&](core::CdnAnalyzer& c, std::size_t i) {
    c.add_log(sim.generate(i));
  };
  for (std::size_t i = 0; i < half; ++i) feed(a, i);
  expect_continue_after_load_identical(
      a, core::CdnAnalyzer({}, sim.mobile_asns()), feed, half,
      sim.entry_count());
}

TEST(AnalyzerState, MetricsSinkSaveLoadRoundTrips) {
  obs::MetricsSink sink;
  sink.counter("a.count").add(7);
  sink.counter("b.count").add(1);
  sink.gauge("g").set(2.5);
  sink.histogram("h").record(12.0, 3);
  sink.phase("p").record(1000);
  sink.phase("p").record(5000);

  std::string bytes = saved_bytes(sink);
  obs::MetricsSink loaded;
  Reader r(bytes);
  ASSERT_TRUE(io::ckpt::load(r, loaded));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(saved_bytes(loaded), bytes);
  EXPECT_EQ(loaded.counters().at("a.count").value, 7u);
  EXPECT_EQ(loaded.gauges().at("g").value, 2.5);
  EXPECT_TRUE(loaded.histograms().at("h") == sink.histograms().at("h"));
  EXPECT_EQ(loaded.phases().at("p").count, 2u);

  // A corrupted sink blob fails load() instead of faulting.
  std::string damaged = bytes.substr(0, bytes.size() / 2);
  obs::MetricsSink reject;
  Reader rr(damaged);
  EXPECT_FALSE(io::ckpt::load(rr, reject));
}

/// A histogram blob with the given binning and one bucket.
std::string histogram_blob(double lo_exp, double hi_exp) {
  Writer w;
  w.f64(lo_exp);
  w.f64(hi_exp);
  w.u32(5);  // bins per decade
  w.u64(0);  // total
  w.u64(1);  // bucket count
  w.u64(0);
  return w.take();
}

TEST(AnalyzerState, HistogramRejectsNonFiniteOrHugeBinning) {
  // The bucket count is derived from the binning; the load must refuse the
  // binning before converting an infinite or enormous span to an integer.
  for (double hi : {std::numeric_limits<double>::infinity(), 1e300,
                    std::numeric_limits<double>::quiet_NaN()}) {
    const std::string blob = histogram_blob(0, hi);
    Reader r(blob);
    obs::Histogram h;
    EXPECT_FALSE(io::ckpt::load(r, h)) << "hi_exp " << hi;
  }
  // A consistent binning with a single bucket still loads.
  const std::string ok = histogram_blob(0, 0.1);
  Reader r(ok);
  obs::Histogram h;
  EXPECT_TRUE(io::ckpt::load(r, h));
  EXPECT_EQ(h.buckets().size(), 1u);
}

TEST(CheckpointArchive, MapKeysMustStrictlyIncrease) {
  auto ttf_blob = [](std::uint64_t first, std::uint64_t second) {
    Writer w;
    w.u64(2);  // two (hours, count) pairs
    w.u64(first);
    w.u64(1);
    w.u64(second);
    w.u64(1);
    w.u64(first + second);  // total hours
    w.u64(2);               // total count
    return w.take();
  };
  for (auto [first, second, loads] :
       {std::tuple{3u, 7u, true}, {7u, 3u, false}, {5u, 5u, false}}) {
    const std::string blob = ttf_blob(first, second);
    Reader r(blob);
    stats::TotalTimeFraction ttf;
    EXPECT_EQ(io::ckpt::load(r, ttf), loads) << first << ", " << second;
  }
}

TEST(CheckpointArchive, BoolAndEnumBytesMustBeInRange) {
  // A gauge is (f64 value, bool set): the flag byte must be 0 or 1.
  for (std::uint8_t flag : {0, 1, 2, 255}) {
    Writer w;
    w.f64(2.5);
    w.u8(flag);
    Reader r(w.buffer());
    obs::Gauge g;
    EXPECT_EQ(io::ckpt::load(r, g), flag <= 1) << int(flag);
  }
  // A registry class is (registry enum, mobile bool); kAfrinic is the last
  // registry.
  for (std::uint8_t reg : {0, 4, 5}) {
    Writer w;
    w.u8(reg);
    w.u8(0);
    Reader r(w.buffer());
    core::RegistryClass cls;
    EXPECT_EQ(io::ckpt::load(r, cls), reg <= 4) << int(reg);
  }
}

// --------------------------------------------------------------- shutdown

TEST(Shutdown, RequestIsSticky) {
  core::ShutdownToken token;
  EXPECT_FALSE(token.requested());
  token.request();
  EXPECT_TRUE(token.requested());
  token.clear();
  EXPECT_FALSE(token.requested());
}

TEST(Shutdown, DeadlineTrips) {
  core::ShutdownToken token;
  token.arm_deadline_seconds(1e-4);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!token.requested() &&
         std::chrono::steady_clock::now() < deadline) {
  }
  EXPECT_TRUE(token.requested());
  token.arm_deadline_seconds(0);  // non-positive disarms
  token.clear();
  EXPECT_FALSE(token.requested());
}

// Regression: seconds * 1e9 used to overflow the ns conversion for large
// values (UB on float->integer casts out of range), which could arm an
// already-expired deadline. Huge deadlines must clamp and never trip.
TEST(Shutdown, HugeDeadlineClampsInsteadOfOverflowing) {
  core::ShutdownToken token;
  for (double secs : {1e10, 1e18, 1e30, 1e300}) {
    token.clear();
    token.arm_deadline_seconds(secs);
    EXPECT_FALSE(token.requested()) << "seconds=" << secs;
  }
  token.arm_deadline_seconds(0);
  token.clear();
}

// ------------------------------------------- end-to-end interrupt & resume
//
// The acceptance criterion of the crash-safety work: interrupt the study at
// EVERY round boundary, resume each time from the freshly written
// checkpoint (re-read from disk, exactly as a new process would), and the
// final results must be byte-identical to an uninterrupted run — at every
// thread count, including resuming under a different one.

std::string atlas_bytes(const core::AtlasStudy& s) {
  std::ostringstream os;
  io::write_duration_curves_csv(os, s);
  io::write_cpl_csv(os, s);
  io::write_bgp_moves_csv(os, s);
  io::write_inference_csv(os, s);
  return os.str();
}

std::string cdn_bytes(const core::CdnStudy& s) {
  std::ostringstream os;
  io::write_assoc_durations_csv(os, s);
  io::write_degrees_csv(os, s);
  io::write_zero_boundaries_csv(os, s);
  return os.str();
}

std::vector<simnet::IspProfile> study_isps() {
  auto isps = simnet::paper_isps();
  isps.resize(3);
  return isps;
}

core::AtlasStudyConfig small_atlas_config(unsigned threads,
                                          obs::MetricsRegistry* metrics) {
  core::AtlasStudyConfig cfg;
  cfg.atlas.probe_scale = 0.05;
  cfg.atlas.window_hours = 6000;
  cfg.atlas.seed = 7;
  cfg.threads = threads;
  cfg.metrics = metrics;
  return cfg;
}

core::CdnStudyConfig small_cdn_config(unsigned threads,
                                      obs::MetricsRegistry* metrics) {
  core::CdnStudyConfig cfg;
  cfg.cdn.subscriber_scale = 0.05;
  cfg.cdn.seed = 13;
  cfg.threads = threads;
  cfg.metrics = metrics;
  return cfg;
}

/// The golden fixtures' CDN study: a smaller population than
/// small_cdn_config's callers use, to keep the committed files small.
core::CdnStudyConfig golden_cdn_config() {
  core::CdnStudyConfig cfg = small_cdn_config(2, nullptr);
  cfg.cdn.subscriber_scale = 0.02;
  return cfg;
}

/// Run `attempt(checkpoint_config)` with a pre-tripped shutdown token until
/// it completes: every attempt makes exactly one round of progress, gets
/// cancelled at the boundary, and the next attempt resumes from the
/// checkpoint file — re-read from disk each time, like a fresh process.
/// Returns the completed result and the number of interrupts survived.
template <typename Run>
auto chain_resume(const std::string& path, std::uint64_t every_items,
                  Run&& attempt, int* interrupts_out = nullptr) {
  io::remove_checkpoint_files(path);
  std::optional<io::StudyCheckpoint> ck;
  int interrupts = 0;
  for (;;) {
    core::ShutdownToken token;
    token.request();  // cancel at the first round boundary
    core::CheckpointConfig cc;
    cc.every_items = every_items;
    cc.path = path;
    cc.token = &token;
    cc.resume = ck ? &*ck : nullptr;
    auto result = attempt(cc);
    if (result.ok()) {
      if (interrupts_out) *interrupts_out = interrupts;
      io::remove_checkpoint_files(path);
      return result.take();
    }
    EXPECT_EQ(result.status().code(), core::StatusCode::kCancelled)
        << result.status().to_string();
    auto loaded = io::read_checkpoint_with_fallback(path);
    if (!loaded.ok()) {
      ADD_FAILURE() << "no checkpoint after interrupt: "
                    << loaded.status().to_string();
      std::abort();
    }
    ck = loaded.take();
    if (++interrupts >= 10000) {
      ADD_FAILURE() << "resume chain does not converge";
      std::abort();
    }
  }
}

TEST(InterruptResume, AtlasByteIdenticalAcrossInterruptsAndThreads) {
  auto isps = study_isps();
  std::string reference =
      atlas_bytes(core::run_atlas_study(isps, small_atlas_config(1, nullptr)));

  const std::string path = temp_path("atlas_chain.ckpt");
  for (unsigned threads : {1u, 4u}) {
    int interrupts = 0;
    auto resumed = chain_resume(
        path, 7,
        [&](const core::CheckpointConfig& cc) {
          return core::run_atlas_study_supervised(
              isps, small_atlas_config(threads, nullptr), cc);
        },
        &interrupts);
    EXPECT_GT(interrupts, 1) << "test never actually interrupted the study";
    EXPECT_EQ(atlas_bytes(resumed), reference) << "threads=" << threads;
  }
}

TEST(InterruptResume, CdnByteIdenticalAcrossInterruptsAndThreads) {
  std::string reference = cdn_bytes(core::run_cdn_study(
      cdn::default_cdn_population(0.05), small_cdn_config(1, nullptr)));

  const std::string path = temp_path("cdn_chain.ckpt");
  for (unsigned threads : {1u, 4u}) {
    int interrupts = 0;
    auto resumed = chain_resume(
        path, 1,
        [&](const core::CheckpointConfig& cc) {
          return core::run_cdn_study_supervised(
              cdn::default_cdn_population(0.05),
              small_cdn_config(threads, nullptr), cc);
        },
        &interrupts);
    EXPECT_GT(interrupts, 1) << "test never actually interrupted the study";
    EXPECT_EQ(cdn_bytes(resumed), reference) << "threads=" << threads;
  }
}

TEST(InterruptResume, ResumeUnderDifferentThreadCountIsIdentical) {
  auto isps = study_isps();
  std::string reference =
      atlas_bytes(core::run_atlas_study(isps, small_atlas_config(4, nullptr)));

  // Interrupt once at threads=4, then finish the run at threads=1: the
  // shard partition comes from the checkpoint, so results cannot move.
  const std::string path = temp_path("atlas_crossthread.ckpt");
  io::remove_checkpoint_files(path);
  core::ShutdownToken token;
  token.request();
  core::CheckpointConfig cc;
  cc.every_items = 11;
  cc.path = path;
  cc.token = &token;
  auto first = core::run_atlas_study_supervised(
      isps, small_atlas_config(4, nullptr), cc);
  ASSERT_FALSE(first.ok());
  ASSERT_EQ(first.status().code(), core::StatusCode::kCancelled);

  auto ck = io::read_checkpoint(path);
  ASSERT_TRUE(ck.ok()) << ck.status().to_string();
  ASSERT_EQ(ck->shards.size(), 4u);
  core::CheckpointConfig resume_cc;
  resume_cc.resume = &*ck;
  auto finished = core::run_atlas_study_supervised(
      isps, small_atlas_config(1, nullptr), resume_cc);
  ASSERT_TRUE(finished.ok()) << finished.status().to_string();
  EXPECT_EQ(atlas_bytes(*finished), reference);
  io::remove_checkpoint_files(path);
}

// Counter equality of interrupted-and-resumed vs straight runs: everything
// except the supervisor's own checkpoint.* accounting must match exactly.
std::map<std::string, std::uint64_t> counters_except_checkpoint(
    const obs::MetricsSink& sink) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, counter] : sink.counters())
    if (name.rfind("checkpoint.", 0) != 0) out[name] = counter.value;
  return out;
}

TEST(InterruptResume, CountersMatchStraightRunModuloCheckpoint) {
  auto isps = study_isps();
  obs::MetricsRegistry straight;
  auto expected = core::run_atlas_study_supervised(
      isps, small_atlas_config(2, &straight), {});
  ASSERT_TRUE(expected.ok());

  const std::string path = temp_path("atlas_counters.ckpt");
  obs::MetricsRegistry resumed;
  // A single registry across attempts would double-count: each cancelled
  // attempt flushes its partial sinks. Use one registry per attempt and
  // keep the last, exactly like a real re-executed process.
  io::remove_checkpoint_files(path);
  std::optional<io::StudyCheckpoint> ck;
  for (int attempt = 0;; ++attempt) {
    ASSERT_LT(attempt, 10000);
    obs::MetricsRegistry fresh;
    core::ShutdownToken token;
    token.request();
    core::CheckpointConfig cc;
    cc.every_items = 9;
    cc.path = path;
    cc.token = &token;
    cc.resume = ck ? &*ck : nullptr;
    auto result = core::run_atlas_study_supervised(
        isps, small_atlas_config(2, &fresh), cc);
    if (result.ok()) {
      resumed.merge(fresh.snapshot());
      break;
    }
    ASSERT_EQ(result.status().code(), core::StatusCode::kCancelled);
    auto loaded = io::read_checkpoint(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
    ck = loaded.take();
  }
  io::remove_checkpoint_files(path);

  // snapshot() returns by value; keep it alive past the full expression.
  obs::MetricsSink snap = resumed.snapshot();
  EXPECT_EQ(counters_except_checkpoint(snap),
            counters_except_checkpoint(straight.snapshot()));
  // The supervisor accounting itself must exist on the resumed side.
  // (`checkpoint.writes` lives only in the interrupted attempts' registries,
  // which a re-executed process discards, so it is absent here by design.)
  EXPECT_TRUE(snap.counters().count("checkpoint.resumes"));
  EXPECT_TRUE(snap.counters().count("checkpoint.rounds"));
}

// ------------------------------------------------- resume rejection paths

TEST(ResumeValidation, WrongStudyKindIsRejected) {
  auto isps = study_isps();
  const std::string path = temp_path("kind_mismatch.ckpt");
  io::remove_checkpoint_files(path);
  core::ShutdownToken token;
  token.request();
  core::CheckpointConfig cc;
  cc.every_items = 5;
  cc.path = path;
  cc.token = &token;
  auto first = core::run_atlas_study_supervised(
      isps, small_atlas_config(2, nullptr), cc);
  ASSERT_EQ(first.status().code(), core::StatusCode::kCancelled);
  auto ck = io::read_checkpoint(path);
  ASSERT_TRUE(ck.ok());

  core::CheckpointConfig wrong;
  wrong.resume = &*ck;
  auto cdn = core::run_cdn_study_supervised(cdn::default_cdn_population(0.05),
                                            small_cdn_config(1, nullptr),
                                            wrong);
  ASSERT_FALSE(cdn.ok());
  EXPECT_EQ(cdn.status().code(), core::StatusCode::kFailedPrecondition);
  EXPECT_NE(cdn.status().message().find("atlas"), std::string::npos);
  io::remove_checkpoint_files(path);
}

TEST(ResumeValidation, ChangedConfigIsRejected) {
  auto isps = study_isps();
  const std::string path = temp_path("fingerprint_mismatch.ckpt");
  io::remove_checkpoint_files(path);
  core::ShutdownToken token;
  token.request();
  core::CheckpointConfig cc;
  cc.every_items = 5;
  cc.path = path;
  cc.token = &token;
  auto first = core::run_atlas_study_supervised(
      isps, small_atlas_config(2, nullptr), cc);
  ASSERT_EQ(first.status().code(), core::StatusCode::kCancelled);
  auto ck = io::read_checkpoint(path);
  ASSERT_TRUE(ck.ok());

  auto changed = small_atlas_config(2, nullptr);
  changed.atlas.seed = 8;  // different run: resuming would be silently wrong
  core::CheckpointConfig resume_cc;
  resume_cc.resume = &*ck;
  auto result = core::run_atlas_study_supervised(isps, changed, resume_cc);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), core::StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("fingerprint"), std::string::npos);

  // Same config but a tampered item count: also rejected, other message.
  io::StudyCheckpoint tampered = *ck;
  tampered.item_count += 1;
  tampered.shards.back().end += 1;
  core::CheckpointConfig tampered_cc;
  tampered_cc.resume = &tampered;
  auto result2 = core::run_atlas_study_supervised(
      isps, small_atlas_config(2, nullptr), tampered_cc);
  ASSERT_FALSE(result2.ok());
  EXPECT_EQ(result2.status().code(), core::StatusCode::kFailedPrecondition);
  io::remove_checkpoint_files(path);
}

TEST(ResumeValidation, CorruptShardBlobIsDataLoss) {
  auto isps = study_isps();
  const std::string path = temp_path("blob_corrupt.ckpt");
  io::remove_checkpoint_files(path);
  core::ShutdownToken token;
  token.request();
  core::CheckpointConfig cc;
  cc.every_items = 5;
  cc.path = path;
  cc.token = &token;
  auto first = core::run_atlas_study_supervised(
      isps, small_atlas_config(2, nullptr), cc);
  ASSERT_EQ(first.status().code(), core::StatusCode::kCancelled);
  auto ck = io::read_checkpoint(path);
  ASSERT_TRUE(ck.ok());

  // Container-valid but semantically damaged shard state (the container
  // CRCs pass because we damage the in-memory struct, mimicking an
  // encoder-side bug): load() must reject it, not crash or mis-resume.
  io::StudyCheckpoint damaged = *ck;
  ASSERT_FALSE(damaged.shards.empty());
  damaged.shards[0].blob = damaged.shards[0].blob.substr(
      0, damaged.shards[0].blob.size() / 2);
  core::CheckpointConfig resume_cc;
  resume_cc.resume = &damaged;
  auto result = core::run_atlas_study_supervised(
      isps, small_atlas_config(2, nullptr), resume_cc);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), core::StatusCode::kDataLoss);
  io::remove_checkpoint_files(path);
}

// --------------------------------------------- file-driven study resume

TEST(InterruptResume, FileStudiesResumeByteIdentical) {
  const auto& fx = atlas_fixture();
  const std::string echo_path = temp_path("resume_echo.csv");
  {
    io::AtomicFileWriter out(echo_path);
    ASSERT_TRUE(out.ok());
    io::write_echo_dataset(out.stream(), fx.series);
    ASSERT_TRUE(out.commit().ok());
  }
  auto isps = study_isps();
  core::AtlasFileStudyConfig cfg;
  cfg.threads = 2;
  auto straight =
      core::run_atlas_study_from_files({echo_path}, isps, cfg, nullptr, {});
  ASSERT_TRUE(straight.ok()) << straight.status().to_string();
  std::string reference = atlas_bytes(*straight);

  const std::string path = temp_path("atlas_file_chain.ckpt");
  int interrupts = 0;
  auto resumed = chain_resume(
      path, 7,
      [&](const core::CheckpointConfig& cc) {
        return core::run_atlas_study_from_files({echo_path}, isps, cfg,
                                                nullptr, cc);
      },
      &interrupts);
  EXPECT_GT(interrupts, 1);
  EXPECT_EQ(atlas_bytes(resumed), reference);

  // CDN file study, same drill.
  auto population = cdn::default_cdn_population(0.05);
  cdn::CdnConfig gen_cfg;
  gen_cfg.subscriber_scale = 0.05;
  gen_cfg.seed = 13;
  cdn::CdnSimulator sim(population, gen_cfg);
  std::vector<cdn::AssociationLog> logs;
  for (std::size_t i = 0; i < sim.entry_count(); ++i)
    logs.push_back(sim.generate(i));
  const std::string assoc_path = temp_path("resume_assoc.csv");
  {
    io::AtomicFileWriter out(assoc_path);
    ASSERT_TRUE(out.ok());
    io::write_assoc_dataset(out.stream(), logs);
    ASSERT_TRUE(out.commit().ok());
  }
  core::CdnFileStudyConfig ccfg;
  ccfg.threads = 2;
  for (const auto& entry : population) {
    if (entry.isp.mobile) ccfg.mobile_asns.insert(entry.isp.asn);
    ccfg.registries[entry.isp.asn] = entry.isp.registry;
    ccfg.asn_names[entry.isp.asn] = entry.isp.name;
  }
  auto cdn_straight =
      core::run_cdn_study_from_files({assoc_path}, ccfg, nullptr, {});
  ASSERT_TRUE(cdn_straight.ok()) << cdn_straight.status().to_string();
  std::string cdn_reference = cdn_bytes(*cdn_straight);

  const std::string cdn_ckpt = temp_path("cdn_file_chain.ckpt");
  interrupts = 0;
  auto cdn_resumed = chain_resume(
      cdn_ckpt, 1,
      [&](const core::CheckpointConfig& cc) {
        return core::run_cdn_study_from_files({assoc_path}, ccfg, nullptr,
                                              cc);
      },
      &interrupts);
  EXPECT_GT(interrupts, 1);
  EXPECT_EQ(cdn_bytes(cdn_resumed), cdn_reference);

  std::filesystem::remove(echo_path);
  std::filesystem::remove(assoc_path);
}

// Supervision disabled (default CheckpointConfig) must be exactly the
// legacy single-round path: no checkpoint file side effects either.
TEST(InterruptResume, DefaultConfigMatchesLegacyRunner) {
  auto isps = study_isps();
  auto legacy = core::run_atlas_study(isps, small_atlas_config(2, nullptr));
  auto supervised = core::run_atlas_study_supervised(
      isps, small_atlas_config(2, nullptr), {});
  ASSERT_TRUE(supervised.ok());
  EXPECT_EQ(atlas_bytes(*supervised), atlas_bytes(legacy));
}

TEST(InterruptResume, PeriodicCheckpointWithoutPathIsInvalid) {
  auto isps = study_isps();
  core::CheckpointConfig cc;
  cc.every_items = 5;  // no path
  auto result = core::run_atlas_study_supervised(
      isps, small_atlas_config(1, nullptr), cc);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), core::StatusCode::kInvalidArgument);
}

// ------------------------------------------------- golden checkpoints
//
// Completed shard-0-of-2 checkpoints committed under tests/golden/, one per
// study kind the pipeline writes in batch mode. Each test decodes its
// fixture, re-runs the same study and requires the fresh file to equal the
// fixture byte for byte, so a change to the container format, a config
// fingerprint or any analyzer's saved state fails here even when it still
// round-trips in-process. Metrics are off, so no timing enters the bytes.
// The file studies hash their input paths into the fingerprint; their
// inputs are therefore written at fixed relative paths.

std::string file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is), {});
}

/// Run `shard0` as shard 0 of 2 and compare its completed checkpoint with
/// tests/golden/<name>.ckpt.
template <typename Run>
void expect_golden_shard(const std::string& name, std::uint32_t kind,
                         Run&& shard0) {
  const std::string golden =
      std::string(DYNAMIPS_TEST_GOLDEN_DIR) + "/" + name + ".ckpt";
  auto fixture = io::read_checkpoint(golden);
  ASSERT_TRUE(fixture.ok()) << fixture.status().to_string();
  EXPECT_EQ(fixture->kind, kind);
  // Slice 0 is complete and the rest of the items belong to shard 1.
  for (const auto& shard : fixture->shards) EXPECT_EQ(shard.next, shard.end);
  EXPECT_GT(fixture->items_done(), 0u);
  EXPECT_LT(fixture->items_done(), fixture->item_count);

  const std::string path = temp_path("golden_" + name + ".ckpt");
  io::remove_checkpoint_files(path);
  core::CheckpointConfig cc;
  cc.path = path;
  cc.shard_index = 0;
  cc.shard_count = 2;
  auto ran = shard0(cc);
  ASSERT_TRUE(ran.ok()) << ran.status().to_string();
  const std::string fresh = file_bytes(path);
  EXPECT_FALSE(fresh.empty());
  EXPECT_TRUE(fresh == file_bytes(golden))
      << name << ": the checkpoint written now differs from " << golden;
  io::remove_checkpoint_files(path);
}

TEST(GoldenCheckpoint, AtlasGenerator) {
  expect_golden_shard("atlas-gen", io::kCkptAtlasGen,
                      [](const core::CheckpointConfig& cc) {
                        return core::run_atlas_study_supervised(
                            study_isps(), small_atlas_config(2, nullptr), cc);
                      });
}

TEST(GoldenCheckpoint, CdnGenerator) {
  expect_golden_shard("cdn-gen", io::kCkptCdnGen,
                      [](const core::CheckpointConfig& cc) {
                        return core::run_cdn_study_supervised(
                            cdn::default_cdn_population(0.02),
                            golden_cdn_config(), cc);
                      });
}

TEST(GoldenCheckpoint, AtlasFiles) {
  const std::string input = "golden-atlas-echo.csv";
  {
    io::AtomicFileWriter out(input);
    ASSERT_TRUE(out.ok());
    io::write_echo_dataset(out.stream(), atlas_fixture().series);
    ASSERT_TRUE(out.commit().ok());
  }
  core::AtlasFileStudyConfig cfg;
  cfg.threads = 2;
  expect_golden_shard("atlas-file", io::kCkptAtlasFile,
                      [&](const core::CheckpointConfig& cc) {
                        return core::run_atlas_study_from_files(
                            {input}, study_isps(), cfg, nullptr, cc);
                      });
  std::filesystem::remove(input);
}

TEST(GoldenCheckpoint, CdnFiles) {
  const auto population = cdn::default_cdn_population(0.02);
  cdn::CdnSimulator sim(population, golden_cdn_config().cdn);
  std::vector<cdn::AssociationLog> logs;
  for (std::size_t i = 0; i < sim.entry_count(); ++i)
    logs.push_back(sim.generate(i));
  const std::string input = "golden-cdn-assoc.csv";
  {
    io::AtomicFileWriter out(input);
    ASSERT_TRUE(out.ok());
    io::write_assoc_dataset(out.stream(), logs);
    ASSERT_TRUE(out.commit().ok());
  }
  core::CdnFileStudyConfig cfg;
  cfg.threads = 2;
  for (const auto& entry : population) {
    if (entry.isp.mobile) cfg.mobile_asns.insert(entry.isp.asn);
    cfg.registries[entry.isp.asn] = entry.isp.registry;
  }
  expect_golden_shard("cdn-file", io::kCkptCdnFile,
                      [&](const core::CheckpointConfig& cc) {
                        return core::run_cdn_study_from_files({input}, cfg,
                                                              nullptr, cc);
                      });
  std::filesystem::remove(input);
}

TEST(GoldenCheckpoint, MetricsSinkBlob) {
  // The golden shards are written with metrics off; this pins the sink's
  // encoding (counter, set and unset gauge, histogram, phase) on its own.
  obs::MetricsSink sink;
  sink.counter("ingest.records").add(123456789);
  sink.gauge("parallel.imbalance").set(1.25);
  sink.gauge("parallel.unset");
  sink.histogram("atlas.records_per_probe", 0, 4, 5).record(37.0, 2);
  sink.phase("atlas.sanitize").record(1500);
  sink.phase("atlas.sanitize").record(250);
  const std::string golden =
      file_bytes(std::string(DYNAMIPS_TEST_GOLDEN_DIR) + "/metrics-sink.bin");
  ASSERT_FALSE(golden.empty());
  EXPECT_TRUE(saved_bytes(sink) == golden);

  obs::MetricsSink loaded;
  Reader r(golden);
  ASSERT_TRUE(io::ckpt::load(r, loaded));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(saved_bytes(loaded), golden);
}

// --------------------------------------------------- multi-process shards
//
// `--shard i/N` runs analyze one contiguous item slice each and emit their
// completed checkpoint as the output; io::combine_shard_checkpoints glues
// the per-process slices back into one table, and resuming from the merged
// checkpoint must finalize to bytes identical to a single-process run.

/// A checkpoint whose shard table covers only `[begin, end)` of
/// `item_count` — what a `--shard i/N` process writes.
io::StudyCheckpoint slice_checkpoint(std::uint64_t begin, std::uint64_t end,
                                     std::uint64_t item_count,
                                     std::uint64_t done) {
  io::StudyCheckpoint ck;
  ck.kind = io::kCkptCdnGen;
  ck.config_fingerprint = 0x5eedf00d;
  ck.item_count = item_count;
  ck.shards.push_back({begin, end, done, "slice-blob"});
  return ck;
}

TEST(ShardedStudy, SliceCheckpointsDecode) {
  // The container accepts shard tables that neither start at 0 nor cover
  // every item: each shard process checkpoints only its slice. Coverage is
  // the merge step's job, not the codec's.
  auto mid = io::decode_checkpoint(
      io::encode_checkpoint(slice_checkpoint(5, 10, 20, 7)));
  ASSERT_TRUE(mid.ok()) << mid.status().to_string();
  EXPECT_EQ(mid->shards[0].begin, 5u);
  EXPECT_EQ(mid->items_done(), 2u);

  auto tail = io::decode_checkpoint(
      io::encode_checkpoint(slice_checkpoint(10, 20, 20, 20)));
  ASSERT_TRUE(tail.ok()) << tail.status().to_string();

  // Still rejected: ranges beyond item_count, progress outside the range,
  // and non-contiguous tables.
  auto over = io::decode_checkpoint(
      io::encode_checkpoint(slice_checkpoint(5, 25, 20, 6)));
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), core::StatusCode::kDataLoss);
  auto behind = io::decode_checkpoint(
      io::encode_checkpoint(slice_checkpoint(5, 10, 20, 3)));
  ASSERT_FALSE(behind.ok());
  io::StudyCheckpoint gap = slice_checkpoint(0, 5, 20, 5);
  gap.shards.push_back({6, 10, 10, "after-gap"});
  auto gapped = io::decode_checkpoint(io::encode_checkpoint(gap));
  ASSERT_FALSE(gapped.ok());
  EXPECT_EQ(gapped.status().code(), core::StatusCode::kDataLoss);
}

TEST(ShardedStudy, CombineValidatesTilingAndCompleteness) {
  const std::string p0 = temp_path("combine_s0.ckpt");
  const std::string p1 = temp_path("combine_s1.ckpt");
  io::remove_checkpoint_files(p0);
  io::remove_checkpoint_files(p1);
  ASSERT_TRUE(io::write_checkpoint(p0, slice_checkpoint(0, 5, 10, 5)).ok());
  ASSERT_TRUE(io::write_checkpoint(p1, slice_checkpoint(5, 10, 10, 10)).ok());

  // Happy path, in either argument order: slices are sorted by begin.
  for (auto paths : {std::vector<std::string>{p0, p1},
                     std::vector<std::string>{p1, p0}}) {
    auto combined = io::combine_shard_checkpoints(paths);
    ASSERT_TRUE(combined.ok()) << combined.status().to_string();
    EXPECT_EQ(combined->item_count, 10u);
    ASSERT_EQ(combined->shards.size(), 2u);
    EXPECT_EQ(combined->shards[0].begin, 0u);
    EXPECT_EQ(combined->shards[1].begin, 5u);
    EXPECT_EQ(combined->items_done(), 10u);
  }

  // A missing slice is a gap, a doubled slice is an overlap — both refuse.
  auto missing = io::combine_shard_checkpoints({p1});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), core::StatusCode::kFailedPrecondition);
  auto doubled = io::combine_shard_checkpoints({p0, p0, p1});
  ASSERT_FALSE(doubled.ok());
  EXPECT_EQ(doubled.status().code(), core::StatusCode::kFailedPrecondition);

  // An interrupted shard (next < end) must be finished before merging.
  const std::string part = temp_path("combine_partial.ckpt");
  io::remove_checkpoint_files(part);
  ASSERT_TRUE(
      io::write_checkpoint(part, slice_checkpoint(5, 10, 10, 7)).ok());
  auto incomplete = io::combine_shard_checkpoints({p0, part});
  ASSERT_FALSE(incomplete.ok());
  EXPECT_EQ(incomplete.status().code(),
            core::StatusCode::kFailedPrecondition);
  EXPECT_NE(incomplete.status().message().find("incomplete"),
            std::string::npos);

  // Config skew and study-kind mismatches across shard files refuse too.
  io::StudyCheckpoint skewed = slice_checkpoint(5, 10, 10, 10);
  skewed.config_fingerprint = 0xdead;
  ASSERT_TRUE(io::write_checkpoint(part, skewed).ok());
  auto skew = io::combine_shard_checkpoints({p0, part});
  ASSERT_FALSE(skew.ok());
  EXPECT_EQ(skew.status().code(), core::StatusCode::kFailedPrecondition);
  io::StudyCheckpoint other_kind = slice_checkpoint(5, 10, 10, 10);
  other_kind.kind = io::kCkptAtlasGen;
  ASSERT_TRUE(io::write_checkpoint(part, other_kind).ok());
  auto kinds = io::combine_shard_checkpoints({p0, part});
  ASSERT_FALSE(kinds.ok());
  EXPECT_EQ(kinds.status().code(), core::StatusCode::kFailedPrecondition);

  io::remove_checkpoint_files(p0);
  io::remove_checkpoint_files(p1);
  io::remove_checkpoint_files(part);
}

TEST(ShardedStudy, TwoProcessCdnRunMergesByteIdentical) {
  auto population = cdn::default_cdn_population(0.05);
  std::string reference =
      cdn_bytes(core::run_cdn_study(population, small_cdn_config(1, nullptr)));

  // Two "processes", each analyzing half the population and leaving its
  // completed checkpoint behind (the shard's only output).
  std::vector<std::string> shard_paths;
  for (std::uint32_t i = 0; i < 2; ++i) {
    const std::string path =
        temp_path("cdn_shard_" + std::to_string(i) + ".ckpt");
    io::remove_checkpoint_files(path);
    core::CheckpointConfig cc;
    cc.path = path;
    cc.shard_index = i;
    cc.shard_count = 2;
    auto partial = core::run_cdn_study_supervised(
        population, small_cdn_config(2, nullptr), cc);
    ASSERT_TRUE(partial.ok()) << partial.status().to_string();
    ASSERT_TRUE(std::filesystem::exists(path));
    shard_paths.push_back(path);
  }

  auto combined = io::combine_shard_checkpoints(shard_paths);
  ASSERT_TRUE(combined.ok()) << combined.status().to_string();
  EXPECT_EQ(combined->items_done(), combined->item_count);

  // The merge process resumes from the combined table — all slices done,
  // so it goes straight to the ordered reduction — at a thread count
  // different from both shard runs.
  core::CheckpointConfig merge_cc;
  merge_cc.resume = &*combined;
  auto merged = core::run_cdn_study_supervised(
      population, small_cdn_config(4, nullptr), merge_cc);
  ASSERT_TRUE(merged.ok()) << merged.status().to_string();
  EXPECT_EQ(cdn_bytes(*merged), reference);

  for (const auto& path : shard_paths) io::remove_checkpoint_files(path);
}

TEST(ShardedStudy, TwoProcessAtlasRunMergesByteIdentical) {
  auto isps = study_isps();
  std::string reference =
      atlas_bytes(core::run_atlas_study(isps, small_atlas_config(1, nullptr)));

  std::vector<std::string> shard_paths;
  for (std::uint32_t i = 0; i < 2; ++i) {
    const std::string path =
        temp_path("atlas_shard_" + std::to_string(i) + ".ckpt");
    io::remove_checkpoint_files(path);
    core::CheckpointConfig cc;
    cc.path = path;
    cc.shard_index = i;
    cc.shard_count = 2;
    auto partial = core::run_atlas_study_supervised(
        isps, small_atlas_config(2, nullptr), cc);
    ASSERT_TRUE(partial.ok()) << partial.status().to_string();
    shard_paths.push_back(path);
  }

  auto combined = io::combine_shard_checkpoints(shard_paths);
  ASSERT_TRUE(combined.ok()) << combined.status().to_string();
  core::CheckpointConfig merge_cc;
  merge_cc.resume = &*combined;
  auto merged = core::run_atlas_study_supervised(
      isps, small_atlas_config(1, nullptr), merge_cc);
  ASSERT_TRUE(merged.ok()) << merged.status().to_string();
  EXPECT_EQ(atlas_bytes(*merged), reference);

  for (const auto& path : shard_paths) io::remove_checkpoint_files(path);
}

// With metrics on, a shard's wall-clock phases stay out of its checkpoint,
// so two identical shard runs write the same bytes, and still reach the
// metrics document.
TEST(ShardedStudy, MetricsOnShardCheckpointsAreIdentical) {
  auto run_twice = [](const std::string& name, const auto& run,
                      const std::vector<std::string>& phases) {
    std::vector<std::string> bytes;
    for (int attempt = 0; attempt < 2; ++attempt) {
      const std::string path =
          temp_path(name + "_metrics_" + std::to_string(attempt) + ".ckpt");
      io::remove_checkpoint_files(path);
      core::CheckpointConfig cc;
      cc.path = path;
      cc.shard_index = 0;
      cc.shard_count = 2;
      obs::MetricsRegistry registry;
      auto ran = run(cc, &registry);
      ASSERT_TRUE(ran.ok()) << ran.status().to_string();
      bytes.push_back(file_bytes(path));
      const obs::MetricsSink doc = registry.snapshot();
      for (const std::string& phase : phases) {
        ASSERT_EQ(doc.phases().count(phase), 1u) << name << ": " << phase;
        EXPECT_GT(doc.phases().at(phase).count, 0u) << name << ": " << phase;
      }
      io::remove_checkpoint_files(path);
    }
    EXPECT_FALSE(bytes[0].empty());
    EXPECT_TRUE(bytes[0] == bytes[1])
        << name << ": two identical metrics-on shard runs differ";
  };
  run_twice(
      "atlas",
      [](const core::CheckpointConfig& cc, obs::MetricsRegistry* registry) {
        return core::run_atlas_study_supervised(
            study_isps(), small_atlas_config(2, registry), cc);
      },
      {"atlas.generate", "atlas.sanitize", "atlas.durations.add",
       "atlas.shard_wall", "atlas.merge", "checkpoint.write"});
  run_twice(
      "cdn",
      [](const core::CheckpointConfig& cc, obs::MetricsRegistry* registry) {
        core::CdnStudyConfig cfg = golden_cdn_config();
        cfg.metrics = registry;
        return core::run_cdn_study_supervised(
            cdn::default_cdn_population(0.02), cfg, cc);
      },
      {"cdn.generate", "cdn.analyzer.add", "cdn.shard_wall", "cdn.merge",
       "checkpoint.write"});
}

TEST(ShardedStudy, InterruptedShardResumesThenMerges) {
  // A shard process is itself interruptible: chain-resume shard 1 of 2 at
  // every round boundary, then merge with an uninterrupted shard 0 — still
  // byte-identical to the single-process run.
  auto population = cdn::default_cdn_population(0.05);
  std::string reference =
      cdn_bytes(core::run_cdn_study(population, small_cdn_config(1, nullptr)));

  const std::string p0 = temp_path("cdn_shard_chain_0.ckpt");
  const std::string p1 = temp_path("cdn_shard_chain_1.ckpt");
  io::remove_checkpoint_files(p0);
  io::remove_checkpoint_files(p1);
  {
    core::CheckpointConfig cc;
    cc.path = p0;
    cc.shard_index = 0;
    cc.shard_count = 2;
    auto partial = core::run_cdn_study_supervised(
        population, small_cdn_config(1, nullptr), cc);
    ASSERT_TRUE(partial.ok()) << partial.status().to_string();
  }
  std::optional<io::StudyCheckpoint> ck;
  int interrupts = 0;
  for (;;) {
    core::ShutdownToken token;
    token.request();
    core::CheckpointConfig cc;
    cc.every_items = 1;
    cc.path = p1;
    cc.token = &token;
    cc.resume = ck ? &*ck : nullptr;
    cc.shard_index = 1;
    cc.shard_count = 2;
    auto result = core::run_cdn_study_supervised(
        population, small_cdn_config(1, nullptr), cc);
    if (result.ok()) break;
    ASSERT_EQ(result.status().code(), core::StatusCode::kCancelled)
        << result.status().to_string();
    auto loaded = io::read_checkpoint_with_fallback(p1);
    ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
    ck = loaded.take();
    ASSERT_LT(++interrupts, 10000) << "shard resume chain does not converge";
  }
  EXPECT_GT(interrupts, 1);

  auto combined = io::combine_shard_checkpoints({p0, p1});
  ASSERT_TRUE(combined.ok()) << combined.status().to_string();
  core::CheckpointConfig merge_cc;
  merge_cc.resume = &*combined;
  auto merged = core::run_cdn_study_supervised(
      population, small_cdn_config(2, nullptr), merge_cc);
  ASSERT_TRUE(merged.ok()) << merged.status().to_string();
  EXPECT_EQ(cdn_bytes(*merged), reference);

  io::remove_checkpoint_files(p0);
  io::remove_checkpoint_files(p1);
}

}  // namespace
}  // namespace dynamips
