#include "io/results_io.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "io/checkpoint.h"
#include "io/csv.h"
#include "simnet/isp.h"

namespace dynamips::io {
namespace {

const core::AtlasStudy& tiny_atlas_study() {
  static core::AtlasStudy study = [] {
    core::AtlasStudyConfig cfg;
    cfg.atlas.probe_scale = 0.05;
    cfg.atlas.window_hours = 6000;
    return core::run_atlas_study(
        {*simnet::find_isp("DTAG"), *simnet::find_isp("Comcast")}, cfg);
  }();
  return study;
}

const core::CdnStudy& tiny_cdn_study() {
  static core::CdnStudy study = [] {
    core::CdnStudyConfig cfg;
    cfg.cdn.subscriber_scale = 0.02;
    cfg.cdn.days = 30;
    return core::run_cdn_study(cdn::default_cdn_population(0.02), cfg);
  }();
  return study;
}

// Parse a CSV body: returns rows (skipping header), each as fields.
std::vector<std::vector<std::string>> rows_of(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::stringstream ss(text);
  std::string line;
  bool first = true;
  while (std::getline(ss, line)) {
    if (first) {
      first = false;
      continue;
    }
    if (line.empty()) continue;
    std::vector<std::string> fields;
    for (auto f : split_csv(line)) fields.emplace_back(f);
    rows.push_back(fields);
  }
  return rows;
}

TEST(ResultsIo, DurationCurves) {
  std::stringstream ss;
  write_duration_curves_csv(ss, tiny_atlas_study());
  auto rows = rows_of(ss.str());
  ASSERT_FALSE(rows.empty());
  std::size_t thresholds = stats::fig1_thresholds().size();
  // Rows per (AS, split) come in full-threshold blocks.
  EXPECT_EQ(rows.size() % thresholds, 0u);
  bool saw_dtag_v6 = false;
  for (const auto& r : rows) {
    ASSERT_EQ(r.size(), 4u);
    double v = std::stod(r[3]);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    saw_dtag_v6 |= r[0] == "DTAG" && r[1] == "v6";
  }
  EXPECT_TRUE(saw_dtag_v6);
}

TEST(ResultsIo, CplRows) {
  std::stringstream ss;
  write_cpl_csv(ss, tiny_atlas_study());
  auto rows = rows_of(ss.str());
  ASSERT_FALSE(rows.empty());
  for (const auto& r : rows) {
    ASSERT_EQ(r.size(), 4u);
    int cpl = std::stoi(r[1]);
    EXPECT_GE(cpl, 0);
    EXPECT_LE(cpl, 64);
    EXPECT_GE(std::stoull(r[2]), std::stoull(r[3]))
        << "changes >= probes at any CPL";
  }
}

TEST(ResultsIo, BgpMovesRowPerAs) {
  std::stringstream ss;
  write_bgp_moves_csv(ss, tiny_atlas_study());
  auto rows = rows_of(ss.str());
  EXPECT_EQ(rows.size(), tiny_atlas_study().spatial.size());
}

TEST(ResultsIo, InferenceHistogram) {
  std::stringstream ss;
  write_inference_csv(ss, tiny_atlas_study());
  auto rows = rows_of(ss.str());
  ASSERT_FALSE(rows.empty());
  std::size_t total = 0;
  for (const auto& r : rows) {
    int len = std::stoi(r[1]);
    EXPECT_GE(len, 0);
    EXPECT_LE(len, 64);
    total += std::stoull(r[2]);
  }
  std::size_t expected = 0;
  for (const auto& [asn, v] : tiny_atlas_study().subscriber_inference)
    expected += v.size();
  EXPECT_EQ(total, expected);
}

TEST(ResultsIo, AssocDurations) {
  std::stringstream ss;
  write_assoc_durations_csv(ss, tiny_cdn_study());
  auto rows = rows_of(ss.str());
  ASSERT_FALSE(rows.empty());
  bool saw_mobile = false, saw_fixed = false;
  for (const auto& r : rows) {
    ASSERT_EQ(r.size(), 4u);
    saw_mobile |= r[2] == "1";
    saw_fixed |= r[2] == "0";
    EXPECT_GE(std::stod(r[3]), 1.0);
  }
  EXPECT_TRUE(saw_mobile);
  EXPECT_TRUE(saw_fixed);
}

TEST(ResultsIo, Degrees) {
  std::stringstream ss;
  write_degrees_csv(ss, tiny_cdn_study());
  auto rows = rows_of(ss.str());
  EXPECT_EQ(rows.size(), tiny_cdn_study().analyzer.degrees().size());
}

TEST(ResultsIo, ZeroBoundaries) {
  std::stringstream ss;
  write_zero_boundaries_csv(ss, tiny_cdn_study());
  auto rows = rows_of(ss.str());
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows.size() % 5, 0u) << "five boundary classes per group";
  for (const auto& r : rows) {
    double frac = std::stod(r[3]);
    EXPECT_GE(frac, 0.0);
    EXPECT_LE(frac, 1.0);
  }
}

// The writers render numbers as a default std::ostream does ("%g",
// precision 6), whole numbers and the rest alike. The study is filled in through the analyzer's checkpoint
// layout (fields()), so one ASN holds exactly these durations and the
// zero-boundary classes hold counts whose fractions are 0, 1/2, 1/3 and
// 1e-5.
TEST(ResultsIo, NumbersRenderAsDefaultOstream) {
  const std::vector<double> values{
      0,  0.5,    1.0 / 3, 1e-5, 999999.5,  1e6,   123456789,
      42, 999999, -7,      -0.0, -999999.5, 1e300, 5e-324};
  const std::vector<std::pair<core::RegistryClass, std::array<std::uint64_t, 5>>>
      zero_counts{{{bgp::Registry::kArin, false}, {1, 1, 0, 0, 0}},
                  {{bgp::Registry::kRipe, false}, {1, 2, 0, 0, 0}},
                  {{bgp::Registry::kRipe, true}, {1, 99999, 0, 0, 0}}};
  core::CdnAnalyzer analyzer({}, {});
  auto fill = [&](auto& by_asn, auto& /*registry_durations*/,
                  auto& /*degrees*/, auto& zero, auto&... /*rest*/) {
    core::AsnAssocStats& stats = by_asn[64500];
    stats.asn = 64500;
    stats.mobile = true;
    stats.durations_days = values;
    for (const auto& [cls, counts] : zero_counts) zero[cls].counts = counts;
  };
  analyzer.fields(fill);
  const core::CdnStudy study{analyzer.snapshot(), {{64500, "AS-Test"}}};

  std::ostringstream want;
  want << "asn,name,mobile,duration_days\n";
  for (double v : values) want << 64500 << ",AS-Test,1," << v << '\n';
  std::ostringstream got;
  write_assoc_durations_csv(got, study);
  EXPECT_EQ(got.str(), want.str());
  EXPECT_NE(got.str().find(",0.333333\n"), std::string::npos);
  EXPECT_NE(got.str().find(",1e-05\n"), std::string::npos);
  EXPECT_NE(got.str().find(",1.23457e+08\n"), std::string::npos);
  EXPECT_NE(got.str().find(",-0\n"), std::string::npos);
  EXPECT_NE(got.str().find(",999999\n"), std::string::npos);

  want.str("");
  want << "registry,mobile,boundary,fraction,count\n";
  for (const auto& [cls, counts] : zero_counts) {
    core::ZeroBoundaryCounts z;
    z.counts = counts;
    for (std::size_t b = 0; b < counts.size(); ++b)
      want << bgp::registry_name(cls.registry) << ',' << (cls.mobile ? 1 : 0)
           << ',' << core::zero_boundary_name(core::ZeroBoundary(b)) << ','
           << z.fraction(core::ZeroBoundary(b)) << ',' << counts[b] << '\n';
  }
  got.str("");
  write_zero_boundaries_csv(got, study);
  EXPECT_EQ(got.str(), want.str());
}

// ------------------------------------------------------------ golden bytes
//
// The seven CSVs of a small fixed study pin the exact bytes every writer
// renders, at 1 and 4 threads. tests/golden/results-csv.digests holds one
// "<file> <bytes> <crc32>" line per CSV; the test leaves the digests it
// computed in golden_results_csv/results-csv.digests under the gtest temp
// dir, which is what to copy over the fixture after a deliberate change to
// a study or to the CSV format.

template <class Study>
std::string render(void (*write)(std::ostream&, const Study&),
                   const Study& study) {
  std::ostringstream os;
  write(os, study);
  return os.str();
}

core::AtlasStudy golden_atlas_study(unsigned threads) {
  core::AtlasStudyConfig cfg;
  cfg.atlas.probe_scale = 0.1;
  cfg.atlas.window_hours = 20000;
  cfg.atlas.seed = 3;
  cfg.threads = threads;
  return core::run_atlas_study(simnet::paper_isps(), cfg);
}

core::CdnStudy golden_cdn_study(unsigned threads) {
  core::CdnStudyConfig cfg;
  cfg.cdn.subscriber_scale = 0.02;
  cfg.cdn.days = 60;
  cfg.cdn.seed = 3 * 977;
  cfg.threads = threads;
  return core::run_cdn_study(cdn::default_cdn_population(0.02), cfg);
}

/// Every CSV of both studies, by file name, as dynamips_study names them.
std::vector<std::pair<std::string, std::string>> golden_csvs(
    unsigned threads) {
  const core::AtlasStudy atlas = golden_atlas_study(threads);
  const core::CdnStudy cdn = golden_cdn_study(threads);
  return {
      {"fig1_duration_curves.csv", render(write_duration_curves_csv, atlas)},
      {"fig5_cpl.csv", render(write_cpl_csv, atlas)},
      {"table2_bgp_moves.csv", render(write_bgp_moves_csv, atlas)},
      {"fig6_inference.csv", render(write_inference_csv, atlas)},
      {"fig23_assoc_durations.csv", render(write_assoc_durations_csv, cdn)},
      {"fig4_degrees.csv", render(write_degrees_csv, cdn)},
      {"fig7_zero_boundaries.csv", render(write_zero_boundaries_csv, cdn)},
  };
}

std::string digest_lines(
    const std::vector<std::pair<std::string, std::string>>& csvs) {
  std::string out;
  for (const auto& [name, bytes] : csvs) {
    char line[160];
    std::snprintf(line, sizeof line, "%s %zu %08x\n", name.c_str(),
                  bytes.size(), unsigned(ckpt::crc32(bytes)));
    out += line;
  }
  return out;
}

TEST(GoldenResults, SevenCsvsMatchTheirDigestsAtOneAndFourThreads) {
  std::ifstream golden(std::string(DYNAMIPS_TEST_GOLDEN_DIR) +
                       "/results-csv.digests");
  ASSERT_TRUE(golden.good());
  std::stringstream expected;
  expected << golden.rdbuf();

  const auto dir =
      std::filesystem::path(::testing::TempDir()) / "golden_results_csv";
  std::filesystem::create_directories(dir);
  for (unsigned threads : {1u, 4u}) {
    const std::string fresh = digest_lines(golden_csvs(threads));
    std::ofstream(dir / "results-csv.digests", std::ios::trunc) << fresh;
    EXPECT_EQ(fresh, expected.str()) << "threads " << threads;
  }
}

}  // namespace
}  // namespace dynamips::io
