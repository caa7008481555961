// test_extsort — the external-merge sorter (stats/extsort.h) and the
// CdnAnalyzer spill path it powers: drain order must equal one global
// std::stable_sort at EVERY memory budget (tiny = many runs, exact-fit,
// huge = never spills), the analyzer must produce byte-identical study
// results with and without spilling at thread counts 1 and 4, and an
// interrupted spilled run must resume to the same bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cdn/generator.h"
#include "core/assoc.h"
#include "core/pipeline.h"
#include "core/shutdown.h"
#include "io/checkpoint.h"
#include "io/results_io.h"
#include "stats/extsort.h"

namespace dynamips {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

// ------------------------------------------------------------ sorter unit

struct KeySeq {
  std::uint32_t key;
  std::uint32_t seq;
};
struct KeyLess {
  bool operator()(const KeySeq& a, const KeySeq& b) const {
    return a.key < b.key;  // seq deliberately ignored: ties test stability
  }
};

std::vector<KeySeq> make_input(std::size_t n, std::uint32_t distinct_keys) {
  std::mt19937 rng(42);
  std::vector<KeySeq> input;
  input.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i)
    input.push_back({std::uint32_t(rng() % distinct_keys), i});
  return input;
}

void check_budget(std::uint64_t budget_bytes, std::size_t n,
                  std::uint32_t distinct_keys, bool expect_spill) {
  auto input = make_input(n, distinct_keys);
  auto expected = input;
  std::stable_sort(expected.begin(), expected.end(), KeyLess{});

  stats::ExternalSorter<KeySeq, KeyLess> sorter(
      {budget_bytes, ::testing::TempDir()});
  for (const auto& v : input) sorter.push(v);
  EXPECT_EQ(sorter.size(), n);

  std::vector<KeySeq> drained;
  drained.reserve(n);
  sorter.drain([&](const KeySeq& v) { drained.push_back(v); });
  if (expect_spill)
    EXPECT_GT(sorter.spilled_runs(), 0u) << "budget=" << budget_bytes;
  else
    EXPECT_EQ(sorter.spilled_runs(), 0u) << "budget=" << budget_bytes;

  ASSERT_EQ(drained.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(drained[i].key, expected[i].key) << "i=" << i;
    ASSERT_EQ(drained[i].seq, expected[i].seq)
        << "i=" << i << " (stability violated: equal keys reordered)";
  }
}

TEST(ExternalSorter, TinyBudgetManyRuns) {
  // ~37 elements per run over 10k elements: hundreds of runs merged.
  check_budget(300, 10000, 50, true);
}

TEST(ExternalSorter, ExactFitBudgetSingleSpill) {
  // Capacity equals the element count: the buffer fills exactly and one
  // boundary push decides spill-vs-not. 10k elements, 8 bytes each.
  check_budget(10000 * sizeof(KeySeq), 10000, 50, false);
  check_budget(9999 * sizeof(KeySeq), 10000, 50, true);
}

TEST(ExternalSorter, HugeBudgetStaysInMemory) {
  check_budget(std::uint64_t(1) << 30, 10000, 50, false);
  check_budget(0, 10000, 50, false);  // 0 = unbounded
}

TEST(ExternalSorter, AllEqualKeysPreservePushOrder) {
  check_budget(128, 5000, 1, true);
}

TEST(ExternalSorter, EmptyDrain) {
  stats::ExternalSorter<KeySeq, KeyLess> sorter({64, ::testing::TempDir()});
  std::size_t emitted = 0;
  sorter.drain([&](const KeySeq&) { ++emitted; });
  EXPECT_EQ(emitted, 0u);
  EXPECT_EQ(sorter.spilled_runs(), 0u);
}

TEST(ExternalSorter, RunFilesAreRemovedOnDestruction) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "extsort_cleanup")
          .string();
  std::filesystem::create_directories(dir);
  {
    stats::ExternalSorter<KeySeq, KeyLess> sorter({100, dir});
    for (std::uint32_t i = 0; i < 1000; ++i) sorter.push({i % 7, i});
    EXPECT_GT(sorter.spilled_runs(), 0u);
    // Destructor must clean up even when drain() never ran (abandoned
    // sort, e.g. an analysis error unwound past it).
  }
  std::size_t leftovers = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    (void)entry, ++leftovers;
  EXPECT_EQ(leftovers, 0u);
}

// --------------------------------------------------- analyzer spill path

std::string cdn_bytes(const core::CdnStudy& s) {
  std::ostringstream os;
  io::write_assoc_durations_csv(os, s);
  io::write_degrees_csv(os, s);
  io::write_zero_boundaries_csv(os, s);
  return os.str();
}

core::CdnStudyConfig spill_config(unsigned threads, std::uint64_t spill_mb) {
  core::CdnStudyConfig cfg;
  cfg.cdn.subscriber_scale = 0.05;
  cfg.cdn.seed = 13;
  cfg.threads = threads;
  cfg.assoc.spill_mb = spill_mb;
  cfg.assoc.spill_dir = ::testing::TempDir();
  return cfg;
}

// A single oversized log drives the per-log sorters far past a 1 MB
// budget, so the spill path demonstrably runs — and must reproduce the
// in-memory analyzer's state exactly (same snapshot blob, same counters).
TEST(AnalyzerSpill, BigLogSpillsAndMatchesInMemory) {
  cdn::CdnConfig cfg;
  cfg.subscriber_scale = 0.1;
  cfg.seed = 99;
  cdn::CdnSimulator sim(cdn::default_cdn_population(0.1), cfg);
  ASSERT_GT(sim.entry_count(), 0u);
  // Concatenate every simulated log into one: a single log bigger than
  // the 1 MB budget's ~32k-tuple buffer, guaranteeing the spill runs.
  cdn::AssociationLog log = sim.generate(0);
  for (std::size_t i = 1; i < sim.entry_count(); ++i) {
    cdn::AssociationLog more = sim.generate(i);
    log.records.insert(log.records.end(), more.records.begin(),
                       more.records.end());
  }
  ASSERT_GT(log.records.size(), 40000u);

  core::AssocOptions in_memory;
  core::CdnAnalyzer a(in_memory, {});
  a.add_log(log);
  EXPECT_EQ(a.spill_runs(), 0u);

  core::AssocOptions spilled;
  spilled.spill_mb = 1;
  spilled.spill_dir = ::testing::TempDir();
  core::CdnAnalyzer b(spilled, {});
  b.add_log(log);
  EXPECT_GT(b.spill_runs(), 0u) << "budget did not force a spill";

  io::ckpt::Writer wa, wb;
  io::ckpt::save(wa, a);
  io::ckpt::save(wb, b);
  EXPECT_EQ(wa.buffer(), wb.buffer())
      << "spilled analyzer state diverged from in-memory";
  EXPECT_EQ(a.total_tuples(), b.total_tuples());
}

// Study-level byte-identity: every budget in {tiny, exact-ish, huge} and
// both thread counts must produce the same result CSVs as the in-memory
// run (spill_mb=0).
TEST(AnalyzerSpill, StudyByteIdenticalAcrossBudgetsAndThreads) {
  auto population = cdn::default_cdn_population(0.05);
  std::string reference =
      cdn_bytes(core::run_cdn_study(population, spill_config(1, 0)));
  for (std::uint64_t spill_mb : {1ull, 8ull, 4096ull}) {
    for (unsigned threads : {1u, 4u}) {
      auto study =
          core::run_cdn_study(population, spill_config(threads, spill_mb));
      EXPECT_EQ(cdn_bytes(study), reference)
          << "spill_mb=" << spill_mb << " threads=" << threads;
    }
  }
}

// Kill-and-resume mid-spill: interrupt the spilled study at every round
// boundary, resume from the freshly written checkpoint each time (re-read
// from disk like a new process), and the completed result must be
// byte-identical to an uninterrupted in-memory run. Mirrors
// test_checkpoint's chain_resume at spill_mb=1.
TEST(AnalyzerSpill, InterruptedSpilledRunResumesByteIdentical) {
  auto population = cdn::default_cdn_population(0.05);
  std::string reference =
      cdn_bytes(core::run_cdn_study(population, spill_config(1, 0)));

  const std::string path = temp_path("cdn_spill_chain.ckpt");
  io::remove_checkpoint_files(path);
  std::optional<io::StudyCheckpoint> ck;
  int interrupts = 0;
  core::CdnStudy final_study;
  for (;;) {
    core::ShutdownToken token;
    token.request();  // cancel at the first round boundary
    core::CheckpointConfig cc;
    cc.every_items = 1;
    cc.path = path;
    cc.token = &token;
    cc.resume = ck ? &*ck : nullptr;
    auto result = core::run_cdn_study_supervised(
        population, spill_config(2, 1), cc);
    if (result.ok()) {
      final_study = result.take();
      break;
    }
    ASSERT_EQ(result.status().code(), core::StatusCode::kCancelled)
        << result.status().to_string();
    auto loaded = io::read_checkpoint_with_fallback(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
    ck = loaded.take();
    ASSERT_LT(++interrupts, 10000) << "resume chain does not converge";
  }
  EXPECT_GT(interrupts, 1) << "test never actually interrupted the study";
  EXPECT_EQ(cdn_bytes(final_study), reference);
  io::remove_checkpoint_files(path);
}

}  // namespace
}  // namespace dynamips
