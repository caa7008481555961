// bench_micro — google-benchmark microbenchmarks of the hot data paths:
// address parsing/formatting, echo CSV ingest, the DYNCOL1 encode and the
// stream checkpoint commit, trie insert/LPM, span extraction, and the
// total-time-fraction accumulator. These are the operations that dominate
// full-dataset analysis runs and the per-batch work of a stream.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <istream>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "atlas/generator.h"
#include "bench/bench_util.h"
#include "core/changes.h"
#include "core/parallel.h"
#include "io/checkpoint.h"
#include "io/columnar.h"
#include "io/readers.h"
#include "netaddr/ipv4.h"
#include "netaddr/ipv6.h"
#include "netaddr/rng.h"
#include "rtrie/prefix_trie.h"
#include "simnet/isp.h"
#include "stats/ttf.h"

using namespace dynamips;

namespace {

void BM_ParseIPv4(benchmark::State& state) {
  for (auto _ : state) {
    auto a = net::IPv4Address::parse("192.0.2.123");
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_ParseIPv4);

void BM_ParseIPv6(benchmark::State& state) {
  for (auto _ : state) {
    auto a = net::IPv6Address::parse("2003:ec57:1234:5600::1");
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_ParseIPv6);

/// A fixed-seed Atlas population of 217 k echo records, about one batch of
/// perfbench's follow-serve stream.
const std::vector<atlas::ProbeSeries>& echo_batch() {
  static const std::vector<atlas::ProbeSeries> dataset = [] {
    atlas::AtlasConfig cfg;
    cfg.probe_scale = 0.05;
    cfg.window_hours = 1500;
    cfg.seed = 1;
    atlas::AtlasSimulator sim(simnet::paper_isps(), cfg);
    std::vector<atlas::ProbeSeries> out;
    for (std::size_t i = 0; i < sim.probe_count(); ++i)
      out.push_back(sim.series_for(i));
    return out;
  }();
  return dataset;
}

/// echo_batch() as an echo CSV export: 11.9 MB.
const std::string& echo_csv() {
  static const std::string csv = [] {
    std::ostringstream os;
    io::write_echo_dataset(os, echo_batch());
    return os.str();
  }();
  return csv;
}

/// A read-only stream over a string, without copying it.
struct StringBuf : std::streambuf {
  explicit StringBuf(const std::string& s) {
    char* p = const_cast<char*>(s.data());
    setg(p, p, p + s.size());
  }
};

/// read_echo_dataset over echo_csv() on an executor of range(0) threads.
void BM_LoadEchoCsv(benchmark::State& state) {
  const std::string& csv = echo_csv();
  core::ShardExecutor exec(unsigned(state.range(0)));
  std::size_t records = 0;
  for (auto _ : state) {
    StringBuf buf(csv);
    std::istream in(&buf);
    auto dataset = io::read_echo_dataset(in, {}, nullptr, &exec);
    records = 0;
    for (const auto& series : *dataset) records += series.records.size();
    benchmark::DoNotOptimize(records);
  }
  state.SetBytesProcessed(std::int64_t(state.iterations() * csv.size()));
  state.SetItemsProcessed(std::int64_t(state.iterations() * records));
}
BENCHMARK(BM_LoadEchoCsv)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// encode_echo_columnar of echo_batch() on an executor of range(0)
/// threads: the segment a stream commits per batch.
void BM_EncodeEchoColumnar(benchmark::State& state) {
  const auto& batch = echo_batch();
  core::ShardExecutor exec(unsigned(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    io::EncodedBatch encoded = io::encode_echo_columnar(batch, &exec);
    bytes = encoded.bytes.size();
    benchmark::DoNotOptimize(encoded.bytes.data());
    benchmark::DoNotOptimize(encoded.crc);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(std::int64_t(state.iterations() * bytes));
}
BENCHMARK(BM_EncodeEchoColumnar)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// One stream commit of echo_batch()'s segment in a temporary directory:
/// the journal append at the committed length of one earlier segment,
/// with its fsync, then the manifest.
void BM_CommitStreamCheckpoint(benchmark::State& state) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "bench_micro_commit";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "stream.ckpt").string();
  const io::EncodedBatch segment = io::encode_echo_columnar(echo_batch());
  io::StudyCheckpoint manifest;
  manifest.kind = io::kCkptAtlasStream;
  manifest.consumed = {"batch-000.csv"};
  manifest.item_count = 1;
  manifest.shards = {{0, 1, 1, {}}};
  if (!io::commit_stream_checkpoint(path, manifest, segment.bytes,
                                    segment.crc)
           .ok())
    state.SkipWithError("the first commit failed");
  const std::vector<io::JournalSegment> first = manifest.journal;
  manifest.consumed.push_back("batch-001.csv");
  manifest.item_count = 2;
  manifest.shards = {{0, 2, 2, {}}};
  for (auto _ : state) {
    manifest.journal = first;
    const bool ok = io::commit_stream_checkpoint(path, manifest, segment.bytes,
                                                 segment.crc)
                        .ok();
    if (!ok) state.SkipWithError("commit failed");
    benchmark::DoNotOptimize(ok);
  }
  state.SetBytesProcessed(
      std::int64_t(state.iterations() * segment.bytes.size()));
  fs::remove_all(dir);
}
BENCHMARK(BM_CommitStreamCheckpoint)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_FormatIPv6(benchmark::State& state) {
  net::IPv6Address a{0x2003ec5712345600ull, 0x1};
  for (auto _ : state) {
    auto s = a.to_string();
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_FormatIPv6);

void BM_TrieInsert(benchmark::State& state) {
  net::Rng rng(1);
  std::vector<net::U128> keys;
  for (int i = 0; i < 4096; ++i)
    keys.push_back({rng.next_u64(), rng.next_u64()});
  for (auto _ : state) {
    rtrie::PrefixTrie<int> trie;
    for (std::size_t i = 0; i < keys.size(); ++i)
      trie.insert(keys[i], 48, int(i));
    benchmark::DoNotOptimize(trie.size());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_TrieInsert);

void BM_TrieLongestMatch(benchmark::State& state) {
  net::Rng rng(2);
  rtrie::PrefixTrie<int> trie;
  std::vector<net::U128> keys;
  for (int i = 0; i < int(state.range(0)); ++i) {
    net::U128 k{rng.next_u64(), rng.next_u64()};
    trie.insert(k, 8 + unsigned(rng.uniform(56)), i);
    keys.push_back(k);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    auto m = trie.longest_match(keys[i++ % keys.size()]);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrieLongestMatch)->Arg(1024)->Arg(16384);

void BM_ExtractSpans6(benchmark::State& state) {
  net::Rng rng(3);
  std::vector<core::Obs6> obs;
  std::uint64_t net64 = 0x2003ec5700000000ull;
  for (int h = 0; h < int(state.range(0)); ++h) {
    if (h % 24 == 23) net64 += 0x100;  // daily renumbering
    obs.push_back({simnet::Hour(h), net::IPv6Address{net64, 1}, true});
  }
  for (auto _ : state) {
    auto spans = core::extract_spans6(obs);
    benchmark::DoNotOptimize(spans);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExtractSpans6)->Arg(8760)->Arg(52560);

void BM_TtfAccumulate(benchmark::State& state) {
  net::Rng rng(4);
  std::vector<std::uint64_t> durations;
  for (int i = 0; i < 10000; ++i)
    durations.push_back(24 * (1 + rng.uniform(60)));
  for (auto _ : state) {
    stats::TotalTimeFraction ttf;
    for (auto d : durations) ttf.add(d);
    benchmark::DoNotOptimize(ttf.total_hours());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_TtfAccumulate);

void BM_CommonPrefixLength64(benchmark::State& state) {
  net::Rng rng(5);
  std::vector<std::uint64_t> nets;
  for (int i = 0; i < 1024; ++i) nets.push_back(rng.next_u64());
  std::size_t i = 0;
  for (auto _ : state) {
    int c = net::common_prefix_length64(nets[i % 1024], nets[(i + 1) % 1024]);
    benchmark::DoNotOptimize(c);
    ++i;
  }
}
BENCHMARK(BM_CommonPrefixLength64);

}  // namespace

// Expanded BENCHMARK_MAIN() with the shared bench flags on top:
// bench::init strips --threads/--metrics-out before google-benchmark sees
// argv, and bench::finish emits the metrics document (peak RSS and any
// study phases) like every other bench binary.
int main(int argc, char** argv) {
  bench::init(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return bench::finish();
}
