// flags.h — strict command-line parsing for the benchmark harness.
//
// Every numeric flag is parsed with std::from_chars over the whole
// argument and checked against its range; a malformed or out-of-range
// value (or an unknown workload name) is a usage error that names the
// flag and exits 2. Nothing is coerced: "abc", "4x", "" and "1e999" are
// all refused rather than silently read as 0 or infinity.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// The workloads the benchmark knows (BENCHMARK.json "workloads").
enum class Workload { kGenFull, kColFull, kFollowServe };

std::string_view workload_name(Workload w);
std::optional<Workload> parse_workload(std::string_view name);

/// Parsed harness invocation:
///   dynbench setup --workload W --seed N --dir D [--scale S] [--threads T]
///   dynbench run   --workload W --seed N --dir D --seconds N --trace 0|1
///                  [--scale S] [--threads T] [--out-dir D]
struct Options {
  std::string command;  ///< "setup" or "run"
  Workload workload = Workload::kGenFull;
  std::uint64_t seed = 1;
  std::string dir;      ///< working directory for inputs and references
  std::string out_dir;  ///< where traced runs write their trace + bench doc
  std::uint64_t seconds = 10;
  bool trace = false;
  /// Overrides of the workload's own scale/threads (0 = workload default).
  double scale = 0;
  unsigned threads = 0;
};

/// Parse argv strictly. On a usage error prints "dynbench: <flag>: ..."
/// to stderr and exits 2.
Options parse_options(int argc, char** argv);

// Exposed for tests: each returns nullopt on anything but a complete,
// in-range value.
std::optional<std::uint64_t> parse_u64(std::string_view text,
                                       std::uint64_t lo, std::uint64_t hi);
std::optional<double> parse_double(std::string_view text, double lo_exclusive,
                                   double hi_inclusive);

}  // namespace perfbench
