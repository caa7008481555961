#include "harness/flags.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

namespace {

[[noreturn]] void usage_error(std::string_view flag, std::string_view what,
                              std::string_view value) {
  std::fprintf(stderr, "dynbench: %.*s: %.*s (got '%.*s')\n",
               int(flag.size()), flag.data(), int(what.size()), what.data(),
               int(value.size()), value.data());
  std::fprintf(stderr,
               "usage: dynbench setup|run --workload gen-full|col-full|"
               "follow-serve --seed N --dir DIR [--seconds N] [--trace 0|1] "
               "[--scale S] [--threads T] [--out-dir DIR]\n");
  std::exit(2);
}

}  // namespace

std::string_view workload_name(Workload w) {
  switch (w) {
    case Workload::kGenFull: return "gen-full";
    case Workload::kColFull: return "col-full";
    case Workload::kFollowServe: return "follow-serve";
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w :
       {Workload::kGenFull, Workload::kColFull, Workload::kFollowServe})
    if (workload_name(w) == name) return w;
  return std::nullopt;
}

std::optional<std::uint64_t> parse_u64(std::string_view text,
                                       std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value, 10);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  if (value < lo || value > hi) return std::nullopt;
  return value;
}

std::optional<double> parse_double(std::string_view text, double lo_exclusive,
                                   double hi_inclusive) {
  double value = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  if (!std::isfinite(value) || value <= lo_exclusive || value > hi_inclusive)
    return std::nullopt;
  return value;
}

Options parse_options(int argc, char** argv) {
  Options o;
  if (argc < 2) usage_error("command", "expected 'setup' or 'run'", "");
  o.command = argv[1];
  if (o.command != "setup" && o.command != "run")
    usage_error("command", "expected 'setup' or 'run'", o.command);
  bool have_workload = false, have_seed = false;
  for (int i = 2; i < argc; ++i) {
    std::string_view flag = argv[i];
    if (i + 1 >= argc) usage_error(flag, "missing value", "");
    std::string_view value = argv[++i];
    if (flag == "--workload") {
      auto w = parse_workload(value);
      if (!w) usage_error(flag, "unknown workload", value);
      o.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      // Any 64-bit seed: the CDN seed (seed x 977) wraps, as in
      // tools/dynamips_study.
      auto v = parse_u64(value, 0, UINT64_MAX);
      if (!v) usage_error(flag, "expected an integer in [0, 2^64)", value);
      o.seed = *v;
      have_seed = true;
    } else if (flag == "--seconds") {
      auto v = parse_u64(value, 1, 600);
      if (!v) usage_error(flag, "expected an integer in [1, 600]", value);
      o.seconds = *v;
    } else if (flag == "--trace") {
      auto v = parse_u64(value, 0, 1);
      if (!v) usage_error(flag, "expected 0 or 1", value);
      o.trace = *v == 1;
    } else if (flag == "--scale") {
      auto v = parse_double(value, 0.0, 3.0);
      if (!v) usage_error(flag, "expected a number in (0, 3]", value);
      o.scale = *v;
    } else if (flag == "--threads") {
      auto v = parse_u64(value, 1, 64);
      if (!v) usage_error(flag, "expected an integer in [1, 64]", value);
      o.threads = unsigned(*v);
    } else if (flag == "--dir") {
      if (value.empty()) usage_error(flag, "expected a directory", value);
      o.dir = value;
    } else if (flag == "--out-dir") {
      if (value.empty()) usage_error(flag, "expected a directory", value);
      o.out_dir = value;
    } else {
      usage_error(flag, "unknown flag", value);
    }
  }
  if (!have_workload) usage_error("--workload", "required", "");
  if (!have_seed) usage_error("--seed", "required", "");
  if (o.dir.empty()) usage_error("--dir", "required", "");
  return o;
}

}  // namespace perfbench
