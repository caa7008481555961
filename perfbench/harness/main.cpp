// dynbench — the benchmark harness binary (driven by perfbench/run.py).
//
//   dynbench setup --workload W --seed N --dir DIR
//   dynbench run   --workload W --seed N --dir DIR --seconds S --trace 0|1
//
// `run` prints one JSON result line last on stdout and exits 0 only when
// every output check passed.
#include <cstdio>
#include <exception>

#include "harness/flags.h"
#include "harness/workloads.h"

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::parse_options(argc, argv);
  try {
    return options.command == "setup" ? perfbench::run_setup(options)
                                      : perfbench::run_measure(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dynbench: %s\n", e.what());
    return 1;
  }
}
