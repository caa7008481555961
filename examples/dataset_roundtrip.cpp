// dataset_roundtrip — running the pipeline on external data.
//
// The analyzers consume plain record types, not the simulator: this example
// serializes a simulated probe's IP-echo history and an ISP's association
// log to CSV, reads them back through io/, and shows that the analysis of
// the round-tripped data is identical. The same path loads real datasets
// converted to the documented CSV schemas.
//
// Export mode writes full multi-probe / multi-ISP datasets to disk instead
// — the fixture generator for `dynamips_study --atlas-in/--cdn-in` and the
// CI corruption-resilience check:
//   dataset_roundtrip --echo-out echo.csv --assoc-out assoc.csv
//       [--scale S] [--window HOURS] [--seed N]
// An output path ending in `.col` switches that file to the binary
// columnar batch format (io/columnar.h) — same records, same downstream
// results, ~an order of magnitude faster to ingest.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "atlas/generator.h"
#include "cdn/generator.h"
#include "core/assoc.h"
#include "core/durations.h"
#include "core/parse_number.h"
#include "core/sanitize.h"
#include "io/atomic_file.h"
#include "io/columnar.h"
#include "io/readers.h"
#include "simnet/isp.h"

using namespace dynamips;

namespace {

int export_datasets(const std::string& echo_out, const std::string& assoc_out,
                    double scale, std::uint64_t window, std::uint64_t seed) {
  if (!echo_out.empty()) {
    atlas::AtlasConfig acfg;
    acfg.probe_scale = scale;
    acfg.window_hours = window;
    acfg.seed = seed;
    atlas::AtlasSimulator sim(simnet::paper_isps(), acfg);
    std::vector<atlas::ProbeSeries> dataset;
    dataset.reserve(sim.probe_count());
    for (std::size_t i = 0; i < sim.probe_count(); ++i)
      dataset.push_back(sim.series_for(i));
    if (io::is_columnar_path(echo_out)) {
      if (core::Status st = io::write_echo_columnar(echo_out, dataset);
          !st.ok()) {
        std::fprintf(stderr, "cannot write %s: %s\n", echo_out.c_str(),
                     st.message().c_str());
        return 1;
      }
    } else {
      io::AtomicFileWriter out(echo_out);
      if (!out.ok()) {
        std::fprintf(stderr, "cannot open %s\n", echo_out.c_str());
        return 1;
      }
      io::write_echo_dataset(out.stream(), dataset);
      if (core::Status st = out.commit(); !st.ok()) {
        std::fprintf(stderr, "cannot write %s: %s\n", echo_out.c_str(),
                     st.message().c_str());
        return 1;
      }
    }
    std::printf("wrote %zu probes to %s\n", dataset.size(),
                echo_out.c_str());
  }
  if (!assoc_out.empty()) {
    cdn::CdnConfig ccfg;
    ccfg.subscriber_scale = scale;
    ccfg.seed = seed;
    cdn::CdnSimulator sim(cdn::default_cdn_population(scale), ccfg);
    std::vector<cdn::AssociationLog> dataset;
    dataset.reserve(sim.entry_count());
    for (std::size_t i = 0; i < sim.entry_count(); ++i)
      dataset.push_back(sim.generate(i));
    if (io::is_columnar_path(assoc_out)) {
      if (core::Status st = io::write_assoc_columnar(assoc_out, dataset);
          !st.ok()) {
        std::fprintf(stderr, "cannot write %s: %s\n", assoc_out.c_str(),
                     st.message().c_str());
        return 1;
      }
    } else {
      io::AtomicFileWriter out(assoc_out);
      if (!out.ok()) {
        std::fprintf(stderr, "cannot open %s\n", assoc_out.c_str());
        return 1;
      }
      io::write_assoc_dataset(out.stream(), dataset);
      if (core::Status st = out.commit(); !st.ok()) {
        std::fprintf(stderr, "cannot write %s: %s\n", assoc_out.c_str(),
                     st.message().c_str());
        return 1;
      }
    }
    std::printf("wrote %zu association logs to %s\n", dataset.size(),
                assoc_out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string echo_out, assoc_out;
  double scale = 0.05;
  std::uint64_t window = 6000, seed = 1;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "usage: %s [--echo-out F] [--assoc-out F] [--scale S] "
                     "[--window HOURS] [--seed N]\n",
                     argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--echo-out")
      echo_out = next();
    else if (arg == "--assoc-out")
      assoc_out = next();
    else if (arg == "--scale")
      scale = core::parse_number_or_exit(arg, next(), 1e-6, 100.0);
    else if (arg == "--window")
      window = core::parse_number_or_exit<std::uint64_t>(arg, next(), 1,
                                                         10000000);
    else if (arg == "--seed")
      seed = core::parse_number_or_exit<std::uint64_t>(arg, next(), 0,
                                                       UINT64_MAX);
    else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (!echo_out.empty() || !assoc_out.empty())
    return export_datasets(echo_out, assoc_out, scale, window, seed);
  // --- Atlas echo records ----------------------------------------------
  atlas::AtlasConfig acfg;
  acfg.probe_scale = 0.02;
  acfg.window_hours = 4380;  // six months
  atlas::AtlasSimulator sim({*simnet::find_isp("DTAG")}, acfg);
  atlas::ProbeSeries original = sim.series_for(0);

  std::stringstream buf;
  io::write_echo_dataset(buf, {original});
  std::printf("echo CSV: %zu records, %zu bytes\n", original.records.size(),
              buf.str().size());

  auto loaded = io::read_echo_dataset(buf);
  if (!loaded.ok() || loaded->size() != 1) {
    std::printf("FAILED to parse round-tripped echo CSV\n");
    return 1;
  }
  auto spans_a = core::extract_spans4(core::from_series(original).v4);
  auto spans_b = core::extract_spans4(core::from_series((*loaded)[0]).v4);
  std::printf("v4 spans original=%zu loaded=%zu -> %s\n", spans_a.size(),
              spans_b.size(),
              spans_a.size() == spans_b.size() ? "identical" : "MISMATCH");

  // --- CDN association records ------------------------------------------
  cdn::CdnConfig ccfg;
  ccfg.subscriber_scale = 0.01;
  auto population = cdn::default_cdn_population(ccfg.subscriber_scale);
  cdn::CdnSimulator csim(population, ccfg);
  cdn::AssociationLog log = csim.generate(0);

  std::stringstream abuf;
  io::write_assoc_dataset(abuf, {log});
  auto alogs = io::read_assoc_dataset(abuf);
  if (!alogs.ok() || alogs->size() != 1) {
    std::printf("FAILED to parse round-tripped association CSV\n");
    return 1;
  }
  cdn::AssociationLog& alog = (*alogs)[0];
  alog.registry = log.registry;

  core::CdnAnalyzer a1({}, csim.mobile_asns()), a2({}, csim.mobile_asns());
  a1.add_log(log);
  a2.add_log(alog);
  std::printf("assoc CSV: %zu records; tuples analyzed original=%llu "
              "loaded=%llu -> %s\n",
              log.records.size(), (unsigned long long)a1.total_tuples(),
              (unsigned long long)a2.total_tuples(),
              a1.total_tuples() == a2.total_tuples() ? "identical"
                                                     : "MISMATCH");
  return 0;
}
