// reader_equivalence.h — the reader fuzz targets' thread-count check: a
// CSV reader yields the same records, stats, quarantine and verdict with
// no executor and on a four-thread one, whose ranges only split inputs of
// several kCsvMinRangeBytes, so the input is also tried tiled past that,
// and tiled with a line twice as long after it, which runs past the later
// range cut points.
#pragma once

#include <sstream>
#include <string>

#include "core/parallel.h"
#include "io/readers.h"

namespace dynamips::fuzz {

/// Everything one read of `text` reports, as one string.
template <class Reader>
std::string read_report(const std::string& text, io::ReaderOptions options,
                        core::ShardExecutor* exec) {
  std::istringstream in(text);
  std::ostringstream quarantine;
  options.quarantine = &quarantine;
  Reader reader(in, options, exec);
  std::string out;
  while (auto rec = reader.next()) out += io::to_csv(*rec) + '\n';
  const io::IngestStats& st = reader.stats();
  out += reader.finish().to_string() + '\n' + st.summary() + '\n';
  for (std::uint64_t n : {st.lines_seen, st.data_lines, st.headers_skipped,
                          st.meta_lines, st.blank_lines})
    out += std::to_string(n) + ' ';
  for (const auto& r : st.first_rejects)
    out += '\n' + std::to_string(r.line_number) + ' ' + r.text;
  return out + '\n' + quarantine.str();
}

template <class Reader>
void expect_thread_invariant(const std::string& text,
                             const io::ReaderOptions& options) {
  static core::ShardExecutor pool(4);
  auto check = [&](const std::string& input) {
    if (read_report<Reader>(input, options, nullptr) !=
        read_report<Reader>(input, options, &pool))
      __builtin_trap();
  };
  check(text);
  std::string tiled = text;
  while (!text.empty() && tiled.size() < 4 * io::kCsvMinRangeBytes)
    tiled += text;
  check(tiled);
  if (!text.empty()) check(tiled + std::string(2 * tiled.size(), 'L') + '\n');
}

}  // namespace dynamips::fuzz
