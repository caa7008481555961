// Fuzz the streaming EchoReader over arbitrary byte streams: never crash,
// bounded memory (line/field caps), and accounting invariants hold —
// every physical line is attributed to exactly one disposition, and the
// record count matches what next() yielded. Every yielded record survives
// the canonical round trip: to_csv(rec), read back, has the same to_csv.
// The duplicate rule holds both ways: yielded records have distinct
// (probe, hour, family) keys, every duplicate reject repeats a yielded key,
// and the yielded records read back in reverse order, where nearly every
// record goes back in time and is checked exactly, are all accepted again.
// The input, and the input tiled past four line ranges, with and without
// a long last line, load alike with no executor and on four threads
// (reader_equivalence.h).
#include <cstddef>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "io/csv.h"
#include "io/readers.h"
#include "reader_equivalence.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  namespace io = dynamips::io;
  const std::string text(reinterpret_cast<const char*>(data), size);
  std::istringstream in(text);
  io::ReaderOptions options;
  options.max_line_bytes = 256;           // exercise the oversize path
  options.max_reject_fraction = 1.0;      // never trip on fraction
  options.max_consecutive_rejects = 16;   // exercise the fail-fast path
  dynamips::fuzz::expect_thread_invariant<io::EchoReader>(text, options);
  std::ostringstream quarantine;
  options.quarantine = &quarantine;
  io::EchoReader reader(in, options);
  std::uint64_t yielded = 0;
  std::set<std::tuple<std::uint32_t, std::uint64_t, int>> keys;
  std::vector<std::string> lines;
  while (auto rec = reader.next()) {
    ++yielded;
    const std::string canon = io::to_csv(*rec);
    std::istringstream again_in(canon);
    auto again = io::EchoReader(again_in).next();
    if (!again || io::to_csv(*again) != canon) __builtin_trap();
    if (!keys.emplace(rec->probe_id, rec->hour, int(rec->family)).second)
      __builtin_trap();
    lines.push_back(canon);
  }
  const io::IngestStats& st = reader.stats();
  if (st.records_accepted != yielded) __builtin_trap();
  if (st.data_lines != st.records_accepted + st.total_rejects())
    __builtin_trap();
  if (st.lines_seen !=
      st.data_lines + st.headers_skipped + st.meta_lines + st.blank_lines)
    __builtin_trap();
  (void)reader.finish();  // must not throw for any verdict

  // Quarantine rows are "<source>,<line>,<reason>,<text>", the source
  // empty; a text cut at kKeepTextBytes may no longer hold its key.
  std::istringstream rows(quarantine.str());
  for (std::string row; std::getline(rows, row);) {
    const io::CsvFields f = io::split_csv(row, 4);
    if (f[2] != "duplicate" || f[3].size() >= io::kKeepTextBytes) continue;
    std::istringstream line_in{std::string(f[3])};
    auto dup = io::EchoReader(line_in).next();
    if (!dup || !keys.count({dup->probe_id, dup->hour, int(dup->family)}))
      __builtin_trap();
  }

  std::string reversed;
  for (auto line = lines.rbegin(); line != lines.rend(); ++line)
    reversed += *line + '\n';
  std::istringstream back_in(reversed);
  options.quarantine = nullptr;
  io::EchoReader back(back_in, options);
  while (back.next()) continue;
  if (back.stats().records_accepted != yielded ||
      back.stats().total_rejects() != 0)
    __builtin_trap();
  return 0;
}
