// Fuzz the streaming AssocReader: never crash, bounded memory, exact
// line-disposition accounting, and the canonical round trip of every
// yielded record (to_csv, read back, same to_csv). The input, and the
// input tiled past four line ranges, with and without a long last line,
// load alike with no executor and on four threads (reader_equivalence.h).
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>

#include "io/readers.h"
#include "reader_equivalence.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  namespace io = dynamips::io;
  const std::string text(reinterpret_cast<const char*>(data), size);
  std::istringstream in(text);
  io::ReaderOptions options;
  options.max_line_bytes = 256;
  options.max_reject_fraction = 1.0;
  options.max_consecutive_rejects = 16;
  // Exercise the adjacent-dedup path too (off by default).
  options.assoc_dedup_adjacent = size % 2 == 0;
  dynamips::fuzz::expect_thread_invariant<io::AssocReader>(text, options);
  io::AssocReader reader(in, options);
  std::uint64_t yielded = 0;
  while (auto rec = reader.next()) {
    ++yielded;
    const std::string canon = io::to_csv(*rec);
    std::istringstream again_in(canon);
    auto again = io::AssocReader(again_in).next();
    if (!again || io::to_csv(*again) != canon) __builtin_trap();
  }
  const io::IngestStats& st = reader.stats();
  if (st.records_accepted != yielded) __builtin_trap();
  if (st.data_lines != st.records_accepted + st.total_rejects())
    __builtin_trap();
  if (st.lines_seen !=
      st.data_lines + st.headers_skipped + st.meta_lines + st.blank_lines)
    __builtin_trap();
  (void)reader.finish();
  return 0;
}
