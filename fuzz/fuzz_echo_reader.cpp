// Fuzz the streaming EchoReader over arbitrary byte streams: never crash,
// bounded memory (line/field caps), and accounting invariants hold —
// every physical line is attributed to exactly one disposition, and the
// record count matches what next() yielded. Every yielded record survives
// the canonical round trip: to_csv(rec), read back, has the same to_csv.
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>

#include "io/readers.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  namespace io = dynamips::io;
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(data), size));
  io::ReaderOptions options;
  options.max_line_bytes = 256;           // exercise the oversize path
  options.max_reject_fraction = 1.0;      // never trip on fraction
  options.max_consecutive_rejects = 16;   // exercise the fail-fast path
  io::EchoReader reader(in, options);
  std::uint64_t yielded = 0;
  while (auto rec = reader.next()) {
    ++yielded;
    const std::string canon = io::to_csv(*rec);
    std::istringstream again_in(canon);
    auto again = io::EchoReader(again_in).next();
    if (!again || io::to_csv(*again) != canon) __builtin_trap();
  }
  const io::IngestStats& st = reader.stats();
  if (st.records_accepted != yielded) __builtin_trap();
  if (st.data_lines != st.records_accepted + st.total_rejects())
    __builtin_trap();
  if (st.lines_seen !=
      st.data_lines + st.headers_skipped + st.meta_lines + st.blank_lines)
    __builtin_trap();
  (void)reader.finish();  // must not throw for any verdict
  return 0;
}
