// Fuzz the columnar batch decoders (io/columnar.h) over arbitrary bytes:
// every input must come back as a Status — structural damage as kDataLoss,
// version skew as kFailedPrecondition — or as a valid dataset. Never a
// crash, never an out-of-bounds read (the directory is validated before
// any payload is touched), and on success the ingest accounting must match
// the decoded dataset exactly. Each input is also decoded through a
// 3-thread executor, which must give the same Status, stats, quarantine,
// `ingest.*` counters and dataset as the decode on the caller. Each decoded
// dataset is re-encoded by the same executor (or on the caller): the bytes
// must not depend on it, and the returned CRC must be crc32() of them.
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "core/parallel.h"
#include "core/status.h"
#include "io/checkpoint.h"
#include "io/columnar.h"
#include "io/readers.h"
#include "obs/metrics.h"

namespace {

namespace io = dynamips::io;
using dynamips::core::StatusCode;

/// Everything one decode reports; `counters` renders the metrics sink and
/// `dataset` is the decoded dataset re-encoded.
struct Outcome {
  std::string status, dataset, quarantine, counters;
  io::IngestStats stats;
};

template <class Decode, class Encode>
Outcome run(std::string_view bytes, dynamips::core::ShardExecutor* exec,
            Decode decode, Encode encode) {
  io::ReaderOptions options;
  options.max_reject_fraction = 1.0;     // never trip on fraction
  options.max_consecutive_rejects = 16;  // exercise the fail-fast path
  Outcome out;
  std::ostringstream quarantine;
  dynamips::obs::MetricsSink metrics;
  options.quarantine = &quarantine;
  options.metrics = &metrics;
  auto data = decode(bytes, options, &out.stats, exec);
  out.quarantine = quarantine.str();
  for (const auto& [name, counter] : metrics.counters())
    out.counters += name + "=" + std::to_string(counter.value) + "\n";
  if (data.ok()) {
    std::uint64_t records = 0;
    for (const auto& item : *data) records += item.records.size();
    if (out.stats.records_accepted != records) __builtin_trap();
    io::EncodedBatch encoded = encode(*data, exec);
    if (encoded.crc != io::ckpt::crc32(encoded.bytes)) __builtin_trap();
    out.dataset = std::move(encoded.bytes);
  } else if (data.status().code() != StatusCode::kDataLoss &&
             data.status().code() != StatusCode::kFailedPrecondition) {
    __builtin_trap();
  }
  out.status = data.status().to_string();
  return out;
}

template <class Decode, class Encode>
void check(std::string_view bytes, dynamips::core::ShardExecutor& exec,
           Decode decode, Encode encode) {
  const Outcome serial = run(bytes, nullptr, decode, encode);
  const Outcome threaded = run(bytes, &exec, decode, encode);
  if (threaded.status != serial.status || threaded.dataset != serial.dataset ||
      threaded.quarantine != serial.quarantine ||
      threaded.counters != serial.counters || !(threaded.stats == serial.stats))
    __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  static dynamips::core::ShardExecutor exec(3);
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  check(
      bytes, exec,
      [](auto... a) { return io::decode_echo_columnar(a...); },
      [](const auto& d, auto* e) { return io::encode_echo_columnar(d, e); });
  check(
      bytes, exec,
      [](auto... a) { return io::decode_assoc_columnar(a...); },
      [](const auto& d, auto* e) { return io::encode_assoc_columnar(d, e); });
  return 0;
}
