// Fuzz the checkpoint archive (io/checkpoint.h) over every checkpointed
// type: the first input byte picks the type, the rest is its blob. A load
// must never crash or read out of bounds, and a load that succeeds must
// re-save to exactly the bytes it consumed: loads are canonical (bools are
// 0/1, enums in range, map keys strictly increasing, each type's own
// checks), so the bytes and the loaded state determine each other.
//
// Selectors 8 and 9 load a whole shard blob, the analyzer sequence
// AtlasShard and CdnShard list in core/pipeline.cpp. Stream checkpoints
// hold no blob of their own: their journal segments are DYNCOL1 batches,
// which fuzz_columnar_batch covers. The seed corpus holds the blobs of
// tests/golden/.
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "bgp/rib.h"
#include "core/assoc.h"
#include "core/durations.h"
#include "core/inference.h"
#include "core/sanitize.h"
#include "core/spatial.h"
#include "io/checkpoint.h"
#include "obs/metrics.h"
#include "stats/ttf.h"

namespace {

using namespace dynamips;
namespace ckpt = io::ckpt;

void expect_resaved(std::string_view blob, const ckpt::Reader& r,
                    const ckpt::Writer& w) {
  if (w.buffer() != blob.substr(0, blob.size() - r.remaining()))
    __builtin_trap();
}

template <class... Ts>
void round_trip(std::string_view blob, Ts&... xs) {
  ckpt::Reader r(blob);
  if (!ckpt::load(r, xs...)) return;
  ckpt::Writer w;
  ckpt::save(w, xs...);
  expect_resaved(blob, r, w);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  const std::string_view blob(reinterpret_cast<const char*>(data) + 1,
                              size - 1);
  static const bgp::Rib rib;
  switch (data[0]) {
    case 0: {
      stats::TotalTimeFraction ttf;
      round_trip(blob, ttf);
      break;
    }
    case 1: {
      obs::Histogram histogram;
      round_trip(blob, histogram);
      break;
    }
    case 2: {
      obs::MetricsSink sink;
      round_trip(blob, sink);
      break;
    }
    case 3: {
      core::Sanitizer sanitizer(rib, {});
      round_trip(blob, sanitizer);
      break;
    }
    case 4: {
      core::DurationAnalyzer durations;
      round_trip(blob, durations);
      break;
    }
    case 5: {
      core::SpatialAnalyzer spatial(rib);
      round_trip(blob, spatial);
      break;
    }
    case 6: {
      core::InferenceCollector inference;
      round_trip(blob, inference);
      break;
    }
    case 7: {
      core::CdnAnalyzer analyzer({}, {});
      round_trip(blob, analyzer);
      break;
    }
    case 8: {
      core::Sanitizer sanitizer(rib, {});
      core::DurationAnalyzer durations;
      core::SpatialAnalyzer spatial(rib);
      core::InferenceCollector inference;
      obs::MetricsSink metrics;
      round_trip(blob, sanitizer, durations, spatial, inference, metrics);
      break;
    }
    case 9: {
      core::CdnAnalyzer analyzer({}, {});
      obs::MetricsSink metrics;
      round_trip(blob, analyzer, metrics);
      break;
    }
    default:
      break;
  }
  return 0;
}
