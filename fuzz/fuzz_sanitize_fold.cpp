// Differential fuzz of the resumable sanitize fold: one probe's records,
// delivered in batches as a stream consumes them, must give the same
// virtual probes and filter accounting after every batch whether the fold
// resumes at the seam, refolds from record 0, or the reference sanitizer
// (tests/reference/sanitize.h, replay_fold) runs on the whole series.
//
// Input: two option bytes, then two bytes per record.
//   option 0: bit 0 max_as_runs 3 (else 2); bit 1 the tags come with the
//             last batch; bit 2 the tags disqualify the probe.
//   option 1: min_observation_hours.
//   record byte 0: bits 0-2 hours since the last record (0: same hour);
//             bit 3 v6; bits 4-5 where the address is: AS100, AS200,
//             unrouted, or the RIPE test address (v4; AS100 for v6);
//             bit 6 src_addr public (v4) or not X-Client-IP (v6); bit 7 a
//             batch ends before this record.
//   record byte 1: bits 0-1 the host; bit 2 deliver the record in the
//             last batch instead (back in time); bit 3 deliver it again
//             in the next batch.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "bgp/rib.h"
#include "core/intern.h"
#include "core/sanitize.h"
#include "netaddr/prefix.h"
#include "reference/sanitize.h"

namespace {

using namespace dynamips;

const bgp::Rib& fuzz_rib() {
  static const bgp::Rib* rib = [] {
    auto* r = new bgp::Rib;
    r->announce(*net::Prefix4::parse("10.0.0.0/8"),
                {100, bgp::Registry::kRipe});
    r->announce(*net::Prefix4::parse("20.0.0.0/8"),
                {200, bgp::Registry::kRipe});
    r->announce(*net::Prefix6::parse("2001:100::/32"),
                {100, bgp::Registry::kRipe});
    r->announce(*net::Prefix6::parse("2001:200::/32"),
                {200, bgp::Registry::kRipe});
    return r;
  }();
  return *rib;
}

atlas::EchoRecord decode(std::uint8_t b0, std::uint8_t b1,
                         atlas::Hour hour) {
  const unsigned where = (b0 >> 4) & 3;
  const bool flag = b0 & 0x40;
  const std::uint32_t host = b1 & 3;
  atlas::EchoRecord r;
  r.probe_id = 1;
  r.hour = hour;
  if (b0 & 8) {
    static constexpr std::uint64_t kNet[] = {
        0x2001010000000000ULL, 0x2001020000000000ULL, 0x3fff000000000000ULL,
        0x2001010000000000ULL};
    r.family = atlas::Family::kV6;
    r.x_client_ip6 = net::IPv6Address(kNet[where] | host, host + 1);
    r.src_addr6 = flag ? net::IPv6Address(kNet[where], 0xdead)
                       : r.x_client_ip6;
  } else {
    static constexpr std::uint32_t kNet[] = {10, 20, 99, 0};
    r.family = atlas::Family::kV4;
    r.x_client_ip4 = where == 3 ? atlas::ripe_test_address()
                                : net::IPv4Address((kNet[where] << 24) | host);
    r.src_addr4 = net::IPv4Address(flag ? 0x08080808 : 0xC0A80102);
  }
  return r;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 2) return 0;
  core::SanitizeOptions opt;
  opt.max_as_runs = data[0] & 1 ? 3 : 2;
  opt.min_observation_hours = data[1];

  // Each record's batch, then each batch as a reader returns it.
  struct Delivered {
    std::size_t batch;
    bool last;  ///< delivered in the last batch instead
    atlas::EchoRecord record;
  };
  std::vector<Delivered> records;
  std::size_t batch = 0, batches = 1;
  atlas::Hour hour = 0;
  for (std::size_t i = 2; i + 1 < size && records.size() < 4096; i += 2) {
    const std::uint8_t b0 = data[i], b1 = data[i + 1];
    if (b0 & 0x80) ++batch;
    hour += b0 & 7;
    const atlas::EchoRecord r = decode(b0, b1, hour);
    records.push_back({batch, bool(b1 & 4), r});
    if (b1 & 8) records.push_back({batch + 1, false, r});
    batches = std::max(batches, records.back().batch + 1);
  }
  std::vector<atlas::ProbeSeries> parts(batches);
  for (const Delivered& d : records)
    parts[d.last ? batches - 1 : d.batch].records.push_back(d.record);
  for (auto& part : parts) {
    part.meta.probe_id = 1;
    std::stable_sort(part.records.begin(), part.records.end(),
                     [](const atlas::EchoRecord& a,
                        const atlas::EchoRecord& b) { return a.hour < b.hour; });
  }
  std::vector<core::TagId> tags{core::tag_pool().intern("home")};
  if (data[0] & 4) tags.push_back(core::tag_pool().intern("multihomed"));
  (data[0] & 2 ? parts.back() : parts.front()).meta.tags = tags;

  if (!core::reference::replay_fold(fuzz_rib(), opt, std::move(parts)).empty())
    __builtin_trap();
  return 0;
}
