// echo.h — RIPE Atlas "IP echo" measurement records (§3.1).
//
// Every hour a probe performs an HTTP GET against an echo server which
// returns the client's publicly visible address (X-Client-IP). The probe
// also records the local source address it used (src_addr): private RFC 1918
// space behind a v4 NAT, and (normally) the same global address as
// X-Client-IP in v6. The sanitizer keys several filters off the relation
// between the two fields.
#pragma once

#include <cstdint>
#include <vector>

#include "core/intern.h"
#include "netaddr/ipv4.h"
#include "netaddr/ipv6.h"
#include "simnet/time.h"

namespace dynamips::atlas {

using simnet::Hour;

enum class Family : std::uint8_t { kV4, kV6 };

/// One IP-echo measurement.
struct EchoRecord {
  std::uint32_t probe_id = 0;
  Hour hour = 0;
  Family family = Family::kV4;
  // v4 fields (valid when family == kV4)
  net::IPv4Address x_client_ip4;
  net::IPv4Address src_addr4;
  // v6 fields (valid when family == kV6)
  net::IPv6Address x_client_ip6;
  net::IPv6Address src_addr6;
};

/// Probe metadata: the user-supplied tags the sanitizer screens
/// ("datacentre", "core", "multihomed", "system-anchor"). Tags are
/// interned through core::tag_pool(), so a probe carries dense ids
/// instead of heap strings.
struct ProbeMeta {
  std::uint32_t probe_id = 0;
  std::vector<core::TagId> tags;
};

/// All measurements of one probe, sorted by hour (records of both families
/// at the same hour appear v4-first).
struct ProbeSeries {
  ProbeMeta meta;
  std::vector<EchoRecord> records;
};

/// The RIPE NCC address probes report before deployment; appears at the
/// head of many probes' histories and must be filtered (Appendix A.1).
net::IPv4Address ripe_test_address();

}  // namespace dynamips::atlas
