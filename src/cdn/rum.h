// rum.h — CDN Real-User-Monitoring association records (§4.1).
//
// The CDN observes dual-stacked clients whose page fetch and RUM beacon use
// different IP protocols, yielding an instantaneous association between the
// client's IPv4 and IPv6 addresses. The dataset is aggregated to an
// (IPv4 /24, IPv6 /64, date) tuple; the CDN's BGP feed attributes each side
// to an origin AS, and associations whose two ASNs differ are discarded
// during pre-processing (multi-homing and WiFi/cellular switching noise).
#pragma once

#include <cstdint>
#include <vector>

#include "bgp/rib.h"
#include "netaddr/prefix.h"

namespace dynamips::cdn {

/// One observed IPv4/IPv6 association.
struct AssociationRecord {
  std::uint32_t day = 0;       ///< day index within the collection window
  net::Prefix4 v4_24;          ///< client IPv4 aggregated to /24
  net::Prefix6 v6_64;          ///< client IPv6 aggregated to /64
  bgp::Asn asn4 = 0;           ///< origin AS of the v4 side (BGP feed)
  bgp::Asn asn6 = 0;           ///< origin AS of the v6 side
  std::uint32_t subscriber = 0;  ///< ground truth (not available to analyses
                                 ///< mirroring the paper; used in tests)
};

/// Per-ISP batch of association records, sorted by day.
struct AssociationLog {
  bgp::Asn asn = 0;
  bool mobile = false;                  ///< ground-truth access type
  bgp::Registry registry{};
  std::vector<AssociationRecord> records;
};

}  // namespace dynamips::cdn
