// rib.h — a routing-information-base substrate standing in for the
// RouteViews pfx2as dataset the paper uses to map addresses to origin ASes
// and BGP prefixes (Appendix A.1, Table 2).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "netaddr/ipv4.h"
#include "netaddr/ipv6.h"
#include "netaddr/prefix.h"
#include "rtrie/prefix_trie.h"

namespace dynamips::bgp {

/// Autonomous-system number.
using Asn = std::uint32_t;

/// Regional Internet Registry attribution, used by the CDN analyses
/// (Figs. 3 and 7) to group address space by geography.
enum class Registry { kArin, kRipe, kApnic, kLacnic, kAfrinic };

/// The last Registry value; checkpoint loads (io/checkpoint.h) refuse any
/// byte above it.
constexpr Registry enum_max(Registry) { return Registry::kAfrinic; }

/// Printable registry name ("ARIN", "RIPE", ...).
const char* registry_name(Registry r);

/// All registries, in the order the paper's figures present them.
inline constexpr Registry kAllRegistries[] = {
    Registry::kArin, Registry::kRipe, Registry::kApnic, Registry::kLacnic,
    Registry::kAfrinic};

/// Origin information attached to an announced prefix.
struct Origin {
  Asn asn = 0;
  Registry registry = Registry::kRipe;
};

/// Result of a v4 longest-prefix lookup.
struct Route4 {
  net::Prefix4 prefix;
  Origin origin;
};

/// Result of a v6 longest-prefix lookup.
struct Route6 {
  net::Prefix6 prefix;
  Origin origin;
};

/// The RIB: announced prefixes with origin ASNs, answering longest-prefix
/// match queries for both families. Move-only (owns two tries).
class Rib {
 public:
  /// Announce a v4 prefix. Later announcements of the same prefix overwrite.
  void announce(const net::Prefix4& p, Origin origin);
  /// Announce a v6 prefix.
  void announce(const net::Prefix6& p, Origin origin);

  /// Longest matching announced prefix containing `a`, or nullopt.
  std::optional<Route4> lookup(net::IPv4Address a) const;
  std::optional<Route6> lookup(const net::IPv6Address& a) const;

  /// Origin AS of the longest match, or 0 when unrouted.
  Asn asn_of(net::IPv4Address a) const;
  Asn asn_of(const net::IPv6Address& a) const;

  std::size_t v4_size() const { return v4_.size(); }
  std::size_t v6_size() const { return v6_.size(); }

  /// All announced prefixes (for serialization / debugging).
  std::vector<Route4> v4_routes() const;
  std::vector<Route6> v6_routes() const;

 private:
  rtrie::PrefixTrie<Origin> v4_;
  rtrie::PrefixTrie<Origin> v6_;
};

}  // namespace dynamips::bgp
