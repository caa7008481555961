// ipv6.h — IPv6 address value type with RFC 4291 parsing and RFC 5952
// canonical formatting.
#pragma once

#include <functional>
#include <array>
#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "netaddr/u128.h"

namespace dynamips::net {

/// An IPv6 address as a 128-bit value. The upper 64 bits are the "network"
/// component studied throughout the paper (the /64 prefix delegated or
/// advertised to a subscriber LAN); the lower 64 bits are the interface
/// identifier (IID).
class IPv6Address {
 public:
  constexpr IPv6Address() = default;
  constexpr explicit IPv6Address(U128 bits) : bits_(bits) {}
  constexpr IPv6Address(std::uint64_t network, std::uint64_t iid)
      : bits_{network, iid} {}

  /// Build from eight 16-bit groups, most significant first.
  static constexpr IPv6Address from_groups(
      const std::array<std::uint16_t, 8>& g) {
    U128 v{};
    for (int i = 0; i < 4; ++i) v.hi = (v.hi << 16) | g[std::size_t(i)];
    for (int i = 4; i < 8; ++i) v.lo = (v.lo << 16) | g[std::size_t(i)];
    return IPv6Address{v};
  }

  /// Parse RFC 4291 text form, including "::" compression and an embedded
  /// dotted-quad final group ("::ffff:192.0.2.1"). Zone identifiers and
  /// prefix lengths are rejected here (see Prefix6::parse for the latter).
  static std::optional<IPv6Address> parse(std::string_view text);

  /// RFC 5952 canonical text: lowercase hex, leading zeros dropped, the
  /// longest run of two-or-more zero groups (leftmost on tie) compressed.
  std::string to_string() const;

  constexpr U128 bits() const { return bits_; }
  /// Upper 64 bits: the /64 "network" component.
  constexpr std::uint64_t network64() const { return bits_.hi; }
  /// Lower 64 bits: the interface identifier.
  constexpr std::uint64_t iid() const { return bits_.lo; }

  constexpr std::array<std::uint16_t, 8> groups() const {
    std::array<std::uint16_t, 8> g{};
    for (int i = 0; i < 4; ++i)
      g[std::size_t(i)] = std::uint16_t(bits_.hi >> (48 - 16 * i));
    for (int i = 0; i < 4; ++i)
      g[std::size_t(4 + i)] = std::uint16_t(bits_.lo >> (48 - 16 * i));
    return g;
  }

  friend constexpr bool operator==(const IPv6Address&,
                                   const IPv6Address&) = default;
  friend constexpr std::strong_ordering operator<=>(const IPv6Address& a,
                                                    const IPv6Address& b) {
    return a.bits_ <=> b.bits_;
  }

 private:
  U128 bits_{};
};

/// Number of identical leading bits between two IPv6 addresses (0..128).
/// The paper's "Common Prefix Length" (CPL, §5.2) applies this to the
/// network64 component of successive assignments.
constexpr int common_prefix_length(const IPv6Address& a,
                                   const IPv6Address& b) {
  U128 x = a.bits() ^ b.bits();
  if (x.is_zero()) return 128;
  return x.countl_zero();
}

/// CPL restricted to the network component: identical leading bits of the
/// two 64-bit network parts (0..64). This is the quantity plotted in Fig. 5.
constexpr int common_prefix_length64(std::uint64_t net_a,
                                     std::uint64_t net_b) {
  std::uint64_t x = net_a ^ net_b;
  if (x == 0) return 64;
  return std::countl_zero(x);
}

/// Number of consecutive zero bits at the tail of a /64 network component,
/// i.e. zero bits immediately upstream of the /64 boundary. Used by the
/// subscriber-prefix-length inference of §5.3 ("finding the zero bits").
/// Returns 64 when the network component is entirely zero.
constexpr int trailing_zero_bits64(std::uint64_t network) {
  if (network == 0) return 64;
  return std::countr_zero(network);
}

/// The paper's CDN-side classification (Fig. 7) rounds the trailing-zero
/// streak down to a nibble boundary: an address whose network component ends
/// in >= 8 zero bits matches the /56 boundary, >= 16 the /48 boundary, etc.
/// Returns the inferred delegated prefix length (64 - nibble-rounded zeros),
/// or 64 when fewer than four trailing zero bits are present.
constexpr int inferred_delegation_from_zeros(std::uint64_t network) {
  int z = trailing_zero_bits64(network);
  int nibbles = z / 4;
  return 64 - 4 * nibbles;
}

}  // namespace dynamips::net

template <>
struct std::hash<dynamips::net::IPv6Address> {
  std::size_t operator()(const dynamips::net::IPv6Address& a) const noexcept {
    return std::hash<dynamips::net::U128>{}(a.bits());
  }
};
