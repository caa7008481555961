// prefix.h — IPv4 and IPv6 prefix (CIDR block) value types.
#pragma once

#include <functional>
#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "netaddr/ipv4.h"
#include "netaddr/ipv6.h"
#include "netaddr/u128.h"

namespace dynamips::net {

/// An IPv4 CIDR prefix. Stored canonically: host bits below `length` are
/// always zero (the constructor masks them).
class Prefix4 {
 public:
  constexpr Prefix4() = default;
  constexpr Prefix4(IPv4Address addr, int length)
      : addr_(IPv4Address{length == 0
                              ? 0
                              : addr.value() &
                                    (~std::uint32_t(0) << (32 - length))}),
        length_(std::uint8_t(length)) {}

  /// Parse "a.b.c.d/len". Host bits are masked, not rejected.
  static std::optional<Prefix4> parse(std::string_view text);

  std::string to_string() const;

  constexpr IPv4Address address() const { return addr_; }
  constexpr int length() const { return length_; }

  /// True when `a` lies inside this prefix.
  constexpr bool contains(IPv4Address a) const {
    if (length_ == 0) return true;
    return (a.value() >> (32 - length_)) == (addr_.value() >> (32 - length_));
  }

  /// True when `other` is equal to or more specific than this prefix.
  constexpr bool contains(const Prefix4& other) const {
    return other.length() >= length_ && contains(other.address());
  }

  friend constexpr bool operator==(const Prefix4&, const Prefix4&) = default;
  friend constexpr std::strong_ordering operator<=>(const Prefix4&,
                                                    const Prefix4&) = default;

 private:
  IPv4Address addr_{};
  std::uint8_t length_ = 0;
};

/// An IPv6 CIDR prefix, canonical (host bits zeroed).
class Prefix6 {
 public:
  constexpr Prefix6() = default;
  constexpr Prefix6(IPv6Address addr, int length)
      : addr_(IPv6Address{addr.bits() & mask128(unsigned(length))}),
        length_(std::uint8_t(length)) {}

  /// Parse "hex:groups::/len". Host bits are masked, not rejected.
  static std::optional<Prefix6> parse(std::string_view text);

  std::string to_string() const;

  constexpr IPv6Address address() const { return addr_; }
  constexpr int length() const { return length_; }

  constexpr bool contains(const IPv6Address& a) const {
    U128 m = mask128(unsigned(length_));
    return (a.bits() & m) == addr_.bits();
  }

  constexpr bool contains(const Prefix6& other) const {
    return other.length() >= length_ && contains(other.address());
  }

  friend constexpr bool operator==(const Prefix6&, const Prefix6&) = default;
  friend constexpr std::strong_ordering operator<=>(const Prefix6&,
                                                    const Prefix6&) = default;

 private:
  IPv6Address addr_{};
  std::uint8_t length_ = 0;
};

/// The enclosing /24 of an IPv4 address — the aggregation granularity used
/// by the CDN dataset and the Diff-/24 analysis (Table 2).
constexpr Prefix4 slash24_of(IPv4Address a) { return Prefix4{a, 24}; }

/// The enclosing /64 of an IPv6 address — the subscriber LAN granularity
/// studied throughout the paper.
constexpr Prefix6 slash64_of(const IPv6Address& a) { return Prefix6{a, 64}; }

}  // namespace dynamips::net

template <>
struct std::hash<dynamips::net::Prefix4> {
  std::size_t operator()(const dynamips::net::Prefix4& p) const noexcept {
    return std::hash<std::uint32_t>{}(p.address().value()) * 31u +
           std::size_t(p.length());
  }
};

template <>
struct std::hash<dynamips::net::Prefix6> {
  std::size_t operator()(const dynamips::net::Prefix6& p) const noexcept {
    return std::hash<dynamips::net::U128>{}(p.address().bits()) * 31u +
           std::size_t(p.length());
  }
};
