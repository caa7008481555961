// ipv4.h — IPv4 address value type.
#pragma once

#include <functional>
#include <array>
#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace dynamips::net {

/// An IPv4 address held in host byte order. A regular value type with total
/// ordering (numeric), dotted-quad parsing/formatting, and the small set of
/// bit utilities the analysis pipeline needs.
class IPv4Address {
 public:
  constexpr IPv4Address() = default;
  constexpr explicit IPv4Address(std::uint32_t value) : value_(value) {}

  /// Build from four octets, most significant first: {a,b,c,d} = a.b.c.d.
  static constexpr IPv4Address from_octets(std::uint8_t a, std::uint8_t b,
                                           std::uint8_t c, std::uint8_t d) {
    return IPv4Address{(std::uint32_t(a) << 24) | (std::uint32_t(b) << 16) |
                       (std::uint32_t(c) << 8) | std::uint32_t(d)};
  }

  /// Parse strict dotted-quad notation ("192.0.2.1"). Rejects leading zeros
  /// beyond a single digit (e.g. "01.2.3.4"), out-of-range octets, and any
  /// trailing characters. Returns nullopt on failure.
  static std::optional<IPv4Address> parse(std::string_view text);

  /// Dotted-quad representation.
  std::string to_string() const;

  constexpr std::uint32_t value() const { return value_; }

  constexpr std::array<std::uint8_t, 4> octets() const {
    return {std::uint8_t(value_ >> 24), std::uint8_t(value_ >> 16),
            std::uint8_t(value_ >> 8), std::uint8_t(value_)};
  }

  /// True if the address lies in RFC 1918 private space.
  constexpr bool is_rfc1918() const {
    return (value_ & 0xff000000u) == 0x0a000000u ||        // 10/8
           (value_ & 0xfff00000u) == 0xac100000u ||        // 172.16/12
           (value_ & 0xffff0000u) == 0xc0a80000u;          // 192.168/16
  }

  /// True if the address lies in RFC 6598 shared (CGNAT) space 100.64/10.
  constexpr bool is_rfc6598() const {
    return (value_ & 0xffc00000u) == 0x64400000u;
  }

  friend constexpr bool operator==(IPv4Address, IPv4Address) = default;
  friend constexpr std::strong_ordering operator<=>(IPv4Address a,
                                                    IPv4Address b) {
    return a.value_ <=> b.value_;
  }

 private:
  std::uint32_t value_ = 0;
};

/// Number of identical leading bits between two IPv4 addresses (0..32).
constexpr int common_prefix_length(IPv4Address a, IPv4Address b) {
  std::uint32_t x = a.value() ^ b.value();
  if (x == 0) return 32;
  int n = 0;
  for (std::uint32_t probe = 0x80000000u; (x & probe) == 0; probe >>= 1) ++n;
  return n;
}

}  // namespace dynamips::net

template <>
struct std::hash<dynamips::net::IPv4Address> {
  std::size_t operator()(dynamips::net::IPv4Address a) const noexcept {
    return std::hash<std::uint32_t>{}(a.value());
  }
};
