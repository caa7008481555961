// reference/ipv6_parse.h — a plain reference of IPv6Address::parse.
//
// The vector-based parser the library used before its one-pass rewrite:
// split on "::", split each side on ':' into tokens, take a dotted quad
// off the last token, then parse each token as a hex group. It allocates
// per call and is kept only as the oracle the one-pass parser must agree
// with (test_ipv6's property tests, fuzz_ipv6_parse).
#pragma once

#include <array>
#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "netaddr/ipv4.h"
#include "netaddr/ipv6.h"

namespace dynamips::net::reference {

// Parse one hex group (1-4 hex digits). Returns nullopt on bad syntax.
inline std::optional<std::uint16_t> parse_group(std::string_view s) {
  if (s.empty() || s.size() > 4) return std::nullopt;
  unsigned v = 0;
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v, 16);
  if (ec != std::errc{} || p != s.data() + s.size()) return std::nullopt;
  return std::uint16_t(v);
}

inline std::optional<IPv6Address> reference_parse_ipv6(std::string_view text) {
  if (text.empty()) return std::nullopt;

  // Split on "::" if present. More than one occurrence is invalid.
  std::size_t dc = text.find("::");
  if (dc != std::string_view::npos &&
      text.find("::", dc + 1) != std::string_view::npos)
    return std::nullopt;

  auto split_groups = [](std::string_view part,
                         std::vector<std::string_view>& out) -> bool {
    if (part.empty()) return true;
    std::size_t start = 0;
    while (true) {
      std::size_t colon = part.find(':', start);
      std::string_view tok = colon == std::string_view::npos
                                 ? part.substr(start)
                                 : part.substr(start, colon - start);
      if (tok.empty()) return false;  // "a::b:" or ":a" style junk
      out.push_back(tok);
      // 9+ tokens can never form a valid address; bail instead of
      // growing proportionally to a hostile "1:1:1:..." input.
      if (out.size() > 8) return false;
      if (colon == std::string_view::npos) break;
      start = colon + 1;
    }
    return true;
  };

  std::vector<std::string_view> head, tail;
  if (dc == std::string_view::npos) {
    if (!split_groups(text, head)) return std::nullopt;
  } else {
    if (!split_groups(text.substr(0, dc), head)) return std::nullopt;
    if (!split_groups(text.substr(dc + 2), tail)) return std::nullopt;
  }

  // An embedded IPv4 dotted quad may terminate the address ("::ffff:1.2.3.4").
  auto& last_list = tail.empty() && dc == std::string_view::npos ? head : tail;
  std::optional<IPv4Address> embedded;
  if (!last_list.empty() &&
      last_list.back().find('.') != std::string_view::npos) {
    embedded = IPv4Address::parse(last_list.back());
    if (!embedded) return std::nullopt;
    last_list.pop_back();
  }

  std::array<std::uint16_t, 8> groups{};
  std::size_t total = head.size() + tail.size() + (embedded ? 2 : 0);
  if (dc == std::string_view::npos) {
    if (total != 8) return std::nullopt;
  } else {
    // "::" must stand for at least one zero group.
    if (total > 7) return std::nullopt;
  }

  std::size_t gi = 0;
  for (auto tok : head) {
    auto g = parse_group(tok);
    if (!g) return std::nullopt;
    groups[gi++] = *g;
  }
  std::size_t zero_fill = 8 - total;
  gi += zero_fill;
  for (auto tok : tail) {
    auto g = parse_group(tok);
    if (!g) return std::nullopt;
    groups[gi++] = *g;
  }
  if (embedded) {
    std::uint32_t v = embedded->value();
    groups[6] = std::uint16_t(v >> 16);
    groups[7] = std::uint16_t(v);
  }
  return IPv6Address::from_groups(groups);
}

}  // namespace dynamips::net::reference
