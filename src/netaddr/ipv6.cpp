#include "netaddr/ipv6.h"

#include <charconv>

#include "netaddr/ipv4.h"

namespace dynamips::net {

namespace {

/// Each byte's value as a hex digit, or -1.
constexpr std::array<std::int8_t, 256> kHexDigit = [] {
  std::array<std::int8_t, 256> t{};
  for (int c = 0; c < 256; ++c) {
    t[std::size_t(c)] = c >= '0' && c <= '9'   ? std::int8_t(c - '0')
                        : c >= 'a' && c <= 'f' ? std::int8_t(c - 'a' + 10)
                        : c >= 'A' && c <= 'F' ? std::int8_t(c - 'A' + 10)
                                               : std::int8_t(-1);
  }
  return t;
}();

int hex_digit(char c) { return kHexDigit[std::uint8_t(c)]; }

}  // namespace

// One pass over the text into a fixed array of groups. A group is 1-4 hex
// digits; groups are separated by single colons, and one "::" may stand
// for one or more zero groups (so at most 7 are written around it). A
// token that reaches a '.' must be a dotted quad running to the end of the
// text, and fills two groups.
std::optional<IPv6Address> IPv6Address::parse(std::string_view text) {
  std::array<std::uint16_t, 8> g{};
  const char* p = text.data();
  const char* const end = p + text.size();
  if (p == end) return std::nullopt;
  int n = 0;     // groups parsed
  int gap = -1;  // where "::" stands, as a group index
  if (*p == ':') {
    if (end - p < 2 || p[1] != ':') return std::nullopt;
    p += 2;
    gap = 0;
    if (p == end) return IPv6Address{};
  }
  while (true) {
    const char* const token = p;
    unsigned value = 0;
    for (; p != end && hex_digit(*p) >= 0; ++p)
      value = value << 4 | unsigned(hex_digit(*p));
    if (p != end && *p == '.') {
      if (n > 6) return std::nullopt;  // the quad takes two groups
      auto quad = IPv4Address::parse(std::string_view(token, end - token));
      if (!quad) return std::nullopt;
      g[std::size_t(n++)] = std::uint16_t(quad->value() >> 16);
      g[std::size_t(n++)] = std::uint16_t(quad->value());
      break;
    }
    if (p == token || p - token > 4 || n == 8) return std::nullopt;
    g[std::size_t(n++)] = std::uint16_t(value);
    if (p == end) break;
    if (*p != ':' || ++p == end) return std::nullopt;
    if (*p == ':') {
      if (gap >= 0) return std::nullopt;
      gap = n;
      if (++p == end) break;
    }
  }
  if (gap < 0) return n == 8 ? std::optional(from_groups(g)) : std::nullopt;
  if (n > 7) return std::nullopt;
  // Move the groups after "::" to the end; zeros fill the gap.
  const int moved = n - gap;
  for (int i = moved - 1; i >= 0; --i) {
    g[std::size_t(8 - moved + i)] = g[std::size_t(gap + i)];
    g[std::size_t(gap + i)] = 0;
  }
  return from_groups(g);
}

std::string IPv6Address::to_string() const {
  auto g = groups();

  // Find the longest run of >= 2 zero groups (leftmost wins ties).
  int best_start = -1, best_len = 0;
  for (int i = 0; i < 8;) {
    if (g[std::size_t(i)] != 0) {
      ++i;
      continue;
    }
    int j = i;
    while (j < 8 && g[std::size_t(j)] == 0) ++j;
    if (j - i > best_len) {
      best_start = i;
      best_len = j - i;
    }
    i = j;
  }
  if (best_len < 2) best_start = -1;

  char buf[48];
  char* p = buf;
  auto emit_group = [&](int i) {
    auto [next, ec] =
        std::to_chars(p, buf + sizeof buf, unsigned(g[std::size_t(i)]), 16);
    (void)ec;
    p = next;
  };

  for (int i = 0; i < 8;) {
    if (i == best_start) {
      *p++ = ':';
      *p++ = ':';
      i += best_len;
      continue;
    }
    if (i > 0 && i != best_start + best_len) *p++ = ':';
    emit_group(i);
    ++i;
  }
  return std::string(buf, p);
}

}  // namespace dynamips::net
