// Differential fuzz of IPv6Address::parse: the one-pass parser must agree
// with the reference parser (tests/reference/ipv6_parse.h) on every input,
// refusing the same texts and returning the same address for the rest.
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "netaddr/ipv6.h"
#include "reference/ipv6_parse.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using dynamips::net::IPv6Address;
  std::string_view text(reinterpret_cast<const char*>(data), size);
  if (IPv6Address::parse(text) !=
      dynamips::net::reference::reference_parse_ipv6(text))
    __builtin_trap();
  return 0;
}
