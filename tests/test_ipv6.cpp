#include "netaddr/ipv6.h"

#include <gtest/gtest.h>

#include <string>

#include "corpus_util.h"
#include "reference/ipv6_parse.h"

#include <string>
#include <optional>
#include <string_view>
#include <utility>

#include "netaddr/rng.h"

namespace dynamips::net {
namespace {

TEST(IPv6, ParseFull) {
  auto a = IPv6Address::parse("2001:0db8:0000:0000:0000:0000:0000:0001");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->network64(), 0x20010db800000000ull);
  EXPECT_EQ(a->iid(), 1ull);
}

TEST(IPv6, ParseCompressed) {
  auto a = IPv6Address::parse("2001:db8::1");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->network64(), 0x20010db800000000ull);
  EXPECT_EQ(a->iid(), 1ull);
}

TEST(IPv6, ParseAllZero) {
  auto a = IPv6Address::parse("::");
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(a->bits().is_zero());
}

TEST(IPv6, ParseLoopback) {
  auto a = IPv6Address::parse("::1");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->iid(), 1ull);
  EXPECT_EQ(a->network64(), 0ull);
}

TEST(IPv6, ParseTrailingCompression) {
  auto a = IPv6Address::parse("2003:ec57::");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->network64(), 0x2003ec5700000000ull);
  EXPECT_EQ(a->iid(), 0ull);
}

TEST(IPv6, ParseEmbeddedIPv4) {
  auto a = IPv6Address::parse("::ffff:192.0.2.1");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->iid(), 0x0000ffffc0000201ull);
}

TEST(IPv6, ParseRejectsMalformed) {
  EXPECT_FALSE(IPv6Address::parse("").has_value());
  EXPECT_FALSE(IPv6Address::parse(":::").has_value());
  EXPECT_FALSE(IPv6Address::parse("1:2:3:4:5:6:7").has_value());
  EXPECT_FALSE(IPv6Address::parse("1:2:3:4:5:6:7:8:9").has_value());
  EXPECT_FALSE(IPv6Address::parse("1::2::3").has_value());
  EXPECT_FALSE(IPv6Address::parse("12345::").has_value());
  EXPECT_FALSE(IPv6Address::parse("g::1").has_value());
  EXPECT_FALSE(IPv6Address::parse("1:2:3:4:5:6:7:8::").has_value());
  EXPECT_FALSE(IPv6Address::parse("::1.2.3.256").has_value());
  EXPECT_FALSE(IPv6Address::parse(":1:2:3:4:5:6:7").has_value());
  EXPECT_FALSE(IPv6Address::parse("1:2:3:4:5:6:7:").has_value());
}

TEST(IPv6, ParseRejectsFullLengthWithCompression) {
  // "::" must absorb at least one group.
  EXPECT_FALSE(IPv6Address::parse("1:2:3:4::5:6:7:8").has_value());
}

TEST(IPv6, FormatCanonicalRfc5952) {
  // Longest zero run compressed, leftmost on tie, lowercase, no leading 0s.
  EXPECT_EQ(IPv6Address::parse("2001:db8:0:0:1:0:0:1")->to_string(),
            "2001:db8::1:0:0:1");
  EXPECT_EQ(IPv6Address::parse("2001:0db8:0:0:0:0:2:1")->to_string(),
            "2001:db8::2:1");
  EXPECT_EQ(IPv6Address::parse("2001:db8:0:1:1:1:1:1")->to_string(),
            "2001:db8:0:1:1:1:1:1");  // single zero group not compressed
  EXPECT_EQ(IPv6Address::parse("::")->to_string(), "::");
  EXPECT_EQ(IPv6Address::parse("::1")->to_string(), "::1");
  EXPECT_EQ(IPv6Address::parse("2003:ec57::")->to_string(), "2003:ec57::");
  EXPECT_EQ(IPv6Address::parse("ABCD:EF01:2345:6789:ABCD:EF01:2345:6789")
                ->to_string(),
            "abcd:ef01:2345:6789:abcd:ef01:2345:6789");
}

TEST(IPv6, GroupsRoundTrip) {
  std::array<std::uint16_t, 8> g{0x2001, 0xdb8, 0, 0x42, 0, 0, 0, 0x99};
  auto a = IPv6Address::from_groups(g);
  EXPECT_EQ(a.groups(), g);
}

TEST(IPv6, CommonPrefixLength) {
  auto a = *IPv6Address::parse("2604:3d08:4b80:aa00::");
  auto b = *IPv6Address::parse("2604:3d08:4b80:aaf0::");
  // The paper's own example from §5.2: CPL of 56.
  EXPECT_EQ(common_prefix_length(a, b), 56);
  EXPECT_EQ(common_prefix_length(a, a), 128);
}

TEST(IPv6, CommonPrefixLength64) {
  EXPECT_EQ(common_prefix_length64(0x2604'3d08'4b80'aa00ull,
                                   0x2604'3d08'4b80'aaf0ull),
            56);
  EXPECT_EQ(common_prefix_length64(5, 5), 64);
  EXPECT_EQ(common_prefix_length64(0, 0x8000000000000000ull), 0);
}

TEST(IPv6, TrailingZeroBits64) {
  EXPECT_EQ(trailing_zero_bits64(0x20010db800000000ull), 35);
  EXPECT_EQ(trailing_zero_bits64(0), 64);
  EXPECT_EQ(trailing_zero_bits64(0x20010db8aabbcc00ull), 10);  // ...cc00
  EXPECT_EQ(trailing_zero_bits64(1), 0);
}

TEST(IPv6, InferredDelegationFromZeros) {
  // /56 delegation with zero-filled subnet id: 8 trailing zero bits.
  EXPECT_EQ(inferred_delegation_from_zeros(0x20010db8aabbcc00ull), 56);
  // /48 delegation: 16 trailing zero bits.
  EXPECT_EQ(inferred_delegation_from_zeros(0x20010db8aabb0000ull), 48);
  // /60: 4 trailing zero bits.
  EXPECT_EQ(inferred_delegation_from_zeros(0x20010db8aabbccd0ull), 60);
  // No trailing zeros: inferred /64.
  EXPECT_EQ(inferred_delegation_from_zeros(0x20010db8aabbccddull), 64);
  // 9 trailing zeros rounds down to the /56 nibble boundary.
  EXPECT_EQ(inferred_delegation_from_zeros(0x20010db8aabbc600ull >> 1 << 1),
            56);
}

// Property sweep: parse(to_string(x)) == x for random addresses.
class IPv6RoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IPv6RoundTrip, RandomAddressesRoundTrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    // Mix fully random addresses with zero-dense ones (compression paths).
    U128 bits{rng.next_u64(), rng.next_u64()};
    if (i % 3 == 0) bits.hi &= rng.next_u64() & rng.next_u64();
    if (i % 3 == 0) bits.lo &= rng.next_u64() & rng.next_u64();
    if (i % 7 == 0) bits.lo = 0;
    if (i % 11 == 0) bits.hi = 0;
    IPv6Address a{bits};
    auto parsed = IPv6Address::parse(a.to_string());
    ASSERT_TRUE(parsed.has_value()) << a.to_string();
    EXPECT_EQ(*parsed, a) << a.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IPv6RoundTrip,
                         ::testing::Values(1u, 2u, 3u, 42u, 1234567u));


TEST(IPv6, ParseRejectsExcessGroupsWithoutScanningWhole) {
  // Regression for the fuzz-found unbounded tokenization: a huge
  // "1:1:1:..." input must be rejected after at most 9 groups, not
  // tokenized in full.
  std::string huge;
  for (int i = 0; i < 100000; ++i) huge += "1:";
  huge += "1";
  EXPECT_FALSE(IPv6Address::parse(huge).has_value());
}

TEST(IPv6, FuzzRegressionCorpus) {
  dynamips::testing::run_parse_corpus("ipv6", [](const std::string& s) {
    return IPv6Address::parse(s).has_value();
  });
}

// ------------------------------------------------- one-pass parser oracle

/// The one-pass parser and the reference agree on `text`: both refuse it,
/// or both return the same address.
::testing::AssertionResult AgreesWithReference(const std::string& text) {
  const auto got = IPv6Address::parse(text);
  const auto want = reference::reference_parse_ipv6(text);
  if (got == want) return ::testing::AssertionSuccess();
  auto show = [](const std::optional<IPv6Address>& a) {
    return a ? a->to_string() : std::string("refused");
  };
  return ::testing::AssertionFailure()
         << "\"" << text << "\": parse " << show(got) << ", reference "
         << show(want);
}

TEST(IPv6Oracle, AdversarialLiteralsAgreeWithReference) {
  for (const char* text :
       {"", ":", "::", ":::", "::::", "::1", "1::", "1:::2", "1::2::3",
        "12345::", "::12345", "1:2:3:4:5:6:7::", "::2:3:4:5:6:7:8",
        "1:2:3:4:5:6:7:8", "1:2:3:4:5:6:7:8:9", "1:2:3:4:5:6:7",
        "1:2:3:4:5:6:7:8::", "::1:2:3:4:5:6:7:8", "1:2:3:4:5:6:1.2.3.4",
        "1:2:3:4:5:1.2.3.4", "1:2:3:4:5:6:7:1.2.3.4", "1:2:3:4:5::1.2.3.4",
        "1:2:3:4:5:6::1.2.3.4", "::1.2.3.4", "::ffff:1.2.3.4",
        "::ffff:01.2.3.4", "::ffff:256.2.3.4", "::ffff:1.2.3", "1.2.3.4::",
        "1.2.3.4", "abcd.1.2.3", "::.1.2.3", "::1.2.3.4.5", "::1.2.3.4:5",
        ":1:2:3:4:5:6:7:8", "1:2:3:4:5:6:7:8:", ":1::", "::1:", "1::2:",
        "0000:0000:0000:0000:0000:0000:0000:0000", "00000::", "FFFF::fFfF",
        "g::", "::g", "1::2g", "-1::", "+1::", " ::1", "::1 ", "::1%eth0",
        "2001:db8::/64", "::0:0", "0::0", "a:b:c:d:e:f:a:b"})
    EXPECT_TRUE(AgreesWithReference(text));
  // Parsed values, not only the verdicts.
  EXPECT_EQ(IPv6Address::parse("1:2:3:4:5:6:1.2.3.4"),
            IPv6Address::parse("1:2:3:4:5:6:102:304"));
  EXPECT_EQ(IPv6Address::parse("1:2:3:4:5:6:7::"),
            IPv6Address::parse("1:2:3:4:5:6:7:0"));
  for (const char* refused :
       {"", ":::", "1:::2", "1::2::3", "12345::", "1:2:3:4:5:6:7:8:9",
        "1.2.3.4::", "abcd.1.2.3", ":1:2:3:4:5:6:7:8", "1:2:3:4:5:6:7:8:"})
    EXPECT_FALSE(IPv6Address::parse(refused).has_value()) << refused;
}

TEST(IPv6Oracle, MillionSeededInputsAgreeWithReference) {
  Rng rng(20201027);
  constexpr std::string_view kAlphabet = "0123456789abcdefABCDEF:.";
  auto pick = [&](std::string_view from) {
    return from[std::size_t(rng.uniform(from.size()))];
  };
  auto random_address = [&] {
    U128 bits{rng.next_u64(), rng.next_u64()};
    // Zero-dense halves and groups exercise the "::" forms.
    if (rng.bernoulli(0.5)) bits.hi &= rng.next_u64() & rng.next_u64();
    if (rng.bernoulli(0.5)) bits.lo &= rng.next_u64() & rng.next_u64();
    if (rng.bernoulli(0.2)) bits.hi = 0;
    if (rng.bernoulli(0.2)) bits.lo = 0;
    return IPv6Address{bits};
  };
  auto octet = [&] {
    // Mostly valid, sometimes out of range or with a leading zero.
    const std::string leading = rng.bernoulli(0.1) ? "0" : "";
    return leading +
           std::to_string(rng.uniform(rng.bernoulli(0.8) ? 256 : 400));
  };
  std::uint64_t accepted = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    std::string text;
    switch (i % 4) {
      case 0: {  // random strings over the address alphabet
        const std::size_t len = std::size_t(rng.uniform(42));
        for (std::size_t k = 0; k < len; ++k) text += pick(kAlphabet);
        break;
      }
      case 1: {  // a canonical form with one byte mutated
        text = random_address().to_string();
        text[std::size_t(rng.uniform(text.size()))] = pick(kAlphabet);
        break;
      }
      case 2: {  // a canonical form with a stray ':' or a leading '0'
        text = random_address().to_string();
        const std::size_t at = std::size_t(rng.uniform(text.size() + 1));
        text.insert(at, 1, rng.bernoulli(0.5) ? ':' : '0');
        break;
      }
      default:  // an embedded dotted quad
        text = (rng.bernoulli(0.5) ? "::ffff:" : random_address().to_string()
                                                      .substr(0, 10)) +
               octet() + "." + octet() + "." + octet() + "." + octet();
    }
    ASSERT_TRUE(AgreesWithReference(text));
    accepted += IPv6Address::parse(text).has_value();
  }
  // Both verdicts are well represented.
  EXPECT_GT(accepted, 100'000u);
  EXPECT_LT(accepted, 900'000u);
}

}  // namespace
}  // namespace dynamips::net
