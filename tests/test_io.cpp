#include "io/readers.h"

#include <gtest/gtest.h>

#include <sstream>

#include "core/failpoint.h"
#include "io/csv.h"

namespace dynamips::io {
namespace {

/// The one record a reader yields for a single data line.
template <typename Reader>
auto read_one(const std::string& line) {
  std::istringstream in(line + "\n");
  Reader reader(in);
  return reader.next();
}

TEST(Csv, SplitBasic) {
  auto f = split_csv("a,b,c");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[2], "c");
}

TEST(Csv, SplitEmptyFields) {
  auto f = split_csv("a,,c,");
  ASSERT_EQ(f.size(), 4u);
  EXPECT_EQ(f[1], "");
  EXPECT_EQ(f[3], "");
}

TEST(Csv, JoinRoundTrip) {
  EXPECT_EQ(join_csv({"x", "y", "z"}), "x,y,z");
  EXPECT_EQ(join_csv({}), "");
}

TEST(EchoIo, V4RoundTrip) {
  atlas::EchoRecord r;
  r.probe_id = 12345;
  r.hour = 99;
  r.family = atlas::Family::kV4;
  r.x_client_ip4 = *net::IPv4Address::parse("80.1.2.3");
  r.src_addr4 = *net::IPv4Address::parse("192.168.1.5");
  std::string line = to_csv(r);
  EXPECT_EQ(line, "12345,99,4,80.1.2.3,192.168.1.5");
  auto parsed = read_one<EchoReader>(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->probe_id, r.probe_id);
  EXPECT_EQ(parsed->hour, r.hour);
  EXPECT_EQ(parsed->x_client_ip4, r.x_client_ip4);
  EXPECT_EQ(parsed->src_addr4, r.src_addr4);
}

TEST(EchoIo, V6RoundTrip) {
  atlas::EchoRecord r;
  r.probe_id = 7;
  r.hour = 1;
  r.family = atlas::Family::kV6;
  r.x_client_ip6 = *net::IPv6Address::parse("2003:ec57:1100::1");
  r.src_addr6 = r.x_client_ip6;
  auto parsed = read_one<EchoReader>(to_csv(r));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->family, atlas::Family::kV6);
  EXPECT_EQ(parsed->x_client_ip6, r.x_client_ip6);
}

TEST(EchoIo, RejectsMalformed) {
  const struct {
    const char* line;
    RejectReason reason;
  } cases[] = {
      {"1,2,3", RejectReason::kBadFieldCount},
      {"1,2,5,80.1.2.3,192.168.1.5", RejectReason::kBadNumber},
      {"x,2,4,80.1.2.3,192.168.1.5", RejectReason::kBadNumber},
      {"1,2,4,not-an-ip,192.168.1.5", RejectReason::kBadAddress},
      {"1,2,6,2003::1,not-v6", RejectReason::kBadAddress},
      // A v6 address in a v4 record.
      {"1,2,4,2003::1,2003::1", RejectReason::kBadAddress},
  };
  for (const auto& c : cases) {
    std::istringstream in(std::string(c.line) + "\n");
    EchoReader reader(in);
    EXPECT_FALSE(reader.next().has_value()) << c.line;
    EXPECT_EQ(reader.stats().total_rejects(), 1u) << c.line;
    EXPECT_EQ(reader.stats().rejects_for(c.reason), 1u) << c.line;
  }
  // An empty line is blank, not a rejected record.
  std::istringstream in("\n");
  EchoReader reader(in);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.stats().blank_lines, 1u);
  EXPECT_EQ(reader.stats().total_rejects(), 0u);
}

TEST(EchoIo, StreamRoundTripWithHeader) {
  atlas::ProbeSeries series;
  series.meta.probe_id = 42;
  for (int i = 0; i < 5; ++i) {
    atlas::EchoRecord r;
    r.probe_id = 42;
    r.hour = simnet::Hour(i);
    r.family = i % 2 ? atlas::Family::kV6 : atlas::Family::kV4;
    r.x_client_ip4 = *net::IPv4Address::parse("80.1.2.3");
    r.src_addr4 = *net::IPv4Address::parse("192.168.1.5");
    r.x_client_ip6 = *net::IPv6Address::parse("2003::1");
    r.src_addr6 = r.x_client_ip6;
    series.records.push_back(r);
  }
  std::stringstream ss;
  write_echo_dataset(ss, {series});
  auto loaded = read_echo_dataset(ss);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ((*loaded)[0].meta.probe_id, 42u);
  ASSERT_EQ((*loaded)[0].records.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ((*loaded)[0].records[i].family, series.records[i].family);
}

TEST(EchoIo, InjectedReadFailureSurfacesWithLineNumber) {
  // The readers.line failpoint stands in for a failing disk mid-ingest:
  // the reader must stop with a precise, attributable error — not a
  // silently truncated dataset — and be fully healthy once disarmed.
  const std::string data =
      "1,0,4,80.1.2.3,192.168.1.5\n"
      "1,1,4,80.1.2.3,192.168.1.5\n"
      "1,2,4,80.1.2.3,192.168.1.5\n";
  ASSERT_TRUE(core::arm_failpoints("readers.line=err(EIO)@2").ok());
  std::stringstream ss(data);
  auto failed = read_echo_dataset(ss);
  core::disarm_failpoints();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), core::StatusCode::kInternal);
  EXPECT_NE(failed.status().message().find(
                "injected read failure (EIO) at line 2"),
            std::string::npos)
      << failed.status().to_string();

  std::stringstream again(data);
  auto loaded = read_echo_dataset(again);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ((*loaded)[0].records.size(), 3u);
}

TEST(AssocIo, RoundTrip) {
  cdn::AssociationRecord r;
  r.day = 17;
  r.v4_24 = *net::Prefix4::parse("80.1.2.0/24");
  r.v6_64 = *net::Prefix6::parse("2003:ec57:11:2200::/64");
  r.asn4 = 3320;
  r.asn6 = 3320;
  std::string line = to_csv(r);
  EXPECT_EQ(line, "17,80.1.2.0/24,2003:ec57:11:2200::/64,3320,3320");
  auto parsed = read_one<AssocReader>(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->day, 17u);
  EXPECT_EQ(parsed->v4_24, r.v4_24);
  EXPECT_EQ(parsed->v6_64, r.v6_64);
  EXPECT_EQ(parsed->asn4, 3320u);
}

TEST(AssocIo, StreamRoundTrip) {
  cdn::AssociationLog log;
  log.asn = 3320;
  for (int d = 0; d < 4; ++d) {
    cdn::AssociationRecord r;
    r.day = std::uint32_t(d);
    r.v4_24 = *net::Prefix4::parse("80.1.2.0/24");
    r.v6_64 = *net::Prefix6::parse("2003:ec57:11:2200::/64");
    r.asn4 = r.asn6 = 3320;
    log.records.push_back(r);
  }
  std::stringstream ss;
  write_assoc_dataset(ss, {log});
  auto loaded = read_assoc_dataset(ss);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ((*loaded)[0].asn, 3320u);
  EXPECT_EQ((*loaded)[0].records.size(), 4u);
}

TEST(AssocIo, EmptyStreamYieldsEmptyLog) {
  std::stringstream ss;
  auto loaded = read_assoc_dataset(ss);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_TRUE(loaded->empty());
}

TEST(Csv, SplitCapsFieldCount) {
  // Once the cap is reached the remainder (commas included) becomes the
  // final field, so allocation is bounded and width checks still reject.
  auto f = split_csv("a,b,c,d,e,f", 3);
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[1], "b");
  EXPECT_EQ(f[2], "c,d,e,f");

  std::string commas(1000, ',');
  EXPECT_EQ(split_csv(commas).size(), kMaxCsvFields);
  EXPECT_EQ(split_csv(commas, 0).size(), 1u);  // cap 0 degrades to 1
}

TEST(Csv, SplitCapExactWidthUnchanged) {
  auto f = split_csv("a,b,c", 3);
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[2], "c");
}

TEST(Csv, ChompCr) {
  EXPECT_EQ(chomp_cr("abc\r"), "abc");
  EXPECT_EQ(chomp_cr("abc"), "abc");
  EXPECT_EQ(chomp_cr("\r"), "");
  EXPECT_EQ(chomp_cr(""), "");
  EXPECT_EQ(chomp_cr("a\rb"), "a\rb");  // only a trailing CR is stripped
}

TEST(Csv, StripUtf8Bom) {
  EXPECT_EQ(strip_utf8_bom("\xEF\xBB\xBF" "day"), "day");
  EXPECT_EQ(strip_utf8_bom("day"), "day");
  EXPECT_EQ(strip_utf8_bom("\xEF\xBB"), "\xEF\xBB");  // partial BOM kept
  EXPECT_EQ(strip_utf8_bom(""), "");
}

TEST(Csv, ParseCsvNum) {
  EXPECT_EQ(parse_csv_num<std::uint32_t>("42"), 42u);
  EXPECT_EQ(parse_csv_num<std::uint32_t>("0"), 0u);
  EXPECT_FALSE(parse_csv_num<std::uint32_t>("").has_value());
  EXPECT_FALSE(parse_csv_num<std::uint32_t>("4x").has_value());
  EXPECT_FALSE(parse_csv_num<std::uint32_t>(" 4").has_value());
  EXPECT_FALSE(parse_csv_num<std::uint32_t>("-4").has_value());
  EXPECT_FALSE(parse_csv_num<std::uint8_t>("256").has_value());
}

}  // namespace
}  // namespace dynamips::io
