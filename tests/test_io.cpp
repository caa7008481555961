#include "io/readers.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/failpoint.h"
#include "core/intern.h"
#include "io/columnar.h"
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

// --------------------------------------------- the dataset-assembly rule
//
// detail::DatasetBuilder is the one place that groups records, picks tags
// and restores time order; these pin each rule on the paths that use it.

std::vector<std::uint64_t> hours_of(const atlas::ProbeSeries& series) {
  std::vector<std::uint64_t> out;
  for (const auto& r : series.records) out.push_back(r.hour);
  return out;
}

std::vector<std::string> tag_names(const atlas::ProbeSeries& series) {
  std::vector<std::string> out;
  for (core::TagId tag : series.meta.tags)
    out.push_back(core::tag_pool().name_of(tag));
  return out;
}

TEST(DatasetBuilder, CsvRestoresTimeOrderStably) {
  std::istringstream echo(
      "1,5,4,80.1.2.3,192.168.1.5\n"
      "1,3,6,2003::1,2003::1\n"
      "1,3,4,80.1.2.3,192.168.1.5\n"
      "1,1,4,80.1.2.3,192.168.1.5\n");
  auto series = read_echo_dataset(echo);
  ASSERT_TRUE(series.ok()) << series.status().to_string();
  ASSERT_EQ(series->size(), 1u);
  EXPECT_EQ(hours_of((*series)[0]), (std::vector<std::uint64_t>{1, 3, 3, 5}));
  // Same-hour records keep their arrival order: v6 first, as read.
  EXPECT_EQ((*series)[0].records[1].family, atlas::Family::kV6);

  std::istringstream assoc(
      "4,80.1.2.0/24,2003::/64,7,7\n"
      "2,80.1.3.0/24,2003::/64,7,7\n"
      "2,80.1.4.0/24,2003::/64,7,7\n");
  auto logs = read_assoc_dataset(assoc);
  ASSERT_TRUE(logs.ok()) << logs.status().to_string();
  ASSERT_EQ(logs->size(), 1u);
  const auto& records = (*logs)[0].records;
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(to_csv(records[0]), "2,80.1.3.0/24,2003::/64,7,7");
  EXPECT_EQ(to_csv(records[1]), "2,80.1.4.0/24,2003::/64,7,7");
  EXPECT_EQ(to_csv(records[2]), "4,80.1.2.0/24,2003::/64,7,7");
}

TEST(DatasetBuilder, FirstNonEmptyTagsWin) {
  std::istringstream csv(
      "#tags,7,\n"
      "#tags,7,home;x\n"
      "#tags,7,other\n"
      "7,1,4,80.1.2.3,192.168.1.5\n");
  auto from_csv = read_echo_dataset(csv);
  ASSERT_TRUE(from_csv.ok()) << from_csv.status().to_string();
  ASSERT_EQ(from_csv->size(), 1u);
  EXPECT_EQ(tag_names((*from_csv)[0]),
            (std::vector<std::string>{"home", "x"}));

  // Two DYNCOL1 groups of one probe: the untagged first, the tagged second.
  std::vector<atlas::ProbeSeries> groups(2);
  groups[0].meta.probe_id = groups[1].meta.probe_id = 7;
  groups[1].meta.tags = {core::tag_pool().intern("home")};
  auto from_col = decode_echo_columnar(encode_echo_columnar(groups).bytes);
  ASSERT_TRUE(from_col.ok()) << from_col.status().to_string();
  ASSERT_EQ(from_col->size(), 1u);
  EXPECT_EQ(tag_names((*from_col)[0]), (std::vector<std::string>{"home"}));

  std::vector<atlas::ProbeSeries> into(1), more(2);
  into[0].meta.probe_id = more[0].meta.probe_id = more[1].meta.probe_id = 7;
  more[0].meta.tags = {core::tag_pool().intern("x")};
  more[1].meta.tags = {core::tag_pool().intern("other")};
  merge_echo_datasets(into, std::move(more));
  ASSERT_EQ(into.size(), 1u);
  EXPECT_EQ(tag_names(into[0]), (std::vector<std::string>{"x"}));
}

TEST(DatasetBuilder, MergeKeepsFirstAppearanceAndRestoresOrder) {
  auto series = [](std::uint32_t probe, std::vector<std::uint64_t> hours) {
    atlas::ProbeSeries s;
    s.meta.probe_id = probe;
    for (std::uint64_t h : hours) {
      atlas::EchoRecord r;
      r.probe_id = probe;
      r.hour = h;
      s.records.push_back(r);
    }
    return s;
  };
  std::vector<atlas::ProbeSeries> into = {series(2, {1, 5}), series(1, {2})};
  merge_echo_datasets(into, {series(3, {0}), series(2, {3})});
  ASSERT_EQ(into.size(), 3u);
  EXPECT_EQ(into[0].meta.probe_id, 2u);
  EXPECT_EQ(into[1].meta.probe_id, 1u);
  EXPECT_EQ(into[2].meta.probe_id, 3u);
  EXPECT_EQ(hours_of(into[0]), (std::vector<std::uint64_t>{1, 3, 5}));

  // A batch kept across merges: an out-of-order one is sorted and merged
  // in stably (the earlier hour-5 record stays first), a later one just
  // appends.
  EchoAccumulator stream;
  stream.merge({series(2, {1, 5})});
  auto late = series(2, {5, 3});
  late.records[0].family = atlas::Family::kV6;
  stream.merge({std::move(late)});
  stream.merge({series(2, {7, 9}), series(4, {2})});
  ASSERT_EQ(stream.items().size(), 2u);
  EXPECT_EQ(hours_of(stream.items()[0]),
            (std::vector<std::uint64_t>{1, 3, 5, 5, 7, 9}));
  EXPECT_EQ(stream.items()[0].records[2].family, atlas::Family::kV4);
  EXPECT_EQ(stream.items()[0].records[3].family, atlas::Family::kV6);

  // Association records belong to their asn6 log, whatever the group.
  std::istringstream assoc(
      "#log,10\n"
      "3,80.1.2.0/24,2003::/64,10,10\n"
      "1,80.1.2.0/24,2003::/64,10,11\n");
  auto logs = read_assoc_dataset(assoc);
  ASSERT_TRUE(logs.ok()) << logs.status().to_string();
  ASSERT_EQ(logs->size(), 2u);
  EXPECT_EQ((*logs)[1].asn, 11u);
  ASSERT_EQ((*logs)[1].records.size(), 1u);
  std::vector<cdn::AssociationLog> acc(1);
  acc[0].asn = 10;
  acc[0].records = (*logs)[0].records;
  acc[0].records[0].day = 5;
  merge_assoc_datasets(acc, std::move(*logs));
  ASSERT_EQ(acc.size(), 2u);
  ASSERT_EQ(acc[0].records.size(), 2u);
  EXPECT_EQ(acc[0].records[0].day, 3u);
  EXPECT_EQ(acc[0].records[1].day, 5u);
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
