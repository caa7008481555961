// test_ingest.cpp — fault-tolerant readers, error budgets, and the
// file-driven study entrypoints.
//
// Covers the ingestion-hardening contract end to end: per-reason
// classification with exact quarantine line numbers, error-budget
// boundaries (exactly-at passes, one-over fails), consecutive-reject
// fail-fast, clean write→read round trips, byte-identical study results
// between the in-process generators and a re-ingested export, and the
// write→corrupt(tools/corrupt_csv.py)→read round trip where a
// within-budget corrupted dataset must produce results identical to the
// same file with the quarantined lines stripped out.
#include "io/readers.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "atlas/generator.h"
#include "cdn/generator.h"
#include "core/parallel.h"
#include "core/pipeline.h"
#include "core/status.h"
#include "io/columnar.h"
#include "io/results_io.h"
#include "obs/metrics.h"
#include "simnet/isp.h"

namespace dynamips {
namespace {

namespace fs = std::filesystem;
using core::Status;
using core::StatusCode;
using io::ReaderOptions;
using io::RejectReason;

// ------------------------------------------------------------ test helpers

fs::path temp_path(const std::string& name) {
  return fs::path(::testing::TempDir()) / name;
}

std::vector<std::string> read_lines(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Serialize every Atlas artifact; byte equality here is the "results are
/// identical" acceptance criterion.
std::string atlas_signature(const core::AtlasStudy& study) {
  std::ostringstream os;
  io::write_duration_curves_csv(os, study);
  io::write_cpl_csv(os, study);
  io::write_bgp_moves_csv(os, study);
  io::write_inference_csv(os, study);
  return os.str();
}

std::string cdn_signature(const core::CdnStudy& study) {
  std::ostringstream os;
  io::write_assoc_durations_csv(os, study);
  io::write_degrees_csv(os, study);
  io::write_zero_boundaries_csv(os, study);
  return os.str();
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// -------------------------------------------------------- Status/Expected

TEST(Status, OkAndErrorBasics) {
  Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.to_string(), "OK");

  Status err(StatusCode::kDataLoss, "3 of 4 lines rejected");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kDataLoss);
  err.with_context("load echo dataset");
  EXPECT_EQ(err.message(), "load echo dataset: 3 of 4 lines rejected");
  EXPECT_EQ(err.to_string(),
            "DATA_LOSS: load echo dataset: 3 of 4 lines rejected");

  // Context on an OK status is a no-op.
  EXPECT_EQ(ok.with_context("ignored").to_string(), "OK");
}

TEST(Status, ExpectedCarriesValueOrStatus) {
  core::Expected<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  EXPECT_TRUE(good.status().ok());

  core::Expected<int> bad(Status(StatusCode::kNotFound, "missing"));
  EXPECT_FALSE(bad.ok());
  EXPECT_FALSE(static_cast<bool>(bad));
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);

  core::Expected<std::string> moved(std::string("payload"));
  EXPECT_EQ(moved.take(), "payload");
}

// -------------------------------------------------------- clean round trip

TEST(Ingest, EchoDatasetRoundTripKeepsTagsAndEmptyProbes) {
  std::vector<atlas::ProbeSeries> dataset(3);
  dataset[0].meta.probe_id = 11;
  dataset[0].meta.tags = {core::tag_pool().intern("system-anchor"),
                          core::tag_pool().intern("datacentre")};
  for (int h = 0; h < 4; ++h) {
    atlas::EchoRecord r;
    r.probe_id = 11;
    r.hour = atlas::Hour(h);
    r.family = h % 2 ? atlas::Family::kV6 : atlas::Family::kV4;
    r.x_client_ip4 = *net::IPv4Address::parse("80.1.2.3");
    r.src_addr4 = *net::IPv4Address::parse("192.168.1.5");
    r.x_client_ip6 = *net::IPv6Address::parse("2003:ec57::1");
    r.src_addr6 = r.x_client_ip6;
    dataset[0].records.push_back(r);
  }
  dataset[1].meta.probe_id = 22;  // deployed but never measured
  dataset[2].meta.probe_id = 33;
  {
    atlas::EchoRecord r;
    r.probe_id = 33;
    r.hour = 7;
    r.family = atlas::Family::kV4;
    r.x_client_ip4 = *net::IPv4Address::parse("100.64.0.9");
    r.src_addr4 = *net::IPv4Address::parse("10.0.0.2");
    dataset[2].records.push_back(r);
  }

  std::stringstream ss;
  io::write_echo_dataset(ss, dataset);
  io::IngestStats stats;
  auto loaded = io::read_echo_dataset(ss, {}, &stats);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  ASSERT_EQ(loaded->size(), 3u);
  EXPECT_EQ((*loaded)[0].meta.probe_id, 11u);
  EXPECT_EQ((*loaded)[0].meta.tags,
            (std::vector<core::TagId>{core::tag_pool().intern("system-anchor"),
                                      core::tag_pool().intern("datacentre")}));
  ASSERT_EQ((*loaded)[0].records.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ((*loaded)[0].records[i].hour, dataset[0].records[i].hour);
    EXPECT_EQ((*loaded)[0].records[i].family, dataset[0].records[i].family);
  }
  EXPECT_EQ((*loaded)[1].meta.probe_id, 22u);
  EXPECT_TRUE((*loaded)[1].records.empty());
  EXPECT_EQ((*loaded)[2].records.size(), 1u);
  EXPECT_EQ(stats.records_accepted, 5u);
  EXPECT_EQ(stats.total_rejects(), 0u);
  EXPECT_EQ(stats.headers_skipped, 1u);
}

TEST(Ingest, AssocDatasetRoundTripKeepsEmptyLogs) {
  std::vector<cdn::AssociationLog> dataset(2);
  dataset[0].asn = 3320;
  for (int d = 0; d < 3; ++d) {
    cdn::AssociationRecord r;
    r.day = std::uint32_t(d);
    r.v4_24 = *net::Prefix4::parse("80.1.2.0/24");
    r.v6_64 = *net::Prefix6::parse("2003:ec57:11:2200::/64");
    r.asn4 = r.asn6 = 3320;
    dataset[0].records.push_back(r);
  }
  dataset[1].asn = 5511;  // log with no observed associations

  std::stringstream ss;
  io::write_assoc_dataset(ss, dataset);
  io::IngestStats stats;
  auto loaded = io::read_assoc_dataset(ss, {}, &stats);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ((*loaded)[0].asn, 3320u);
  EXPECT_EQ((*loaded)[0].records.size(), 3u);
  EXPECT_EQ((*loaded)[1].asn, 5511u);
  EXPECT_TRUE((*loaded)[1].records.empty());
  EXPECT_EQ(stats.records_accepted, 3u);
}

// ----------------------------------------------------- reject taxonomy

TEST(Ingest, EchoClassifiesEveryRejectReason) {
  const std::string input =
      "probe_id,hour,family,x_client_ip,src_addr\n"     // 1 header
      "1,0,4,80.1.2.3,192.168.1.5\n"                    // 2 accept
      "1,0,4\n"                                         // 3 bad_field_count
      "x,0,4,80.1.2.3,192.168.1.5\n"                    // 4 bad_number
      "1,999999,4,80.1.2.3,192.168.1.5\n"               // 5 out_of_range
      "1,1,4,80.1.2.999,192.168.1.5\n"                  // 6 bad_address
      "1,0,4,80.1.2.3,192.168.1.5\n"                    // 7 duplicate
      "1,2,5,80.1.2.3,192.168.1.5\n";                   // 8 bad family digit
  std::istringstream in(input);
  std::ostringstream quarantine;
  obs::MetricsSink metrics;
  ReaderOptions opts;
  opts.max_reject_fraction = 1.0;
  opts.quarantine = &quarantine;
  opts.source_label = "in.csv";
  opts.metrics = &metrics;

  io::IngestStats stats;
  auto loaded = io::read_echo_dataset(in, opts, &stats);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(stats.records_accepted, 1u);
  EXPECT_EQ(stats.rejects_for(RejectReason::kBadFieldCount), 1u);
  EXPECT_EQ(stats.rejects_for(RejectReason::kBadNumber), 2u);
  EXPECT_EQ(stats.rejects_for(RejectReason::kOutOfRange), 1u);
  EXPECT_EQ(stats.rejects_for(RejectReason::kBadAddress), 1u);
  EXPECT_EQ(stats.rejects_for(RejectReason::kDuplicate), 1u);
  EXPECT_EQ(stats.total_rejects(), 6u);
  EXPECT_EQ(stats.quarantined, 6u);

  // Quarantine rows carry source, exact 1-based line number, reason, text.
  const std::string q = quarantine.str();
  EXPECT_TRUE(contains(q, "in.csv,3,bad_field_count,1,0,4\n")) << q;
  EXPECT_TRUE(contains(q, "in.csv,4,bad_number,x,0,4,80.1.2.3,192.168.1.5\n"))
      << q;
  EXPECT_TRUE(
      contains(q, "in.csv,5,out_of_range,1,999999,4,80.1.2.3,192.168.1.5\n"))
      << q;
  EXPECT_TRUE(
      contains(q, "in.csv,6,bad_address,1,1,4,80.1.2.999,192.168.1.5\n"))
      << q;
  EXPECT_TRUE(
      contains(q, "in.csv,7,duplicate,1,0,4,80.1.2.3,192.168.1.5\n"))
      << q;
  EXPECT_TRUE(contains(q, "in.csv,8,bad_number,")) << q;

  // Per-reason counters use the reason name as the metric suffix.
  EXPECT_EQ(metrics.counter("ingest.reject.bad_field_count").value, 1u);
  EXPECT_EQ(metrics.counter("ingest.reject.bad_number").value, 2u);
  EXPECT_EQ(metrics.counter("ingest.reject.duplicate").value, 1u);
  EXPECT_EQ(metrics.counter("ingest.quarantined").value, 6u);
  EXPECT_EQ(metrics.counter("ingest.records").value, 1u);
  EXPECT_EQ(metrics.counter("ingest.lines").value, 8u);

  EXPECT_TRUE(contains(stats.summary(), "1 records"));
  EXPECT_TRUE(contains(stats.summary(), "6 rejected"));
}

TEST(Ingest, AssocClassifiesEveryRejectReason) {
  const std::string input =
      "day,v4_24,v6_64,asn4,asn6\n"                     // 1 header
      "1,80.1.2.0/24,2003::/64,1,1\n"                   // 2 accept
      "1,2,3,4\n"                                       // 3 bad_field_count
      "x,80.1.2.0/24,2003::/64,1,1\n"                   // 4 bad_number
      "1,80.1.2.0/24,2003::/64,1,y\n"                   // 5 bad_number
      "1,80.1.2.0,2003::/64,1,1\n"                      // 6 v4 without length
      "1,80.1.2.0/24,2003::,1,1\n"                      // 7 v6 without length
      "99999,80.1.2.0/24,2003::/64,1,1\n"               // 8 out_of_range
      "2,80.1.2.0/24,2003::/64,1,1\n"                   // 9 accept
      "2,80.1.2.0/24,2003::/64,1,1\n"                   // 10 duplicate
      "\n";                                             // 11 blank, not data
  std::istringstream in(input);
  std::ostringstream quarantine;
  obs::MetricsSink metrics;
  ReaderOptions opts;
  opts.max_reject_fraction = 1.0;
  opts.assoc_dedup_adjacent = true;
  opts.quarantine = &quarantine;
  opts.source_label = "in.csv";
  opts.metrics = &metrics;

  io::IngestStats stats;
  auto loaded = io::read_assoc_dataset(in, opts, &stats);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(stats.records_accepted, 2u);
  EXPECT_EQ(stats.rejects_for(RejectReason::kBadFieldCount), 1u);
  EXPECT_EQ(stats.rejects_for(RejectReason::kBadNumber), 2u);
  EXPECT_EQ(stats.rejects_for(RejectReason::kBadAddress), 2u);
  EXPECT_EQ(stats.rejects_for(RejectReason::kOutOfRange), 1u);
  EXPECT_EQ(stats.rejects_for(RejectReason::kDuplicate), 1u);
  EXPECT_EQ(stats.total_rejects(), 7u);
  EXPECT_EQ(stats.blank_lines, 1u);

  const std::string q = quarantine.str();
  EXPECT_TRUE(contains(q, "in.csv,3,bad_field_count,1,2,3,4\n")) << q;
  EXPECT_TRUE(contains(q, "in.csv,4,bad_number,x,")) << q;
  EXPECT_TRUE(contains(q, "in.csv,5,bad_number,1,")) << q;
  EXPECT_TRUE(
      contains(q, "in.csv,6,bad_address,1,80.1.2.0,2003::/64,1,1\n"))
      << q;
  EXPECT_TRUE(
      contains(q, "in.csv,7,bad_address,1,80.1.2.0/24,2003::,1,1\n"))
      << q;
  EXPECT_TRUE(contains(q, "in.csv,8,out_of_range,99999,")) << q;
  EXPECT_TRUE(contains(q, "in.csv,10,duplicate,2,")) << q;

  EXPECT_EQ(metrics.counter("ingest.reject.bad_address").value, 2u);
  EXPECT_EQ(metrics.counter("ingest.quarantined").value, 7u);
  EXPECT_EQ(metrics.counter("ingest.records").value, 2u);
  EXPECT_EQ(metrics.counter("ingest.lines").value, 11u);
}

TEST(Ingest, ToleratesCrlfBomAndRepeatedHeaders) {
  const std::string input =
      "\xEF\xBB\xBF"
      "day,v4_24,v6_64,asn4,asn6\r\n"
      "1,80.1.2.0/24,2003:ec57:11:2200::/64,3320,3320\r\n"
      "day,v4_24,v6_64,asn4,asn6\n"  // concatenated second export
      "\r\n"                         // blank line (CR only)
      "2,80.1.3.0/24,2003:ec57:11:2300::/64,3320,3320\n";
  std::istringstream in(input);
  io::IngestStats stats;
  auto loaded = io::read_assoc_dataset(in, {}, &stats);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ((*loaded)[0].records.size(), 2u);
  EXPECT_EQ(stats.headers_skipped, 2u);
  EXPECT_EQ(stats.blank_lines, 1u);
  EXPECT_EQ(stats.total_rejects(), 0u);
}

/// A stream buffer over `text` whose next read past it fails, as a file
/// buffer does on an I/O error: the istream catches the exception and sets
/// badbit.
class FailingAfterBuf : public std::streambuf {
 public:
  explicit FailingAfterBuf(std::string text) : text_(std::move(text)) {
    setg(text_.data(), text_.data(), text_.data() + text_.size());
  }

 protected:
  int_type underflow() override {
    throw std::ios_base::failure("simulated read error");
  }

 private:
  std::string text_;
};

// A read error after two good lines is a failed load, not a clean end of
// stream that quietly keeps the first two records.
TEST(Ingest, ReadErrorMidStreamFailsTheLoad) {
  FailingAfterBuf echo_buf(
      "probe_id,hour,family,x_client_ip,src_addr\n"
      "1,0,4,80.1.2.3,192.168.1.5\n"
      "1,1,4,80.1.2.3,192.168.1.5\n");
  std::istream echo_in(&echo_buf);
  io::IngestStats stats;
  auto echo = io::read_echo_dataset(echo_in, {}, &stats);
  ASSERT_FALSE(echo.ok());
  EXPECT_EQ(echo.status().code(), StatusCode::kInternal);
  EXPECT_TRUE(contains(echo.status().message(), "read failed at line 4"))
      << echo.status().to_string();
  EXPECT_EQ(stats.records_accepted, 2u);

  FailingAfterBuf assoc_buf("1,80.1.2.0/24,2003:ec57:11:2200::/64,7,7\n");
  std::istream assoc_in(&assoc_buf);
  auto assoc = io::read_assoc_dataset(assoc_in);
  ASSERT_FALSE(assoc.ok());
  EXPECT_EQ(assoc.status().code(), StatusCode::kInternal);
}

TEST(Ingest, OversizeLineIsRejectedWithoutDerailingTheStream) {
  ReaderOptions opts;
  opts.max_line_bytes = 64;
  opts.max_reject_fraction = 1.0;
  std::string input =
      "probe_id,hour,family,x_client_ip,src_addr\n"
      "1,0,4,80.1.2.3,192.168.1.5\n";
  input += std::string(5000, 'A') + "\n";  // unterminated-junk stand-in
  input += "1,1,4,80.1.2.3,192.168.1.5\n";
  std::istringstream in(input);
  io::IngestStats stats;
  auto loaded = io::read_echo_dataset(in, opts, &stats);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(stats.records_accepted, 2u);
  EXPECT_EQ(stats.rejects_for(RejectReason::kOversizeLine), 1u);
  ASSERT_EQ(stats.first_rejects.size(), 1u);
  EXPECT_EQ(stats.first_rejects[0].line_number, 3u);
  // The kept text is a bounded prefix, never the whole 5000-byte line.
  EXPECT_LE(stats.first_rejects[0].text.size(), io::kKeepTextBytes);
}

// ---------------------------------------------------------- error budget

std::string echo_file_with_rejects(int accepts, int rejects) {
  std::string text = "probe_id,hour,family,x_client_ip,src_addr\n";
  int emitted_rejects = 0;
  for (int i = 0; i < accepts; ++i) {
    text += "1," + std::to_string(i) + ",4,80.1.2.3,192.168.1.5\n";
    if (emitted_rejects < rejects) {  // interleave to avoid consecutive cap
      text += "zzz\n";
      ++emitted_rejects;
    }
  }
  while (emitted_rejects < rejects) {
    text += "zzz\n";
    ++emitted_rejects;
  }
  return text;
}

TEST(Ingest, RejectFractionExactlyAtBudgetPasses) {
  // 95 accepts + 5 rejects = 100 data lines; budget 0.05 * 100 = 5.
  std::istringstream in(echo_file_with_rejects(95, 5));
  ReaderOptions opts;
  opts.max_reject_fraction = 0.05;
  io::IngestStats stats;
  auto loaded = io::read_echo_dataset(in, opts, &stats);
  EXPECT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(stats.data_lines, 100u);
  EXPECT_EQ(stats.total_rejects(), 5u);
}

TEST(Ingest, RejectFractionOneOverBudgetFailsWithOffenders) {
  // 94 accepts + 6 rejects = 100 data lines; 6 > 5 = budget.
  std::istringstream in(echo_file_with_rejects(94, 6));
  ReaderOptions opts;
  opts.max_reject_fraction = 0.05;
  io::IngestStats stats;
  auto loaded = io::read_echo_dataset(in, opts, &stats);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(contains(loaded.status().message(), "over budget"))
      << loaded.status().to_string();
  EXPECT_TRUE(contains(loaded.status().message(), "first offenders"))
      << loaded.status().to_string();
  EXPECT_TRUE(contains(loaded.status().message(), "zzz"))
      << loaded.status().to_string();
  EXPECT_TRUE(contains(loaded.status().message(), "load echo dataset"))
      << loaded.status().to_string();
  // Accounting is reported even on failure.
  EXPECT_EQ(stats.total_rejects(), 6u);
}

TEST(Ingest, ConsecutiveRejectCapFailsFast) {
  ReaderOptions opts;
  opts.max_reject_fraction = 1.0;
  opts.max_consecutive_rejects = 3;

  {  // exactly at the cap: fine
    std::istringstream in(
        "probe_id,hour,family,x_client_ip,src_addr\n"
        "zzz\nzzz\nzzz\n"
        "1,0,4,80.1.2.3,192.168.1.5\n");
    io::IngestStats stats;
    auto loaded = io::read_echo_dataset(in, opts, &stats);
    EXPECT_TRUE(loaded.ok()) << loaded.status().to_string();
    EXPECT_EQ(stats.records_accepted, 1u);
  }
  {  // one over: the reader trips mid-stream and never reaches the good tail
    std::istringstream in(
        "probe_id,hour,family,x_client_ip,src_addr\n"
        "zzz\nzzz\nzzz\nzzz\n"
        "1,0,4,80.1.2.3,192.168.1.5\n");
    io::IngestStats stats;
    auto loaded = io::read_echo_dataset(in, opts, &stats);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
    EXPECT_TRUE(contains(loaded.status().message(), "consecutive"))
        << loaded.status().to_string();
    EXPECT_EQ(stats.records_accepted, 0u);
  }
}

TEST(Ingest, AssocDuplicateIsAdjacentOnly) {
  const std::string dup = "1,80.1.2.0/24,2003:ec57:11:2200::/64,3320,3320";
  const std::string other = "1,80.1.3.0/24,2003:ec57:11:2300::/64,3320,3320";
  std::istringstream in("day,v4_24,v6_64,asn4,asn6\n" + dup + "\n" + dup +
                        "\n" + other + "\n" + dup + "\n");
  ReaderOptions opts;
  opts.max_reject_fraction = 1.0;
  opts.assoc_dedup_adjacent = true;
  io::IngestStats stats;
  auto loaded = io::read_assoc_dataset(in, opts, &stats);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  // Adjacent repeat rejected; the same tuple later in the file is a
  // legitimate re-observation and accepted.
  EXPECT_EQ(stats.records_accepted, 3u);
  EXPECT_EQ(stats.rejects_for(RejectReason::kDuplicate), 1u);

  // Default options keep repeats: multiplicity is data in our exports.
  std::istringstream in2("day,v4_24,v6_64,asn4,asn6\n" + dup + "\n" + dup +
                         "\n" + other + "\n" + dup + "\n");
  io::IngestStats defaults;
  auto loaded2 = io::read_assoc_dataset(in2, {}, &defaults);
  ASSERT_TRUE(loaded2.ok()) << loaded2.status().to_string();
  EXPECT_EQ(defaults.records_accepted, 4u);
  EXPECT_EQ(defaults.total_rejects(), 0u);
}

// The adjacent-duplicate rule compares parsed records, not line bytes: two
// spellings of one record are a repeat in CSV exactly as they are once the
// same data sits in a DYNCOL1 batch.
TEST(Ingest, AssocDuplicateComparesParsedRecords) {
  const std::string rows =
      "day,v4_24,v6_64,asn4,asn6\n"
      "1,80.1.2.0/24,2001:db8::/64,3320,3320\n"
      "01,80.1.2.0/24,2001:0db8::/64,3320,03320\n"
      "2,80.1.2.0/24,2001:db8::/64,3320,3320\n";
  ReaderOptions opts;
  opts.max_reject_fraction = 1.0;
  opts.assoc_dedup_adjacent = true;
  std::istringstream in(rows);
  io::IngestStats csv;
  auto from_csv = io::read_assoc_dataset(in, opts, &csv);
  ASSERT_TRUE(from_csv.ok()) << from_csv.status().to_string();
  EXPECT_EQ(csv.records_accepted, 2u);
  EXPECT_EQ(csv.rejects_for(RejectReason::kDuplicate), 1u);
  ASSERT_EQ(csv.first_rejects.size(), 1u);
  EXPECT_EQ(csv.first_rejects[0].line_number, 3u);

  // The same rows, kept whole by a default load, then decoded from .col.
  std::istringstream all(rows);
  auto kept = io::read_assoc_dataset(all);
  ASSERT_TRUE(kept.ok()) << kept.status().to_string();
  io::IngestStats col;
  auto from_col =
      io::decode_assoc_columnar(io::encode_assoc_columnar(*kept), opts, &col);
  ASSERT_TRUE(from_col.ok()) << from_col.status().to_string();
  EXPECT_EQ(col.records_accepted, csv.records_accepted);
  EXPECT_EQ(col.rejects, csv.rejects);
  std::ostringstream a, b;
  io::write_assoc_dataset(a, *from_csv);
  io::write_assoc_dataset(b, *from_col);
  EXPECT_EQ(a.str(), b.str());
}

// ----------------------------------- file-driven studies vs. generators

TEST(FileStudy, AtlasExportReingestsToIdenticalResults) {
  core::AtlasStudyConfig gen_cfg;
  gen_cfg.atlas.probe_scale = 0.05;
  gen_cfg.atlas.window_hours = 6000;
  gen_cfg.atlas.seed = 7;
  gen_cfg.threads = 1;
  auto isps = simnet::paper_isps();
  isps.resize(3);
  const std::string want =
      atlas_signature(core::run_atlas_study(isps, gen_cfg));

  atlas::AtlasSimulator sim(isps, gen_cfg.atlas);
  std::vector<atlas::ProbeSeries> dataset;
  dataset.reserve(sim.probe_count());
  for (std::size_t i = 0; i < sim.probe_count(); ++i)
    dataset.push_back(sim.series_for(i));
  const fs::path path = temp_path("atlas_export.csv");
  {
    std::ofstream out(path, std::ios::binary);
    io::write_echo_dataset(out, dataset);
  }

  for (unsigned threads : {1u, 4u}) {
    core::AtlasFileStudyConfig cfg;
    cfg.threads = threads;
    io::IngestStats stats;
    auto study =
        core::run_atlas_study_from_files({path.string()}, isps, cfg, &stats);
    ASSERT_TRUE(study.ok()) << study.status().to_string();
    EXPECT_EQ(atlas_signature(*study), want) << "threads=" << threads;
    EXPECT_EQ(stats.total_rejects(), 0u);
    EXPECT_GT(stats.records_accepted, 0u);
  }
}

TEST(FileStudy, CdnExportReingestsToIdenticalResults) {
  core::CdnStudyConfig gen_cfg;
  gen_cfg.cdn.subscriber_scale = 0.05;
  gen_cfg.cdn.seed = 13;
  gen_cfg.threads = 1;
  auto population = cdn::default_cdn_population(0.05);
  const std::string want =
      cdn_signature(core::run_cdn_study(population, gen_cfg));

  cdn::CdnSimulator sim(population, gen_cfg.cdn);
  std::vector<cdn::AssociationLog> dataset;
  dataset.reserve(sim.entry_count());
  for (std::size_t i = 0; i < sim.entry_count(); ++i)
    dataset.push_back(sim.generate(i));
  const fs::path path = temp_path("cdn_export.csv");
  {
    std::ofstream out(path, std::ios::binary);
    io::write_assoc_dataset(out, dataset);
  }

  for (unsigned threads : {1u, 4u}) {
    core::CdnFileStudyConfig cfg;
    cfg.threads = threads;
    cfg.mobile_asns = sim.mobile_asns();
    for (const auto& entry : population) {
      cfg.registries[entry.isp.asn] = entry.isp.registry;
      cfg.asn_names[entry.isp.asn] = entry.isp.name;
    }
    io::IngestStats stats;
    auto study = core::run_cdn_study_from_files({path.string()}, cfg, &stats);
    ASSERT_TRUE(study.ok()) << study.status().to_string();
    EXPECT_EQ(cdn_signature(*study), want) << "threads=" << threads;
    EXPECT_EQ(stats.total_rejects(), 0u);
    EXPECT_GT(stats.records_accepted, 0u);
  }
}

// ---------------------------------------- corrupt → quarantine → strip

bool python3_available() {
  return std::system("python3 --version > /dev/null 2>&1") == 0;
}

TEST(FileStudy, CorruptedWithinBudgetMatchesQuarantineStrippedFile) {
  if (!python3_available()) GTEST_SKIP() << "python3 not on PATH";

  // Small but non-trivial export.
  atlas::AtlasConfig acfg;
  acfg.probe_scale = 0.02;
  acfg.window_hours = 3000;
  acfg.seed = 11;
  auto isps = simnet::paper_isps();
  isps.resize(3);
  atlas::AtlasSimulator sim(isps, acfg);
  std::vector<atlas::ProbeSeries> dataset;
  for (std::size_t i = 0; i < sim.probe_count(); ++i)
    dataset.push_back(sim.series_for(i));
  const fs::path clean = temp_path("ingest_clean.csv");
  {
    std::ofstream out(clean, std::ios::binary);
    io::write_echo_dataset(out, dataset);
  }

  // Deterministic damage via the checked-in fault injector.
  const fs::path corrupted = temp_path("ingest_corrupted.csv");
  const std::string cmd = "python3 '" +
                          (fs::path(DYNAMIPS_TOOLS_DIR) / "corrupt_csv.py")
                              .string() +
                          "' '" + clean.string() + "' '" +
                          corrupted.string() +
                          "' --seed 7 --rate 0.15 2> /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  // Load the corrupted file with an open budget, quarantining every reject.
  std::ostringstream quarantine;
  core::AtlasFileStudyConfig cfg;
  cfg.threads = 1;
  cfg.reader.max_reject_fraction = 1.0;
  cfg.reader.quarantine = &quarantine;
  io::IngestStats stats;
  auto corrupted_study = core::run_atlas_study_from_files(
      {corrupted.string()}, isps, cfg, &stats);
  ASSERT_TRUE(corrupted_study.ok()) << corrupted_study.status().to_string();
  ASSERT_GT(stats.total_rejects(), 0u) << "corruption produced no rejects; "
                                          "raise --rate";
  EXPECT_EQ(stats.quarantined, stats.total_rejects());

  // Every quarantine row names the real offending line: its kept text must
  // be a prefix of that exact line of the corrupted file.
  const std::vector<std::string> raw = read_lines(corrupted);
  std::set<std::uint64_t> quarantined_lines;
  std::istringstream qs(quarantine.str());
  std::string row;
  std::uint64_t rows = 0;
  while (std::getline(qs, row)) {
    ++rows;
    std::size_t c1 = row.find(',');
    std::size_t c2 = row.find(',', c1 + 1);
    std::size_t c3 = row.find(',', c2 + 1);
    ASSERT_NE(c3, std::string::npos) << row;
    EXPECT_EQ(row.substr(0, c1), corrupted.string());
    const std::uint64_t line_no = std::stoull(row.substr(c1 + 1, c2 - c1 - 1));
    const std::string kept = row.substr(c3 + 1);
    ASSERT_GE(line_no, 1u);
    ASSERT_LE(line_no, raw.size());
    EXPECT_EQ(raw[line_no - 1].substr(0, kept.size()), kept)
        << "quarantine line number " << line_no << " does not match";
    quarantined_lines.insert(line_no);
  }
  EXPECT_EQ(rows, stats.quarantined);

  // Strip exactly the quarantined lines; the result must analyze
  // byte-identically to the corrupted file (for every thread count).
  const fs::path stripped = temp_path("ingest_stripped.csv");
  {
    std::ofstream out(stripped, std::ios::binary);
    for (std::size_t i = 0; i < raw.size(); ++i)
      if (!quarantined_lines.count(i + 1)) out << raw[i] << '\n';
  }
  const std::string want = atlas_signature(*corrupted_study);
  {
    core::AtlasFileStudyConfig scfg;
    scfg.threads = 1;
    io::IngestStats sstats;
    auto stripped_study = core::run_atlas_study_from_files(
        {stripped.string()}, isps, scfg, &sstats);
    ASSERT_TRUE(stripped_study.ok()) << stripped_study.status().to_string();
    EXPECT_EQ(sstats.total_rejects(), 0u);
    EXPECT_EQ(atlas_signature(*stripped_study), want);
  }
  {
    core::AtlasFileStudyConfig pcfg;
    pcfg.threads = 4;
    pcfg.reader.max_reject_fraction = 1.0;
    auto parallel_study = core::run_atlas_study_from_files(
        {corrupted.string()}, isps, pcfg);
    ASSERT_TRUE(parallel_study.ok()) << parallel_study.status().to_string();
    EXPECT_EQ(atlas_signature(*parallel_study), want);
  }

  // The same corrupted file over a zero budget fails with a descriptive
  // DATA_LOSS status — identically for serial and pooled execution.
  for (unsigned threads : {1u, 4u}) {
    core::AtlasFileStudyConfig zcfg;
    zcfg.threads = threads;
    zcfg.reader.max_reject_fraction = 0.0;
    auto failed = core::run_atlas_study_from_files(
        {corrupted.string()}, isps, zcfg);
    ASSERT_FALSE(failed.ok()) << "threads=" << threads;
    EXPECT_EQ(failed.status().code(), StatusCode::kDataLoss);
    EXPECT_TRUE(contains(failed.status().message(), "over budget"))
        << failed.status().to_string();
    EXPECT_TRUE(contains(failed.status().message(), corrupted.string()))
        << failed.status().to_string();
  }
}

// -------------------------------------------------- failure propagation

TEST(FileStudy, MissingFileComesBackAsNotFound) {
  auto isps = simnet::paper_isps();
  isps.resize(1);
  core::AtlasFileStudyConfig cfg;
  cfg.threads = 1;
  const std::string path = "/nonexistent/dynamips/echo.csv";
  auto study = core::run_atlas_study_from_files({path}, isps, cfg);
  ASSERT_FALSE(study.ok());
  EXPECT_EQ(study.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(contains(study.status().message(), path))
      << study.status().to_string();

  core::CdnFileStudyConfig ccfg;
  ccfg.threads = 1;
  auto cdn_study = core::run_cdn_study_from_files({path}, ccfg);
  ASSERT_FALSE(cdn_study.ok());
  EXPECT_EQ(cdn_study.status().code(), StatusCode::kNotFound);
}

TEST(ShardExecutor, TryDispatchTurnsExceptionsIntoStatus) {
  for (unsigned threads : {1u, 4u}) {
    core::ShardExecutor exec(threads);
    std::atomic<int> ran{0};
    Status st = exec.try_dispatch(8, [&](std::size_t i) {
      ++ran;
      if (i == 3) throw std::runtime_error("boom");
    });
    ASSERT_FALSE(st.ok()) << "threads=" << threads;
    EXPECT_EQ(st.code(), StatusCode::kInternal);
    EXPECT_TRUE(contains(st.message(), "boom")) << st.to_string();
    // The drain contract: every task still ran despite the failure.
    EXPECT_EQ(ran.load(), 8);

    // The pool survives a failed dispatch and is reusable.
    std::atomic<int> again{0};
    EXPECT_TRUE(exec.try_dispatch(8, [&](std::size_t) { ++again; }).ok());
    EXPECT_EQ(again.load(), 8);

    Status odd = exec.try_dispatch(2, [](std::size_t) { throw 42; });
    ASSERT_FALSE(odd.ok());
    EXPECT_TRUE(contains(odd.message(), "non-standard")) << odd.to_string();
  }
}

}  // namespace
}  // namespace dynamips
