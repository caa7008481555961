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

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "atlas/generator.h"
#include "cdn/generator.h"
#include "core/failpoint.h"
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
      io::decode_assoc_columnar(io::encode_assoc_columnar(*kept).bytes(), opts,
                                &col);
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

// ------------------------------------------- CSV ingest at every thread count
//
// CsvReader parses each window's lines in line-aligned ranges, a few per
// executor thread, and replays them in order. Every load below runs with no
// executor and on 2 and 4 threads and must report the same dataset, stats,
// quarantine bytes, counters and Status.

/// Everything a CSV load reports.
struct CsvLoad {
  std::string status;
  std::string dataset;  // rewritten as CSV, when the load succeeded
  std::string quarantine;
  std::string counters;  // "name=value" lines
  io::IngestStats stats;
};

core::ShardExecutor& csv_pool(unsigned threads) {
  static core::ShardExecutor two(2), four(4);
  return threads == 2 ? two : four;
}

/// One load of `text`, with `failpoints` (when non-empty) armed for it
/// alone, so each load sees the same hit sequence.
template <class Read, class Write>
CsvLoad load_csv_once(const std::string& text, io::ReaderOptions opts,
                      core::ShardExecutor* exec, Read read, Write write,
                      const std::string& failpoints = {}) {
  if (!failpoints.empty()) {
    EXPECT_TRUE(core::arm_failpoints(failpoints).ok());
  }
  CsvLoad out;
  std::ostringstream quarantine;
  obs::MetricsSink metrics;
  opts.quarantine = &quarantine;
  opts.metrics = &metrics;
  opts.source_label = "batch.csv";
  std::istringstream in(text);
  auto data = read(in, opts, &out.stats, exec);
  core::disarm_failpoints();
  out.status = data.status().to_string();
  if (data.ok()) {
    std::ostringstream os;
    write(os, *data);
    out.dataset = os.str();
  }
  out.quarantine = quarantine.str();
  for (const auto& [name, counter] : metrics.counters())
    out.counters += name + "=" + std::to_string(counter.value) + "\n";
  return out;
}

/// Load `text` with no executor, then on 2 and 4 threads, expecting the
/// same report each time; returns the first.
template <class Read, class Write>
CsvLoad expect_csv_thread_invariant(const std::string& text,
                                    const io::ReaderOptions& opts, Read read,
                                    Write write, const std::string& what,
                                    const std::string& failpoints = {}) {
  const CsvLoad serial =
      load_csv_once(text, opts, nullptr, read, write, failpoints);
  for (unsigned threads : {2u, 4u}) {
    SCOPED_TRACE(what + " on " + std::to_string(threads) + " threads");
    const CsvLoad got = load_csv_once(text, opts, &csv_pool(threads), read,
                                      write, failpoints);
    EXPECT_EQ(got.status, serial.status);
    EXPECT_TRUE(got.dataset == serial.dataset);
    EXPECT_EQ(got.quarantine, serial.quarantine);
    EXPECT_EQ(got.counters, serial.counters);
    EXPECT_TRUE(got.stats == serial.stats)
        << got.stats.summary() << " vs " << serial.stats.summary();
  }
  return serial;
}

const auto read_echo = [](auto&&... a) { return io::read_echo_dataset(a...); };
const auto write_echo = [](std::ostream& os, const auto& d) {
  io::write_echo_dataset(os, d);
};
const auto read_assoc = [](auto&&... a) {
  return io::read_assoc_dataset(a...);
};
const auto write_assoc = [](std::ostream& os, const auto& d) {
  io::write_assoc_dataset(os, d);
};

CsvLoad expect_echo_invariant(const std::string& text,
                              const io::ReaderOptions& opts,
                              const std::string& what,
                              const std::string& failpoints = {}) {
  return expect_csv_thread_invariant(text, opts, read_echo, write_echo, what,
                                     failpoints);
}

/// An echo export of a small generated population: about 2 MB, several
/// windows.
const std::string& echo_export() {
  static const std::string text = [] {
    atlas::AtlasConfig acfg;
    acfg.probe_scale = 0.008;
    acfg.window_hours = 1500;
    acfg.seed = 5;
    atlas::AtlasSimulator sim(simnet::paper_isps(), acfg);
    std::vector<atlas::ProbeSeries> dataset;
    for (std::size_t i = 0; i < sim.probe_count(); ++i)
      dataset.push_back(sim.series_for(i));
    std::ostringstream os;
    io::write_echo_dataset(os, dataset);
    return os.str();
  }();
  return text;
}

/// tools/corrupt_csv.py's four fault modes, in process: each line after
/// the first is, at `rate`, truncated, bit-flipped (never into a line
/// break), swapped with the next line, or followed by a copy of itself.
std::string corrupt_lines(const std::string& text, std::uint64_t seed,
                          double rate) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::vector<std::string> out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string line = lines[i];
    if (i == 0 || coin(rng) >= rate) {
      out.push_back(line);
      continue;
    }
    switch (rng() % 4) {
      case 0:  // truncate
        out.push_back(line.substr(0, line.empty() ? 0 : rng() % line.size()));
        break;
      case 1:  // bitflip
        if (!line.empty()) {
          char& c = line[rng() % line.size()];
          c = char(c ^ (1 << (rng() % 7)));
          if (c == '\n' || c == '\r') c = '?';
        }
        out.push_back(line);
        break;
      case 2:  // reorder
        if (i + 1 < lines.size()) {
          out.push_back(lines[i + 1]);
          lines[i + 1] = line;
        } else {
          out.push_back(line);
        }
        break;
      default:  // duplicate
        out.push_back(line);
        out.push_back(line);
    }
  }
  std::string joined;
  for (const auto& line : out) joined += line + '\n';
  return joined;
}

/// `count` lines of exactly `width` bytes each, '\n' included; `line(i)`
/// gives line i without its '\n'. Fixed-width lines put each range cut at
/// a computable line (range_starts).
std::string fixed_lines(std::size_t count, std::size_t width,
                        const std::function<std::string(std::size_t)>& line) {
  std::string text;
  text.reserve(count * width);
  for (std::size_t i = 0; i < count; ++i) {
    std::string l = line(i);
    EXPECT_EQ(l.size() + 1, width) << l;
    text += l + '\n';
  }
  return text;
}

/// The first line of every range but the first on `threads` threads, for
/// `count` lines of `width` bytes in one window: its B bytes are cut into
/// n = clamp(B / kCsvMinRangeBytes, 1, kCsvRangesPerThread * threads)
/// ranges, cut k after the first '\n' at or after byte B * k / n.
std::vector<std::size_t> range_starts(std::size_t count, std::size_t width,
                                      std::size_t threads) {
  const std::size_t bytes = count * width;
  EXPECT_LE(bytes, io::kCsvWindowBytes);
  const std::size_t n = std::clamp<std::size_t>(
      bytes / io::kCsvMinRangeBytes, 1, io::kCsvRangesPerThread * threads);
  std::vector<std::size_t> starts;
  for (std::size_t k = 1; k < n; ++k)
    starts.push_back((bytes * k / n + width) / width);
  return starts;
}

/// range_starts on 2 and on 4 threads.
std::set<std::size_t> all_range_starts(std::size_t count, std::size_t width) {
  std::set<std::size_t> starts;
  for (std::size_t threads : {2u, 4u})
    for (std::size_t line : range_starts(count, width, threads))
      starts.insert(line);
  return starts;
}

/// A 46-byte echo line: probe 1000 + `probe`, hour 100000 + `hour`.
std::string echo_line(std::size_t probe, std::size_t hour) {
  return std::to_string(1000 + probe) + "," + std::to_string(100000 + hour) +
         ",4,100.100.100.100,200.200.200.200";
}
constexpr std::size_t kEchoWidth = 46;
constexpr std::size_t kFixedLines = 4096;  // 184 KiB: one window

/// The fixed-width echo input with `special` lines in place of records.
std::string fixed_echo(const std::map<std::size_t, std::string>& special) {
  return fixed_lines(kFixedLines, kEchoWidth, [&](std::size_t i) {
    auto it = special.find(i);
    return it != special.end() ? it->second : echo_line(i % 7, i);
  });
}

/// `s` padded with `pad` to 45 bytes.
std::string pad45(std::string s, char pad) {
  s.resize(kEchoWidth - 1, pad);
  return s;
}

TEST(CsvThreads, CleanAndDamagedExportsLoadAlike) {
  const std::string& clean = echo_export();
  ASSERT_GT(clean.size(), io::kCsvWindowBytes);  // several windows
  const CsvLoad ref = expect_echo_invariant(clean, {}, "clean export");
  EXPECT_EQ(ref.status, "OK");
  EXPECT_EQ(ref.stats.total_rejects(), 0u);
  EXPECT_EQ(ref.dataset, clean);  // the writer's own form round-trips

  io::ReaderOptions open_budget;
  open_budget.max_reject_fraction = 1.0;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const std::string damaged = corrupt_lines(clean, seed, 0.05);
    const CsvLoad d = expect_echo_invariant(
        damaged, open_budget, "damaged export seed " + std::to_string(seed));
    EXPECT_EQ(d.status, "OK");
    for (RejectReason why :
         {RejectReason::kBadFieldCount, RejectReason::kBadNumber,
          RejectReason::kBadAddress, RejectReason::kDuplicate})
      EXPECT_GT(d.stats.rejects_for(why), 0u) << reject_reason_name(why);
  }
  // A zero budget fails alike, naming the same first offenders.
  const CsvLoad failed = expect_echo_invariant(corrupt_lines(clean, 4, 0.05),
                                               {}, "damaged, zero budget");
  EXPECT_NE(failed.status, "OK");
}

TEST(CsvThreads, EdgeLinesAtWindowBoundariesLoadAlike) {
  const std::string& base = echo_export();
  const std::size_t w = io::kCsvWindowBytes;
  io::ReaderOptions opts;
  opts.max_line_bytes = 256;  // longer than every line of the export
  opts.max_reject_fraction = 1.0;
  // Splice `line` into a copy of `base` so that it starts at byte `at`:
  // the line `at` falls in becomes a filler of 'P's that ends before it.
  auto splice = [&](std::size_t at, const std::string& line) {
    const std::size_t from = base.rfind('\n', at - 1) + 1;
    std::string text = base.substr(0, from);
    if (at > from) text += std::string(at - from - 1, 'P') + '\n';
    text += line;
    text += base.substr(base.find('\n', at));
    return text;
  };
  // Every physical line is counted once: an oversize line's rest is
  // skipped, not read as more lines.
  auto load = [&](const std::string& text, const io::ReaderOptions& o,
                  const std::string& what) {
    const CsvLoad got = expect_echo_invariant(text, o, what);
    EXPECT_EQ(got.stats.lines_seen,
              std::uint64_t(std::count(text.begin(), text.end(), '\n')))
        << what;
    return got.stats;
  };
  const std::string long_line(300, 'L');
  for (std::size_t start : {w - 301, w - 300, w - 299, w - 258, w - 257,
                            w - 1, w, w + 1}) {
    const io::IngestStats st = load(splice(start, long_line), opts,
                                    "oversize line at " +
                                        std::to_string(start));
    EXPECT_EQ(st.rejects_for(RejectReason::kOversizeLine), 1u);
  }
  // Lines at the limit: 257 bytes fit (a CR's slack), 258 do not.
  for (std::size_t len : {256u, 257u, 258u}) {
    const io::IngestStats st =
        load(splice(w - 30, std::string(len, 'M')), opts,
             "line of " + std::to_string(len) + " at w - 30");
    EXPECT_EQ(st.rejects_for(RejectReason::kOversizeLine),
              len == 258 ? 1u : 0u);
  }
  // A CRLF pair split by the window boundary, and a CRLF export.
  {
    std::string text = splice(w - 40, std::string(39, 'C'));
    text.insert(w - 1, "\r");
    load(text, opts, "CR at w - 1, LF at w");
  }
  std::string crlf;
  for (char c : base) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  const CsvLoad crlf_load = expect_echo_invariant(crlf, {}, "CRLF export");
  EXPECT_EQ(crlf_load.dataset, base);
  // An oversize line longer than a window is skipped across windows, and
  // with a larger limit a line that long is carried whole.
  const std::string huge(w + w / 2, 'H');
  EXPECT_EQ(load(splice(w - 1000, huge), opts, "window-long line")
                .rejects_for(RejectReason::kOversizeLine),
            1u);
  io::ReaderOptions roomy = opts;
  roomy.max_line_bytes = 2 * w;
  EXPECT_EQ(load(splice(w - 1000, huge), roomy,
                 "window-long line under a larger limit")
                .rejects_for(RejectReason::kOversizeLine),
            0u);
}

// A line long enough to run past the range cut points after it, last in
// its window: the cuts stop at the window's last '\n' and the ranges after
// them stay empty. The input is smaller than a window, or the line ends a
// full window with nothing or a partial line after it.
TEST(CsvThreads, LongLastLineOfAWindowLoadsAlike) {
  const std::size_t w = io::kCsvWindowBytes;
  const std::string records = fixed_echo({}).substr(0, 220 * kEchoWidth);
  const std::string more = fixed_echo({}).substr(300 * kEchoWidth);
  io::ReaderOptions opts;
  opts.max_reject_fraction = 1.0;
  io::ReaderOptions roomy = opts;
  roomy.max_line_bytes = 2 * w;
  auto load = [&](const std::string& text, const io::ReaderOptions& o,
                  const std::string& what) {
    const CsvLoad got = expect_echo_invariant(text, o, what);
    EXPECT_EQ(got.stats.lines_seen,
              std::uint64_t(std::count(text.begin(), text.end(), '\n')))
        << what;
    return got.stats;
  };
  for (std::size_t len : {20000u, 40000u, 100000u}) {
    const std::string text = records + std::string(len, 'J') + '\n';
    const std::string what = "10 KB, then a line of " + std::to_string(len);
    const io::IngestStats st = load(text, opts, what);
    EXPECT_EQ(st.rejects_for(RejectReason::kOversizeLine), 1u);
    EXPECT_EQ(st.records_accepted, 220u);
    load(text, roomy, what + " under a larger limit");
  }
  for (std::size_t tail : {0u, 1u, 20u}) {
    const std::size_t len = w - records.size() - tail - 1;
    const std::string text = records + std::string(len, 'J') + '\n' + more;
    const std::string what = "a line ending " + std::to_string(tail) +
                             " bytes before a full window";
    const io::IngestStats st = load(text, opts, what);
    EXPECT_EQ(st.rejects_for(RejectReason::kOversizeLine), 1u) << what;
    EXPECT_EQ(st.records_accepted,
              220u + std::count(more.begin(), more.end(), '\n'))
        << what;
    load(text, roomy, what + " under a larger limit");
  }
}

/// Load `text` through a stream that fails once it is read, as
/// FailingAfterBuf does, with no executor and on 2 and 4 threads.
CsvLoad expect_failing_stream_invariant(const std::string& text,
                                        const io::ReaderOptions& opts,
                                        const std::string& what) {
  auto read = [&](std::istream&, const io::ReaderOptions& o,
                  io::IngestStats* stats, core::ShardExecutor* exec) {
    FailingAfterBuf buf(text);
    std::istream in(&buf);
    return io::read_echo_dataset(in, o, stats, exec);
  };
  return expect_csv_thread_invariant(text, opts, read, write_echo, what);
}

// A stream that fails mid-input keeps the complete lines before the
// failure and fails at the line it could not finish; a partial line known
// to be oversize is rejected first.
TEST(CsvThreads, ReadFailureKeepsTheCompleteLinesBeforeIt) {
  io::ReaderOptions opts;
  opts.max_line_bytes = 64;
  opts.max_reject_fraction = 1.0;
  const std::string lines = fixed_echo({});
  const CsvLoad at_boundary =
      expect_failing_stream_invariant(lines, opts, "failure after a '\\n'");
  EXPECT_NE(at_boundary.status.find("read failed at line " +
                                    std::to_string(kFixedLines + 1)),
            std::string::npos)
      << at_boundary.status;
  EXPECT_EQ(at_boundary.stats.records_accepted, kFixedLines);

  const CsvLoad partial = expect_failing_stream_invariant(
      lines + "1001,1,4,100.100", opts, "failure inside a line");
  EXPECT_NE(partial.status.find("read failed at line " +
                                std::to_string(kFixedLines + 1)),
            std::string::npos)
      << partial.status;
  EXPECT_EQ(partial.stats.lines_seen, kFixedLines);

  const CsvLoad oversize = expect_failing_stream_invariant(
      lines + std::string(66, 'O'), opts, "failure inside an oversize line");
  EXPECT_NE(oversize.status.find("read failed at line " +
                                 std::to_string(kFixedLines + 2)),
            std::string::npos)
      << oversize.status;
  EXPECT_EQ(oversize.stats.rejects_for(RejectReason::kOversizeLine), 1u);

  // At the limit the partial line could still end: not yet oversize.
  const CsvLoad at_limit = expect_failing_stream_invariant(
      lines + std::string(65, 'O'), opts, "failure after 65 bytes");
  EXPECT_NE(at_limit.status.find("read failed at line " +
                                 std::to_string(kFixedLines + 1)),
            std::string::npos)
      << at_limit.status;
}

TEST(CsvThreads, RangeBoundariesKeepTagsDuplicatesAndTheRejectCap) {
  io::ReaderOptions opts;
  opts.max_reject_fraction = 1.0;
  const std::set<std::size_t> starts =
      all_range_starts(kFixedLines, kEchoWidth);
  ASSERT_GE(starts.size(), 10u);
  // A `#tags` line first in each range, for a probe whose records come
  // both before and after it, and an unknown comment.
  {
    std::map<std::size_t, std::string> special;
    for (std::size_t line : starts)
      special[line] = pad45("#tags," + std::to_string(1000 + line % 7) +
                                "," + std::to_string(line) + ";",
                            't');
    special[*starts.begin() + 1] = pad45("# comment", ' ');
    const CsvLoad got =
        expect_echo_invariant(fixed_echo(special), opts, "tags at cuts");
    EXPECT_EQ(got.stats.meta_lines, special.size());
    EXPECT_NE(got.dataset.find("#tags,"), std::string::npos);
  }
  // A record, and its duplicates first in other ranges.
  {
    std::map<std::size_t, std::string> special;
    for (std::size_t line : starts) special[line] = echo_line(5 % 7, 5);
    const CsvLoad got =
        expect_echo_invariant(fixed_echo(special), opts, "duplicates");
    EXPECT_EQ(got.stats.rejects_for(RejectReason::kDuplicate), starts.size());
  }
  // A BOM counts on the stream's first line only, not on a range's, and a
  // last line without a '\n' is replayed after every range.
  {
    std::map<std::size_t, std::string> special;
    for (std::size_t line : starts)
      special[line] = "\xEF\xBB\xBF" + std::to_string(1000 + line % 7) + "," +
                      std::to_string(100000 + line) +
                      ",4,100.100.100.10,200.200.200.2";
    const std::string text =
        fixed_echo(special) + "1006,200000,4,100.100.100.10,200.200.200.2";
    const CsvLoad got =
        expect_echo_invariant(text, opts, "BOMs at cuts, no last newline");
    EXPECT_EQ(got.stats.rejects_for(RejectReason::kBadNumber), starts.size());
    EXPECT_EQ(got.stats.records_accepted, kFixedLines - starts.size() + 1);
  }
  // A run of rejects across a range cut that trips the consecutive cap:
  // the lines parsed past the trip are never seen.
  for (std::size_t threads : {2u, 4u}) {
    io::ReaderOptions capped = opts;
    capped.max_consecutive_rejects = 10;
    const std::size_t cut = range_starts(kFixedLines, kEchoWidth, threads)[0];
    std::map<std::size_t, std::string> special;
    for (std::size_t i = cut - 6; i < cut + 6; ++i)
      special[i] = pad45("zzz", 'z');
    const CsvLoad got = expect_echo_invariant(
        fixed_echo(special), capped,
        "reject cap across a cut on " + std::to_string(threads) + " threads");
    EXPECT_NE(got.status.find("11 consecutive malformed lines"),
              std::string::npos)
        << got.status;
    EXPECT_EQ(got.stats.lines_seen, cut + 5);
    EXPECT_EQ(got.stats.records_accepted, cut - 6);
  }
  // The readers.line failpoint fails at the same line, with the same
  // records accepted, at every thread count.
  for (const std::string line : {"1", "2000", "4096", "4097"}) {
    const CsvLoad got = expect_echo_invariant(
        fixed_echo({}), opts, "failpoint at " + line,
        "readers.line=err(ENOSPC)@" + line);
    EXPECT_NE(got.status.find("injected read failure (ENOSPC) at line " +
                              line),
              std::string::npos)
        << got.status;
    EXPECT_EQ(got.stats.records_accepted, std::stoull(line) - 1);
  }
}

TEST(CsvThreads, SmallInputsBomAndMissingNewlineLoadAlike) {
  const std::string bom = "\xEF\xBB\xBF";
  const std::string header = "probe_id,hour,family,x_client_ip,src_addr\n";
  const std::string rec = "1,0,4,80.1.2.3,192.168.1.5";
  for (const std::string& text :
       {std::string(), std::string("\n"), bom, bom + header + rec,
        header + rec, header + rec + "\n" + bom + rec, rec + "\r",
        "#tags,1,a;b\n" + rec, fixed_echo({}).substr(0, 8000),
        fixed_echo({}).substr(0, 70000)})
    expect_echo_invariant(text, {}, "small input of " +
                                        std::to_string(text.size()));
  // A BOM counts only on the first line.
  const CsvLoad first = expect_echo_invariant(bom + header + rec, {}, "BOM");
  EXPECT_EQ(first.stats.headers_skipped, 1u);
  EXPECT_EQ(first.stats.records_accepted, 1u);
  const CsvLoad second =
      expect_echo_invariant(header + bom + rec, {}, "BOM on line 2");
  EXPECT_EQ(second.stats.records_accepted, 0u);
}

TEST(CsvThreads, AssocAdjacentDuplicatesAcrossRangesLoadAlike) {
  // 59-byte assoc lines; a repeat of the previous line at each cut.
  constexpr std::size_t kWidth = 59;
  auto assoc_line = [](std::size_t i) {
    return std::to_string(10000 + i % 20000) + ",100.100." +
           std::to_string(100 + i % 100) + ".0/24,2001:db8:" +
           std::to_string(1000 + i % 9000) + ":1000::/64,65001,65001";
  };
  const std::set<std::size_t> repeats = all_range_starts(kFixedLines, kWidth);
  const std::string text =
      fixed_lines(kFixedLines, kWidth, [&](std::size_t i) {
        return assoc_line(repeats.count(i) ? i - 1 : i);
      });
  for (bool dedup : {false, true}) {
    io::ReaderOptions opts;
    opts.assoc_dedup_adjacent = dedup;
    const CsvLoad got = expect_csv_thread_invariant(
        text, opts, read_assoc, write_assoc,
        dedup ? "adjacent dedup" : "no dedup");
    EXPECT_EQ(got.stats.rejects_for(RejectReason::kDuplicate),
              dedup ? repeats.size() : 0u);
  }
  // A damaged assoc export.
  std::string export_text;
  for (std::size_t i = 0; i < 20000; ++i)
    export_text += assoc_line(i * 7) + "\n";
  io::ReaderOptions open_budget;
  open_budget.max_reject_fraction = 1.0;
  open_budget.assoc_dedup_adjacent = true;
  expect_csv_thread_invariant(corrupt_lines(export_text, 9, 0.05),
                              open_budget, read_assoc, write_assoc,
                              "damaged assoc export");
}

// Once next() returned nullopt at the end of the input, it keeps doing so
// and counts nothing more.
TEST(CsvThreads, EndOfInputIsFinal) {
  const std::string rec = "1,0,4,80.1.2.3,192.168.1.5";
  for (const std::string& text :
       {std::string(), rec, rec + "\n", rec + "\nbad\n" + rec,
        corrupt_lines(echo_export(), 12, 0.02)}) {
    for (core::ShardExecutor* exec :
         {static_cast<core::ShardExecutor*>(nullptr), &csv_pool(2),
          &csv_pool(4)}) {
      SCOPED_TRACE(std::to_string(text.size()) + " bytes, " +
                   (exec ? std::to_string(exec->thread_count()) + " threads"
                         : std::string("no executor")));
      std::ostringstream quarantine;
      obs::MetricsSink metrics;
      io::ReaderOptions opts;
      opts.max_reject_fraction = 1.0;
      opts.quarantine = &quarantine;
      opts.metrics = &metrics;
      std::istringstream in(text);
      io::EchoReader reader(in, opts, exec);
      while (reader.next()) continue;
      const io::IngestStats at_end = reader.stats();
      const std::string quarantined = quarantine.str();
      const std::uint64_t lines = metrics.counter("ingest.lines").value;
      for (int again = 0; again < 2; ++again) EXPECT_FALSE(reader.next());
      EXPECT_TRUE(reader.stats() == at_end) << reader.stats().summary();
      EXPECT_EQ(quarantine.str(), quarantined);
      EXPECT_EQ(metrics.counter("ingest.lines").value, lines);
      EXPECT_TRUE(reader.finish().ok());
    }
  }
}

TEST(CsvThreads, FileLoadsMatchStreamLoads) {
  const fs::path path = temp_path("csv_threads.csv");
  const std::string text = corrupt_lines(echo_export(), 11, 0.02);
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  io::ReaderOptions opts;
  opts.max_reject_fraction = 1.0;
  auto load_file = [&](std::istream&, const io::ReaderOptions& o,
                       io::IngestStats* stats, core::ShardExecutor* exec) {
    return io::load_echo_file(path.string(), o, stats, exec);
  };
  const CsvLoad from_file = expect_csv_thread_invariant(
      text, opts, load_file, write_echo, "file load");
  CsvLoad from_stream = load_csv_once(text, opts, nullptr, read_echo,
                                      write_echo);
  EXPECT_EQ(from_file.dataset, from_stream.dataset);
  EXPECT_TRUE(from_file.stats == from_stream.stats);
  // The file load labels its quarantine rows with the path.
  EXPECT_NE(from_file.quarantine.find(path.string()), std::string::npos);
}

}  // namespace
}  // namespace dynamips
