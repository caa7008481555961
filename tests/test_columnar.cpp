// test_columnar — the out-of-core columnar batch format (io/columnar.h):
// encode/decode round-trips that reproduce the CSV readers' semantics
// exactly, end-to-end study byte-identity between `.csv` and `.col` inputs
// at multiple thread counts, structural-corruption rejection (flipped
// bytes, truncations, kind/version skew — kDataLoss/kFailedPrecondition,
// never a crash), and the shared row-level error budget: columnar decode
// failures count against the same RejectLedger budgets as CSV line
// rejects. Decoding on an executor gives the same result, accounting and
// Status as decoding on the caller, at every thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#ifdef __unix__
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "atlas/generator.h"
#include "cdn/generator.h"
#include "core/intern.h"
#include "core/parallel.h"
#include "core/pipeline.h"
#include "io/checkpoint.h"
#include "io/columnar.h"
#include "io/csv.h"
#include "io/readers.h"
#include "io/results_io.h"
#include "obs/metrics.h"
#include "reference/columnar_encode.h"
#include "simnet/isp.h"

namespace dynamips {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

void write_raw(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), std::streamsize(bytes.size()));
  ASSERT_TRUE(os.good());
}

/// Overwrite bytes of column `tag` in an encoded batch — (index within
/// the payload, new byte) per edit — and re-seal the column and header
/// CRCs, so the batch passes the structural checks and reaches row decode.
void patch_column(
    std::string& bytes, std::string_view tag,
    const std::vector<std::pair<std::size_t, std::uint8_t>>& edits) {
  auto u64_at = [&](std::size_t off) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= std::uint64_t(std::uint8_t(bytes[off + std::size_t(i)]))
           << (8 * i);
    return v;
  };
  auto store_u32 = [&](std::size_t off, std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      bytes[off + std::size_t(i)] = char((v >> (8 * i)) & 0xFF);
  };
  const std::uint32_t ncols = std::uint8_t(bytes[32]);  // < 64 columns
  const std::size_t header_size = 36 + std::size_t(ncols) * 24 + 4;
  bool patched = false;
  for (std::uint32_t c = 0; c < ncols; ++c) {
    const std::size_t entry = 36 + std::size_t(c) * 24;
    if (bytes.compare(entry, 4, tag) != 0) continue;
    const std::uint64_t offset = u64_at(entry + 4);
    const std::uint64_t length = u64_at(entry + 12);
    for (auto [at, value] : edits) {
      ASSERT_LT(at, length);
      bytes[offset + at] = char(value);
    }
    const std::string_view column(bytes.data() + offset, length);
    store_u32(entry + 20, io::ckpt::crc32(column));
    patched = true;
  }
  ASSERT_TRUE(patched) << tag;
  const std::string_view header(bytes.data(), header_size - 4);
  store_u32(header_size - 4, io::ckpt::crc32(header));
}

std::vector<atlas::ProbeSeries> echo_fixture(double scale = 0.05) {
  atlas::AtlasConfig cfg;
  cfg.probe_scale = scale;
  cfg.window_hours = 6000;
  cfg.seed = 7;
  auto isps = simnet::paper_isps();
  isps.resize(3);
  atlas::AtlasSimulator sim(isps, cfg);
  std::vector<atlas::ProbeSeries> out;
  out.reserve(sim.probe_count());
  for (std::size_t i = 0; i < sim.probe_count(); ++i)
    out.push_back(sim.series_for(i));
  return out;
}

std::vector<cdn::AssociationLog> assoc_fixture(double scale = 0.05) {
  cdn::CdnConfig cfg;
  cfg.subscriber_scale = scale;
  cfg.seed = 13;
  cdn::CdnSimulator sim(cdn::default_cdn_population(scale), cfg);
  std::vector<cdn::AssociationLog> out;
  out.reserve(sim.entry_count());
  for (std::size_t i = 0; i < sim.entry_count(); ++i)
    out.push_back(sim.generate(i));
  return out;
}

std::string atlas_bytes(const core::AtlasStudy& s) {
  std::ostringstream os;
  io::write_duration_curves_csv(os, s);
  io::write_cpl_csv(os, s);
  io::write_bgp_moves_csv(os, s);
  io::write_inference_csv(os, s);
  return os.str();
}

std::string cdn_bytes(const core::CdnStudy& s) {
  std::ostringstream os;
  io::write_assoc_durations_csv(os, s);
  io::write_degrees_csv(os, s);
  io::write_zero_boundaries_csv(os, s);
  return os.str();
}

// ------------------------------------------------------------ round trips

TEST(ColumnarCodec, EchoRoundTripPreservesEverything) {
  auto dataset = echo_fixture();
  ASSERT_FALSE(dataset.empty());
  std::string bytes = io::encode_echo_columnar(dataset).bytes;
  auto back = io::decode_echo_columnar(bytes);
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  ASSERT_EQ(back.value().size(), dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const auto& a = dataset[i];
    const auto& b = back.value()[i];
    EXPECT_EQ(a.meta.probe_id, b.meta.probe_id);
    EXPECT_EQ(a.meta.tags, b.meta.tags);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t r = 0; r < a.records.size(); ++r) {
      EXPECT_EQ(a.records[r].hour, b.records[r].hour);
      EXPECT_EQ(a.records[r].family, b.records[r].family);
      EXPECT_EQ(a.records[r].x_client_ip4.value(),
                b.records[r].x_client_ip4.value());
      EXPECT_EQ(a.records[r].src_addr4.value(),
                b.records[r].src_addr4.value());
      EXPECT_EQ(a.records[r].x_client_ip6.bits().hi,
                b.records[r].x_client_ip6.bits().hi);
      EXPECT_EQ(a.records[r].src_addr6.bits().lo,
                b.records[r].src_addr6.bits().lo);
    }
  }
}

TEST(ColumnarCodec, AssocRoundTripPreservesEverything) {
  auto dataset = assoc_fixture();
  ASSERT_FALSE(dataset.empty());
  std::string bytes = io::encode_assoc_columnar(dataset).bytes;
  auto back = io::decode_assoc_columnar(bytes);
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  ASSERT_EQ(back.value().size(), dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const auto& a = dataset[i];
    const auto& b = back.value()[i];
    EXPECT_EQ(a.asn, b.asn);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t r = 0; r < a.records.size(); ++r) {
      EXPECT_EQ(a.records[r].day, b.records[r].day);
      EXPECT_EQ(a.records[r].v4_24.address().value(),
                b.records[r].v4_24.address().value());
      EXPECT_EQ(a.records[r].v4_24.length(), b.records[r].v4_24.length());
      EXPECT_EQ(a.records[r].v6_64.address().bits().hi,
                b.records[r].v6_64.address().bits().hi);
      EXPECT_EQ(a.records[r].asn4, b.records[r].asn4);
      EXPECT_EQ(a.records[r].asn6, b.records[r].asn6);
    }
  }
}

TEST(ColumnarCodec, EmptyDatasetsRoundTrip) {
  auto echo = io::decode_echo_columnar(io::encode_echo_columnar({}).bytes);
  ASSERT_TRUE(echo.ok()) << echo.status().to_string();
  EXPECT_TRUE(echo.value().empty());
  auto assoc = io::decode_assoc_columnar(io::encode_assoc_columnar({}).bytes);
  ASSERT_TRUE(assoc.ok()) << assoc.status().to_string();
  EXPECT_TRUE(assoc.value().empty());
}

// The per-column CRCs in the directory must be the same polynomial as
// ckpt::crc32 (IEEE/zlib) so one checksum convention covers the whole
// persistence layer. Verify by recomputing a directory entry's CRC with
// the checkpoint codec's reference implementation.
// A key repeated over many groups decodes in linear time: 80,000 one-row
// groups of one probe, and of one ASN. Reserving each group's rows
// exactly, per group, once made this quadratic (~30 s); a linear decode
// takes milliseconds.
TEST(ColumnarCodec, KeyRepeatedOverManyGroupsDecodesInLinearTime) {
  constexpr std::uint32_t kGroups = 80000;
  std::vector<atlas::ProbeSeries> echo(kGroups);
  std::vector<cdn::AssociationLog> assoc(kGroups);
  for (std::uint32_t g = 0; g < kGroups; ++g) {
    atlas::EchoRecord rec;
    rec.probe_id = echo[g].meta.probe_id = 42;
    rec.hour = g / 2;
    rec.family = g % 2 ? atlas::Family::kV6 : atlas::Family::kV4;
    echo[g].records.push_back(rec);
    cdn::AssociationRecord tuple;
    tuple.day = g;
    tuple.asn4 = tuple.asn6 = assoc[g].asn = 7;
    assoc[g].records.push_back(tuple);
  }
  io::ReaderOptions opts;
  opts.max_day = kGroups;
  const std::string echo_bytes = io::encode_echo_columnar(echo).bytes;
  const std::string assoc_bytes = io::encode_assoc_columnar(assoc).bytes;
  auto seconds_since = [](std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };

  auto t0 = std::chrono::steady_clock::now();
  auto probes = io::decode_echo_columnar(echo_bytes, opts);
  EXPECT_LT(seconds_since(t0), 2.0);
  ASSERT_TRUE(probes.ok()) << probes.status().to_string();
  ASSERT_EQ(probes->size(), 1u);
  const auto& records = (*probes)[0].records;
  ASSERT_EQ(records.size(), kGroups);
  bool intact = true;
  for (std::uint32_t g = 0; g < kGroups; ++g)
    intact = intact && records[g].probe_id == 42 && records[g].hour == g / 2 &&
             records[g].family == echo[g].records[0].family;
  EXPECT_TRUE(intact);

  t0 = std::chrono::steady_clock::now();
  auto logs = io::decode_assoc_columnar(assoc_bytes, opts);
  EXPECT_LT(seconds_since(t0), 2.0);
  ASSERT_TRUE(logs.ok()) << logs.status().to_string();
  ASSERT_EQ(logs->size(), 1u);
  const auto& tuples = (*logs)[0].records;
  ASSERT_EQ(tuples.size(), kGroups);
  intact = true;
  for (std::uint32_t g = 0; g < kGroups; ++g)
    intact = intact && tuples[g].day == g && tuples[g].asn6 == 7;
  EXPECT_TRUE(intact);
}

TEST(ColumnarCodec, ColumnCrcsMatchCheckpointCrc32) {
  auto dataset = echo_fixture(0.02);
  std::string bytes = io::encode_echo_columnar(dataset).bytes;
  ASSERT_GT(bytes.size(), 48u);
  auto u32_at = [&](std::size_t off) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= std::uint32_t(std::uint8_t(bytes[off + std::size_t(i)]))
           << (8 * i);
    return v;
  };
  auto u64_at = [&](std::size_t off) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= std::uint64_t(std::uint8_t(bytes[off + std::size_t(i)]))
           << (8 * i);
    return v;
  };
  const std::uint32_t ncols = u32_at(32);
  ASSERT_GT(ncols, 0u);
  std::size_t checked = 0;
  for (std::uint32_t c = 0; c < ncols; ++c) {
    const std::size_t entry = 36 + std::size_t(c) * 24;
    const std::uint64_t offset = u64_at(entry + 4);
    const std::uint64_t length = u64_at(entry + 12);
    const std::uint32_t crc = u32_at(entry + 20);
    ASSERT_LE(offset + length, bytes.size());
    EXPECT_EQ(crc, io::ckpt::crc32(std::string_view(bytes)
                                       .substr(offset, length)))
        << "column " << c;
    ++checked;
  }
  EXPECT_EQ(checked, ncols);
  // Header CRC too: everything before the trailing u32 of the header.
  const std::size_t header_size = 36 + std::size_t(ncols) * 24 + 4;
  EXPECT_EQ(u32_at(header_size - 4),
            io::ckpt::crc32(
                std::string_view(bytes).substr(0, header_size - 4)));
}

// ------------------------------------------------------ corruption safety

/// Field-by-field equality of two association datasets.
::testing::AssertionResult same_assoc(
    const std::vector<cdn::AssociationLog>& a,
    const std::vector<cdn::AssociationLog>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << a.size() << " logs, want " << b.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].asn != b[i].asn || a[i].mobile != b[i].mobile ||
        a[i].registry != b[i].registry ||
        a[i].records.size() != b[i].records.size())
      return ::testing::AssertionFailure() << "log " << i << " differs";
    for (std::size_t r = 0; r < a[i].records.size(); ++r) {
      const cdn::AssociationRecord& x = a[i].records[r];
      const cdn::AssociationRecord& y = b[i].records[r];
      if (x.day != y.day || !(x.v4_24 == y.v4_24) || !(x.v6_64 == y.v6_64) ||
          x.asn4 != y.asn4 || x.asn6 != y.asn6 || x.subscriber != y.subscriber)
        return ::testing::AssertionFailure()
               << "log " << i << " record " << r << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

// Flip a sample of single bytes across the file, plus every alignment
// padding byte. Every flip must either be rejected (kDataLoss for
// structural damage, kFailedPrecondition for version/kind skew) or — only
// for bytes in CRC-free alignment padding — decode to exactly the
// reference dataset. Never a crash, never silently wrong. The fixture is
// small, since every flip decodes the whole batch, but has several logs,
// rows in every column and padding between columns.
TEST(ColumnarCorruption, SampledByteFlipsNeverYieldWrongData) {
  auto dataset = assoc_fixture(0.002);
  ASSERT_GE(dataset.size(), 3u);
  const std::string clean = io::encode_assoc_columnar(dataset).bytes;
  auto reference = io::decode_assoc_columnar(clean);
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(reference.value().size(), dataset.size());

  // The directory (see patch_column): the padding is every byte between
  // the header and the first column or between two columns.
  auto u64_at = [&](std::size_t off) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= std::uint64_t(std::uint8_t(clean[off + std::size_t(i)]))
           << (8 * i);
    return v;
  };
  const std::uint32_t ncols = std::uint8_t(clean[32]);  // < 64 columns
  std::vector<bool> padding(clean.size(), false);
  std::size_t end = 36 + std::size_t(ncols) * 24 + 4;
  for (std::uint32_t c = 0; c < ncols; ++c) {
    const std::size_t entry = 36 + std::size_t(c) * 24;
    const std::uint64_t offset = u64_at(entry + 4);
    const std::uint64_t length = u64_at(entry + 12);
    EXPECT_GT(length, 0u) << "column " << c;
    ASSERT_GE(offset, end) << "column " << c;
    for (std::size_t pos = end; pos < offset; ++pos) padding[pos] = true;
    end = std::size_t(offset + length);
  }
  ASSERT_EQ(end, clean.size());
  ASSERT_GT(std::count(padding.begin(), padding.end(), true), 0);

  const std::size_t stride = clean.size() > 4096 ? clean.size() / 4096 : 1;
  std::size_t accepted = 0;
  for (std::size_t pos = 0; pos < clean.size(); ++pos) {
    if (pos % stride != 0 && !padding[pos]) continue;
    std::string bent = clean;
    bent[pos] = char(std::uint8_t(bent[pos]) ^ 0x20);
    auto out = io::decode_assoc_columnar(bent);
    if (out.ok()) {
      // Padding byte: tolerated, but the payload must be untouched.
      ++accepted;
      EXPECT_TRUE(padding[pos]) << "flip at " << pos;
      EXPECT_TRUE(same_assoc(out.value(), reference.value()))
          << "flip at " << pos;
      continue;
    }
    EXPECT_TRUE(out.status().code() == core::StatusCode::kDataLoss ||
                out.status().code() == core::StatusCode::kFailedPrecondition)
        << "flip at " << pos << ": " << out.status().to_string();
  }
  EXPECT_GT(accepted, 0u) << "no flip reached the dataset comparison";
}

TEST(ColumnarCorruption, EveryTruncationRejected) {
  const std::string clean = io::encode_echo_columnar(echo_fixture(0.02)).bytes;
  const std::size_t stride = clean.size() > 512 ? clean.size() / 512 : 1;
  for (std::size_t keep = 0; keep < clean.size(); keep += stride) {
    auto out = io::decode_echo_columnar(clean.substr(0, keep));
    EXPECT_FALSE(out.ok()) << "truncated to " << keep;
    if (!out.ok()) {
      EXPECT_EQ(out.status().code(), core::StatusCode::kDataLoss)
          << "truncated to " << keep << ": " << out.status().to_string();
    }
  }
}

TEST(ColumnarCorruption, KindMismatchIsFailedPrecondition) {
  const std::string echo = io::encode_echo_columnar(echo_fixture(0.02)).bytes;
  auto out = io::decode_assoc_columnar(echo);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), core::StatusCode::kFailedPrecondition);
}

TEST(ColumnarCorruption, VersionSkewIsFailedPrecondition) {
  std::string bytes = io::encode_echo_columnar(echo_fixture(0.02)).bytes;
  // Patch the version field (offset 8) and re-seal the header CRC so the
  // *only* defect is the version — must be kFailedPrecondition ("rebuild
  // the file"), not kDataLoss ("the file is damaged").
  bytes[8] = 2;
  auto u32_at = [&](std::size_t off) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= std::uint32_t(std::uint8_t(bytes[off + std::size_t(i)]))
           << (8 * i);
    return v;
  };
  const std::uint32_t ncols = u32_at(32);
  const std::size_t header_size = 36 + std::size_t(ncols) * 24 + 4;
  const std::uint32_t crc = io::ckpt::crc32(
      std::string_view(bytes).substr(0, header_size - 4));
  for (int i = 0; i < 4; ++i)
    bytes[header_size - 4 + std::size_t(i)] = char((crc >> (8 * i)) & 0xFF);
  auto out = io::decode_echo_columnar(bytes);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), core::StatusCode::kFailedPrecondition)
      << out.status().to_string();
}

/// Rewrite directory entry `index` of an encoded batch — its tag and its
/// length — and re-seal that column's CRC over the new length and the
/// header CRC, so the edit is the batch's only defect.
void patch_entry(std::string& bytes, std::size_t index, std::uint32_t tag,
                 std::uint64_t length) {
  const std::size_t entry = 36 + index * 24;
  auto store = [&](std::size_t off, std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i)
      bytes[off + std::size_t(i)] = char((v >> (8 * i)) & 0xFF);
  };
  std::uint64_t offset = 0;
  for (int i = 0; i < 8; ++i)
    offset |= std::uint64_t(std::uint8_t(bytes[entry + 4 + std::size_t(i)]))
              << (8 * i);
  store(entry, tag, 4);
  store(entry + 12, length, 8);
  store(entry + 20,
        io::ckpt::crc32(std::string_view(bytes).substr(offset, length)), 4);
  const std::size_t ncols = std::uint8_t(bytes[32]);
  const std::size_t header_size = 36 + ncols * 24 + 4;
  store(header_size - 4,
        io::ckpt::crc32(std::string_view(bytes).substr(0, header_size - 4)),
        4);
}

/// Each directory entry's tag and length, in directory order.
std::vector<std::pair<std::uint32_t, std::uint64_t>> directory(
    const std::string& bytes) {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> out;
  for (std::size_t c = 0; c < std::uint8_t(bytes[32]); ++c) {
    const char* e = bytes.data() + 36 + c * 24;
    out.emplace_back(io::ckpt::load_le32(e), io::ckpt::load_le64(e + 12));
  }
  return out;
}

// Every column of either kind is required, and every fixed-width one must
// hold exactly its rows' bytes: a renamed entry is a missing column, an
// entry one byte short or long is named with both lengths, and a repeated
// tag is a duplicate — each a kDataLoss naming the column. The group-tag
// column has no fixed width, so only its presence is checked.
template <class Decode>
void expect_every_column_required(const std::string& clean,
                                  std::vector<std::string> tags,
                                  Decode decode) {
  const auto dir = directory(clean);
  ASSERT_EQ(dir.size(), tags.size());
  auto expect_refused = [&](const std::string& bytes,
                            const std::string& message) {
    auto out = decode(bytes);
    ASSERT_FALSE(out.ok()) << message;
    EXPECT_EQ(out.status().code(), core::StatusCode::kDataLoss) << message;
    EXPECT_NE(out.status().message().find(message), std::string::npos)
        << out.status().to_string();
  };
  for (std::size_t c = 0; c < dir.size(); ++c) {
    const auto [tag, length] = dir[c];
    const std::string name = io::ckpt::fourcc_name(tag);
    EXPECT_EQ(name, tags[c]);

    std::string renamed = clean;
    patch_entry(renamed, c, io::ckpt::fourcc('Z', 'Z', 'Z', 'Z'), length);
    expect_refused(renamed, "missing column " + name);

    std::string repeated = clean;
    const std::size_t other = c == 0 ? 1 : c - 1;
    patch_entry(repeated, other, tag, dir[other].second);
    expect_refused(repeated, "duplicate column " + name);

    if (name == "GTAG") continue;
    ASSERT_GT(length, 0u) << name;
    // One byte short, and one byte long except for the last column, whose
    // payload ends the file.
    for (std::uint64_t wrong : {length - 1, length + 1}) {
      if (wrong > length && c + 1 == dir.size()) continue;
      std::string resized = clean;
      patch_entry(resized, c, tag, wrong);
      expect_refused(resized, "column " + name + " holds " +
                                  std::to_string(wrong) + " bytes, expected " +
                                  std::to_string(length));
    }
  }
}

TEST(ColumnarCorruption, EveryColumnIsRequiredAndSized) {
  expect_every_column_required(
      io::encode_echo_columnar(echo_fixture(0.02)).bytes,
      {"GPID", "GCNT", "GTAG", "HOUR", "FAM_", "X4__", "S4__", "X6HI", "X6LO",
       "S6HI", "S6LO"},
      [](const std::string& b) { return io::decode_echo_columnar(b); });
  expect_every_column_required(
      io::encode_assoc_columnar(assoc_fixture(0.02)).bytes,
      {"GASN", "GCNT", "DAY_", "V4A_", "V4L_", "V6HI", "V6LO", "V6L_", "AS4_",
       "AS6_"},
      [](const std::string& b) { return io::decode_assoc_columnar(b); });
}

TEST(ColumnarFiles, MissingFileIsNotFound) {
  auto out = io::load_echo_file(temp_path("never_written.col"));
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), core::StatusCode::kNotFound);
}

// A directory is neither dataset format: as `.csv` or `.col`, for either
// kind, the load fails naming the path instead of yielding an empty
// dataset or escaping as an exception.
TEST(ColumnarFiles, DirectoryIsRefusedNamingThePath) {
  for (const char* name : {"dir_in.csv", "dir_in.col"}) {
    const std::string path = temp_path(name);
    std::filesystem::create_directories(path);
    auto echo = io::load_echo_file(path);
    ASSERT_FALSE(echo.ok()) << path;
    EXPECT_EQ(echo.status().code(), core::StatusCode::kInvalidArgument);
    EXPECT_NE(echo.status().message().find(path), std::string::npos)
        << echo.status().to_string();
    auto assoc = io::load_assoc_file(path);
    ASSERT_FALSE(assoc.ok()) << path;
    EXPECT_EQ(assoc.status().code(), core::StatusCode::kInvalidArgument);
    EXPECT_NE(assoc.status().message().find(path), std::string::npos)
        << assoc.status().to_string();
  }
}

#ifdef __unix__
// A `.col` path may name a FIFO (`cat batch.col > p.col &`): it has no size
// up front, so it is read to its end, and loads what the file loads.
TEST(ColumnarFiles, NamedPipeLoadsLikeTheFile) {
  const std::string bytes = io::encode_echo_columnar(echo_fixture()).bytes;
  ASSERT_GT(bytes.size(), std::size_t(1) << 17);  // several pipe buffers
  const std::string file = temp_path("fifo_source.col");
  write_raw(file, bytes);
  const std::string fifo = temp_path("fifo_in.col");
  std::filesystem::remove(fifo);
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  std::thread writer([&] {
    // A loader that stops reading early fails this thread's write with
    // EPIPE instead of raising SIGPIPE in the test process.
    sigset_t pipe;
    sigemptyset(&pipe);
    sigaddset(&pipe, SIGPIPE);
    pthread_sigmask(SIG_BLOCK, &pipe, nullptr);
    const int fd = ::open(fifo.c_str(), O_WRONLY);  // waits for the loader
    for (std::size_t at = 0; fd >= 0 && at < bytes.size();) {
      const ssize_t n = ::write(fd, bytes.data() + at, bytes.size() - at);
      if (n <= 0) break;
      at += std::size_t(n);
    }
    if (fd >= 0) ::close(fd);
  });
  io::IngestStats piped_stats, file_stats;
  auto piped = io::load_echo_file(fifo, {}, &piped_stats);
  writer.join();
  auto from_file = io::load_echo_file(file, {}, &file_stats);
  ASSERT_TRUE(piped.ok()) << piped.status().to_string();
  ASSERT_TRUE(from_file.ok()) << from_file.status().to_string();
  EXPECT_EQ(io::encode_echo_columnar(*piped).bytes,
            io::encode_echo_columnar(*from_file).bytes);
  EXPECT_EQ(piped_stats.records_accepted, file_stats.records_accepted);
  EXPECT_EQ(piped_stats.lines_seen, file_stats.lines_seen);
}
#endif

TEST(ColumnarFiles, ExtensionDispatch) {
  EXPECT_TRUE(io::is_columnar_path("batch-000.col"));
  EXPECT_FALSE(io::is_columnar_path("batch-000.csv"));
  EXPECT_FALSE(io::is_columnar_path("colfile.txt"));
  EXPECT_FALSE(io::is_columnar_path("col"));
}

// ------------------------------------------------- shared reject ledger

// Row-level implausibilities in a columnar batch count against the SAME
// error budget as CSV line rejects: the consecutive-reject cap and the
// reject-fraction budget trip with the same kDataLoss statuses.
TEST(ColumnarBudget, ConsecutiveRejectCapTrips) {
  std::vector<atlas::ProbeSeries> dataset(1);
  dataset[0].meta.probe_id = 42;
  for (std::uint64_t i = 0; i < 40; ++i) {
    atlas::EchoRecord rec;
    rec.probe_id = 42;
    rec.hour = 1000000 + i;  // far over ReaderOptions::max_hour
    rec.family = atlas::Family::kV4;
    dataset[0].records.push_back(rec);
  }
  io::ReaderOptions opts;
  opts.max_consecutive_rejects = 10;
  io::IngestStats stats;
  auto out = io::decode_echo_columnar(io::encode_echo_columnar(dataset).bytes,
                                      opts, &stats);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), core::StatusCode::kDataLoss);
  EXPECT_GT(stats.rejects_for(io::RejectReason::kOutOfRange), 0u);
}

TEST(ColumnarBudget, RejectFractionBudgetTrips) {
  std::vector<cdn::AssociationLog> dataset(1);
  dataset[0].asn = 7;
  for (std::uint32_t i = 0; i < 100; ++i) {
    cdn::AssociationRecord rec;
    rec.day = i < 10 ? 9000000u : i;  // 10% out of range vs 1% budget
    rec.asn4 = 7;
    rec.asn6 = 7;
    dataset[0].records.push_back(rec);
  }
  io::ReaderOptions opts;
  opts.max_consecutive_rejects = 1000;  // don't trip the cap, only budget
  io::IngestStats stats;
  auto out = io::decode_assoc_columnar(io::encode_assoc_columnar(dataset).bytes,
                                       opts, &stats);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), core::StatusCode::kDataLoss);
  EXPECT_EQ(stats.rejects_for(io::RejectReason::kOutOfRange), 10u);
  EXPECT_EQ(stats.records_accepted, 90u);
}

TEST(ColumnarBudget, QuarantineReceivesDecimalRendering) {
  std::vector<cdn::AssociationLog> dataset(1);
  dataset[0].asn = 7;
  cdn::AssociationRecord bad;
  bad.day = 9000000;
  bad.asn4 = 1;
  bad.asn6 = 2;
  dataset[0].records.push_back(bad);
  cdn::AssociationRecord good;
  good.day = 5;
  good.asn4 = 1;
  good.asn6 = 2;
  for (int i = 0; i < 200; ++i) {
    good.day = std::uint32_t(5 + i);
    dataset[0].records.push_back(good);
  }
  std::ostringstream qt;
  io::ReaderOptions opts;
  opts.quarantine = &qt;
  opts.source_label = "unit.col";
  io::IngestStats stats;
  auto out = io::decode_assoc_columnar(io::encode_assoc_columnar(dataset).bytes,
                                       opts, &stats);
  ASSERT_TRUE(out.ok()) << out.status().to_string();
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_NE(qt.str().find("unit.col"), std::string::npos);
  EXPECT_NE(qt.str().find("out_of_range"), std::string::npos);
  EXPECT_NE(qt.str().find("9000000"), std::string::npos);
}

// A row that is both out of range and of an invalid family must get the
// same reason from a .col batch as from the CSV line: both readers check
// the hour range first (out_of_range), then the family (bad_number). The
// batch is patched by hand, with its column and header CRCs re-sealed.
TEST(ColumnarBudget, EchoRejectOrderMatchesCsvReader) {
  std::vector<atlas::ProbeSeries> dataset(1);
  dataset[0].meta.probe_id = 42;
  for (std::uint64_t hour : {1u, 2u, 1000000u}) {
    atlas::EchoRecord rec;
    rec.probe_id = 42;
    rec.hour = hour;
    rec.family = atlas::Family::kV4;
    rec.x_client_ip4 = *net::IPv4Address::parse("80.1.2.3");
    rec.src_addr4 = *net::IPv4Address::parse("192.168.1.5");
    dataset[0].records.push_back(rec);
  }
  std::string bytes = io::encode_echo_columnar(dataset).bytes;
  patch_column(bytes, "FAM_", {{1, 5}, {2, 5}});  // rows 2 and 3: family 5

  io::ReaderOptions opts;
  opts.max_reject_fraction = 1.0;
  io::IngestStats col_stats;
  auto from_col = io::decode_echo_columnar(bytes, opts, &col_stats);
  ASSERT_TRUE(from_col.ok()) << from_col.status().to_string();

  std::istringstream csv(
      "probe_id,hour,family,x_client_ip,src_addr\n"
      "42,1,4,80.1.2.3,192.168.1.5\n"
      "42,2,5,80.1.2.3,192.168.1.5\n"
      "42,1000000,5,80.1.2.3,192.168.1.5\n");
  io::IngestStats csv_stats;
  auto from_csv = io::read_echo_dataset(csv, opts, &csv_stats);
  ASSERT_TRUE(from_csv.ok()) << from_csv.status().to_string();

  EXPECT_EQ(csv_stats.rejects_for(io::RejectReason::kOutOfRange), 1u);
  EXPECT_EQ(csv_stats.rejects_for(io::RejectReason::kBadNumber), 1u);
  for (std::size_t r = 0; r < io::kRejectReasonCount; ++r)
    EXPECT_EQ(col_stats.rejects[r], csv_stats.rejects[r])
        << io::reject_reason_name(io::RejectReason(r));
  EXPECT_EQ(col_stats.records_accepted, 1u);
}

// The assoc analog: the same logical rows as CSV lines and as a DYNCOL1
// batch — an out-of-range day, an out-of-range prefix length, a row with
// both (the day range is checked first), and, with dedup on, an adjacent
// repeat — give the same reasons in the same order, the same accounting
// and the same dataset. With no header or `#log` line in the CSV, line
// numbers and row numbers coincide.
TEST(ColumnarBudget, AssocRejectOrderMatchesCsvReader) {
  std::vector<cdn::AssociationLog> dataset(1);
  dataset[0].asn = 7;
  for (std::uint32_t day : {1u, 99999u, 2u, 99999u, 3u, 3u, 4u}) {
    cdn::AssociationRecord rec;
    rec.day = day;
    rec.v4_24 = *net::Prefix4::parse("80.1.2.0/24");
    rec.v6_64 = *net::Prefix6::parse("2003:ec57:11:2200::/64");
    rec.asn4 = rec.asn6 = 7;
    dataset[0].records.push_back(rec);
  }
  std::string bytes = io::encode_assoc_columnar(dataset).bytes;
  patch_column(bytes, "V4L_", {{2, 33}, {3, 33}});  // rows 3 and 4: /33

  io::ReaderOptions opts;
  opts.max_reject_fraction = 1.0;
  opts.assoc_dedup_adjacent = true;
  io::IngestStats col_stats;
  auto from_col = io::decode_assoc_columnar(bytes, opts, &col_stats);
  ASSERT_TRUE(from_col.ok()) << from_col.status().to_string();

  std::istringstream csv(
      "1,80.1.2.0/24,2003:ec57:11:2200::/64,7,7\n"
      "99999,80.1.2.0/24,2003:ec57:11:2200::/64,7,7\n"
      "2,80.1.2.0/33,2003:ec57:11:2200::/64,7,7\n"
      "99999,80.1.2.0/33,2003:ec57:11:2200::/64,7,7\n"
      "3,80.1.2.0/24,2003:ec57:11:2200::/64,7,7\n"
      "3,80.1.2.0/24,2003:ec57:11:2200::/64,7,7\n"
      "4,80.1.2.0/24,2003:ec57:11:2200::/64,7,7\n");
  io::IngestStats csv_stats;
  auto from_csv = io::read_assoc_dataset(csv, opts, &csv_stats);
  ASSERT_TRUE(from_csv.ok()) << from_csv.status().to_string();

  using R = io::RejectReason;
  const std::vector<std::pair<std::uint64_t, R>> want = {
      {2, R::kOutOfRange}, {3, R::kBadAddress}, {4, R::kOutOfRange},
      {6, R::kDuplicate}};
  for (const io::IngestStats* stats : {&csv_stats, &col_stats}) {
    std::vector<std::pair<std::uint64_t, R>> got;
    for (const auto& r : stats->first_rejects)
      got.emplace_back(r.line_number, r.reason);
    EXPECT_EQ(got, want);
  }
  EXPECT_EQ(col_stats.rejects, csv_stats.rejects);
  EXPECT_EQ(col_stats.lines_seen, csv_stats.lines_seen);
  EXPECT_EQ(col_stats.data_lines, csv_stats.data_lines);
  EXPECT_EQ(col_stats.records_accepted, 3u);
  EXPECT_EQ(col_stats.records_accepted, csv_stats.records_accepted);
  std::ostringstream a, b;
  io::write_assoc_dataset(a, *from_csv);
  io::write_assoc_dataset(b, *from_col);
  EXPECT_EQ(a.str(), b.str());
}

// The echo duplicate rule, through CSV and DYNCOL1 alike. Probe 42's hours
// 5, 3, 5, 4, 3, 6 in each family go back in time at the second row, so
// its later repeats of 5 (admitted in order, before that row) and of 3 are
// caught by the exact check, and so is its last row, a repeat of the
// in-order hour 6 after that. Probe 43 repeats an in-order hour at once.
// With no header or `#probe` line in the CSV, line numbers and row numbers
// coincide.
TEST(ColumnarBudget, EchoDuplicateRuleMatchesCsvReader) {
  using F = atlas::Family;
  const std::vector<std::tuple<std::uint32_t, std::uint64_t, F>> rows = {
      {42, 5, F::kV4}, {42, 3, F::kV4}, {42, 5, F::kV4}, {42, 4, F::kV4},
      {42, 3, F::kV4}, {42, 6, F::kV4}, {42, 5, F::kV6}, {42, 3, F::kV6},
      {42, 5, F::kV6}, {42, 4, F::kV6}, {42, 3, F::kV6}, {42, 6, F::kV6},
      {42, 6, F::kV4}, {43, 7, F::kV4}, {43, 7, F::kV4}, {43, 8, F::kV4}};
  std::vector<atlas::ProbeSeries> dataset(2);
  dataset[0].meta.probe_id = 42;
  dataset[1].meta.probe_id = 43;
  std::string csv_text;
  for (const auto& [probe, hour, family] : rows) {
    atlas::EchoRecord rec;
    rec.probe_id = probe;
    rec.hour = hour;
    rec.family = family;
    rec.x_client_ip4 = *net::IPv4Address::parse("80.1.2.3");
    rec.src_addr4 = *net::IPv4Address::parse("192.168.1.5");
    rec.x_client_ip6 = *net::IPv6Address::parse("2003:ec57:11:2200::1");
    rec.src_addr6 = rec.x_client_ip6;
    dataset[probe - 42].records.push_back(rec);
    csv_text += io::to_csv(rec) + "\n";
  }

  io::ReaderOptions opts;
  opts.max_reject_fraction = 1.0;
  std::ostringstream col_quarantine, csv_quarantine;
  io::IngestStats col_stats, csv_stats;
  opts.quarantine = &col_quarantine;
  auto from_col = io::decode_echo_columnar(
      io::encode_echo_columnar(dataset).bytes, opts, &col_stats);
  ASSERT_TRUE(from_col.ok()) << from_col.status().to_string();
  opts.quarantine = &csv_quarantine;
  std::istringstream csv(csv_text);
  auto from_csv = io::read_echo_dataset(csv, opts, &csv_stats);
  ASSERT_TRUE(from_csv.ok()) << from_csv.status().to_string();

  // Rows 3, 5, 9 and 11 repeat probe 42's hours 5 and 3, row 13 its hour
  // 6, and row 15 probe 43's hour 7.
  const std::vector<std::uint64_t> dups = {3, 5, 9, 11, 13, 15};
  for (const io::IngestStats* stats : {&csv_stats, &col_stats}) {
    std::vector<std::uint64_t> got;
    for (const auto& r : stats->first_rejects) {
      EXPECT_EQ(r.reason, io::RejectReason::kDuplicate);
      got.push_back(r.line_number);
    }
    EXPECT_EQ(got, std::vector<std::uint64_t>(
                       dups.begin(), dups.begin() + io::kKeepFirstRejects));
  }
  // "position,reason" of every quarantine row; the source label is empty
  // and the text column differs by format.
  auto quarantined = [](const std::ostringstream& q) {
    std::vector<std::string> out;
    std::istringstream in(q.str());
    for (std::string line; std::getline(in, line);) {
      const auto f = io::split_csv(line, 4);
      out.push_back(std::string(f[1]) + "," + std::string(f[2]));
    }
    return out;
  };
  std::vector<std::string> all;
  for (std::uint64_t pos : dups)
    all.push_back(std::to_string(pos) + ",duplicate");
  EXPECT_EQ(quarantined(csv_quarantine), all);
  EXPECT_EQ(quarantined(col_quarantine), all);
  EXPECT_EQ(col_stats.rejects, csv_stats.rejects);
  EXPECT_EQ(col_stats.rejects_for(io::RejectReason::kDuplicate), 6u);
  EXPECT_EQ(col_stats.lines_seen, csv_stats.lines_seen);
  EXPECT_EQ(col_stats.data_lines, csv_stats.data_lines);
  EXPECT_EQ(col_stats.records_accepted, 10u);
  EXPECT_EQ(col_stats.records_accepted, csv_stats.records_accepted);
  std::ostringstream a, b;
  io::write_echo_dataset(a, *from_csv);
  io::write_echo_dataset(b, *from_col);
  EXPECT_EQ(a.str(), b.str());
  // Time order restored stably: each hour's v4 record before its v6 one.
  std::vector<std::pair<std::uint64_t, F>> probe42;
  for (const auto& rec : (*from_col)[0].records)
    probe42.emplace_back(rec.hour, rec.family);
  const std::vector<std::pair<std::uint64_t, F>> sorted = {
      {3, F::kV4}, {3, F::kV6}, {4, F::kV4}, {4, F::kV6}, {5, F::kV4},
      {5, F::kV6}, {6, F::kV4}, {6, F::kV6}};
  EXPECT_EQ(probe42, sorted);
}

// ------------------------------------------------ thread-count identity
//
// A batch decodes with no executor, or on one with 1 or 4 threads: the
// column CRCs are parallel tasks, echo probes decode one per task, and the
// rejects are replayed in row order. Each decode must report the same
// Status text, every IngestStats field (first_rejects included), the same
// quarantine bytes and ingest.* counters, and the same dataset.

/// Everything one decode reports.
struct Decoded {
  std::string status;
  std::string dataset;  // re-encoded, when the batch loaded
  std::string quarantine;
  std::string counters;  // "name=value" lines
  io::IngestStats stats;
};

template <class Decode, class Encode>
Decoded decode_once(const std::string& bytes, io::ReaderOptions opts,
                    core::ShardExecutor* exec, Decode decode, Encode encode) {
  Decoded out;
  std::ostringstream quarantine;
  obs::MetricsSink metrics;
  opts.quarantine = &quarantine;
  opts.metrics = &metrics;
  opts.source_label = "batch.col";
  auto data = decode(bytes, opts, &out.stats, exec);
  out.status = data.status().to_string();
  if (data.ok()) out.dataset = encode(*data);
  out.quarantine = quarantine.str();
  for (const auto& [name, counter] : metrics.counters())
    out.counters += name + "=" + std::to_string(counter.value) + "\n";
  return out;
}

core::ShardExecutor& pool(unsigned threads) {
  static core::ShardExecutor one(1), two(2), four(4);
  return threads == 1 ? one : threads == 2 ? two : four;
}

/// Decode `bytes` with no executor, then on 1 and on 4 threads, expecting
/// the same report each time; returns the first.
template <class Decode, class Encode>
Decoded expect_thread_invariant(const std::string& bytes,
                                const io::ReaderOptions& opts, Decode decode,
                                Encode encode, const std::string& what) {
  const Decoded serial = decode_once(bytes, opts, nullptr, decode, encode);
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(what + " on " + std::to_string(threads) + " threads");
    const Decoded got =
        decode_once(bytes, opts, &pool(threads), decode, encode);
    EXPECT_EQ(got.status, serial.status);
    EXPECT_TRUE(got.dataset == serial.dataset);
    EXPECT_EQ(got.quarantine, serial.quarantine);
    EXPECT_EQ(got.counters, serial.counters);
    EXPECT_TRUE(got.stats == serial.stats)
        << got.stats.summary() << " vs " << serial.stats.summary();
  }
  return serial;
}

const auto decode_echo = [](auto&&... a) {
  return io::decode_echo_columnar(a...);
};
const auto encode_echo = [](const auto& d) {
  return io::encode_echo_columnar(d).bytes;
};
const auto decode_assoc = [](auto&&... a) {
  return io::decode_assoc_columnar(a...);
};
const auto encode_assoc = [](const auto& d) {
  return io::encode_assoc_columnar(d).bytes;
};

/// Seed `seed`'s error budget: loose, tripped by a run of rejects, or
/// tripped by the reject fraction (the last two only when the batch has
/// enough rejects).
io::ReaderOptions seeded_budget(std::uint64_t seed) {
  io::ReaderOptions opts;
  opts.max_hour = 1000;
  opts.max_day = 500;
  opts.assoc_dedup_adjacent = seed % 2 == 0;
  opts.max_reject_fraction = 1.0;
  opts.max_consecutive_rejects = 1000000;
  if (seed % 3 == 1) opts.max_consecutive_rejects = seed % 4;
  if (seed % 3 == 2) opts.max_reject_fraction = 0.05;
  return opts;
}

/// A seeded echo batch: probes from a pool of five, repeated over
/// non-adjacent groups; hours that mostly move forward but go back in
/// time, repeat or pass `max_hour`; and a few rows of an invalid family.
std::string random_echo_batch(std::uint64_t seed, std::uint64_t max_hour) {
  std::mt19937_64 rng(seed);
  auto pick = [&](std::uint64_t n) { return rng() % n; };
  std::vector<atlas::ProbeSeries> groups(1 + pick(12));
  std::uint64_t rows = 0;
  for (auto& group : groups) {
    group.meta.probe_id = 100 + std::uint32_t(pick(5));
    if (pick(3) == 0)
      group.meta.tags = {
          core::tag_pool().intern("tag" + std::to_string(pick(3)))};
    std::uint64_t hour = pick(max_hour / 2);
    for (std::uint64_t n = pick(40); n > 0; --n, ++rows) {
      atlas::EchoRecord rec;
      rec.probe_id = group.meta.probe_id;
      switch (pick(10)) {
        case 0: hour = pick(hour + 1); break;  // back in time
        case 1: break;                         // the same hour again
        default: hour += 1 + pick(3);
      }
      rec.hour = pick(12) == 0 ? max_hour + 1 + pick(5) : hour;
      rec.family = pick(2) ? atlas::Family::kV6 : atlas::Family::kV4;
      rec.x_client_ip4 = net::IPv4Address(std::uint32_t(rng()));
      rec.src_addr4 = net::IPv4Address(std::uint32_t(rng()));
      rec.x_client_ip6 = net::IPv6Address(rng(), rng());
      rec.src_addr6 = net::IPv6Address(rng(), rng());
      group.records.push_back(rec);
    }
  }
  std::string bytes = io::encode_echo_columnar(groups).bytes;
  std::vector<std::pair<std::size_t, std::uint8_t>> bad_family;
  for (std::uint64_t r = 0; r < rows; ++r)
    if (pick(25) == 0) bad_family.emplace_back(r, 7);
  if (!bad_family.empty()) patch_column(bytes, "FAM_", bad_family);
  return bytes;
}

/// A seeded assoc batch: groups of three ASNs whose records sometimes
/// belong to another (asn6), days that pass `max_day`, adjacent repeats,
/// and a few rows of an invalid v4 prefix length.
std::string random_assoc_batch(std::uint64_t seed, std::uint32_t max_day) {
  std::mt19937_64 rng(seed);
  auto pick = [&](std::uint64_t n) { return rng() % n; };
  std::vector<cdn::AssociationLog> groups(1 + pick(8));
  std::uint64_t rows = 0;
  for (auto& group : groups) {
    group.asn = 7 + std::uint32_t(pick(3));
    cdn::AssociationRecord rec;
    for (std::uint64_t n = pick(40); n > 0; --n, ++rows) {
      if (pick(6) != 0) {  // else an adjacent repeat
        rec.day = pick(12) == 0 ? max_day + 1 : std::uint32_t(pick(max_day));
        rec.v4_24 = net::Prefix4(net::IPv4Address(std::uint32_t(rng())), 24);
        rec.v6_64 = net::Prefix6(net::IPv6Address(rng(), 0), 64);
        rec.asn4 = group.asn;
        rec.asn6 = pick(5) == 0 ? 7 + std::uint32_t(pick(3)) : group.asn;
      }
      group.records.push_back(rec);
    }
  }
  std::string bytes = io::encode_assoc_columnar(groups).bytes;
  std::vector<std::pair<std::size_t, std::uint8_t>> bad_length;
  for (std::uint64_t r = 0; r < rows; ++r)
    if (pick(25) == 0) bad_length.emplace_back(r, 33);
  if (!bad_length.empty()) patch_column(bytes, "V4L_", bad_length);
  return bytes;
}

TEST(ColumnarThreads, SeededEchoBatchesDecodeAlikeAtEveryThreadCount) {
  int loaded = 0, refused = 0;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    const io::ReaderOptions opts = seeded_budget(seed);
    const Decoded d =
        expect_thread_invariant(random_echo_batch(seed, opts.max_hour), opts,
                                decode_echo, encode_echo,
                                "echo seed " + std::to_string(seed));
    (d.status == "OK" ? loaded : refused)++;
  }
  EXPECT_GT(loaded, 50);
  EXPECT_GT(refused, 50);
  expect_thread_invariant(io::encode_echo_columnar(echo_fixture(0.02)).bytes,
                          {}, decode_echo, encode_echo, "echo fixture");
}

TEST(ColumnarThreads, SeededAssocBatchesDecodeAlikeAtEveryThreadCount) {
  int loaded = 0, refused = 0;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    const io::ReaderOptions opts = seeded_budget(seed);
    const Decoded d =
        expect_thread_invariant(random_assoc_batch(seed, opts.max_day), opts,
                                decode_assoc, encode_assoc,
                                "assoc seed " + std::to_string(seed));
    (d.status == "OK" ? loaded : refused)++;
  }
  EXPECT_GT(loaded, 50);
  EXPECT_GT(refused, 50);
}

// ------------------------------------------------- the encoder's oracle
//
// reference/columnar_encode.h is the three-pass serial encoder. The
// one-pass encoder must write its bytes with no executor and on 2 and 4
// threads, and return crc32() of them.

/// A field value at an extreme or at random.
std::uint64_t wide_value(std::mt19937_64& rng) {
  switch (rng() % 4) {
    case 0: return 0;
    case 1: return ~std::uint64_t(0);
    default: return rng();
  }
}

/// Seed `seed`'s item and row counts: items with no records, and for every
/// fourth seed counts that make every column a multiple of 64 bytes long.
std::uint64_t encoder_items(std::mt19937_64& rng, std::uint64_t seed) {
  return seed % 4 == 0 ? 16 * (rng() % 3) : rng() % 40;
}
std::uint64_t encoder_rows(std::mt19937_64& rng, std::uint64_t seed) {
  if (seed % 4 == 0) return 64 * (rng() % 3);
  return rng() % 3 == 0 ? 0 : rng() % 300;
}

std::vector<atlas::ProbeSeries> encoder_echo_dataset(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<atlas::ProbeSeries> items(encoder_items(rng, seed));
  for (auto& item : items) {
    item.meta.probe_id = std::uint32_t(wide_value(rng));
    for (std::uint64_t t = rng() % 4; t > 0; --t) {
      const std::uint64_t kind = rng() % 4;
      const std::string name = kind == 0   ? std::string()
                               : kind == 1 ? std::string(1024, 'a' + rng() % 26)
                                           : "tag" + std::to_string(rng() % 5);
      item.meta.tags.push_back(core::tag_pool().intern(name));
    }
    for (std::uint64_t n = encoder_rows(rng, seed); n > 0; --n) {
      atlas::EchoRecord rec;
      rec.probe_id = item.meta.probe_id;
      rec.hour = wide_value(rng);
      rec.family = rng() % 2 ? atlas::Family::kV6 : atlas::Family::kV4;
      rec.x_client_ip4 = net::IPv4Address(std::uint32_t(wide_value(rng)));
      rec.src_addr4 = net::IPv4Address(std::uint32_t(wide_value(rng)));
      rec.x_client_ip6 = net::IPv6Address(wide_value(rng), wide_value(rng));
      rec.src_addr6 = net::IPv6Address(wide_value(rng), wide_value(rng));
      item.records.push_back(rec);
    }
  }
  return items;
}

std::vector<cdn::AssociationLog> encoder_assoc_dataset(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<cdn::AssociationLog> items(encoder_items(rng, seed));
  for (auto& item : items) {
    item.asn = std::uint32_t(wide_value(rng));
    for (std::uint64_t n = encoder_rows(rng, seed); n > 0; --n) {
      cdn::AssociationRecord rec;
      rec.day = std::uint32_t(wide_value(rng));
      rec.v4_24 = net::Prefix4(net::IPv4Address(std::uint32_t(wide_value(rng))),
                               int(rng() % 33));
      rec.v6_64 = net::Prefix6(net::IPv6Address(wide_value(rng), 0),
                               int(rng() % 129));
      rec.asn4 = std::uint32_t(wide_value(rng));
      rec.asn6 = std::uint32_t(wide_value(rng));
      item.records.push_back(rec);
    }
  }
  return items;
}

template <class Dataset, class Encode>
void expect_reference_bytes(const Dataset& dataset, const std::string& want,
                            Encode encode, const std::string& what) {
  for (unsigned threads : {0u, 2u, 4u}) {
    SCOPED_TRACE(what + " on " + std::to_string(threads) + " threads");
    const io::EncodedBatch got =
        encode(dataset, threads == 0 ? nullptr : &pool(threads));
    EXPECT_TRUE(got.bytes == want);
    EXPECT_EQ(got.crc, io::ckpt::crc32(got.bytes));
  }
}

TEST(ColumnarEncoder, MatchesTheReferenceEncoderAtEveryThreadCount) {
  auto echo = [](const auto& d, core::ShardExecutor* exec) {
    return io::encode_echo_columnar(d, exec);
  };
  auto assoc = [](const auto& d, core::ShardExecutor* exec) {
    return io::encode_assoc_columnar(d, exec);
  };
  expect_reference_bytes(std::vector<atlas::ProbeSeries>{},
                         io::reference::encode_echo({}), echo, "empty echo");
  expect_reference_bytes(std::vector<cdn::AssociationLog>{},
                         io::reference::encode_assoc({}), assoc,
                         "empty assoc");
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    const auto echo_data = encoder_echo_dataset(seed);
    expect_reference_bytes(echo_data, io::reference::encode_echo(echo_data),
                           echo, "echo seed " + std::to_string(seed));
    const auto assoc_data = encoder_assoc_dataset(seed);
    expect_reference_bytes(assoc_data, io::reference::encode_assoc(assoc_data),
                           assoc, "assoc seed " + std::to_string(seed));
  }
  const auto echo_data = echo_fixture(0.02);
  expect_reference_bytes(echo_data, io::reference::encode_echo(echo_data),
                         echo, "echo fixture");
  const auto assoc_data = assoc_fixture(0.02);
  expect_reference_bytes(assoc_data, io::reference::encode_assoc(assoc_data),
                         assoc, "assoc fixture");
}

// With two damaged columns the first in directory order is named, at every
// thread count, although on several threads the larger, later column's CRC
// runs first.
TEST(ColumnarThreads, FirstDamagedColumnInDirectoryOrderIsNamed) {
  const std::string clean = io::encode_echo_columnar(echo_fixture(0.02)).bytes;
  const auto dir = directory(clean);
  auto index_of = [&](std::string_view tag) {
    for (std::size_t c = 0; c < dir.size(); ++c)
      if (io::ckpt::fourcc_name(dir[c].first) == tag) return c;
    ADD_FAILURE() << "no column " << tag;
    return std::size_t(0);
  };
  // Flip the first payload byte of `tag`, leaving its CRC stale.
  auto damage = [&](std::string& bytes, std::string_view tag) {
    const char* entry = clean.data() + 36 + index_of(tag) * 24;
    bytes[io::ckpt::load_le64(entry + 4)] ^= 0x01;
  };
  // Point `tag` past the end of the file, the header CRC re-sealed.
  auto overrun = [&](std::string& bytes, std::string_view tag) {
    const std::size_t c = index_of(tag);
    patch_entry(bytes, c, dir[c].first, bytes.size());
  };
  auto expect_named = [&](const std::string& bytes, const std::string& want) {
    const Decoded d = expect_thread_invariant(bytes, {}, decode_echo,
                                              encode_echo, want);
    EXPECT_NE(d.status.find(want), std::string::npos) << d.status;
  };

  std::string two_crcs = clean;
  damage(two_crcs, "FAM_");
  damage(two_crcs, "S6LO");
  expect_named(two_crcs, "column FAM_ checksum mismatch");

  std::string crc_then_bounds = clean;
  damage(crc_then_bounds, "HOUR");
  overrun(crc_then_bounds, "X6LO");
  expect_named(crc_then_bounds, "column HOUR checksum mismatch");

  std::string bounds_then_crc = clean;
  overrun(bounds_then_crc, "X4__");
  damage(bounds_then_crc, "S6HI");
  expect_named(bounds_then_crc, "column X4__ is out of bounds");
}

// --------------------------------------- end-to-end study byte-identity
//
// The acceptance criterion for the format: feeding the studies from `.col`
// files produces result CSVs byte-identical to the `.csv` path, at thread
// counts 1 and 4.

TEST(ColumnarStudy, AtlasCsvAndColumnarByteIdentical) {
  auto dataset = echo_fixture();
  const std::string csv_path = temp_path("atlas_in.csv");
  {
    std::ofstream os(csv_path, std::ios::trunc);
    io::write_echo_dataset(os, dataset);
  }
  const std::string col_path = temp_path("atlas_in.col");
  ASSERT_TRUE(io::write_echo_columnar(col_path, dataset).ok());

  auto isps = simnet::paper_isps();
  isps.resize(3);
  std::string reference;
  for (unsigned threads : {1u, 4u}) {
    core::AtlasFileStudyConfig cfg;
    cfg.threads = threads;
    auto from_csv =
        core::run_atlas_study_from_files({csv_path}, isps, cfg);
    ASSERT_TRUE(from_csv.ok()) << from_csv.status().to_string();
    io::IngestStats stats;
    auto from_col =
        core::run_atlas_study_from_files({col_path}, isps, cfg, &stats);
    ASSERT_TRUE(from_col.ok()) << from_col.status().to_string();
    EXPECT_EQ(atlas_bytes(from_col.value()), atlas_bytes(from_csv.value()))
        << "threads=" << threads;
    EXPECT_GT(stats.records_accepted, 0u);
    if (reference.empty())
      reference = atlas_bytes(from_csv.value());
    else
      EXPECT_EQ(atlas_bytes(from_csv.value()), reference);
  }
}

TEST(ColumnarStudy, CdnCsvAndColumnarByteIdentical) {
  auto dataset = assoc_fixture();
  const std::string csv_path = temp_path("cdn_in.csv");
  {
    std::ofstream os(csv_path, std::ios::trunc);
    io::write_assoc_dataset(os, dataset);
  }
  const std::string col_path = temp_path("cdn_in.col");
  ASSERT_TRUE(io::write_assoc_columnar(col_path, dataset).ok());

  for (unsigned threads : {1u, 4u}) {
    core::CdnFileStudyConfig cfg;
    cfg.threads = threads;
    auto from_csv = core::run_cdn_study_from_files({csv_path}, cfg);
    ASSERT_TRUE(from_csv.ok()) << from_csv.status().to_string();
    auto from_col = core::run_cdn_study_from_files({col_path}, cfg);
    ASSERT_TRUE(from_col.ok()) << from_col.status().to_string();
    EXPECT_EQ(cdn_bytes(from_col.value()), cdn_bytes(from_csv.value()))
        << "threads=" << threads;
  }
}

// A damaged columnar file fed through the study path fails the run with
// kDataLoss — the same contract as an over-budget CSV — and never crashes.
TEST(ColumnarStudy, CorruptBatchFailsStudyCleanly) {
  auto dataset = assoc_fixture(0.02);
  std::string bytes = io::encode_assoc_columnar(dataset).bytes;
  bytes[bytes.size() / 2] ^= 0x41;
  const std::string path = temp_path("cdn_bent.col");
  write_raw(path, bytes);
  core::CdnFileStudyConfig cfg;
  cfg.threads = 1;
  auto out = core::run_cdn_study_from_files({path}, cfg);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), core::StatusCode::kDataLoss)
      << out.status().to_string();
}

// ------------------------------------------------------- golden batches
//
// tests/golden/echo.col and tests/golden/assoc.col are DYNCOL1 batches
// written by the current encoder. Each test decodes its fixture to the
// expected records and re-encodes them to the same bytes, so a codec
// change that still round-trips in-process but cannot read the batches
// already on disk, or writes different ones, fails here. The records are a
// pure function of their index (no simulator), so the fixtures change only
// when the format does; a deliberate format change rewrites them with
// io::write_echo_columnar / io::write_assoc_columnar of golden_echo() /
// golden_assoc().

std::string golden_bytes(const std::string& name) {
  std::ifstream is(std::string(DYNAMIPS_TEST_GOLDEN_DIR) + "/" + name,
                   std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is), {});
}

/// 3 probes x 100 records: v4 then v6 at each hour, addresses that move
/// every few hours, two tags on the middle probe.
std::vector<atlas::ProbeSeries> golden_echo() {
  std::vector<atlas::ProbeSeries> out(3);
  for (std::uint32_t p = 0; p < out.size(); ++p) {
    atlas::ProbeSeries& series = out[p];
    series.meta.probe_id = 1000 + p;
    if (p == 1)
      series.meta.tags = {core::tag_pool().intern("datacentre"),
                          core::tag_pool().intern("multihomed")};
    for (std::uint32_t r = 0; r < 100; ++r) {
      atlas::EchoRecord rec;
      rec.probe_id = series.meta.probe_id;
      rec.hour = 7 * p + r / 2;
      if (r % 2 == 0) {
        rec.family = atlas::Family::kV4;
        rec.x_client_ip4 = net::IPv4Address(0x0A000000u + (p << 16) + r / 16);
        rec.src_addr4 = net::IPv4Address(0xC0A80102u + p);
      } else {
        rec.family = atlas::Family::kV6;
        rec.x_client_ip6 = net::IPv6Address(
            0x20010DB800000000ull + (std::uint64_t(p) << 16) + r / 20, 1 + p);
        rec.src_addr6 = rec.x_client_ip6;
      }
      series.records.push_back(rec);
    }
  }
  return out;
}

/// 2 logs x 150 records: three associations a day, the /24 moving every 7
/// records and a fresh /64 on every record.
std::vector<cdn::AssociationLog> golden_assoc() {
  std::vector<cdn::AssociationLog> out(2);
  for (std::uint32_t l = 0; l < out.size(); ++l) {
    cdn::AssociationLog& log = out[l];
    log.asn = 3320 + 100 * l;
    for (std::uint32_t r = 0; r < 150; ++r) {
      cdn::AssociationRecord rec;
      rec.day = r / 3;
      rec.v4_24 = net::Prefix4(
          net::IPv4Address(0x50000000u + (l << 16) + ((r / 7) << 8)), 24);
      rec.v6_64 = net::Prefix6(
          net::IPv6Address(0x2003000000000000ull + (std::uint64_t(l) << 32) + r,
                           0),
          64);
      rec.asn4 = rec.asn6 = log.asn;
      log.records.push_back(rec);
    }
  }
  return out;
}

TEST(GoldenColumnar, EchoBatchDecodesAndReencodes) {
  const std::string bytes = golden_bytes("echo.col");
  ASSERT_FALSE(bytes.empty());
  auto decoded = io::decode_echo_columnar(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  const auto expected = golden_echo();
  ASSERT_EQ(decoded->size(), expected.size());
  for (std::size_t p = 0; p < expected.size(); ++p) {
    const auto& a = expected[p];
    const auto& b = (*decoded)[p];
    EXPECT_EQ(a.meta.probe_id, b.meta.probe_id);
    EXPECT_EQ(a.meta.tags, b.meta.tags);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t r = 0; r < a.records.size(); ++r) {
      const auto& x = a.records[r];
      const auto& y = b.records[r];
      EXPECT_EQ(x.probe_id, y.probe_id);
      EXPECT_EQ(x.hour, y.hour);
      EXPECT_EQ(x.family, y.family);
      EXPECT_EQ(x.x_client_ip4, y.x_client_ip4);
      EXPECT_EQ(x.src_addr4, y.src_addr4);
      EXPECT_EQ(x.x_client_ip6, y.x_client_ip6);
      EXPECT_EQ(x.src_addr6, y.src_addr6);
    }
  }
  EXPECT_TRUE(io::encode_echo_columnar(*decoded).bytes == bytes);
  EXPECT_TRUE(io::encode_echo_columnar(expected).bytes == bytes);
}

TEST(GoldenColumnar, AssocBatchDecodesAndReencodes) {
  const std::string bytes = golden_bytes("assoc.col");
  ASSERT_FALSE(bytes.empty());
  auto decoded = io::decode_assoc_columnar(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  const auto expected = golden_assoc();
  ASSERT_EQ(decoded->size(), expected.size());
  for (std::size_t l = 0; l < expected.size(); ++l) {
    const auto& a = expected[l];
    const auto& b = (*decoded)[l];
    EXPECT_EQ(a.asn, b.asn);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t r = 0; r < a.records.size(); ++r) {
      const auto& x = a.records[r];
      const auto& y = b.records[r];
      EXPECT_EQ(x.day, y.day);
      EXPECT_EQ(x.v4_24, y.v4_24);
      EXPECT_EQ(x.v6_64, y.v6_64);
      EXPECT_EQ(x.asn4, y.asn4);
      EXPECT_EQ(x.asn6, y.asn6);
    }
  }
  EXPECT_TRUE(io::encode_assoc_columnar(*decoded).bytes == bytes);
  EXPECT_TRUE(io::encode_assoc_columnar(expected).bytes == bytes);
}

}  // namespace
}  // namespace dynamips
