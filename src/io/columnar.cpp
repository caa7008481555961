#include "io/columnar.h"

#include <fstream>
#include <unordered_map>
#include <utility>

#ifdef __unix__
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "core/intern.h"
#include "io/atomic_file.h"
#include "io/checkpoint.h"

namespace dynamips::io {

namespace {

using core::Expected;
using core::Status;
using core::StatusCode;

using ckpt::crc32;
using ckpt::fourcc;
using ckpt::fourcc_name;
using ckpt::load_le32;
using ckpt::load_le64;

// ------------------------------------------------------------ column tags

// group table (shared shape; the id column differs by kind)
constexpr std::uint32_t kColGroupProbe = fourcc('G', 'P', 'I', 'D');
constexpr std::uint32_t kColGroupAsn = fourcc('G', 'A', 'S', 'N');
constexpr std::uint32_t kColGroupRows = fourcc('G', 'C', 'N', 'T');
constexpr std::uint32_t kColGroupTags = fourcc('G', 'T', 'A', 'G');
// echo row columns
constexpr std::uint32_t kColHour = fourcc('H', 'O', 'U', 'R');
constexpr std::uint32_t kColFamily = fourcc('F', 'A', 'M', '_');
constexpr std::uint32_t kColX4 = fourcc('X', '4', '_', '_');
constexpr std::uint32_t kColS4 = fourcc('S', '4', '_', '_');
constexpr std::uint32_t kColX6Hi = fourcc('X', '6', 'H', 'I');
constexpr std::uint32_t kColX6Lo = fourcc('X', '6', 'L', 'O');
constexpr std::uint32_t kColS6Hi = fourcc('S', '6', 'H', 'I');
constexpr std::uint32_t kColS6Lo = fourcc('S', '6', 'L', 'O');
// assoc row columns
constexpr std::uint32_t kColDay = fourcc('D', 'A', 'Y', '_');
constexpr std::uint32_t kColV4Addr = fourcc('V', '4', 'A', '_');
constexpr std::uint32_t kColV4Len = fourcc('V', '4', 'L', '_');
constexpr std::uint32_t kColV6Hi = fourcc('V', '6', 'H', 'I');
constexpr std::uint32_t kColV6Lo = fourcc('V', '6', 'L', 'O');
constexpr std::uint32_t kColV6Len = fourcc('V', '6', 'L', '_');
constexpr std::uint32_t kColAsn4 = fourcc('A', 'S', '4', '_');
constexpr std::uint32_t kColAsn6 = fourcc('A', 'S', '6', '_');

constexpr std::size_t kAlign = 64;
constexpr std::uint32_t kMaxColumns = 64;

// ---------------------------------------------------------------- encoding

struct Column {
  std::uint32_t tag = 0;
  std::string payload;
};

std::string assemble(std::uint32_t kind, std::uint64_t rows,
                     std::uint64_t groups, std::vector<Column>&& columns) {
  // header size: magic + version + kind + rows + groups + ncols +
  // directory + header crc
  const std::size_t header_size = 8 + 4 + 4 + 8 + 8 + 4 +
                                  columns.size() * (4 + 8 + 8 + 4) + 4;
  std::vector<std::uint64_t> offsets(columns.size());
  std::size_t cursor = header_size;
  for (std::size_t i = 0; i < columns.size(); ++i) {
    cursor = (cursor + kAlign - 1) / kAlign * kAlign;
    offsets[i] = cursor;
    cursor += columns[i].payload.size();
  }

  ckpt::Writer head;
  head.reserve(header_size);
  head.raw(kColumnarMagic);
  head.u32(kColumnarVersion);
  head.u32(kind);
  head.u64(rows);
  head.u64(groups);
  head.u32(std::uint32_t(columns.size()));
  for (std::size_t i = 0; i < columns.size(); ++i) {
    head.u32(columns[i].tag);
    head.u64(offsets[i]);
    head.u64(columns[i].payload.size());
    head.u32(crc32(columns[i].payload));
  }
  head.u32(crc32(head.buffer()));

  std::string out = head.take();
  out.reserve(cursor);
  for (std::size_t i = 0; i < columns.size(); ++i) {
    out.resize(offsets[i], '\0');  // alignment padding
    out += columns[i].payload;
  }
  return out;
}

}  // namespace

bool is_columnar_path(std::string_view path) {
  return path.size() >= 4 && path.substr(path.size() - 4) == ".col";
}

std::string encode_echo_columnar(
    const std::vector<atlas::ProbeSeries>& dataset) {
  std::uint64_t rows = 0;
  for (const auto& series : dataset) rows += series.records.size();

  ckpt::Writer gid, gcnt, tags, hour, fam, x4, s4, x6hi, x6lo, s6hi, s6lo;
  gid.reserve(dataset.size() * 4);
  gcnt.reserve(dataset.size() * 8);
  hour.reserve(rows * 8);
  fam.reserve(rows);
  x4.reserve(rows * 4);
  s4.reserve(rows * 4);
  x6hi.reserve(rows * 8);
  x6lo.reserve(rows * 8);
  s6hi.reserve(rows * 8);
  s6lo.reserve(rows * 8);

  for (const auto& series : dataset) {
    gid.u32(series.meta.probe_id);
    gcnt.u64(series.records.size());
    tags.u64(series.meta.tags.size());
    for (core::TagId tag : series.meta.tags)
      tags.str(core::tag_pool().name_of(tag));
    for (const auto& rec : series.records) {
      hour.u64(rec.hour);
      fam.u8(rec.family == atlas::Family::kV6 ? 1 : 0);
      x4.u32(rec.x_client_ip4.value());
      s4.u32(rec.src_addr4.value());
      x6hi.u64(rec.x_client_ip6.bits().hi);
      x6lo.u64(rec.x_client_ip6.bits().lo);
      s6hi.u64(rec.src_addr6.bits().hi);
      s6lo.u64(rec.src_addr6.bits().lo);
    }
  }

  std::vector<Column> cols;
  cols.push_back({kColGroupProbe, gid.take()});
  cols.push_back({kColGroupRows, gcnt.take()});
  cols.push_back({kColGroupTags, tags.take()});
  cols.push_back({kColHour, hour.take()});
  cols.push_back({kColFamily, fam.take()});
  cols.push_back({kColX4, x4.take()});
  cols.push_back({kColS4, s4.take()});
  cols.push_back({kColX6Hi, x6hi.take()});
  cols.push_back({kColX6Lo, x6lo.take()});
  cols.push_back({kColS6Hi, s6hi.take()});
  cols.push_back({kColS6Lo, s6lo.take()});
  return assemble(kColumnarKindEcho, rows, dataset.size(), std::move(cols));
}

std::string encode_assoc_columnar(
    const std::vector<cdn::AssociationLog>& dataset) {
  std::uint64_t rows = 0;
  for (const auto& log : dataset) rows += log.records.size();

  ckpt::Writer gasn, gcnt, day, v4a, v4l, v6hi, v6lo, v6l, as4, as6;
  gasn.reserve(dataset.size() * 4);
  gcnt.reserve(dataset.size() * 8);
  day.reserve(rows * 4);
  v4a.reserve(rows * 4);
  v4l.reserve(rows);
  v6hi.reserve(rows * 8);
  v6lo.reserve(rows * 8);
  v6l.reserve(rows);
  as4.reserve(rows * 4);
  as6.reserve(rows * 4);

  for (const auto& log : dataset) {
    gasn.u32(log.asn);
    gcnt.u64(log.records.size());
    // mobile/registry are grafted from the run config at analysis time and
    // subscriber is test-only ground truth; none are in the CSV schema and
    // none are serialized here — columnar and CSV exports carry identical
    // information.
    for (const auto& rec : log.records) {
      day.u32(rec.day);
      v4a.u32(rec.v4_24.address().value());
      v4l.u8(std::uint8_t(rec.v4_24.length()));
      v6hi.u64(rec.v6_64.address().bits().hi);
      v6lo.u64(rec.v6_64.address().bits().lo);
      v6l.u8(std::uint8_t(rec.v6_64.length()));
      as4.u32(rec.asn4);
      as6.u32(rec.asn6);
    }
  }

  std::vector<Column> cols;
  cols.push_back({kColGroupAsn, gasn.take()});
  cols.push_back({kColGroupRows, gcnt.take()});
  cols.push_back({kColDay, day.take()});
  cols.push_back({kColV4Addr, v4a.take()});
  cols.push_back({kColV4Len, v4l.take()});
  cols.push_back({kColV6Hi, v6hi.take()});
  cols.push_back({kColV6Lo, v6lo.take()});
  cols.push_back({kColV6Len, v6l.take()});
  cols.push_back({kColAsn4, as4.take()});
  cols.push_back({kColAsn6, as6.take()});
  return assemble(kColumnarKindAssoc, rows, dataset.size(), std::move(cols));
}

namespace {

Status write_bytes_atomic(const std::string& path, const std::string& bytes) {
  AtomicFileWriter out(path);
  if (!out.ok())
    return Status(StatusCode::kInternal, "cannot open for write: " + path);
  out.stream().write(bytes.data(), std::streamsize(bytes.size()));
  return out.commit();
}

}  // namespace

Status write_echo_columnar(const std::string& path,
                           const std::vector<atlas::ProbeSeries>& dataset) {
  return write_bytes_atomic(path, encode_echo_columnar(dataset));
}

Status write_assoc_columnar(const std::string& path,
                            const std::vector<cdn::AssociationLog>& dataset) {
  return write_bytes_atomic(path, encode_assoc_columnar(dataset));
}

// -------------------------------------------------------------- structure

namespace {

struct ColView {
  const char* data = nullptr;
  std::uint64_t length = 0;

  std::uint8_t u8(std::uint64_t i) const {
    return std::uint8_t(data[i]);
  }
  std::uint32_t u32(std::uint64_t i) const { return load_le32(data + i * 4); }
  std::uint64_t u64(std::uint64_t i) const { return load_le64(data + i * 8); }
};

struct Batch {
  std::uint32_t kind = 0;
  std::uint64_t rows = 0;
  std::uint64_t groups = 0;
  std::unordered_map<std::uint32_t, ColView> columns;
};

Status data_loss(const std::string& what) {
  return Status(StatusCode::kDataLoss, "columnar batch is corrupt: " + what);
}

/// Validate the container: magic, version, header CRC, directory bounds,
/// per-column CRCs. Everything here is structural — damage is kDataLoss,
/// never a crash and never a partial dataset.
Status parse_structure(std::string_view bytes, std::uint32_t expected_kind,
                       Batch& out) {
  constexpr std::size_t kFixedHeader = 8 + 4 + 4 + 8 + 8 + 4;
  if (bytes.size() < kFixedHeader + 4)
    return data_loss("file truncated before the header");
  if (bytes.substr(0, 8) != kColumnarMagic)
    return data_loss("bad magic (not a columnar batch)");
  const std::uint32_t version = load_le32(bytes.data() + 8);
  if (version != kColumnarVersion)
    return Status(StatusCode::kFailedPrecondition,
                  "columnar batch version " + std::to_string(version) +
                      " is not supported (expected " +
                      std::to_string(kColumnarVersion) + ")");
  out.kind = load_le32(bytes.data() + 12);
  out.rows = load_le64(bytes.data() + 16);
  out.groups = load_le64(bytes.data() + 24);
  const std::uint32_t ncols = load_le32(bytes.data() + 32);
  if (out.kind != kColumnarKindEcho && out.kind != kColumnarKindAssoc)
    return data_loss("unknown kind " + std::to_string(out.kind));
  if (out.kind != expected_kind)
    return Status(StatusCode::kFailedPrecondition,
                  std::string("columnar batch holds ") +
                      (out.kind == kColumnarKindEcho ? "echo" : "assoc") +
                      " data but the " +
                      (expected_kind == kColumnarKindEcho ? "echo" : "assoc") +
                      " reader was asked to load it");
  if (ncols == 0 || ncols > kMaxColumns)
    return data_loss("implausible column count " + std::to_string(ncols));
  // A row or group needs at least one payload byte somewhere; wildly larger
  // counts than the file could hold are corruption (and guard the
  // arithmetic below against overflow).
  if (out.rows > bytes.size() || out.groups > bytes.size())
    return data_loss("row/group count exceeds the file size");

  const std::size_t header_size = kFixedHeader + std::size_t(ncols) * 24 + 4;
  if (bytes.size() < header_size)
    return data_loss("file truncated inside the column directory");
  const std::uint32_t stored_header_crc =
      load_le32(bytes.data() + header_size - 4);
  if (crc32(bytes.substr(0, header_size - 4)) != stored_header_crc)
    return data_loss("header checksum mismatch");

  const char* dir = bytes.data() + kFixedHeader;
  for (std::uint32_t i = 0; i < ncols; ++i) {
    const char* e = dir + std::size_t(i) * 24;
    const std::uint32_t tag = load_le32(e);
    const std::uint64_t offset = load_le64(e + 4);
    const std::uint64_t length = load_le64(e + 12);
    const std::uint32_t crc = load_le32(e + 20);
    if (offset < header_size || offset > bytes.size() ||
        length > bytes.size() - offset)
      return data_loss("column " + fourcc_name(tag) + " is out of bounds");
    std::string_view payload = bytes.substr(offset, length);
    if (crc32(payload) != crc)
      return data_loss("column " + fourcc_name(tag) + " checksum mismatch");
    if (!out.columns.emplace(tag, ColView{payload.data(), length}).second)
      return data_loss("duplicate column " + fourcc_name(tag));
  }
  return Status::Ok();
}

/// Fetch a fixed-width column and check its length is exactly
/// `count * width` bytes.
Expected<ColView> fixed_column(const Batch& batch, std::uint32_t tag,
                               std::uint64_t count, std::uint64_t width) {
  auto it = batch.columns.find(tag);
  if (it == batch.columns.end())
    return data_loss("missing column " + fourcc_name(tag));
  if (it->second.length != count * width)
    return data_loss("column " + fourcc_name(tag) + " holds " +
                     std::to_string(it->second.length) +
                     " bytes, expected " + std::to_string(count * width));
  return it->second;
}

/// Group row counts must tile [0, rows) exactly.
Status check_group_rows(const ColView& gcnt, std::uint64_t groups,
                        std::uint64_t rows) {
  std::uint64_t total = 0;
  for (std::uint64_t g = 0; g < groups; ++g) {
    const std::uint64_t n = gcnt.u64(g);
    if (n > rows - total)
      return data_loss("group row counts exceed the row count");
    total += n;
  }
  if (total != rows)
    return data_loss("group row counts sum to " + std::to_string(total) +
                     ", expected " + std::to_string(rows));
  return Status::Ok();
}

/// Decimal rendering of one row for quarantine/offender reporting — the
/// columnar analog of quoting the offending CSV line.
std::string echo_row_text(std::uint32_t probe, std::uint64_t hour,
                          std::uint8_t fam) {
  return std::to_string(probe) + "," + std::to_string(hour) + ",family=" +
         std::to_string(fam);
}

std::string assoc_row_text(std::uint32_t day, std::uint32_t v4,
                           std::uint8_t l4, std::uint64_t hi, std::uint64_t lo,
                           std::uint8_t l6) {
  return std::to_string(day) + "," + std::to_string(v4) + "/" +
         std::to_string(l4) + "," + std::to_string(hi) + ":" +
         std::to_string(lo) + "/" + std::to_string(l6);
}

}  // namespace

// ------------------------------------------------------------ echo decode

Expected<std::vector<atlas::ProbeSeries>> decode_echo_columnar(
    std::string_view bytes, const ReaderOptions& options,
    IngestStats* stats) {
  Batch batch;
  if (Status st = parse_structure(bytes, kColumnarKindEcho, batch); !st.ok())
    return st.with_context("load echo columnar batch");

  auto gid = fixed_column(batch, kColGroupProbe, batch.groups, 4);
  auto gcnt = fixed_column(batch, kColGroupRows, batch.groups, 8);
  auto hour = fixed_column(batch, kColHour, batch.rows, 8);
  auto fam = fixed_column(batch, kColFamily, batch.rows, 1);
  auto x4 = fixed_column(batch, kColX4, batch.rows, 4);
  auto s4 = fixed_column(batch, kColS4, batch.rows, 4);
  auto x6hi = fixed_column(batch, kColX6Hi, batch.rows, 8);
  auto x6lo = fixed_column(batch, kColX6Lo, batch.rows, 8);
  auto s6hi = fixed_column(batch, kColS6Hi, batch.rows, 8);
  auto s6lo = fixed_column(batch, kColS6Lo, batch.rows, 8);
  for (auto* col : {&gid, &gcnt, &hour, &fam, &x4, &s4, &x6hi, &x6lo, &s6hi,
                    &s6lo})
    if (!col->ok())
      return Status(col->status()).with_context("load echo columnar batch");
  auto tags_it = batch.columns.find(kColGroupTags);
  if (tags_it == batch.columns.end())
    return data_loss("missing column " + fourcc_name(kColGroupTags))
        .with_context("load echo columnar batch");
  if (Status st = check_group_rows(gcnt.value(), batch.groups, batch.rows);
      !st.ok())
    return st.with_context("load echo columnar batch");

  // Group preamble: the role of the CSV `#probe`/`#tags` meta lines.
  detail::RejectLedger ledger(options, "echo columnar ingest", "record");
  detail::EchoBuilder builder(options);
  ckpt::Reader tag_reader(
      std::string_view(tags_it->second.data, tags_it->second.length));
  for (std::uint64_t g = 0; g < batch.groups; ++g) {
    std::vector<core::TagId> tags;
    const std::uint64_t n_tags = tag_reader.size();
    tags.reserve(n_tags);
    for (std::uint64_t t = 0; t < n_tags; ++t)
      tags.push_back(core::tag_pool().intern(tag_reader.str()));
    if (!tag_reader.ok())
      return data_loss("tag table failed to parse")
          .with_context("load echo columnar batch");
    builder.offer_tags(gid.value().u32(g), std::move(tags));
  }
  if (tag_reader.remaining() != 0)
    return data_loss("tag table has trailing bytes")
        .with_context("load echo columnar batch");

  // Row decode, in the CSV reader's order: the hour range, the family,
  // then the builder's duplicate rule (it applies on the clean path too).
  std::uint64_t row = 0;
  for (std::uint64_t g = 0; g < batch.groups && !ledger.tripped(); ++g) {
    const std::uint32_t probe = gid.value().u32(g);
    const std::uint64_t n = gcnt.value().u64(g);
    auto& records = builder.declare(probe).records;
    records.reserve(records.size() + n);
    for (std::uint64_t k = 0; k < n && !ledger.tripped(); ++k, ++row) {
      ledger.count_unit();
      ledger.count_data();
      const std::uint8_t f = fam.value().u8(row);
      const std::uint64_t h = hour.value().u64(row);
      auto reject = [&](RejectReason why) {
        ledger.reject(why, echo_row_text(probe, h, f), row + 1);
      };
      if (h > options.max_hour) {
        reject(RejectReason::kOutOfRange);
        continue;
      }
      if (f > 1) {
        reject(RejectReason::kBadNumber);
        continue;
      }
      atlas::EchoRecord rec;
      rec.probe_id = probe;
      rec.hour = h;
      rec.family = atlas::Family(f);
      rec.x_client_ip4 = net::IPv4Address(x4.value().u32(row));
      rec.src_addr4 = net::IPv4Address(s4.value().u32(row));
      rec.x_client_ip6 =
          net::IPv6Address(x6hi.value().u64(row), x6lo.value().u64(row));
      rec.src_addr6 =
          net::IPv6Address(s6hi.value().u64(row), s6lo.value().u64(row));
      if (!builder.admit(rec)) {
        reject(RejectReason::kDuplicate);
        continue;
      }
      builder.add(rec);
      ledger.accept();
    }
  }

  if (stats) stats->merge(ledger.stats());
  if (Status st = ledger.finish(); !st.ok())
    return st.with_context("load echo columnar batch");
  return builder.take();
}

// ----------------------------------------------------------- assoc decode

Expected<std::vector<cdn::AssociationLog>> decode_assoc_columnar(
    std::string_view bytes, const ReaderOptions& options,
    IngestStats* stats) {
  Batch batch;
  if (Status st = parse_structure(bytes, kColumnarKindAssoc, batch); !st.ok())
    return st.with_context("load assoc columnar batch");

  auto gasn = fixed_column(batch, kColGroupAsn, batch.groups, 4);
  auto gcnt = fixed_column(batch, kColGroupRows, batch.groups, 8);
  auto day = fixed_column(batch, kColDay, batch.rows, 4);
  auto v4a = fixed_column(batch, kColV4Addr, batch.rows, 4);
  auto v4l = fixed_column(batch, kColV4Len, batch.rows, 1);
  auto v6hi = fixed_column(batch, kColV6Hi, batch.rows, 8);
  auto v6lo = fixed_column(batch, kColV6Lo, batch.rows, 8);
  auto v6l = fixed_column(batch, kColV6Len, batch.rows, 1);
  auto as4 = fixed_column(batch, kColAsn4, batch.rows, 4);
  auto as6 = fixed_column(batch, kColAsn6, batch.rows, 4);
  for (auto* col :
       {&gasn, &gcnt, &day, &v4a, &v4l, &v6hi, &v6lo, &v6l, &as4, &as6})
    if (!col->ok())
      return Status(col->status()).with_context("load assoc columnar batch");
  if (Status st = check_group_rows(gcnt.value(), batch.groups, batch.rows);
      !st.ok())
    return st.with_context("load assoc columnar batch");

  const ColView& c_day = day.value();
  const ColView& c_v4a = v4a.value();
  const ColView& c_v4l = v4l.value();
  const ColView& c_v6hi = v6hi.value();
  const ColView& c_v6lo = v6lo.value();
  const ColView& c_v6l = v6l.value();
  const ColView& c_as4 = as4.value();
  const ColView& c_as6 = as6.value();

  detail::RejectLedger ledger(options, "assoc columnar ingest", "record");
  detail::AssocBuilder builder(options);

  // Rows are classified in the CSV reader's order: the day range, the
  // prefix lengths, then the builder's duplicate rule.
  std::uint64_t row = 0;
  for (std::uint64_t g = 0; g < batch.groups && !ledger.tripped(); ++g) {
    const std::uint64_t n = gcnt.value().u64(g);
    auto& records = builder.declare(gasn.value().u32(g)).records;
    records.reserve(records.size() + n);
    for (std::uint64_t k = 0; k < n && !ledger.tripped(); ++k, ++row) {
      ledger.count_unit();
      ledger.count_data();
      const std::uint32_t d = c_day.u32(row);
      const std::uint8_t l4 = c_v4l.u8(row);
      const std::uint8_t l6 = c_v6l.u8(row);
      auto reject = [&](RejectReason why) {
        ledger.reject(why,
                      assoc_row_text(d, c_v4a.u32(row), l4, c_v6hi.u64(row),
                                     c_v6lo.u64(row), l6),
                      row + 1);
      };
      if (d > options.max_day) {
        reject(RejectReason::kOutOfRange);
        continue;
      }
      if (l4 > 32 || l6 > 128) {
        reject(RejectReason::kBadAddress);
        continue;
      }
      cdn::AssociationRecord rec;
      rec.day = d;
      rec.v4_24 = net::Prefix4(net::IPv4Address(c_v4a.u32(row)), l4);
      rec.v6_64 = net::Prefix6(
          net::IPv6Address(c_v6hi.u64(row), c_v6lo.u64(row)), l6);
      rec.asn4 = c_as4.u32(row);
      rec.asn6 = c_as6.u32(row);
      if (!builder.admit(rec)) {
        reject(RejectReason::kDuplicate);
        continue;
      }
      builder.add(rec);
      ledger.accept();
    }
  }

  if (stats) stats->merge(ledger.stats());
  if (Status st = ledger.finish(); !st.ok())
    return st.with_context("load assoc columnar batch");
  return builder.take();
}

// ------------------------------------------------------------------- mmap

namespace {

/// Read-only bytes of one file: mmap'd on POSIX (falling back to a plain
/// read when mmap is unavailable or fails), read into memory elsewhere.
class MappedBytes {
 public:
  MappedBytes() = default;
  MappedBytes(const MappedBytes&) = delete;
  MappedBytes& operator=(const MappedBytes&) = delete;
  MappedBytes(MappedBytes&& o) noexcept { swap(o); }
  MappedBytes& operator=(MappedBytes&& o) noexcept {
    swap(o);
    return *this;
  }
  ~MappedBytes() {
#ifdef __unix__
    if (map_ != nullptr && map_ != MAP_FAILED) ::munmap(map_, map_len_);
#endif
  }

  std::string_view view() const {
#ifdef __unix__
    if (map_ != nullptr && map_ != MAP_FAILED)
      return {static_cast<const char*>(map_), len_};
#endif
    return fallback_;
  }

  static Expected<MappedBytes> open(const std::string& path) {
    MappedBytes out;
#ifdef __unix__
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd >= 0) {
      struct stat st{};
      if (::fstat(fd, &st) == 0 && st.st_size > 0) {
        out.len_ = std::size_t(st.st_size);
        out.map_len_ = out.len_;
        out.map_ = ::mmap(nullptr, out.map_len_, PROT_READ, MAP_PRIVATE, fd,
                          0);
      }
      ::close(fd);
      if (out.map_ != nullptr && out.map_ != MAP_FAILED) return out;
      out.map_ = nullptr;
      if (out.len_ == 0) return out;  // empty file: empty view is correct
    }
#endif
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open())
      return Status(StatusCode::kNotFound, "cannot open dataset: " + path);
    out.fallback_.assign(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>());
    if (in.bad())
      return Status(StatusCode::kInternal, "read failed: " + path);
    return out;
  }

 private:
  void swap(MappedBytes& o) {
    std::swap(map_, o.map_);
    std::swap(map_len_, o.map_len_);
    std::swap(len_, o.len_);
    std::swap(fallback_, o.fallback_);
  }

  void* map_ = nullptr;
  std::size_t map_len_ = 0;
  std::size_t len_ = 0;
  std::string fallback_;
};

}  // namespace

Expected<std::vector<atlas::ProbeSeries>> read_echo_columnar(
    const std::string& path, const ReaderOptions& options,
    IngestStats* stats) {
  auto mapped = MappedBytes::open(path);
  if (!mapped.ok()) return mapped.status();
  return decode_echo_columnar(mapped.value().view(), options, stats);
}

Expected<std::vector<cdn::AssociationLog>> read_assoc_columnar(
    const std::string& path, const ReaderOptions& options,
    IngestStats* stats) {
  auto mapped = MappedBytes::open(path);
  if (!mapped.ok()) return mapped.status();
  return decode_assoc_columnar(mapped.value().view(), options, stats);
}

// --------------------------------------------------------------- dispatch

Expected<std::vector<atlas::ProbeSeries>> load_echo_file(
    const std::string& path, const ReaderOptions& options,
    IngestStats* stats) {
  ReaderOptions ropts = options;
  ropts.source_label = path;
  if (is_columnar_path(path)) return read_echo_columnar(path, ropts, stats);
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open())
    return Status(StatusCode::kNotFound, "cannot open dataset: " + path);
  return read_echo_dataset(in, ropts, stats);
}

Expected<std::vector<cdn::AssociationLog>> load_assoc_file(
    const std::string& path, const ReaderOptions& options,
    IngestStats* stats) {
  ReaderOptions ropts = options;
  ropts.source_label = path;
  if (is_columnar_path(path)) return read_assoc_columnar(path, ropts, stats);
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open())
    return Status(StatusCode::kNotFound, "cannot open dataset: " + path);
  return read_assoc_dataset(in, ropts, stats);
}

}  // namespace dynamips::io
