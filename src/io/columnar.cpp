#include "io/columnar.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>

#ifdef __unix__
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "core/intern.h"
#include "core/parallel.h"
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

constexpr std::size_t kAlign = 64;
constexpr std::uint32_t kMaxColumns = 64;

// ----------------------------------------------------------- column tables
//
// A kind is one column table. Its directory opens with the group table —
// the kind's group-key column (u32 per group), then GCNT (u64 rows per
// group), then the kind's group-tag column if it has one — followed by its
// row columns in table order. `put` spreads one record across the row
// columns; `get` reads one row back, classified in the CSV reader's reject
// order; `text` renders a rejected row for the quarantine, the columnar
// analog of quoting the offending CSV line.

constexpr std::uint32_t kColGroupRows = fourcc('G', 'C', 'N', 'T');

/// One row column: its directory tag and the bytes a row takes in it.
struct RowColumn {
  std::uint32_t tag;
  std::size_t width;  // 1, 4 or 8
};

struct EchoColumns {
  using Builder = detail::EchoBuilder;
  using Item = Builder::Item;
  using Record = Builder::Record;
  static constexpr std::uint32_t kKind = kColumnarKindEcho;
  static constexpr std::string_view kName = "echo";
  static constexpr auto read_csv = read_echo_dataset;

  static constexpr std::uint32_t kGroupKey = fourcc('G', 'P', 'I', 'D');
  /// Per group: the tag count, then each tag as a length-prefixed string.
  static constexpr std::uint32_t kGroupTags = fourcc('G', 'T', 'A', 'G');
  static constexpr std::array kRows = {
      RowColumn{fourcc('H', 'O', 'U', 'R'), 8},
      RowColumn{fourcc('F', 'A', 'M', '_'), 1},  // 0 = v4, 1 = v6
      RowColumn{fourcc('X', '4', '_', '_'), 4},
      RowColumn{fourcc('S', '4', '_', '_'), 4},
      RowColumn{fourcc('X', '6', 'H', 'I'), 8},
      RowColumn{fourcc('X', '6', 'L', 'O'), 8},
      RowColumn{fourcc('S', '6', 'H', 'I'), 8},
      RowColumn{fourcc('S', '6', 'L', 'O'), 8},
  };
  using Row = std::array<std::uint64_t, kRows.size()>;

  /// A row's fate hangs on earlier rows of its own probe alone (the
  /// duplicate set is per probe), so each probe's rows decode as one task.
  static constexpr bool kItemTasks = true;

  static std::uint32_t group_key(const Item& s) { return s.meta.probe_id; }

  static Row put(const Record& rec) {
    return {rec.hour, rec.family == atlas::Family::kV6 ? 1u : 0u,
            rec.x_client_ip4.value(), rec.src_addr4.value(),
            rec.x_client_ip6.bits().hi, rec.x_client_ip6.bits().lo,
            rec.src_addr6.bits().hi, rec.src_addr6.bits().lo};
  }

  /// The hour range, then the family.
  static std::optional<RejectReason> get(const Row& v, std::uint32_t probe,
                                         const ReaderOptions& options,
                                         Record& rec) {
    if (v[0] > options.max_hour) return RejectReason::kOutOfRange;
    if (v[1] > 1) return RejectReason::kBadNumber;
    rec.probe_id = probe;
    rec.hour = v[0];
    rec.family = atlas::Family(v[1]);
    rec.x_client_ip4 = net::IPv4Address(std::uint32_t(v[2]));
    rec.src_addr4 = net::IPv4Address(std::uint32_t(v[3]));
    rec.x_client_ip6 = net::IPv6Address(v[4], v[5]);
    rec.src_addr6 = net::IPv6Address(v[6], v[7]);
    return std::nullopt;
  }

  static std::string text(const Row& v, std::uint32_t probe) {
    return std::to_string(probe) + "," + std::to_string(v[0]) +
           ",family=" + std::to_string(v[1]);
  }
};

/// mobile/registry are grafted from the run config at analysis time and
/// subscriber is test-only ground truth; none is in the CSV schema and none
/// is a column, so columnar and CSV exports carry identical information.
struct AssocColumns {
  using Builder = detail::AssocBuilder;
  using Item = Builder::Item;
  using Record = Builder::Record;
  static constexpr std::uint32_t kKind = kColumnarKindAssoc;
  static constexpr std::string_view kName = "assoc";
  static constexpr auto read_csv = read_assoc_dataset;

  static constexpr std::uint32_t kGroupKey = fourcc('G', 'A', 'S', 'N');
  static constexpr std::uint32_t kGroupTags = 0;  // none
  static constexpr std::array kRows = {
      RowColumn{fourcc('D', 'A', 'Y', '_'), 4},
      RowColumn{fourcc('V', '4', 'A', '_'), 4},
      RowColumn{fourcc('V', '4', 'L', '_'), 1},
      RowColumn{fourcc('V', '6', 'H', 'I'), 8},
      RowColumn{fourcc('V', '6', 'L', 'O'), 8},
      RowColumn{fourcc('V', '6', 'L', '_'), 1},
      RowColumn{fourcc('A', 'S', '4', '_'), 4},
      RowColumn{fourcc('A', 'S', '6', '_'), 4},
  };
  using Row = std::array<std::uint64_t, kRows.size()>;

  /// A record joins the log of its asn6, whatever its group, and the
  /// adjacent-duplicate rule compares rows across groups, so the rows
  /// decode as one task.
  static constexpr bool kItemTasks = false;

  static std::uint32_t group_key(const Item& log) { return log.asn; }

  static Row put(const Record& rec) {
    return {rec.day, rec.v4_24.address().value(),
            std::uint64_t(rec.v4_24.length()), rec.v6_64.address().bits().hi,
            rec.v6_64.address().bits().lo, std::uint64_t(rec.v6_64.length()),
            rec.asn4, rec.asn6};
  }

  /// The day range, then the prefix lengths. A record joins the log of
  /// its asn6, whatever its group.
  static std::optional<RejectReason> get(const Row& v, std::uint32_t,
                                         const ReaderOptions& options,
                                         Record& rec) {
    if (v[0] > options.max_day) return RejectReason::kOutOfRange;
    if (v[2] > 32 || v[5] > 128) return RejectReason::kBadAddress;
    rec.day = std::uint32_t(v[0]);
    rec.v4_24 = net::Prefix4(net::IPv4Address(std::uint32_t(v[1])), int(v[2]));
    rec.v6_64 = net::Prefix6(net::IPv6Address(v[3], v[4]), int(v[5]));
    rec.asn4 = std::uint32_t(v[6]);
    rec.asn6 = std::uint32_t(v[7]);
    return std::nullopt;
  }

  static std::string text(const Row& v, std::uint32_t) {
    return std::to_string(v[0]) + "," + std::to_string(v[1]) + "/" +
           std::to_string(v[2]) + "," + std::to_string(v[3]) + ":" +
           std::to_string(v[4]) + "/" + std::to_string(v[5]);
  }
};

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

template <class Schema>
std::string encode(const std::vector<typename Schema::Item>& dataset) {
  constexpr auto& kRows = Schema::kRows;
  std::uint64_t rows = 0;
  for (const auto& item : dataset) rows += item.records.size();

  ckpt::Writer keys, counts, tags;
  std::array<ckpt::Writer, kRows.size()> row_cols;
  keys.reserve(dataset.size() * 4);
  counts.reserve(dataset.size() * 8);
  for (std::size_t c = 0; c < kRows.size(); ++c)
    row_cols[c].reserve(rows * kRows[c].width);

  for (const auto& item : dataset) {
    keys.u32(Schema::group_key(item));
    counts.u64(item.records.size());
    if constexpr (Schema::kGroupTags != 0) {
      tags.u64(item.meta.tags.size());
      for (core::TagId tag : item.meta.tags)
        tags.str(core::tag_pool().name_of(tag));
    }
    for (const auto& rec : item.records) {
      const typename Schema::Row row = Schema::put(rec);
      for (std::size_t c = 0; c < kRows.size(); ++c) {
        switch (kRows[c].width) {
          case 1: row_cols[c].u8(std::uint8_t(row[c])); break;
          case 4: row_cols[c].u32(std::uint32_t(row[c])); break;
          default: row_cols[c].u64(row[c]);
        }
      }
    }
  }

  std::vector<Column> cols;
  cols.push_back({Schema::kGroupKey, keys.take()});
  cols.push_back({kColGroupRows, counts.take()});
  if (Schema::kGroupTags != 0)
    cols.push_back({Schema::kGroupTags, tags.take()});
  for (std::size_t c = 0; c < kRows.size(); ++c)
    cols.push_back({kRows[c].tag, row_cols[c].take()});
  return assemble(Schema::kKind, rows, dataset.size(), std::move(cols));
}

Status write_bytes_atomic(const std::string& path, const std::string& bytes) {
  AtomicFileWriter out(path);
  if (!out.ok())
    return Status(StatusCode::kInternal, "cannot open for write: " + path);
  out.stream().write(bytes.data(), std::streamsize(bytes.size()));
  return out.commit();
}

// -------------------------------------------------------------- structure

struct ColView {
  const char* data = nullptr;
  std::uint64_t length = 0;

  /// Entry `i` of a column `width` bytes per entry.
  std::uint64_t at(std::uint64_t i, std::size_t width) const {
    const char* p = data + i * width;
    switch (width) {
      case 1: return std::uint8_t(*p);
      case 4: return load_le32(p);
      default: return load_le64(p);
    }
  }
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

/// Run task(lane, 0) .. task(lane, n - 1) on `exec`, or in order on the
/// caller (lane 0) without one.
void run_tasks(core::ShardExecutor* exec, std::size_t n,
               const std::function<void(unsigned, std::size_t)>& task) {
  if (exec != nullptr) return exec->dispatch(n, task);
  for (std::size_t i = 0; i < n; ++i) task(0, i);
}

/// Validate the container: magic, version, header CRC, directory bounds,
/// per-column CRCs. Everything here is structural — damage is kDataLoss,
/// never a crash and never a partial dataset. The column CRCs are one task
/// each; the checks then run in directory order, so the first bad column
/// is the one named whatever the thread count.
Status parse_structure(std::string_view bytes, std::uint32_t expected_kind,
                       Batch& out, core::ShardExecutor* exec) {
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

  struct Entry {
    std::uint32_t tag, crc;
    std::uint64_t offset, length;
    bool in_bounds;
    std::uint32_t got = 0;  // the payload's CRC, when in bounds
  };
  std::vector<Entry> dir;
  std::vector<std::size_t> tasks;  // the in-bounds entries
  // The checks below stop at the first bad entry, so no CRC after it is
  // needed: a task skips its column once an earlier one is known bad. On
  // one thread the tasks keep directory order, so a damaged batch costs
  // the CRCs up to its first bad column only; on several they run largest
  // first.
  std::atomic<std::size_t> first_bad{ncols};
  for (std::uint32_t i = 0; i < ncols; ++i) {
    const char* e = bytes.data() + kFixedHeader + std::size_t(i) * 24;
    Entry& d = dir.emplace_back(Entry{load_le32(e), load_le32(e + 20),
                                      load_le64(e + 4), load_le64(e + 12),
                                      false});
    d.in_bounds = d.offset >= header_size && d.offset <= bytes.size() &&
                  d.length <= bytes.size() - d.offset;
    if (d.in_bounds)
      tasks.push_back(i);
    else if (first_bad == ncols)
      first_bad = i;
  }
  if (exec != nullptr && exec->thread_count() > 1)
    std::stable_sort(tasks.begin(), tasks.end(),
                     [&](std::size_t a, std::size_t b) {
                       return dir[a].length > dir[b].length;
                     });
  run_tasks(exec, tasks.size(), [&](unsigned, std::size_t t) {
    const std::size_t i = tasks[t];
    if (i > first_bad) return;
    Entry& d = dir[i];
    d.got = crc32(bytes.substr(d.offset, d.length));
    std::size_t bad = first_bad;
    while (d.got != d.crc && i < bad &&
           !first_bad.compare_exchange_weak(bad, i)) {
    }
  });
  for (const Entry& d : dir) {
    if (!d.in_bounds)
      return data_loss("column " + fourcc_name(d.tag) + " is out of bounds");
    if (d.got != d.crc)
      return data_loss("column " + fourcc_name(d.tag) + " checksum mismatch");
    if (!out.columns.emplace(d.tag, ColView{bytes.data() + d.offset, d.length})
             .second)
      return data_loss("duplicate column " + fourcc_name(d.tag));
  }
  return Status::Ok();
}

/// Fetch column `tag` into `out`; unless `width` is 0, its length must be
/// exactly `count * width` bytes.
Status find_column(const Batch& batch, std::uint32_t tag, std::uint64_t count,
                   std::uint64_t width, ColView& out) {
  auto it = batch.columns.find(tag);
  if (it == batch.columns.end())
    return data_loss("missing column " + fourcc_name(tag));
  if (width != 0 && it->second.length != count * width)
    return data_loss("column " + fourcc_name(tag) + " holds " +
                     std::to_string(it->second.length) +
                     " bytes, expected " + std::to_string(count * width));
  out = it->second;
  return Status::Ok();
}

/// Group row counts must tile [0, rows) exactly.
Status check_group_rows(const ColView& counts, std::uint64_t groups,
                        std::uint64_t rows) {
  std::uint64_t total = 0;
  for (std::uint64_t g = 0; g < groups; ++g) {
    const std::uint64_t n = counts.at(g, 8);
    if (n > rows - total)
      return data_loss("group row counts exceed the row count");
    total += n;
  }
  if (total != rows)
    return data_loss("group row counts sum to " + std::to_string(total) +
                     ", expected " + std::to_string(rows));
  return Status::Ok();
}

template <class Schema>
using RowCols = std::array<ColView, Schema::kRows.size()>;

template <class Schema>
typename Schema::Row read_row(const RowCols<Schema>& cols, std::uint64_t row) {
  typename Schema::Row values;
  for (std::size_t c = 0; c < values.size(); ++c)
    values[c] = cols[c].at(row, Schema::kRows[c].width);
  return values;
}

/// One row a decode task rejected, kept for the replay.
struct RowReject {
  std::uint64_t row;
  std::uint32_t key;  // its group's key, for the quarantine text
  RejectReason reason;
};

/// Classify rows [row, row + n) of a group keyed `key` by the schema's
/// get, hand each plausible record to `push` (false: a duplicate), and
/// note every reject in `rejects`.
template <class Schema, class Push>
void decode_group(const RowCols<Schema>& cols, std::uint64_t row,
                  std::uint64_t n, std::uint32_t key,
                  const ReaderOptions& options, Push&& push,
                  std::vector<RowReject>& rejects) {
  for (const std::uint64_t end = row + n; row < end; ++row) {
    typename Schema::Record rec;
    std::optional<RejectReason> why =
        Schema::get(read_row<Schema>(cols, row), key, options, rec);
    if (!why && !push(rec)) why = RejectReason::kDuplicate;
    if (why) rejects.push_back({row, key, *why});
  }
}

/// Decode every row into `builder`; returns the rejects in row order.
/// Echo decodes each probe as one task on `exec`: a serial pre-pass
/// declares the items in group order (first appearance), lists each item's
/// groups in file order and reserves its summed rows once; each task then
/// pushes its item's rows through push_at(), which touches that item
/// alone. Assoc decodes all rows as one task on the caller.
template <class Schema>
std::vector<RowReject> decode_rows(const RowCols<Schema>& cols,
                                   const ColView& keys, const ColView& counts,
                                   std::uint64_t groups,
                                   const ReaderOptions& options,
                                   typename Schema::Builder& builder,
                                   core::ShardExecutor* exec) {
  auto key_of = [&](std::uint64_t g) { return std::uint32_t(keys.at(g, 4)); };
  std::vector<std::vector<RowReject>> found(exec ? exec->thread_count() : 1);
  if constexpr (Schema::kItemTasks) {
    // Item i's groups are order[first[i], first[i + 1]), in file order.
    std::vector<std::size_t> item_of(groups);
    std::vector<std::uint64_t> group_row(groups);
    std::uint64_t row = 0;
    for (std::uint64_t g = 0; g < groups; ++g) {
      item_of[g] = builder.slot(key_of(g));
      group_row[g] = row;
      row += counts.at(g, 8);
    }
    const std::size_t items = builder.items().size();
    std::vector<std::size_t> first(items + 1, 0);
    std::vector<std::uint64_t> item_rows(items, 0);
    for (std::uint64_t g = 0; g < groups; ++g) {
      ++first[item_of[g] + 1];
      item_rows[item_of[g]] += counts.at(g, 8);
    }
    for (std::size_t i = 0; i < items; ++i) {
      first[i + 1] += first[i];
      auto& records = builder.items()[i].records;
      records.reserve(records.size() + item_rows[i]);
    }
    std::vector<std::uint64_t> order(groups);
    std::vector<std::size_t> fill(first.begin(), first.end() - 1);
    for (std::uint64_t g = 0; g < groups; ++g) order[fill[item_of[g]]++] = g;

    run_tasks(exec, items, [&](unsigned lane, std::size_t i) {
      auto push = [&](const typename Schema::Record& rec) {
        return builder.push_at(i, rec);
      };
      for (std::size_t k = first[i]; k < first[i + 1]; ++k) {
        const std::uint64_t g = order[k];
        decode_group<Schema>(cols, group_row[g], counts.at(g, 8), key_of(g),
                             options, push, found[lane]);
      }
    });
  } else {
    auto push = [&](const typename Schema::Record& rec) {
      return builder.push(rec);
    };
    std::uint64_t row = 0;
    for (std::uint64_t g = 0; g < groups; ++g) {
      const std::uint64_t n = counts.at(g, 8);
      // Reserve for the group's rows, but geometrically: a key repeated
      // over many small groups must not reallocate per group.
      auto& records = builder.declare(key_of(g)).records;
      if (records.capacity() - records.size() < n)
        records.reserve(std::max(records.size() + n, 2 * records.capacity()));
      decode_group<Schema>(cols, row, n, key_of(g), options, push, found[0]);
      row += n;
    }
  }
  std::vector<RowReject> rejects = std::move(found[0]);
  for (std::size_t lane = 1; lane < found.size(); ++lane)
    rejects.insert(rejects.end(), found[lane].begin(), found[lane].end());
  std::sort(rejects.begin(), rejects.end(),
            [](const RowReject& a, const RowReject& b) { return a.row < b.row; });
  return rejects;
}

template <class Schema>
Expected<std::vector<typename Schema::Item>> decode(
    std::string_view bytes, const ReaderOptions& options, IngestStats* stats,
    core::ShardExecutor* exec) {
  const std::string context =
      "load " + std::string(Schema::kName) + " columnar batch";
  constexpr auto& kRows = Schema::kRows;
  // Every column must be present and every fixed-width one sized, in
  // table order, and the group row counts must tile the rows.
  Batch batch;
  ColView keys, counts, tags;
  RowCols<Schema> cols;
  Status st = parse_structure(bytes, Schema::kKind, batch, exec);
  if (st.ok())
    st = find_column(batch, Schema::kGroupKey, batch.groups, 4, keys);
  if (st.ok()) st = find_column(batch, kColGroupRows, batch.groups, 8, counts);
  for (std::size_t c = 0; st.ok() && c < kRows.size(); ++c)
    st = find_column(batch, kRows[c].tag, batch.rows, kRows[c].width, cols[c]);
  if (st.ok() && Schema::kGroupTags != 0)
    st = find_column(batch, Schema::kGroupTags, 0, 0, tags);
  if (st.ok()) st = check_group_rows(counts, batch.groups, batch.rows);
  if (!st.ok()) return st.with_context(context);

  detail::RejectLedger ledger(
      options, std::string(Schema::kName) + " columnar ingest", "record");
  typename Schema::Builder builder(options);
  if constexpr (Schema::kGroupTags != 0) {
    // Group preamble: the role of the CSV `#probe`/`#tags` meta lines.
    ckpt::Reader tag_reader(std::string_view(tags.data, tags.length));
    for (std::uint64_t g = 0; g < batch.groups; ++g) {
      std::vector<core::TagId> group_tags;
      const std::uint64_t n_tags = tag_reader.size();
      group_tags.reserve(n_tags);
      for (std::uint64_t t = 0; t < n_tags; ++t)
        group_tags.push_back(core::tag_pool().intern(tag_reader.str()));
      if (!tag_reader.ok())
        return data_loss("tag table failed to parse").with_context(context);
      builder.offer_tags(std::uint32_t(keys.at(g, 4)), std::move(group_tags));
    }
    if (tag_reader.remaining() != 0)
      return data_loss("tag table has trailing bytes").with_context(context);
  }

  const std::vector<RowReject> rejects = decode_rows<Schema>(
      cols, keys, counts, batch.groups, options, builder, exec);

  // The replay: every row through the ledger in row order, accepted or
  // rejected as its task found it, stopping where a trip stops it — so the
  // stats, counters, quarantine and Status are the serial loop's.
  auto next = rejects.begin();
  for (std::uint64_t row = 0; row < batch.rows && !ledger.tripped(); ++row) {
    ledger.count_unit();
    ledger.count_data();
    if (next != rejects.end() && next->row == row) {
      ledger.reject(next->reason,
                    Schema::text(read_row<Schema>(cols, row), next->key),
                    row + 1);
      ++next;
    } else {
      ledger.accept();
    }
  }

  if (stats) stats->merge(ledger.stats());
  if (Status done = ledger.finish(); !done.ok())
    return done.with_context(context);
  return builder.take();
}

// ------------------------------------------------------------------- mmap

/// Read-only bytes of one file: a regular file is mmap'd on POSIX; a pipe,
/// a device, or a file mmap fails on is read to its end, as is every file
/// elsewhere.
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
    if (map_ != nullptr) ::munmap(map_, len_);
#endif
  }

  std::string_view view() const {
    if (map_ != nullptr) return {static_cast<const char*>(map_), len_};
    return fallback_;
  }

  static Expected<MappedBytes> open(const std::string& path) {
    MappedBytes out;
#ifdef __unix__
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
      return Status(StatusCode::kNotFound, "cannot open dataset: " + path);
    // Only a regular file's size is its length: a FIFO's reads 0 until
    // its writer is done. Whatever is not mapped is read from this fd to
    // EOF; reopening a FIFO by name would race its writer.
    struct stat st{};
    if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
      void* map = ::mmap(nullptr, std::size_t(st.st_size), PROT_READ,
                         MAP_PRIVATE, fd, 0);
      if (map != MAP_FAILED) {
        out.map_ = map;
        out.len_ = std::size_t(st.st_size);
      }
    }
    bool read_failed = false;
    if (out.map_ == nullptr) {
      char chunk[1 << 16];
      for (;;) {
        const ssize_t got = ::read(fd, chunk, sizeof chunk);
        if (got > 0) {
          out.fallback_.append(chunk, std::size_t(got));
        } else if (got == 0 || errno != EINTR) {
          read_failed = got < 0;
          break;
        }
      }
    }
    ::close(fd);
    if (read_failed)
      return Status(StatusCode::kInternal, "read failed: " + path);
#else
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open())
      return Status(StatusCode::kNotFound, "cannot open dataset: " + path);
    // istream::read turns a failed read into badbit; the stream buffer's
    // exception never escapes.
    char chunk[1 << 16];
    while (in.read(chunk, sizeof chunk), in.gcount() > 0)
      out.fallback_.append(chunk, std::size_t(in.gcount()));
    if (in.bad()) return Status(StatusCode::kInternal, "read failed: " + path);
#endif
    return out;
  }

 private:
  void swap(MappedBytes& o) {
    std::swap(map_, o.map_);
    std::swap(len_, o.len_);
    std::swap(fallback_, o.fallback_);
  }

  void* map_ = nullptr;  // with len_, the mapping
  std::size_t len_ = 0;
  std::string fallback_;
};

// --------------------------------------------------------------- dispatch

template <class Schema>
Expected<std::vector<typename Schema::Item>> load_file(
    const std::string& path, const ReaderOptions& options, IngestStats* stats,
    core::ShardExecutor* exec) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec))
    return Status(StatusCode::kInvalidArgument,
                  "dataset path is a directory: " + path);
  ReaderOptions ropts = options;
  ropts.source_label = path;
  if (is_columnar_path(path)) {
    auto mapped = MappedBytes::open(path);
    if (!mapped.ok()) return mapped.status();
    return decode<Schema>(mapped.value().view(), ropts, stats, exec);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open())
    return Status(StatusCode::kNotFound, "cannot open dataset: " + path);
  return Schema::read_csv(in, ropts, stats, exec);
}

}  // namespace

bool is_columnar_path(std::string_view path) {
  return path.size() >= 4 && path.substr(path.size() - 4) == ".col";
}

std::string encode_echo_columnar(
    const std::vector<atlas::ProbeSeries>& dataset) {
  return encode<EchoColumns>(dataset);
}

std::string encode_assoc_columnar(
    const std::vector<cdn::AssociationLog>& dataset) {
  return encode<AssocColumns>(dataset);
}

Status write_echo_columnar(const std::string& path,
                           const std::vector<atlas::ProbeSeries>& dataset) {
  return write_bytes_atomic(path, encode<EchoColumns>(dataset));
}

Status write_assoc_columnar(const std::string& path,
                            const std::vector<cdn::AssociationLog>& dataset) {
  return write_bytes_atomic(path, encode<AssocColumns>(dataset));
}

Expected<std::vector<atlas::ProbeSeries>> decode_echo_columnar(
    std::string_view bytes, const ReaderOptions& options, IngestStats* stats,
    core::ShardExecutor* exec) {
  return decode<EchoColumns>(bytes, options, stats, exec);
}

Expected<std::vector<cdn::AssociationLog>> decode_assoc_columnar(
    std::string_view bytes, const ReaderOptions& options, IngestStats* stats,
    core::ShardExecutor* exec) {
  return decode<AssocColumns>(bytes, options, stats, exec);
}

Expected<std::vector<atlas::ProbeSeries>> load_echo_file(
    const std::string& path, const ReaderOptions& options, IngestStats* stats,
    core::ShardExecutor* exec) {
  return load_file<EchoColumns>(path, options, stats, exec);
}

Expected<std::vector<cdn::AssociationLog>> load_assoc_file(
    const std::string& path, const ReaderOptions& options, IngestStats* stats,
    core::ShardExecutor* exec) {
  return load_file<AssocColumns>(path, options, stats, exec);
}

Expected<std::vector<atlas::ProbeSeries>> load_echo_file(
    const std::string& path, const ReaderOptions& options,
    IngestStats* stats) {
  return load_file<EchoColumns>(path, options, stats, nullptr);
}

Expected<std::vector<cdn::AssociationLog>> load_assoc_file(
    const std::string& path, const ReaderOptions& options,
    IngestStats* stats) {
  return load_file<AssocColumns>(path, options, stats, nullptr);
}

}  // namespace dynamips::io
