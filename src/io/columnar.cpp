#include "io/columnar.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstring>
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

/// Run task(lane, 0) .. task(lane, n - 1) on `exec`, or in order on the
/// caller (lane 0) without one.
void run_tasks(core::ShardExecutor* exec, std::size_t n,
               const std::function<void(unsigned, std::size_t)>& task) {
  if (exec != nullptr) return exec->dispatch(n, task);
  for (std::size_t i = 0; i < n; ++i) task(0, i);
}

/// Item ranges per executor thread in an encode: several, so a lane that
/// starts late still finds a share of the rows.
constexpr std::size_t kEncodeRangesPerThread = 4;

/// Store the low `kWidth` bytes of `v` at `p`, little-endian.
template <std::size_t kWidth>
void store_le(char* p, std::uint64_t v) {
  for (std::size_t i = 0; i < kWidth; ++i) p[i] = char((v >> (8 * i)) & 0xFF);
}

/// Write one row into every row column, `base[c]` being column c's payload.
template <class Schema, std::size_t... C>
void store_row(const typename Schema::Row& row, char* const* base,
               std::uint64_t r, std::index_sequence<C...>) {
  (store_le<Schema::kRows[C].width>(base[C] + r * Schema::kRows[C].width,
                                    row[C]),
   ...);
}

/// One pass (see columnar.h, "Threads"): lay the batch out from the
/// column sizes, fill it with item-range tasks plus a group-table task,
/// and combine their CRCs.
template <class Schema>
EncodedBatch encode(const std::vector<typename Schema::Item>& dataset,
                    core::ShardExecutor* exec) {
  constexpr auto& kRows = Schema::kRows;
  // Directory order: the group key, GCNT, the group tags when the kind has
  // them, then the row columns.
  constexpr std::size_t kGroup = Schema::kGroupTags != 0 ? 3 : 2;
  constexpr std::size_t ncols = kGroup + kRows.size();

  // Contiguous item ranges of about equal rows: range k is items
  // [cuts[k].item, cuts[k + 1].item), its rows start at cuts[k].row.
  struct Cut {
    std::size_t item;
    std::uint64_t row;
  };
  std::uint64_t rows = 0;
  for (const auto& item : dataset) rows += item.records.size();
  const std::size_t want =
      exec != nullptr ? kEncodeRangesPerThread * exec->thread_count() : 1;
  std::vector<Cut> cuts{{0, 0}};
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i + 1 < dataset.size() && cuts.size() < want; ++i) {
    seen += dataset[i].records.size();
    if (seen > cuts.back().row && seen * want >= rows * cuts.size())
      cuts.push_back({i + 1, seen});
  }
  cuts.push_back({dataset.size(), rows});
  const std::size_t ranges = cuts.size() - 1;

  std::array<std::uint32_t, ncols> tags{};
  std::array<std::uint64_t, ncols> lengths{};
  tags[0] = Schema::kGroupKey;
  lengths[0] = dataset.size() * 4;
  tags[1] = kColGroupRows;
  lengths[1] = dataset.size() * 8;
  if constexpr (Schema::kGroupTags != 0) {
    // Per group: the tag count, then each tag as a length-prefixed string.
    tags[2] = Schema::kGroupTags;
    for (const auto& item : dataset) {
      lengths[2] += 8;
      for (core::TagId tag : item.meta.tags)
        lengths[2] += 8 + core::tag_pool().name_of(tag).size();
    }
  }
  for (std::size_t c = 0; c < kRows.size(); ++c) {
    tags[kGroup + c] = kRows[c].tag;
    lengths[kGroup + c] = rows * kRows[c].width;
  }
  // magic + version + kind + rows + groups + ncols + directory + header crc
  constexpr std::size_t header_size = 8 + 4 + 4 + 8 + 8 + 4 + ncols * 24 + 4;
  std::array<std::uint64_t, ncols> offsets{};
  std::uint64_t cursor = header_size;
  for (std::size_t i = 0; i < ncols; ++i) {
    cursor = (cursor + kAlign - 1) / kAlign * kAlign;
    offsets[i] = cursor;
    cursor += lengths[i];
  }
  // The tasks below write every byte but the paddings before each column,
  // so the batch is allocated without zero-filling and only they are zeroed.
  EncodedBatch out;
  out.data = std::make_unique_for_overwrite<char[]>(cursor);
  out.size = cursor;
  char* const data = out.data.get();
  for (std::uint64_t i = 0, end = header_size; i < ncols; ++i) {
    std::memset(data + end, 0, offsets[i] - end);
    end = offsets[i] + lengths[i];
  }
  std::array<char*, kRows.size()> base{};
  for (std::size_t c = 0; c < kRows.size(); ++c)
    base[c] = data + offsets[kGroup + c];

  std::array<std::uint32_t, ncols> crcs{};
  std::vector<std::array<std::uint32_t, kRows.size()>> slice_crcs(ranges);
  run_tasks(exec, ranges + 1, [&](unsigned, std::size_t k) {
    if (k == ranges) {
      char* key = data + offsets[0];
      char* count = data + offsets[1];
      for (const auto& item : dataset) {
        store_le<4>(key, Schema::group_key(item));
        store_le<8>(count, item.records.size());
        key += 4;
        count += 8;
      }
      if constexpr (Schema::kGroupTags != 0) {
        char* tag = data + offsets[2];
        for (const auto& item : dataset) {
          store_le<8>(tag, item.meta.tags.size());
          tag += 8;
          for (core::TagId id : item.meta.tags) {
            const std::string& name = core::tag_pool().name_of(id);
            store_le<8>(tag, name.size());
            std::memcpy(tag + 8, name.data(), name.size());
            tag += 8 + name.size();
          }
        }
      }
      for (std::size_t i = 0; i < kGroup; ++i)
        crcs[i] = crc32(std::string_view(data + offsets[i], lengths[i]));
      return;
    }
    std::uint64_t r = cuts[k].row;
    for (std::size_t i = cuts[k].item; i < cuts[k + 1].item; ++i)
      for (const auto& rec : dataset[i].records)
        store_row<Schema>(Schema::put(rec), base.data(), r++,
                          std::make_index_sequence<kRows.size()>());
    const std::uint64_t n = r - cuts[k].row;
    for (std::size_t c = 0; c < kRows.size(); ++c)
      slice_crcs[k][c] = crc32(std::string_view(
          base[c] + cuts[k].row * kRows[c].width, n * kRows[c].width));
  });
  for (std::size_t k = 0; k < ranges; ++k)
    for (std::size_t c = 0; c < kRows.size(); ++c)
      crcs[kGroup + c] = ckpt::crc32_combine(
          crcs[kGroup + c], slice_crcs[k][c],
          (cuts[k + 1].row - cuts[k].row) * kRows[c].width);

  ckpt::Writer head;
  head.reserve(header_size);
  head.raw(kColumnarMagic);
  head.u32(kColumnarVersion);
  head.u32(Schema::kKind);
  head.u64(rows);
  head.u64(dataset.size());
  head.u32(std::uint32_t(ncols));
  for (std::size_t i = 0; i < ncols; ++i) {
    head.u32(tags[i]);
    head.u64(offsets[i]);
    head.u64(lengths[i]);
    head.u32(crcs[i]);
  }
  head.u32(crc32(head.buffer()));
  std::memcpy(data, head.buffer().data(), header_size);

  // The batch's CRC: the header, then each column's padding and payload.
  out.crc = crc32(head.buffer());
  std::uint64_t end = header_size;
  for (std::size_t i = 0; i < ncols; ++i) {
    out.crc = crc32(std::string_view(data + end, offsets[i] - end), out.crc);
    out.crc = ckpt::crc32_combine(out.crc, crcs[i], lengths[i]);
    end = offsets[i] + lengths[i];
  }
  return out;
}

Status write_bytes_atomic(const std::string& path, std::string_view bytes) {
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

EncodedBatch encode_echo_columnar(
    const std::vector<atlas::ProbeSeries>& dataset,
    core::ShardExecutor* exec) {
  return encode<EchoColumns>(dataset, exec);
}

EncodedBatch encode_assoc_columnar(
    const std::vector<cdn::AssociationLog>& dataset,
    core::ShardExecutor* exec) {
  return encode<AssocColumns>(dataset, exec);
}

Status write_echo_columnar(const std::string& path,
                           const std::vector<atlas::ProbeSeries>& dataset) {
  return write_bytes_atomic(path,
                            encode<EchoColumns>(dataset, nullptr).bytes());
}

Status write_assoc_columnar(const std::string& path,
                            const std::vector<cdn::AssociationLog>& dataset) {
  return write_bytes_atomic(path,
                            encode<AssocColumns>(dataset, nullptr).bytes());
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
