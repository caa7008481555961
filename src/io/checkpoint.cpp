#include "io/checkpoint.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "core/failpoint.h"
#include "io/atomic_file.h"

#ifdef __unix__
#include <fcntl.h>
#include <unistd.h>
#endif

namespace dynamips::io {

namespace {

using core::Expected;
using core::Status;
using core::StatusCode;

constexpr char kMagic[8] = {'D', 'Y', 'N', 'C', 'K', 'P', 'T', '1'};

using ckpt::fourcc;

// Section tags.
constexpr std::uint32_t kSecMeta = fourcc('M', 'E', 'T', 'A');
constexpr std::uint32_t kSecShard = fourcc('S', 'H', 'R', 'D');
constexpr std::uint32_t kSecRegistry = fourcc('R', 'E', 'G', 'S');
constexpr std::uint32_t kSecSupervisor = fourcc('S', 'U', 'P', 'V');
constexpr std::uint32_t kSecStream = fourcc('S', 'T', 'R', 'M');
constexpr std::uint32_t kSecJournal = fourcc('J', 'R', 'N', 'L');

void append_section(ckpt::Writer& out, std::uint32_t tag,
                    std::string_view payload) {
  out.u32(tag);
  out.str(payload);  // u64 length + bytes
  out.u32(ckpt::crc32(payload));
}

Status data_loss(const std::string& what) {
  return Status(StatusCode::kDataLoss, "checkpoint is corrupt: " + what);
}

}  // namespace

const char* checkpoint_kind_name(std::uint32_t kind) {
  switch (kind) {
    case kCkptAtlasGen: return "atlas-study";
    case kCkptCdnGen: return "cdn-study";
    case kCkptAtlasFile: return "atlas-study-from-files";
    case kCkptCdnFile: return "cdn-study-from-files";
    case kCkptAtlasStream: return "atlas-stream";
    case kCkptCdnStream: return "cdn-stream";
    case kCkptAtlasStreamV1: return "atlas-stream-v1";
    case kCkptCdnStreamV1: return "cdn-stream-v1";
  }
  return "unknown";
}

std::string encode_checkpoint(const StudyCheckpoint& ckpt) {
  ckpt::Writer out;
  out.raw({kMagic, sizeof kMagic});
  out.u32(kCheckpointVersion);
  std::uint32_t sections = 1 + std::uint32_t(ckpt.shards.size()) +
                           (ckpt.registry_blob.empty() ? 0u : 1u) +
                           (ckpt.supervisor_blob.empty() ? 0u : 1u) +
                           (ckpt.consumed.empty() ? 0u : 1u) +
                           (ckpt.journal.empty() ? 0u : 1u);
  out.u32(sections);

  {
    ckpt::Writer meta;
    meta.u32(ckpt.kind);
    meta.u64(ckpt.config_fingerprint);
    meta.u64(ckpt.item_count);
    meta.u64(ckpt.shards.size());
    append_section(out, kSecMeta, meta.buffer());
  }
  for (const CheckpointShard& shard : ckpt.shards) {
    ckpt::Writer body;
    body.u64(shard.begin);
    body.u64(shard.end);
    body.u64(shard.next);
    body.str(shard.blob);
    append_section(out, kSecShard, body.buffer());
  }
  if (!ckpt.registry_blob.empty())
    append_section(out, kSecRegistry, ckpt.registry_blob);
  if (!ckpt.supervisor_blob.empty())
    append_section(out, kSecSupervisor, ckpt.supervisor_blob);
  if (!ckpt.consumed.empty()) {
    ckpt::Writer body;
    body.u64(ckpt.consumed.size());
    for (const std::string& name : ckpt.consumed) body.str(name);
    append_section(out, kSecStream, body.buffer());
  }
  if (!ckpt.journal.empty()) {
    ckpt::Writer body;
    body.u64(ckpt.journal_length());
    body.u64(ckpt.journal.size());
    for (const JournalSegment& seg : ckpt.journal) {
      body.u64(seg.length);
      body.u32(seg.crc);
    }
    append_section(out, kSecJournal, body.buffer());
  }

  out.u32(ckpt::crc32(out.buffer()));
  return out.take();
}

Expected<StudyCheckpoint> decode_checkpoint(std::string_view bytes) {
  if (bytes.size() < sizeof kMagic + 4 + 4 + 4)
    return data_loss("file shorter than the fixed header");
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0)
    return data_loss("bad magic (not a DynamIPs checkpoint)");

  // Whole-file CRC first: any damage anywhere fails here already; section
  // CRCs below then localize it for the error message.
  std::string_view body = bytes.substr(0, bytes.size() - 4);
  ckpt::Reader trailer(bytes.substr(bytes.size() - 4));
  if (trailer.u32() != ckpt::crc32(body))
    return data_loss("whole-file CRC mismatch");

  ckpt::Reader in(body.substr(sizeof kMagic));
  std::uint32_t version = in.u32();
  if (version != kCheckpointVersion)
    return Status(StatusCode::kFailedPrecondition,
                  "unsupported checkpoint version " + std::to_string(version) +
                      " (this build reads version " +
                      std::to_string(kCheckpointVersion) + ")");
  std::uint32_t section_count = in.u32();

  StudyCheckpoint ckpt;
  bool have_meta = false;
  std::uint64_t declared_shards = 0;
  for (std::uint32_t i = 0; i < section_count; ++i) {
    std::uint32_t tag = in.u32();
    std::string payload = in.str();
    std::uint32_t crc = in.u32();
    if (!in.ok()) return data_loss("truncated section table");
    if (crc != ckpt::crc32(payload))
      return data_loss("section " + ckpt::fourcc_name(tag) +
                       " CRC mismatch");

    ckpt::Reader sec(payload);
    if (tag == kSecMeta) {
      ckpt.kind = sec.u32();
      ckpt.config_fingerprint = sec.u64();
      ckpt.item_count = sec.u64();
      declared_shards = sec.u64();
      if (!sec.ok() || sec.remaining() != 0)
        return data_loss("malformed META section");
      have_meta = true;
    } else if (tag == kSecShard) {
      CheckpointShard shard;
      shard.begin = sec.u64();
      shard.end = sec.u64();
      shard.next = sec.u64();
      shard.blob = sec.str();
      if (!sec.ok() || sec.remaining() != 0)
        return data_loss("malformed SHRD section");
      ckpt.shards.push_back(std::move(shard));
    } else if (tag == kSecRegistry) {
      ckpt.registry_blob = std::move(payload);
    } else if (tag == kSecSupervisor) {
      ckpt.supervisor_blob = std::move(payload);
    } else if (tag == kSecStream) {
      std::uint64_t n = sec.size();
      ckpt.consumed.reserve(n);
      for (std::uint64_t k = 0; k < n; ++k) ckpt.consumed.push_back(sec.str());
      if (!sec.ok() || sec.remaining() != 0)
        return data_loss("malformed STRM section");
    } else if (tag == kSecJournal) {
      const std::uint64_t committed = sec.u64();
      const std::uint64_t n = sec.size();
      ckpt.journal.resize(n);
      for (JournalSegment& seg : ckpt.journal) {
        seg.length = sec.u64();
        seg.crc = sec.u32();
      }
      if (!sec.ok() || sec.remaining() != 0 ||
          committed != ckpt.journal_length())
        return data_loss("malformed JRNL section");
    } else {
      return data_loss("unknown section " + ckpt::fourcc_name(tag));
    }
  }
  if (!in.ok() || in.remaining() != 0)
    return data_loss("trailing or missing bytes after the section table");
  if (!have_meta) return data_loss("missing META section");
  if (ckpt.kind == kCkptAtlasStreamV1 || ckpt.kind == kCkptCdnStreamV1)
    return Status(StatusCode::kFailedPrecondition,
                  std::string("unsupported stream checkpoint: ") +
                      checkpoint_kind_name(ckpt.kind) +
                      " is a version-1 stream checkpoint, which holds the "
                      "whole dataset inline; this build reads version-2 "
                      "stream checkpoints (a manifest plus a journal), so "
                      "restart the stream without it");
  if (is_stream_checkpoint_kind(ckpt.kind) &&
      ckpt.journal.size() != ckpt.consumed.size())
    return data_loss("the journal table lists " +
                     std::to_string(ckpt.journal.size()) +
                     " segments for " + std::to_string(ckpt.consumed.size()) +
                     " consumed batches");
  if (ckpt.shards.size() != declared_shards)
    return data_loss("shard count mismatch (META says " +
                     std::to_string(declared_shards) + ", found " +
                     std::to_string(ckpt.shards.size()) + ")");

  // Shard-table invariants: contiguous ranges inside [0, item_count],
  // progress inside each range. The table need not start at 0 or cover
  // every item: a `--shard i/N` process checkpoints only its slice.
  // Where the expected coverage is known, the caller enforces it —
  // plan_shards() validates that a resumed table tiles the process's
  // slice, and combine_shard_checkpoints() that the union of slices
  // tiles [0, item_count).
  std::uint64_t expect_begin = ckpt.shards.empty() ? 0 : ckpt.shards[0].begin;
  for (std::size_t s = 0; s < ckpt.shards.size(); ++s) {
    const CheckpointShard& shard = ckpt.shards[s];
    if (shard.begin != expect_begin || shard.end < shard.begin ||
        shard.next < shard.begin || shard.next > shard.end ||
        shard.end > ckpt.item_count)
      return data_loss("inconsistent shard table at shard " +
                       std::to_string(s));
    expect_begin = shard.end;
  }
  return ckpt;
}

namespace {

/// The `checkpoint.write` failpoint: one evaluation per checkpoint write,
/// whatever files the write touches.
Status injected_write_fault(const std::string& path) {
  if (auto fp = core::failpoint("checkpoint.write"); fp) {
    if (fp.is_error())
      return Status(StatusCode::kInternal,
                    std::string("checkpoint write failed (injected ") +
                        fp.errno_name() + "): " + path);
    core::failpoint_sleep(fp);
  }
  return Status::Ok();
}

/// Publish an encoded checkpoint at `path` atomically, keeping `.prev`.
Status publish_checkpoint(const std::string& path, std::string_view encoded,
                          bool keep_previous) {
  if (auto fp = core::failpoint("checkpoint.torn"); fp.is_short_write()) {
    // Clobber the primary *non*-atomically with a truncated image — the
    // on-disk state a mid-section crash would leave if the atomic writer
    // did not exist. read_checkpoint_with_fallback must recover from
    // `.prev`.
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(encoded.data(), std::streamsize(encoded.size() / 2));
    return Status(StatusCode::kDataLoss,
                  "torn checkpoint section write (injected): " + path);
  }
  Status wrote = write_file_atomic(path, encoded, keep_previous)
                     .with_context("write checkpoint " + path);
  if (wrote.ok() && !keep_previous) {
    // keep-last-1 retention (disk pressure): once the new generation is
    // durable, release any `.prev` sibling left by earlier keep-last-2
    // writes. Best-effort — a lingering `.prev` only costs bytes.
    std::error_code ec;
    std::filesystem::remove(path + ".prev", ec);
  }
  return wrote;
}

/// Write `bytes` into the journal at `offset`, cut the file there, and
/// fsync it (and, for a new journal, its directory entry): one descriptor
/// for the write, the cut and the fsync. The `atomic_file.fsync` and
/// `atomic_file.dirsync` failpoints are evaluated as fsync_path and
/// fsync_parent_dir evaluate them.
Status write_journal_at(const std::string& path, std::uint64_t offset,
                        std::string_view bytes) {
#ifdef __unix__
  int fd;
  do {
    fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0)
    return Status(StatusCode::kInternal,
                  "cannot open journal " + path + ": " + std::strerror(errno));
  auto fail = [&](std::string what, int err) {
    int ignored;
    atomic_detail::close_checked(fd, &ignored);
    if (err != 0) what += std::string(": ") + std::strerror(err);
    return Status(StatusCode::kInternal, what);
  };
  for (std::size_t done = 0; done < bytes.size();) {
    const ssize_t n = ::pwrite(fd, bytes.data() + done, bytes.size() - done,
                               off_t(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return fail("short write to journal " + path, n < 0 ? errno : 0);
    done += std::size_t(n);
  }
  int rc;
  do {
    rc = ::ftruncate(fd, off_t(offset + bytes.size()));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) return fail("cannot cut journal " + path, errno);
  if (auto fp = core::failpoint("atomic_file.fsync"); fp.is_error())
    return fail(std::string("fsync failed (injected ") + fp.errno_name() +
                    "): " + path,
                0);
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) return fail("fsync failed: " + path, errno);
  int close_err = 0;
  if (!atomic_detail::close_checked(fd, &close_err))
    return Status(StatusCode::kInternal, "close after fsync failed: " + path +
                                             ": " + std::strerror(close_err));
#else
  {
    std::fstream out(path, std::ios::binary | std::ios::in | std::ios::out);
    if (!out.is_open())
      out.open(path, std::ios::binary | std::ios::out | std::ios::trunc);
    if (!out.is_open())
      return Status(StatusCode::kInternal, "cannot open journal " + path);
    out.seekp(std::streamoff(offset));
    out.write(bytes.data(), std::streamsize(bytes.size()));
    out.flush();
    if (!out)
      return Status(StatusCode::kInternal, "short write to journal " + path);
  }
  std::error_code ec;
  std::filesystem::resize_file(path, offset + bytes.size(), ec);
  if (ec)
    return Status(StatusCode::kInternal,
                  "cannot cut journal " + path + ": " + ec.message());
#endif
  return offset == 0 ? atomic_detail::fsync_parent_dir(path) : Status::Ok();
}

}  // namespace

Status write_checkpoint(const std::string& path, const StudyCheckpoint& ckpt,
                        bool keep_previous) {
  if (path.empty())
    return Status(StatusCode::kInvalidArgument, "empty checkpoint path");
  std::string encoded = encode_checkpoint(ckpt);
  if (Status st = injected_write_fault(path); !st.ok()) return st;
  return publish_checkpoint(path, encoded, keep_previous);
}

Expected<StudyCheckpoint> read_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open())
    return Status(StatusCode::kNotFound, "cannot open checkpoint: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad())
    return Status(StatusCode::kInternal, "cannot read checkpoint: " + path);
  auto decoded = decode_checkpoint(buf.view());
  if (!decoded.ok()) {
    Status st = decoded.status();
    return st.with_context(path);
  }
  decoded->journal_path = journal_path(path);
  return decoded;
}

Expected<StudyCheckpoint> read_checkpoint_with_fallback(
    const std::string& path, std::string* used_path) {
  auto primary = read_checkpoint(path);
  if (primary.ok()) {
    if (used_path) *used_path = path;
    return primary;
  }
  const std::string prev_path = path + ".prev";
  auto prev = read_checkpoint(prev_path);
  if (prev.ok()) {
    if (used_path) *used_path = prev_path;
    return prev;
  }
  Status st = primary.status();
  return st.with_context("no usable checkpoint (" + prev_path +
                         " also failed: " + prev.status().message() + ")");
}

void remove_checkpoint_files(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(path + ".prev", ec);
  std::filesystem::remove(path + ".tmp", ec);
  std::filesystem::remove(journal_path(path), ec);
}

std::string journal_path(const std::string& path) {
  std::string_view base = path;
  if (base.ends_with(".prev")) base.remove_suffix(5);
  return std::string(base) + ".journal";
}

Status commit_stream_checkpoint(const std::string& path, StudyCheckpoint& ckpt,
                                std::string_view segment,
                                std::uint32_t segment_crc,
                                bool keep_previous) {
  if (path.empty())
    return Status(StatusCode::kInvalidArgument, "empty checkpoint path");
  const std::string journal = journal_path(path);
  const std::uint64_t committed = ckpt.journal_length();
  const std::size_t segments = ckpt.journal.size();
  if (Status st = injected_write_fault(path); !st.ok()) {
    // What a failed append leaves behind: part of the segment past the
    // committed length, for the retry to overwrite.
    if (!segment.empty())
      (void)write_journal_at(journal, committed,
                             segment.substr(0, segment.size() / 2));
    return st;
  }
  if (!segment.empty()) {
    if (Status st = write_journal_at(journal, committed, segment); !st.ok())
      return st.with_context("append to journal " + journal);
    ckpt.journal.push_back({segment.size(), segment_crc});
  }
  Status wrote =
      publish_checkpoint(path, encode_checkpoint(ckpt), keep_previous);
  if (!wrote.ok()) ckpt.journal.resize(segments);
  return wrote;
}

Status read_journal(
    const StudyCheckpoint& ckpt,
    const std::function<Status(std::size_t, std::string_view)>& visit) {
  if (ckpt.journal.size() != ckpt.consumed.size())
    return data_loss("the journal table does not match the consumed batches");
  if (ckpt.journal.empty()) return Status::Ok();
  const std::string& path = ckpt.journal_path;
  auto segment_name = [&](std::size_t i) {
    return "journal segment " + std::to_string(i) + " (" + ckpt.consumed[i] +
           ")";
  };
  std::error_code ec;
  const std::uint64_t size = std::filesystem::file_size(path, ec);
  if (ec)
    return data_loss("cannot read the journal " + path + " (" + ec.message() +
                     "); it should hold " +
                     std::to_string(ckpt.journal.size()) + " segments");
  std::ifstream in(path, std::ios::binary);
  std::string bytes;
  std::uint64_t end = 0;
  for (std::size_t i = 0; i < ckpt.journal.size(); ++i) {
    const JournalSegment& seg = ckpt.journal[i];
    end += seg.length;
    if (end > size)
      return data_loss(segment_name(i) + " is cut short: " + path + " has " +
                       std::to_string(size) + " bytes, the manifest commits " +
                       std::to_string(ckpt.journal_length()));
    bytes.resize(seg.length);
    in.read(bytes.data(), std::streamsize(seg.length));
    if (!in)
      return Status(StatusCode::kInternal,
                    "cannot read " + segment_name(i) + " from " + path);
    if (ckpt::crc32(bytes) != seg.crc)
      return data_loss(segment_name(i) + " CRC mismatch in " + path);
    if (Status st = visit(i, bytes); !st.ok()) return st;
  }
  return Status::Ok();
}

Status init_journal(const std::string& path, const StudyCheckpoint* from) {
  namespace fs = std::filesystem;
  const std::string journal = journal_path(path);
  const std::uint64_t length = from ? from->journal_length() : 0;
  std::error_code ec;
  bool copied = false;
  if (length > 0 && !fs::equivalent(from->journal_path, journal, ec)) {
    ec.clear();
    fs::copy_file(from->journal_path, journal,
                  fs::copy_options::overwrite_existing, ec);
    if (ec)
      return Status(StatusCode::kInternal,
                    "cannot copy journal " + from->journal_path + " to " +
                        journal + ": " + ec.message());
    copied = true;
  }
  ec.clear();
  const std::uint64_t size = fs::file_size(journal, ec);
  if (ec) return Status::Ok();  // no journal yet, and nothing committed
  if (size != length) {
    fs::resize_file(journal, length, ec);
    if (ec)
      return Status(StatusCode::kInternal,
                    "cannot cut journal " + journal + ": " + ec.message());
  }
  if (length == 0) return Status::Ok();
  if (Status st = atomic_detail::fsync_path(journal); !st.ok()) return st;
  return copied ? atomic_detail::fsync_parent_dir(journal) : Status::Ok();
}

Expected<StudyCheckpoint> combine_shard_checkpoints(
    const std::vector<std::string>& paths) {
  if (paths.empty())
    return Status(StatusCode::kInvalidArgument,
                  "no shard checkpoints to combine");
  StudyCheckpoint combined;
  bool first = true;
  for (const auto& path : paths) {
    auto loaded = read_checkpoint_with_fallback(path);
    if (!loaded.ok()) {
      Status st = loaded.status();
      return st.with_context("combine shard checkpoints");
    }
    StudyCheckpoint ck = loaded.take();
    if (is_stream_checkpoint_kind(ck.kind) || !ck.consumed.empty())
      return Status(StatusCode::kFailedPrecondition,
                    path + " is a streaming checkpoint; sharded merge "
                           "applies to one-shot study runs");
    if (first) {
      combined.kind = ck.kind;
      combined.config_fingerprint = ck.config_fingerprint;
      combined.item_count = ck.item_count;
      first = false;
    } else {
      if (ck.kind != combined.kind)
        return Status(StatusCode::kFailedPrecondition,
                      path + " was written by the " +
                          checkpoint_kind_name(ck.kind) +
                          " study but earlier shards are " +
                          checkpoint_kind_name(combined.kind));
      if (ck.config_fingerprint != combined.config_fingerprint)
        return Status(StatusCode::kFailedPrecondition,
                      path + " has a different config fingerprint; every "
                             "shard must run the exact same study "
                             "parameters");
      if (ck.item_count != combined.item_count)
        return Status(StatusCode::kFailedPrecondition,
                      path + " covers " + std::to_string(ck.item_count) +
                          " items but earlier shards cover " +
                          std::to_string(combined.item_count));
    }
    for (auto& shard : ck.shards) {
      if (shard.next != shard.end)
        return Status(StatusCode::kFailedPrecondition,
                      path + " is incomplete: shard [" +
                          std::to_string(shard.begin) + ", " +
                          std::to_string(shard.end) + ") stopped at " +
                          std::to_string(shard.next) +
                          "; finish or re-run that shard before merging");
      combined.shards.push_back(std::move(shard));
    }
  }
  // Index order: the resumed reduction must merge shards in ascending item
  // order for byte-identity with a single-process run.
  std::stable_sort(combined.shards.begin(), combined.shards.end(),
                   [](const CheckpointShard& a, const CheckpointShard& b) {
                     return a.begin < b.begin;
                   });
  std::uint64_t cursor = 0;
  for (const auto& shard : combined.shards) {
    if (shard.begin == shard.end) continue;
    if (shard.begin != cursor)
      return Status(StatusCode::kFailedPrecondition,
                    "shard ranges do not tile the item range: gap or "
                    "overlap at item " +
                        std::to_string(shard.begin) + " (expected " +
                        std::to_string(cursor) +
                        "); a shard file is missing, duplicated, or from "
                        "a different --shard split");
    cursor = shard.end;
  }
  if (cursor != combined.item_count)
    return Status(StatusCode::kFailedPrecondition,
                  "shard ranges cover items up to " + std::to_string(cursor) +
                      " of " + std::to_string(combined.item_count) +
                      "; a shard file is missing");
  return combined;
}

}  // namespace dynamips::io
