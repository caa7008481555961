// columnar.h — versioned, checksummed, memory-mappable columnar batches.
//
// The CSV readers (readers.h) parse text row by row; at paper scale (the
// CDN dataset is 32.7 B association tuples) the parse itself dominates
// ingest. A `.col` batch stores the same dataset as structure-of-arrays
// columns of fixed-width little-endian integers, so loading a row is a
// handful of fixed-offset loads and a plausibility check instead of a
// hundred bytes of text handling. Decode still puts every row through the
// same per-row classification and dataset builder as the CSV path; DESIGN.md
// records the measured gain over CSV ingest (about 9x for assoc tuples).
//
// File layout (all integers little-endian):
//
//   "DYNCOL1\n"                                   8-byte magic
//   u32 version                                   currently 1
//   u32 kind                                      1 = echo, 2 = assoc
//   u64 row_count
//   u64 group_count
//   u32 column_count
//   column directory: per column
//     u32 tag, u64 offset, u64 length, u32 crc32(payload)
//   u32 crc32(all bytes above)                    header trailer
//   ... column payloads, each 64-byte aligned ...
//
// Every semantic byte is covered by a CRC: the directory by the header
// trailer, each column payload by its directory entry. A flipped bit or a
// truncated tail therefore surfaces as a kDataLoss Status — never a crash,
// never a silently wrong dataset. Version skew is kFailedPrecondition,
// mirroring io/checkpoint.h.
//
// Mmap safety: column payloads are only ever read through byte-wise
// little-endian loads (never cast-and-dereference), so mapping the file
// needs no alignment guarantees from the format — the 64-byte alignment is
// a cache/vectorization courtesy, not a correctness requirement. The bytes
// are validated (CRCs, directory bounds, group counts summing to the row
// count) before any decode; what is NOT safe is mutating the mapping or
// expecting the file to stay unchanged underneath a live mapping — the
// readers copy decoded records out and unmap before returning.
//
// Dataset semantics are identical to the CSV path: groups play the role of
// the `#probe`/`#tags`/`#log` preambles, decoded rows are assembled by the
// same detail::DatasetBuilder (readers.h) — grouping, first non-empty tags,
// the duplicate rules, time order — and per-row decode failures are
// classified through the same RejectReason table and `ingest.reject.*`
// counters under the same error budget (ReaderOptions::max_reject_fraction,
// max_consecutive_rejects). A clean dataset therefore loads byte-identically
// through either path, which is what the columnar-vs-CSV byte-identity CI
// legs assert end to end.
//
// Each kind's columns are listed once, in directory order, in its column
// table in columnar.cpp: the group table (the kind's group key and per-group
// row counts; echo adds the probe tags), then the row columns — echo: hour,
// family, v4 addresses, v6 address halves; assoc: day, v4 prefix (address +
// length), v6 prefix (halves + length), asn4, asn6. One generic encoder and
// one generic decoder run over those tables. The assoc schema deliberately
// matches the CSV schema — no subscriber column — so columnar and CSV
// exports of the same dataset carry identical information.
//
// Threads: the encoders, the decoders and load_*_file take an optional
// core::ShardExecutor; without one the same tasks run on the caller. The
// encoder sizes every column first and allocates the batch once; tasks over
// contiguous item ranges then write their rows into every row column at the
// range's first row and CRC their slice of each column while it is in cache,
// and one more task writes the group table. The slice CRCs combine in order
// (ckpt::crc32_combine) into each column's CRC and, with the header and the
// padding, into the whole batch's, which the encoder returns with the bytes.
// The bytes do not depend on the thread count. In the decoders, the column CRCs
// are one task each (largest first on several threads) and are checked
// afterwards in directory order, so the first bad column named does not depend
// on the thread count. Echo rows decode one probe per task: a serial pre-pass
// over the group table declares the probes in group order (first appearance),
// lists each probe's groups in file order and reserves its rows once, and each
// task pushes its probe's rows under that probe's duplicate set alone, noting
// its rejects. Assoc rows decode as one task, since a record joins the log of
// its asn6 and the adjacent-duplicate rule compares rows across groups. A
// serial replay then walks the rows in order through the one reject ledger,
// accepting or rejecting each as its task found it and stopping where a trip
// stops it, so the stats, `first_rejects`, quarantine bytes, `ingest.*`
// counters and Status are those of a row-by-row loop.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "atlas/echo.h"
#include "cdn/rum.h"
#include "core/status.h"
#include "io/readers.h"

namespace dynamips::core {
class ShardExecutor;
}

namespace dynamips::io {

inline constexpr std::uint32_t kColumnarVersion = 1;
inline constexpr std::string_view kColumnarMagic = "DYNCOL1\n";
inline constexpr std::uint32_t kColumnarKindEcho = 1;
inline constexpr std::uint32_t kColumnarKindAssoc = 2;

/// True when `path` names a columnar batch (`.col` extension). The study
/// entrypoints and the stream driver use this to dispatch between the CSV
/// readers and the columnar readers; both kinds can be mixed freely in one
/// input list or watch directory.
bool is_columnar_path(std::string_view path);

// ------------------------------------------------------------------ write

/// A columnar batch and the CRC-32 of all its bytes (ckpt::crc32(bytes)),
/// which the encoder combines from its column CRCs instead of a second
/// pass: a stream journal records it for the segment.
struct EncodedBatch {
  std::string bytes;
  std::uint32_t crc = 0;
};

/// Serialize a dataset to the columnar layout (no I/O). With `exec`, the
/// rows are written and CRC'd on its threads (see the header comment).
EncodedBatch encode_echo_columnar(
    const std::vector<atlas::ProbeSeries>& dataset,
    core::ShardExecutor* exec = nullptr);
EncodedBatch encode_assoc_columnar(
    const std::vector<cdn::AssociationLog>& dataset,
    core::ShardExecutor* exec = nullptr);

/// Atomically write a dataset as a `.col` batch (tmp + fsync + rename via
/// io/atomic_file.h, like every other artifact). It is encoded on the
/// caller.
core::Status write_echo_columnar(
    const std::string& path, const std::vector<atlas::ProbeSeries>& dataset);
core::Status write_assoc_columnar(
    const std::string& path, const std::vector<cdn::AssociationLog>& dataset);

// ------------------------------------------------------------------- read

/// Decode a columnar batch from raw bytes (the fuzz surface: arbitrary
/// bytes must come back as a Status, never a crash). Structural damage —
/// bad magic, CRC mismatch, truncation, inconsistent counts — is kDataLoss;
/// an unknown version is kFailedPrecondition. Per-row implausibilities
/// (hour/day over the cap, family not 4/6, prefix length out of range,
/// duplicates) go through the shared reject classification and error
/// budget exactly like CSV line rejects. `source_label` is the quarantine
/// source column (typically the file path).
/// With `exec`, the decode runs on its threads (see the header comment);
/// the result is the same with or without it, at any thread count.
core::Expected<std::vector<atlas::ProbeSeries>> decode_echo_columnar(
    std::string_view bytes, const ReaderOptions& options = {},
    IngestStats* stats = nullptr, core::ShardExecutor* exec = nullptr);
core::Expected<std::vector<cdn::AssociationLog>> decode_assoc_columnar(
    std::string_view bytes, const ReaderOptions& options = {},
    IngestStats* stats = nullptr, core::ShardExecutor* exec = nullptr);

// -------------------------------------------------------------- dispatch

/// Load one dataset file, choosing the columnar or CSV reader by
/// extension. This is the single entry the study pipeline and the stream
/// driver load every input through, so `.col` batches ride alongside
/// `.csv` everywhere files are accepted. A `.col` file is memory-mapped on
/// POSIX where it can be; the mapping does not outlive the call. A
/// directory is kInvalidArgument and a failed read kInternal. With `exec`,
/// a `.col` file decodes, and a CSV file's lines parse, on its threads.
core::Expected<std::vector<atlas::ProbeSeries>> load_echo_file(
    const std::string& path, const ReaderOptions& options,
    IngestStats* stats, core::ShardExecutor* exec);
core::Expected<std::vector<cdn::AssociationLog>> load_assoc_file(
    const std::string& path, const ReaderOptions& options,
    IngestStats* stats, core::ShardExecutor* exec);
/// The same with no executor. An overload rather than a default argument,
/// so these still bind to a three-argument function pointer.
core::Expected<std::vector<atlas::ProbeSeries>> load_echo_file(
    const std::string& path, const ReaderOptions& options = {},
    IngestStats* stats = nullptr);
core::Expected<std::vector<cdn::AssociationLog>> load_assoc_file(
    const std::string& path, const ReaderOptions& options = {},
    IngestStats* stats = nullptr);

}  // namespace dynamips::io
