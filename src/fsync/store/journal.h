// Write-ahead intent journal for the crash-safe apply path. A tree
// apply (ApplyTransaction) appends intent records to the journal
// *before* mutating the tree, with an fsync barrier between the append
// and the mutation; a trailing COMMIT record marks the transaction
// durable. Recovery (apply.h) reads the journal back and either rolls
// forward (COMMIT present: only cleanup remains) or rolls back (no
// COMMIT: discard staged temp files) to a state where every file is
// bit-exactly old or new.
//
// On-disk format: a 6-byte magic header "FSXJ1\n" followed by framed
// records, each
//
//   u32 payload_length (LE) | payload | u32 CRC32C(payload) (LE)
//
// where the payload's first byte is the record type. A crash can tear
// the final record; the reader stops cleanly at the first frame whose
// length or CRC fails, reporting the tail as torn (an expected state,
// not an error — the torn record's intent never executed, because the
// mutation it guards happens only after the append's fsync returns).
#ifndef FSYNC_STORE_JOURNAL_H_
#define FSYNC_STORE_JOURNAL_H_

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "fsync/hash/fingerprint.h"
#include "fsync/util/bytes.h"
#include "fsync/util/status.h"

namespace fsx::store {

class VfsFile;

/// Name of the tree-level journal at the root of a managed tree, and
/// the suffix of staged temp files awaiting their commit rename. Names
/// ending in kJournalSuffix stay reserved (IsInternalArtifact): older
/// builds wrote per-file journals under it.
inline constexpr char kJournalName[] = ".fsx-journal";
inline constexpr char kJournalSuffix[] = ".fsx-journal";
inline constexpr char kTempSuffix[] = ".fsx-tmp";

enum class JournalRecordType : uint8_t {
  kBegin = 1,       // transaction start
  kFileIntent = 2,  // one file about to be renamed into place / deleted
  kCommit = 4,      // all mutations durable; only cleanup remains
  kAbort = 5,       // transaction abandoned deliberately
};

enum class FileOp : uint8_t {
  kWrite = 0,
  kDelete = 1,
  kAdopt = 2,  // content copied from another path in the same tree
               // (rename/move detection; zero network bytes)
};

/// One journal record (a tagged union flattened into a struct; only
/// the fields of the active `type` are meaningful).
struct JournalRecord {
  JournalRecordType type = JournalRecordType::kBegin;
  // kFileIntent
  FileOp op = FileOp::kWrite;
  std::string path;          // tree-relative path ('/'-separated)
  uint64_t size = 0;         // staged content size (kWrite/kAdopt)
  Fingerprint fingerprint{};  // staged content fingerprint (kWrite/kAdopt)
  std::string from_path;  // adoption source, tree-relative (kAdopt only)

  friend bool operator==(const JournalRecord&,
                         const JournalRecord&) = default;
};

/// Serializes `record` into a frame payload (no length/CRC framing).
Bytes EncodeJournalRecord(const JournalRecord& record);

/// Parses a frame payload produced by EncodeJournalRecord.
StatusOr<JournalRecord> DecodeJournalRecord(ByteSpan payload);

/// Append-only journal writer. Every Append is an fsync barrier: when
/// it returns, the record is durable and the guarded mutation may
/// proceed.
class JournalWriter {
 public:
  JournalWriter() = default;
  JournalWriter(JournalWriter&& other) noexcept;
  JournalWriter& operator=(JournalWriter&& other) noexcept;
  ~JournalWriter();

  /// Creates (truncating any previous journal) and syncs the journal
  /// and its parent directory, so the journal's existence itself is
  /// durable before the first intent lands in it.
  static StatusOr<JournalWriter> Create(const std::filesystem::path& path);

  /// Appends one framed record and fsyncs the journal. A crash during
  /// the append tears at most this record (the file is opened in
  /// append mode; earlier records are never rewritten).
  Status Append(const JournalRecord& record);

  /// Closes the underlying file (also done by the destructor).
  void Close();

  bool open() const { return file_ != nullptr; }
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
  std::unique_ptr<VfsFile> file_;  // via the process-current Vfs (vfs.h)
};

/// A journal read back during recovery.
struct JournalContents {
  std::vector<JournalRecord> records;  // valid records, in append order
  bool committed = false;              // a kCommit record is present
  bool aborted = false;                // a kAbort record is present
  bool torn_tail = false;  // trailing bytes failed the length/CRC check
};

/// Reads the journal at `path`. kNotFound when absent; kDataLoss only
/// when the header magic is wrong (a torn tail is reported via
/// `torn_tail`, not as an error). A journal that exists but cannot be
/// read — a directory, unreadable permissions, a failing device —
/// surfaces its typed status (kFailedPrecondition / kUnavailable, see
/// ErrnoToStatus) rather than being misreported as absent: recovery
/// must not conclude "no journal, nothing in flight" from EACCES.
StatusOr<JournalContents> ReadJournal(const std::filesystem::path& path);

/// Durably removes the journal — the commit point of both a completed
/// transaction and a completed recovery. Missing is OK.
Status RemoveJournal(const std::filesystem::path& path);

/// True for fsstore/apply bookkeeping files that are never collection
/// content: the manifest, the stat index (tree_index.h), the tree
/// journal and any other `*.fsx-journal` name, and staged `*.fsx-tmp`
/// files. LoadTree skips them, delete_extra must not delete them, the
/// apply and the daemon client refuse them as names, and recovery
/// cleans the temps.
bool IsInternalArtifact(std::string_view rel_path);

}  // namespace fsx::store

#endif  // FSYNC_STORE_JOURNAL_H_
