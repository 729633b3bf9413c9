#include "fsync/store/journal.h"

#include <cstring>
#include <utility>

#include "fsync/hash/crc32c.h"
#include "fsync/store/crashpoint.h"
#include "fsync/store/durable_io.h"
#include "fsync/store/vfs.h"

namespace fsx::store {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[] = {'F', 'S', 'X', 'J', '1', '\n'};
constexpr size_t kMagicLen = sizeof(kMagic);

void PutU8(Bytes& out, uint8_t v) { out.push_back(v); }

void PutU32(Bytes& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(Bytes& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

void PutString(Bytes& out, const std::string& s) {
  PutU64(out, s.size());
  for (char c : s) {
    out.push_back(static_cast<uint8_t>(c));
  }
}

uint32_t ReadU32(const uint8_t* p) {
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(p[i]) << (8 * i);
  }
  return out;
}

class Cursor {
 public:
  explicit Cursor(ByteSpan data) : data_(data) {}

  // All bound checks compare against the remaining byte count
  // (data_.size() - pos_, which never wraps since pos_ <= size) rather
  // than adding to pos_, which could overflow on corrupt input.
  bool TakeU8(uint8_t* v) {
    if (data_.size() - pos_ < 1) return false;
    *v = data_[pos_++];
    return true;
  }
  bool TakeU64(uint64_t* v) {
    if (data_.size() - pos_ < 8) return false;
    uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    *v = out;
    return true;
  }
  bool TakeFixed(void* out, size_t n) {
    if (n > data_.size() - pos_) return false;
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  bool TakeString(std::string* out) {
    uint64_t len = 0;
    if (!TakeU64(&len) || len > data_.size() - pos_) return false;
    out->assign(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
    return true;
  }
  bool exhausted() const { return pos_ == data_.size(); }

 private:
  ByteSpan data_;
  size_t pos_ = 0;
};

}  // namespace

Bytes EncodeJournalRecord(const JournalRecord& r) {
  Bytes out;
  PutU8(out, static_cast<uint8_t>(r.type));
  switch (r.type) {
    case JournalRecordType::kBegin:
      // Two retired fields, an apply mode and an old file size, stay in
      // the format as zeros.
      PutU8(out, 0);
      PutU64(out, 0);
      break;
    case JournalRecordType::kFileIntent:
      PutU8(out, static_cast<uint8_t>(r.op));
      PutString(out, r.path);
      PutU64(out, r.size);
      out.insert(out.end(), r.fingerprint.begin(), r.fingerprint.end());
      if (r.op == FileOp::kAdopt) {
        PutString(out, r.from_path);
      }
      break;
    case JournalRecordType::kCommit:
    case JournalRecordType::kAbort:
      break;
  }
  return out;
}

StatusOr<JournalRecord> DecodeJournalRecord(ByteSpan payload) {
  Cursor cur(payload);
  uint8_t type = 0;
  if (!cur.TakeU8(&type)) {
    return Status::DataLoss("journal record: empty payload");
  }
  JournalRecord r;
  r.type = static_cast<JournalRecordType>(type);
  switch (r.type) {
    case JournalRecordType::kBegin: {
      uint8_t retired[9];
      if (!cur.TakeFixed(retired, sizeof(retired))) {
        return Status::DataLoss("journal record: bad BEGIN");
      }
      break;
    }
    case JournalRecordType::kFileIntent: {
      uint8_t op = 0;
      if (!cur.TakeU8(&op) || op > 2 || !cur.TakeString(&r.path) ||
          !cur.TakeU64(&r.size) ||
          !cur.TakeFixed(r.fingerprint.data(), r.fingerprint.size())) {
        return Status::DataLoss("journal record: bad FILE-INTENT");
      }
      r.op = static_cast<FileOp>(op);
      if (r.op == FileOp::kAdopt && !cur.TakeString(&r.from_path)) {
        return Status::DataLoss("journal record: bad FILE-INTENT");
      }
      break;
    }
    case JournalRecordType::kCommit:
    case JournalRecordType::kAbort:
      break;
    default:
      return Status::DataLoss("journal record: unknown type " +
                              std::to_string(type));
  }
  if (!cur.exhausted()) {
    return Status::DataLoss("journal record: trailing bytes");
  }
  return r;
}

JournalWriter::JournalWriter(JournalWriter&& other) noexcept
    : path_(std::move(other.path_)), file_(std::move(other.file_)) {}

JournalWriter& JournalWriter::operator=(JournalWriter&& other) noexcept {
  if (this != &other) {
    Close();
    path_ = std::move(other.path_);
    file_ = std::move(other.file_);
  }
  return *this;
}

JournalWriter::~JournalWriter() { Close(); }

void JournalWriter::Close() { file_.reset(); }

StatusOr<JournalWriter> JournalWriter::Create(const fs::path& path) {
  JournalWriter w;
  w.path_ = path;
  FSYNC_ASSIGN_OR_RETURN(w.file_,
                         CurrentVfs().Open(path, OpenMode::kTruncate));
  // The single WriteFully helper handles short writes and EINTR — the
  // header is framed data like any record, not a bare ::write.
  FSYNC_RETURN_IF_ERROR(WriteFully(
      *w.file_,
      ByteSpan(reinterpret_cast<const uint8_t*>(kMagic), kMagicLen)));
  FireCrashPoint("journal:create:before-fsync");
  FSYNC_RETURN_IF_ERROR(w.file_->Fsync());
  FireCrashPoint("journal:create:after-fsync");
  // The journal's existence must itself be durable before the first
  // intent: otherwise a crash could leave renamed files with no journal
  // naming them.
  if (path.has_parent_path()) {
    FSYNC_RETURN_IF_ERROR(FsyncPath(path.parent_path()));
  }
  return w;
}

Status JournalWriter::Append(const JournalRecord& record) {
  if (!open()) {
    return Status::FailedPrecondition("journal writer not open");
  }
  Bytes payload = EncodeJournalRecord(record);
  Bytes frame;
  frame.reserve(payload.size() + 8);
  PutU32(frame, static_cast<uint32_t>(payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  PutU32(frame, Crc32c(payload));
  FireCrashPoint("journal:append:before");
  FSYNC_RETURN_IF_ERROR(WriteFully(*file_, frame));
  FSYNC_RETURN_IF_ERROR(file_->Fsync());
  FireCrashPoint("journal:append:after");
  return Status::Ok();
}

StatusOr<JournalContents> ReadJournal(const fs::path& path) {
  StatusOr<Bytes> data_or = ReadFileViaVfs(CurrentVfs(), path);
  if (!data_or.ok()) {
    // ENOENT is genuinely "no journal"; anything else (a directory,
    // EACCES, EIO) must keep its typed code — recovery deciding
    // "nothing in flight" off an unreadable journal would be silent
    // data loss.
    if (data_or.status().code() == StatusCode::kNotFound) {
      return Status::NotFound("no journal at " + path.string());
    }
    return data_or.status();
  }
  Bytes data = std::move(data_or).value();
  if (data.size() < kMagicLen ||
      std::memcmp(data.data(), kMagic, kMagicLen) != 0) {
    return Status::DataLoss("journal " + path.string() +
                            ": bad or truncated header");
  }
  JournalContents out;
  size_t pos = kMagicLen;
  while (pos < data.size()) {
    // Compare against the remaining byte count — `pos + 4 + len + 4`
    // can wrap on 32-bit size_t when a corrupt frame declares a length
    // near UINT32_MAX, turning a torn-tail stop into an OOB read.
    if (data.size() - pos < 8) {
      out.torn_tail = true;
      break;
    }
    uint32_t len = ReadU32(data.data() + pos);
    if (len > data.size() - pos - 8) {
      out.torn_tail = true;
      break;
    }
    ByteSpan payload(data.data() + pos + 4, len);
    uint32_t want_crc = ReadU32(data.data() + pos + 4 + len);
    if (Crc32c(payload) != want_crc) {
      out.torn_tail = true;
      break;
    }
    auto record = DecodeJournalRecord(payload);
    if (!record.ok()) {
      out.torn_tail = true;
      break;
    }
    if (record->type == JournalRecordType::kCommit) {
      out.committed = true;
    }
    if (record->type == JournalRecordType::kAbort) {
      out.aborted = true;
    }
    out.records.push_back(*std::move(record));
    pos += 4 + len + 4;
  }
  return out;
}

Status RemoveJournal(const fs::path& path) { return RemoveDurable(path); }

bool IsInternalArtifact(std::string_view rel_path) {
  // Basename-level check: artifacts can live in subdirectories (a staged
  // temp sits next to its target file).
  size_t slash = rel_path.find_last_of('/');
  std::string_view base =
      slash == std::string_view::npos ? rel_path : rel_path.substr(slash + 1);
  return base == ".fsx-manifest" || base == ".fsx-index" ||
         base == kJournalName ||
         base.ends_with(kTempSuffix) || base.ends_with(kJournalSuffix);
}

}  // namespace fsx::store
