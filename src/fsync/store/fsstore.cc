#include "fsync/store/fsstore.h"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <memory>

#include "fsync/store/journal.h"
#include "fsync/store/tree_walk.h"
#include "fsync/store/vfs.h"
#include "fsync/util/hex.h"
#include "fsync/util/mapped_file.h"

namespace fsx {

namespace fs = std::filesystem;

namespace {

constexpr char kManifestName[] = ".fsx-manifest";

StatusOr<Bytes> ReadFileBytes(const fs::path& p) {
  // One stat + read loop (util/mapped_file.h) instead of the former
  // byte-at-a-time istreambuf_iterator — the collection loader walks
  // whole trees through here.
  return ReadWholeFile(p.string());
}

// Plain (non-durable) checkpoint write through the process-current Vfs,
// so the disk-fault harness reaches it and errors carry the errno
// taxonomy. No fsync — a lost checkpoint only costs resume coverage;
// tree content is written by the journaled apply (store/apply.h).
Status WriteFileBytes(const fs::path& p, ByteSpan data) {
  store::Vfs& vfs = store::CurrentVfs();
  if (p.has_parent_path()) {
    FSYNC_RETURN_IF_ERROR(store::MkdirAll(vfs, p.parent_path()));
  }
  FSYNC_ASSIGN_OR_RETURN(std::unique_ptr<store::VfsFile> file,
                         vfs.Open(p, store::OpenMode::kTruncate));
  FSYNC_RETURN_IF_ERROR(store::WriteFully(*file, data));
  return file->Close();
}

}  // namespace

bool IsSafeRelativePath(const std::string& path) {
  if (path.empty() || path.front() == '/') {
    return false;
  }
  size_t start = 0;
  for (size_t i = 0; i <= path.size(); ++i) {
    if (i < path.size() && path[i] != '/') {
      if (path[i] == '\0' || path[i] == '\n' || path[i] == '\\') {
        return false;
      }
      continue;
    }
    const size_t len = i - start;
    if (len == 0) {
      return false;  // leading/trailing/double slash
    }
    if ((len == 1 && path[start] == '.') ||
        (len == 2 && path[start] == '.' && path[start + 1] == '.')) {
      return false;
    }
    start = i + 1;
  }
  return true;
}

Bytes SerializeManifest(const Manifest& manifest) {
  std::string out;
  for (const auto& [name, e] : manifest) {
    out += HexEncode(ByteSpan(e.fingerprint.data(), e.fingerprint.size()));
    out += ' ';
    out += std::to_string(e.size);
    out += ' ';
    out += name;
    out += '\n';
  }
  return ToBytes(out);
}

StatusOr<Manifest> ParseManifest(ByteSpan data) {
  Manifest m;
  std::string text = ToString(data);
  size_t pos = 0;
  int line_no = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      return Status::DataLoss("manifest: missing final newline");
    }
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    size_t sp1 = line.find(' ');
    size_t sp2 = line.find(' ', sp1 + 1);
    if (sp1 != 32 || sp2 == std::string::npos || sp2 + 1 >= line.size()) {
      return Status::DataLoss("manifest: malformed line " +
                              std::to_string(line_no));
    }
    Bytes fp_bytes = HexDecode(line.substr(0, sp1));
    if (fp_bytes.size() != 16) {
      return Status::DataLoss("manifest: bad fingerprint on line " +
                              std::to_string(line_no));
    }
    ManifestEntry e;
    std::copy(fp_bytes.begin(), fp_bytes.end(), e.fingerprint.begin());
    const char* size_begin = line.data() + sp1 + 1;
    const char* size_end = line.data() + sp2;
    auto [ptr, parse_ec] = std::from_chars(size_begin, size_end, e.size);
    if (parse_ec != std::errc{} || ptr != size_end) {
      return Status::DataLoss("manifest: bad size on line " +
                              std::to_string(line_no));
    }
    m[line.substr(sp2 + 1)] = e;
  }
  return m;
}

StatusOr<Collection> LoadTree(const std::string& root) {
  std::error_code ec;
  fs::path base(root);
  if (!fs::is_directory(base, ec)) {
    return Status::NotFound("not a directory: " + root);
  }
  Collection out;
  FSYNC_RETURN_IF_ERROR(store::WalkTree(
      base, [&](const std::string& rel, const struct stat& st) -> Status {
        if (S_ISLNK(st.st_mode)) {
          // A symlink could alias content from outside the tree (or turn
          // a later overwrite into an out-of-tree write); refuse rather
          // than silently follow it.
          return Status::FailedPrecondition("refusing symlink in tree: " +
                                            (base / rel).string());
        }
        if (!S_ISREG(st.st_mode) || store::IsInternalArtifact(rel)) {
          return Status::Ok();  // directories, FIFOs; metadata, not content
        }
        FSYNC_ASSIGN_OR_RETURN(Bytes data, ReadFileBytes(base / rel));
        out.emplace_hint(out.end(), rel, std::move(data));  // path order
        return Status::Ok();
      }));
  return out;
}

StatusOr<std::vector<std::string>> VerifyTree(const std::string& root) {
  FSYNC_ASSIGN_OR_RETURN(Bytes manifest_bytes,
                         ReadFileBytes(fs::path(root) / kManifestName));
  FSYNC_ASSIGN_OR_RETURN(Manifest want, ParseManifest(manifest_bytes));
  FSYNC_ASSIGN_OR_RETURN(Collection files, LoadTree(root));
  Manifest got = BuildManifest(files);

  std::vector<std::string> dirty;
  for (const auto& [name, e] : want) {
    auto it = got.find(name);
    if (it == got.end() || !(it->second == e)) {
      dirty.push_back(name);
    }
  }
  for (const auto& [name, e] : got) {
    if (!want.contains(name)) {
      dirty.push_back(name);
    }
  }
  std::sort(dirty.begin(), dirty.end());
  return dirty;
}

Status SaveCheckpointFile(const std::string& path,
                          const SessionCheckpoint& cp) {
  fs::path target(path);
  fs::path tmp = target;
  tmp += ".tmp";
  FSYNC_RETURN_IF_ERROR(WriteFileBytes(tmp, SerializeCheckpoint(cp)));
  Status renamed = store::CurrentVfs().Rename(tmp, target);
  if (!renamed.ok()) {
    (void)store::CurrentVfs().Unlink(tmp);
    return renamed;
  }
  return Status::Ok();
}

StatusOr<SessionCheckpoint> LoadCheckpointFile(const std::string& path) {
  // An interrupted SaveCheckpointFile may strand its temp; the real
  // checkpoint (if any) is intact, so just clear the debris.
  (void)store::CurrentVfs().Unlink(fs::path(path + ".tmp"));
  // Via the vfs (not the mmap reader): a checkpoint that exists but is
  // unreadable — a directory, EACCES — must surface its typed status,
  // not be misreported as "no checkpoint, start from scratch".
  FSYNC_ASSIGN_OR_RETURN(
      Bytes data, store::ReadFileViaVfs(store::CurrentVfs(), fs::path(path)));
  return ParseCheckpoint(data);
}

Status RemoveCheckpointFile(const std::string& path) {
  Status result = Status::Ok();
  for (const std::string& victim : {path, path + ".tmp"}) {
    StatusOr<bool> removed = store::CurrentVfs().Unlink(fs::path(victim));
    if (!removed.ok() && result.ok()) {
      result = removed.status();
    }
  }
  return result;
}

}  // namespace fsx
