// The one directory walk every store-layer tree scan goes through
// (LoadTree, the apply's stat pass, the recovery sweep and its manifest
// refresh). It is a readdir walk that fstatat()s each entry relative to
// its open directory and hands the visitor the entry's own lstat, so a
// caller learns size, times, inode and type without a second syscall
// per file — the apply keys its stat cache (tree_index.h) on exactly
// that stat. Names are built from the directory entries themselves, so
// `rel` never depends on how the root is spelled and never
// canonicalises a path (std::filesystem::relative runs a realpath per
// component per entry).
#ifndef FSYNC_STORE_TREE_WALK_H_
#define FSYNC_STORE_TREE_WALK_H_

#include <sys/stat.h>

#include <filesystem>
#include <functional>
#include <string>

#include "fsync/util/status.h"

namespace fsx::store {

/// Called once per entry: `rel` is the entry's tree-relative,
/// '/'-separated path (never empty, never with a "." or ".."
/// component); `st` is its lstat, so a symlink reads as S_ISLNK and is
/// never followed.
using TreeVisitor =
    std::function<Status(const std::string& rel, const struct stat& st)>;

/// Visits every entry under `root`, descending into real directories
/// but never through a directory symlink. A directory is visited just
/// before its contents, and entries arrive sorted by name with a
/// directory's name counted as "name/" — so the non-directory entries
/// arrive in std::string order of `rel`, the order of a Collection or a
/// Manifest, and callers can merge-join against either. The root may be
/// spelled any way (trailing '/', "./"-relative, "d/../d", through a
/// symlink). An entry that vanishes between readdir and its stat is
/// skipped. A root that cannot be opened, or a directory that cannot be
/// read mid-walk, returns kInternal ("walk failed: ...") — a walk never
/// ends early in silence. The first non-OK status a visitor returns
/// stops the walk and is returned as is.
Status WalkTree(const std::filesystem::path& root, const TreeVisitor& visit);

}  // namespace fsx::store

#endif  // FSYNC_STORE_TREE_WALK_H_
