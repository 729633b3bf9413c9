// The one directory walk every store-layer tree scan goes through
// (LoadTree, StoreTree's mirror delete, the apply's mirror delete, the
// recovery sweep and its manifest refresh). It names each entry by its
// tree-relative path lexically, from the walk's own root, instead of
// asking std::filesystem::relative — which canonicalises both paths
// (weakly_canonical: a realpath per component) for every entry and was
// most of the cost of a 1%-churn apply on a large tree.
#ifndef FSYNC_STORE_TREE_WALK_H_
#define FSYNC_STORE_TREE_WALK_H_

#include <filesystem>
#include <functional>
#include <string>

#include "fsync/util/status.h"

namespace fsx::store {

/// Called once per entry: `rel` is the entry's tree-relative,
/// '/'-separated path; `entry` is the iterator's entry (its cached type
/// answers is_regular_file / is_symlink without another stat). `rel` is
/// empty only for an entry whose path does not start with the root,
/// which the standard iterator never yields; callers' escape guards
/// treat it like any other path that leaves the tree.
using TreeVisitor = std::function<Status(
    const std::string& rel, const std::filesystem::directory_entry& entry)>;

/// Visits every entry under `root`, depth first, descending into real
/// directories but never through a directory symlink. The iterator's
/// paths are always `root` joined with the entry's components, so `rel`
/// is the suffix after `root`: the same names however `root` is spelled
/// (trailing '/', "./"-relative, "d/../d", through a symlink). What to
/// do with symlinks, non-regular files and bookkeeping artifacts is the
/// visitor's call. A root that cannot be opened, or a directory that
/// cannot be read mid-walk, returns kInternal ("walk failed: ...") — a
/// walk never ends early in silence. The first non-OK status a visitor
/// returns stops the walk and is returned as is.
Status WalkTree(const std::filesystem::path& root, const TreeVisitor& visit);

}  // namespace fsx::store

#endif  // FSYNC_STORE_TREE_WALK_H_
