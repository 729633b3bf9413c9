#include "fsync/store/tree_walk.h"

namespace fsx::store {

namespace fs = std::filesystem;

Status WalkTree(const fs::path& root, const TreeVisitor& visit) {
  // `root / ""` is `root` with exactly the separator the iterator puts
  // between it and a child name ("d" -> "d/", "d/" stays "d/").
  const fs::path::string_type prefix = (root / "").native();
  std::error_code ec;
  fs::recursive_directory_iterator it(root, ec);
  std::string rel;
  for (; !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    const fs::path::string_type& full = it->path().native();
    if (full.size() <= prefix.size() ||
        full.compare(0, prefix.size(), prefix) != 0) {
      rel.clear();
    } else {
      rel.assign(full, prefix.size());  // the native form is the generic one
    }
    FSYNC_RETURN_IF_ERROR(visit(rel, *it));
  }
  // A failed increment resets the iterator to end, so the error must be
  // read after the loop, not inside it.
  if (ec) {
    return Status::Internal("walk failed under " + root.string() + ": " +
                            ec.message());
  }
  return Status::Ok();
}

}  // namespace fsx::store
