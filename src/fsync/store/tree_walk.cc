#include "fsync/store/tree_walk.h"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <vector>

namespace fsx::store {

namespace fs = std::filesystem;

namespace {

struct Child {
  std::string name;
  struct stat st;
  bool is_dir;
};

// Orders siblings as if every directory's name ended in '/': all of a
// directory's descendants extend "name/", so visiting children in this
// order emits non-directory paths in plain std::string order.
inline bool Before(const Child& a, const Child& b) {
  const size_t n = std::min(a.name.size(), b.name.size());
  if (int c = std::memcmp(a.name.data(), b.name.data(), n); c != 0) {
    return c < 0;
  }
  // Sibling names are distinct, so one ends at n: compare what follows.
  auto next = [n](const Child& x) -> int {
    if (x.name.size() > n) {
      return static_cast<unsigned char>(x.name[n]);
    }
    return x.is_dir ? '/' : -1;
  };
  return next(a) < next(b);
}

Status WalkFailed(const fs::path& root, const std::string& rel_dir, int err) {
  std::string where = root.string();
  if (!rel_dir.empty()) {
    where += "/" + rel_dir;
  }
  return Status::Internal("walk failed under " + where + ": " +
                          std::strerror(err));
}

// Walks the directory open at `fd` (owned: closed before returning),
// whose entries are named `prefix` + name. `prefix` is empty at the
// root and ends in '/' below it; it is restored before returning.
Status WalkDir(int fd, std::string& prefix, const fs::path& root,
               const TreeVisitor& visit) {
  DIR* dir = ::fdopendir(fd);
  if (dir == nullptr) {
    const int err = errno;
    ::close(fd);
    return WalkFailed(root, prefix, err);
  }
  std::unique_ptr<DIR, int (*)(DIR*)> closer(dir, &::closedir);

  std::vector<Child> children;
  for (;;) {
    errno = 0;
    const dirent* de = ::readdir(dir);
    if (de == nullptr) {
      if (errno != 0) {
        return WalkFailed(root, prefix, errno);
      }
      break;
    }
    const char* name = de->d_name;
    if (name[0] == '.' &&
        (name[1] == '\0' || (name[1] == '.' && name[2] == '\0'))) {
      continue;
    }
    Child c;
    if (::fstatat(fd, name, &c.st, AT_SYMLINK_NOFOLLOW) != 0) {
      if (errno == ENOENT) {
        continue;  // removed since readdir named it
      }
      return WalkFailed(root, prefix + name, errno);
    }
    c.name = name;
    c.is_dir = S_ISDIR(c.st.st_mode);
    children.push_back(std::move(c));
  }
  std::sort(children.begin(), children.end(),
            [](const Child& a, const Child& b) { return Before(a, b); });

  const size_t base = prefix.size();
  for (const Child& c : children) {
    prefix.append(c.name);
    Status s = visit(prefix, c.st);
    if (s.ok() && c.is_dir) {
      const int sub = ::openat(fd, c.name.c_str(),
                               O_RDONLY | O_DIRECTORY | O_NOFOLLOW | O_CLOEXEC);
      if (sub >= 0) {
        prefix.push_back('/');
        s = WalkDir(sub, prefix, root, visit);
      } else if (errno != ENOENT && errno != ENOTDIR && errno != ELOOP) {
        // (Those three: replaced since its stat; nothing left to walk.)
        s = WalkFailed(root, prefix, errno);
      }
    }
    prefix.resize(base);
    FSYNC_RETURN_IF_ERROR(s);
  }
  return Status::Ok();
}

}  // namespace

Status WalkTree(const fs::path& root, const TreeVisitor& visit) {
  const int fd = ::open(root.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return WalkFailed(root, "", errno);
  }
  std::string prefix;
  return WalkDir(fd, prefix, root, visit);
}

}  // namespace fsx::store
