// The store layer's one sorted-merge lookup. The apply's inputs (the
// incoming Collection, the expected Manifest, the stat walk and the
// stat index) are all sorted by path, and the apply visits paths in
// that same order, so each join advances a cursor instead of searching.
#ifndef FSYNC_STORE_MERGE_CURSOR_H_
#define FSYNC_STORE_MERGE_CURSOR_H_

#include <algorithm>
#include <iterator>
#include <string_view>

namespace fsx::store {

/// Looks names up in a range sorted by `name_of(element)`, a
/// std::string_view, by advancing one position, so a pass in ascending
/// order costs O(1) amortised per name. A name behind the cursor
/// re-seeks with a binary search.
template <typename It, typename NameOf>
class MergeCursor {
 public:
  MergeCursor(It begin, It end, NameOf name_of)
      : begin_(begin), end_(end), it_(begin), name_of_(name_of) {}

  /// The element named `name`, or the end of the range.
  It Find(std::string_view name) {
    if (it_ != begin_ && name < name_of_(*std::prev(it_))) {
      it_ = std::partition_point(begin_, end_, [&](const auto& e) {
        return name_of_(e) < name;
      });
    }
    while (it_ != end_ && name_of_(*it_) < name) {
      ++it_;
    }
    return it_ != end_ && name_of_(*it_) == name ? it_ : end_;
  }

 private:
  It begin_, end_, it_;
  NameOf name_of_;
};

/// The name of a Collection or Manifest element (a map keyed by path).
inline constexpr auto kMapKey = [](const auto& e) -> std::string_view {
  return e.first;
};

}  // namespace fsx::store

#endif  // FSYNC_STORE_MERGE_CURSOR_H_
