// Tree-mutation conformance corpus: seeded (old_tree, new_tree)
// Collection pairs spanning the whole-tree shapes that stress manifest
// reconciliation and rename adoption — pure path churn, swaps, deep
// nesting, case-only renames, identical-content fan-out, small-file
// swarms, and the degenerate empty/full transitions. Every pair is a
// pure function of (shape, seed).
#ifndef FSYNC_TESTING_TREE_CORPUS_H_
#define FSYNC_TESTING_TREE_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fsync/core/collection.h"

namespace fsx {

/// Whole-tree mutation shapes covered by the tree conformance corpus.
enum class TreeShape {
  kIdenticalTrees,        // nothing changed (one-hash fast path)
  kEmptyToFull,           // client empty: everything is new
  kFullToEmpty,           // server empty: everything deleted
  kPureRename,            // every change is a move; zero new content
  kRenameSwap,            // a<->b content swaps (adoption cycles)
  kDirMove,               // one directory subtree re-rooted wholesale
  kDeepNesting,           // paths a dozen directories deep
  kCaseOnlyRename,        // paths differing only in letter case
  kIdenticalContentFanout,  // one blob under many names, reshuffled
  kSmallFileSwarm,        // hundreds of tiny files, light churn
  kMixedChurn,            // realistic release-style churn
  kDeleteHeavy,           // most files removed
  kCreateHeavy,           // most files are additions
  kEditHeavy,             // most files edited in place (walk worst case)
};

/// The shapes and seed the tree transcript pins run over (golden_test,
/// netd_test): churn with edits, adoption-only moves, and a swarm of
/// tiny files.
inline constexpr TreeShape kPinnedShapes[] = {TreeShape::kMixedChurn,
                                              TreeShape::kPureRename,
                                              TreeShape::kSmallFileSwarm};
inline constexpr uint64_t kPinnedSeed = 12345;

/// All shapes, in declaration order.
const std::vector<TreeShape>& AllTreeShapes();

/// Stable lowercase name for `shape` (used in failure messages).
const char* TreeShapeName(TreeShape shape);

/// One tree conformance input.
struct TreeCorpusPair {
  TreeShape shape = TreeShape::kIdenticalTrees;
  uint64_t seed = 0;
  Collection old_tree;
  Collection new_tree;

  /// "shape/seed" label for diagnostics.
  std::string Label() const;
};

/// Deterministically generates the pair for (shape, seed).
TreeCorpusPair MakeTreeCorpusPair(TreeShape shape, uint64_t seed);

/// The full corpus: `pairs_per_shape` seeded variants of every shape.
/// Seeds are derived from `base_seed` so FSX_SEED reshuffles everything.
std::vector<TreeCorpusPair> MakeTreeConformanceCorpus(int pairs_per_shape,
                                                      uint64_t base_seed);

}  // namespace fsx

#endif  // FSYNC_TESTING_TREE_CORPUS_H_
