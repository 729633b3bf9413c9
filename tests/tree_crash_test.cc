// Crash and chaos coverage for tree-level sync (CTest labels `crash`,
// `tree`). The kill-point sweep forks the rename-adopt apply —
// including an a<->b content swap, the hardest adoption shape — and
// _exit()s at every fsync/rename/journal-append boundary, then asserts
// the recovery contract: every file bit-exactly old or new, no debris,
// and a fresh plan computed from the surviving disk state converges.
// The chaos half runs both collection drivers over a ReliableChannel
// whose inner channel injects the seeded Bernoulli fault schedules and
// pins bit-exact reconstruction plus logical-stream determinism.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fsync/core/collection.h"
#include "fsync/obs/sync_obs.h"
#include "fsync/testing/faults.h"
#include "fsync/testing/tree_corpus.h"
#include "fsync/testing/tree_protocols.h"
#include "fsync/transport/reliable.h"
#include "fsync/util/random.h"

namespace fsx {
namespace {

using Direction = SimulatedChannel::Direction;

std::string Replay(uint64_t seed) {
  return "replay with FSX_SEED=" + std::to_string(seed);
}

// Fast virtual-time retransmission for tests (recovery behaviour is
// identical, only the simulated backoff delays shrink).
transport::ReliableParams TestParams() {
  transport::ReliableParams params;
  params.initial_timeout_us = 1000;
  return params;
}

// ---------------------------------------------------------------------------
// Chaos: tree sync over a faulty transport
// ---------------------------------------------------------------------------

TEST(TreeChaos, AllProtocolsAllSchedulesBitExact) {
  const uint64_t base_seed = SeedFromEnv(6011);
  const std::vector<TreeShape> shapes = {TreeShape::kPureRename,
                                         TreeShape::kMixedChurn};
  for (const TreeProtocolEntry& protocol : TreeConformanceProtocols()) {
    for (const FaultSchedule& schedule : ChaosSchedules(base_seed)) {
      for (TreeShape shape : shapes) {
        TreeCorpusPair pair = MakeTreeCorpusPair(shape, base_seed ^ 0x7EA);
        SCOPED_TRACE(protocol.name + " / " + schedule.Label() + " / " +
                     pair.Label() + " — " + Replay(base_seed));
        SimulatedChannel inner;
        ArmSchedule(inner, schedule);
        transport::ReliableChannel channel(inner, TestParams());
        auto r = protocol.run(pair.old_tree, pair.new_tree, channel, nullptr);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_EQ(r->reconstructed, pair.new_tree);
        EXPECT_FALSE(channel.LogicalPending(Direction::kClientToServer));
        EXPECT_FALSE(channel.LogicalPending(Direction::kServerToClient));
      }
    }
  }
}

TEST(TreeChaos, DeliveredStreamIsIndependentOfFaultSchedule) {
  const uint64_t base_seed = SeedFromEnv(6012);
  TreeCorpusPair pair =
      MakeTreeCorpusPair(TreeShape::kMixedChurn, base_seed ^ 0xFACE);
  for (const TreeProtocolEntry& protocol : TreeConformanceProtocols()) {
    SCOPED_TRACE(protocol.name + " — " + Replay(base_seed));
    SimulatedChannel clean_inner;
    transport::ReliableChannel clean(clean_inner, TestParams());
    clean.EnableTranscript();
    auto clean_r = protocol.run(pair.old_tree, pair.new_tree, clean, nullptr);
    ASSERT_TRUE(clean_r.ok()) << clean_r.status().ToString();

    FaultSchedule schedule;
    schedule.name = "mix";
    schedule.seed = base_seed ^ 0x5EED;
    for (int d = 0; d < 2; ++d) {
      schedule.drop[d] = 0.15;
      schedule.duplicate[d] = 0.10;
      schedule.reorder[d] = 0.10;
      schedule.corrupt[d] = 0.15;
    }
    SimulatedChannel faulty_inner;
    ArmSchedule(faulty_inner, schedule);
    transport::ReliableChannel faulty(faulty_inner, TestParams());
    faulty.EnableTranscript();
    auto faulty_r =
        protocol.run(pair.old_tree, pair.new_tree, faulty, nullptr);
    ASSERT_TRUE(faulty_r.ok()) << faulty_r.status().ToString();

    EXPECT_EQ(faulty_r->reconstructed, clean_r->reconstructed);
    const auto& sent_a = clean.transcript();
    const auto& sent_b = faulty.transcript();
    ASSERT_EQ(sent_a.size(), sent_b.size());
    for (size_t i = 0; i < sent_a.size(); ++i) {
      ASSERT_EQ(sent_a[i].dir, sent_b[i].dir) << "message " << i;
      ASSERT_EQ(sent_a[i].payload, sent_b[i].payload) << "message " << i;
    }
    EXPECT_GE(faulty.stats().total_bytes(), clean.stats().total_bytes());
  }
}

}  // namespace
}  // namespace fsx

// ---------------------------------------------------------------------------
// Kill-point sweep over the rename-adopt apply (the harness forks)
// ---------------------------------------------------------------------------

#include <filesystem>

#include "fsync/store/apply.h"
#include "fsync/store/fsstore.h"
#include "fsync/testing/crash.h"

namespace fsx::store {
namespace {

namespace fs = std::filesystem;
using fsx::testing::CrashRunResult;
using fsx::testing::RunWithCrashAt;

/// The old tree: a swap pair, a plain rename source, an edit target, a
/// deletion target, and a bystander.
Collection AdoptOldTree() {
  Collection c;
  c["keep.txt"] = ToBytes("untouched bystander file");
  c["a.bin"] = ToBytes("content ALPHA lives at a.bin before the sync");
  c["b.bin"] = ToBytes("content BETA lives at b.bin before the sync");
  c["old/name.txt"] = ToBytes("renamed wholesale; bytes never change");
  c["edit.txt"] = ToBytes("old edit.txt content");
  c["doomed.txt"] = ToBytes("deleted by mirror semantics");
  return c;
}

/// The new tree: a<->b swapped (an adoption cycle), old/name.txt moved
/// to new/name.txt, edit.txt rewritten, added.txt created, doomed.txt
/// gone.
Collection AdoptNewTree() {
  Collection old_tree = AdoptOldTree();
  Collection c;
  c["keep.txt"] = old_tree["keep.txt"];
  c["a.bin"] = old_tree["b.bin"];
  c["b.bin"] = old_tree["a.bin"];
  c["new/name.txt"] = old_tree["old/name.txt"];
  c["edit.txt"] = ToBytes("NEW edit.txt content, a little longer than old");
  c["added.txt"] = ToBytes("created by this sync");
  return c;
}

std::vector<AdoptOp> Adopts() {
  return {{"a.bin", "b.bin"}, {"b.bin", "a.bin"}, {"new/name.txt", "old/name.txt"}};
}

/// `files` for ApplyTreeWithAdopts: the target tree minus the adopted
/// paths (adopt targets must not also appear in `files`).
Collection WrittenFiles() {
  Collection files = AdoptNewTree();
  for (const AdoptOp& op : Adopts()) {
    files.erase(op.path);
  }
  return files;
}

class AdoptCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (fs::temp_directory_path() /
             ("fsx_tree_crash_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name()))
                .string();
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  void ResetTree() {
    fs::remove_all(root_);
    ASSERT_TRUE(ApplyTree(root_, AdoptOldTree(), Manifest{}).ok());
  }

  bool RunApply() {
    auto r = ApplyTreeWithAdopts(root_, WrittenFiles(), Adopts(),
                                 BuildManifest(AdoptOldTree()));
    return r.ok();
  }

  /// The per-file crash contract: every surviving path holds bit-exactly
  /// its old or its new bytes — in particular, neither side of the swap
  /// may ever be torn or hold a third value.
  void ExpectOldOrNew(const std::string& context) {
    Collection old_files = AdoptOldTree();
    Collection new_files = AdoptNewTree();
    auto disk = LoadTree(root_);
    ASSERT_TRUE(disk.ok()) << context << ": " << disk.status().ToString();
    for (const auto& [name, data] : *disk) {
      bool is_old = old_files.contains(name) && old_files.at(name) == data;
      bool is_new = new_files.contains(name) && new_files.at(name) == data;
      EXPECT_TRUE(is_old || is_new)
          << context << ": torn or foreign content in " << name;
    }
    for (const auto& [name, data] : old_files) {
      if (!new_files.contains(name)) {
        continue;  // deletion in flight: present-old or absent are both fine
      }
      EXPECT_TRUE(disk->contains(name))
          << context << ": " << name << " vanished";
    }
  }

  void ExpectNoApplyDebris(const std::string& context) {
    for (auto it = fs::recursive_directory_iterator(root_);
         it != fs::recursive_directory_iterator(); ++it) {
      if (!it->is_regular_file()) {
        continue;
      }
      std::string name = it->path().filename().string();
      EXPECT_FALSE(name.ends_with(kTempSuffix))
          << context << ": stranded temp " << it->path();
      EXPECT_FALSE(name.ends_with(kJournalSuffix))
          << context << ": surviving journal " << it->path();
    }
  }

  /// What a real re-sync does after a crash: re-plan against the tree
  /// as it survived, not against the pre-crash snapshot. A half-applied
  /// swap leaves the old bytes nowhere in the tree, so replaying the
  /// original adopt list cannot converge — the fresh plan always can.
  void ConvergeFromDisk(const std::string& context) {
    auto disk = LoadTree(root_);
    ASSERT_TRUE(disk.ok()) << context << ": " << disk.status().ToString();
    auto again =
        ApplyTree(root_, AdoptNewTree(), BuildManifest(*disk));
    ASSERT_TRUE(again.ok()) << context << ": " << again.status().ToString();
    EXPECT_TRUE(again->conflicts.empty()) << context;
    auto final_disk = LoadTree(root_);
    ASSERT_TRUE(final_disk.ok()) << context;
    EXPECT_EQ(*final_disk, AdoptNewTree())
        << context << ": re-plan did not converge";
  }

  std::string root_;
};

TEST_F(AdoptCrashTest, UninterruptedApplyAdoptsAndConverges) {
  ResetTree();
  auto r = ApplyTreeWithAdopts(root_, WrittenFiles(), Adopts(),
                               BuildManifest(AdoptOldTree()));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->files_adopted, 3u);
  EXPECT_TRUE(r->conflicts.empty());
  auto disk = LoadTree(root_);
  ASSERT_TRUE(disk.ok());
  EXPECT_EQ(*disk, AdoptNewTree());
  // The rename completed: mirror deletion swept the source path.
  EXPECT_FALSE(disk->contains("old/name.txt"));
  auto dirty = VerifyTree(root_);
  ASSERT_TRUE(dirty.ok());
  EXPECT_TRUE(dirty->empty());
}

TEST_F(AdoptCrashTest, EveryKillPointRecoversToOldOrNew) {
  ResetTree();
  uint64_t total = fsx::testing::CountCrashPoints([&] { return RunApply(); });
  ASSERT_GT(total, 0u) << "adopt apply fired no crash points";

  for (int64_t n = 0; n < static_cast<int64_t>(total); ++n) {
    std::string ctx = "kill-point " + std::to_string(n);
    ResetTree();
    CrashRunResult run = RunWithCrashAt(n, [&] { return RunApply(); });
    ASSERT_EQ(run.outcome, CrashRunResult::Outcome::kCrashed)
        << ctx << ": " << run.error;

    // Staging and rename keep every file old-or-new even pre-recovery.
    ExpectOldOrNew(ctx + " pre-recovery");

    obs::SyncObserver obs;
    auto rec = RecoverTree(root_, &obs);
    ASSERT_TRUE(rec.ok()) << ctx << ": " << rec.status().ToString();
    ExpectOldOrNew(ctx + " post-recovery");
    ExpectNoApplyDebris(ctx);
    if (rec->had_journal) {
      EXPECT_EQ(obs.event_count(obs::Event::kRecovery), 1u) << ctx;
      auto dirty = VerifyTree(root_);
      ASSERT_TRUE(dirty.ok()) << ctx << ": " << dirty.status().ToString();
      EXPECT_TRUE(dirty->empty()) << ctx;
    }

    ConvergeFromDisk(ctx);
  }
}

TEST_F(AdoptCrashTest, ReplayingTheStaleAdoptPlanIsSafe) {
  // Replaying the ORIGINAL plan over a half-applied tree must never
  // corrupt anything: stale adoptions surface as per-file conflicts
  // (source gone, or disk no longer as the plan last saw it), and every
  // file stays bit-exactly old or new.
  ResetTree();
  uint64_t total = fsx::testing::CountCrashPoints([&] { return RunApply(); });
  ASSERT_GT(total, 0u);

  for (int64_t n = 0; n < static_cast<int64_t>(total); ++n) {
    std::string ctx = "stale-replay after kill-point " + std::to_string(n);
    ResetTree();
    CrashRunResult run = RunWithCrashAt(n, [&] { return RunApply(); });
    ASSERT_EQ(run.outcome, CrashRunResult::Outcome::kCrashed)
        << ctx << ": " << run.error;
    auto rec = RecoverTree(root_);
    ASSERT_TRUE(rec.ok()) << ctx << ": " << rec.status().ToString();

    auto again = ApplyTreeWithAdopts(root_, WrittenFiles(), Adopts(),
                                     BuildManifest(AdoptOldTree()));
    // Per-file conflicts are fine; the apply as a whole must succeed
    // and the tree must still be old-or-new everywhere.
    ASSERT_TRUE(again.ok()) << ctx << ": " << again.status().ToString();
    ExpectOldOrNew(ctx);
    ExpectNoApplyDebris(ctx);
  }
}

}  // namespace
}  // namespace fsx::store
