// Socket-level chaos for the sync daemon: deterministic fault plans
// (short reads/writes, spurious would-blocks, torn frames, mid-session
// resets) driven through the client's injector against a live daemon.
// The invariants under every plan: the daemon never wedges or leaks
// sessions, a failed client never corrupts its replica (it either gets
// the exact server tree or a clean error), and a clean retry after any
// fault converges — resuming from checkpoints when the failure left
// them behind. Labeled `net;chaos` in CTest.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>

#include "fsync/core/config_io.h"
#include "fsync/core/tree_session.h"
#include "fsync/netd/client.h"
#include "fsync/netd/daemon.h"
#include "fsync/netd/frame.h"
#include "fsync/netd/protocol.h"
#include "fsync/netd/sockets.h"
#include "fsync/obs/sync_obs.h"
#include "fsync/store/apply.h"
#include "fsync/store/fsstore.h"
#include "fsync/store/vfs.h"
#include "fsync/store/vfs_fault.h"
#include "fsync/util/random.h"
#include "fsync/workload/edits.h"
#include "fsync/workload/text_synth.h"
#include "fsync/workload/tree.h"

namespace fsx::netd {
namespace {

// Adds two files above the 16 KiB small-file threshold, edited in the
// server's version, so faults hit the per-file sessions as well as the
// small-file bundle.
void AddLargeFiles(Collection& tree, uint64_t seed, bool edited) {
  for (uint64_t i = 0; i < 2; ++i) {
    Rng rng(seed * 31 + i);
    Bytes data = SynthSourceFile(rng, 48 * 1024);
    if (edited) {
      EditProfile edits;
      edits.num_edits = 6;
      data = ApplyEdits(data, edits, rng);
    }
    tree["large/part-" + std::to_string(i) + ".c"] = std::move(data);
  }
}

Collection ServerTree(uint64_t seed) {
  TreeChurnProfile profile = ReleaseTreeProfile(30);
  profile.seed = seed;
  profile.max_file_bytes = 16 * 1024;  // enough rounds to interrupt
  Collection tree = MakeTreeWorkload(profile).new_tree;
  AddLargeFiles(tree, seed, /*edited=*/true);
  return tree;
}

Collection StaleTree(uint64_t seed) {
  TreeChurnProfile profile = ReleaseTreeProfile(30);
  profile.seed = seed;
  profile.max_file_bytes = 16 * 1024;
  Collection tree = MakeTreeWorkload(profile).old_tree;
  AddLargeFiles(tree, seed, /*edited=*/false);
  return tree;
}

// Runs one faulty client followed by one clean retry and asserts the
// chaos invariants. Returns true when the faulty run itself succeeded.
bool RunPlanAgainstDaemon(SyncDaemon& daemon, const Collection& server_tree,
                          const Collection& stale, const FaultPlan& plan,
                          const std::string& checkpoint_dir) {
  ClientOptions faulty;
  faulty.port = daemon.port();
  faulty.fault = plan;
  faulty.checkpoint_dir = checkpoint_dir;
  faulty.io_timeout_ms = 5000;
  auto first = RunSyncClient(stale, faulty);
  if (first.ok()) {
    // Faults may still let the run through (short I/O, stalls); then
    // the replica must be exact.
    EXPECT_EQ(first->reconstructed, server_tree);
  }

  // Whatever happened, a clean client must converge afterwards: the
  // daemon survived the faulty peer with no wedged or leaked state.
  ClientOptions clean;
  clean.port = daemon.port();
  clean.checkpoint_dir = checkpoint_dir;
  clean.io_timeout_ms = 5000;
  auto retry = RunSyncClient(stale, clean);
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
  if (retry.ok()) {
    EXPECT_EQ(retry->reconstructed, server_tree);
  }
  return first.ok();
}

TEST(DaemonChaos, SurvivesShortIoAndStalls) {
  const uint64_t seed = SeedFromEnv(0xC4A0);
  Collection server_tree = ServerTree(seed);
  Collection stale = StaleTree(seed);
  SyncDaemon daemon(server_tree, DaemonOptions{});
  ASSERT_TRUE(daemon.Start().ok());

  for (uint64_t fault_seed = 1; fault_seed <= 4; ++fault_seed) {
    FaultPlan plan;
    plan.seed = fault_seed;
    plan.short_read = 0.3;
    plan.short_write = 0.3;
    plan.stall = 0.2;
    // Short/stalled I/O changes timing, never content: these runs must
    // all succeed outright.
    EXPECT_TRUE(RunPlanAgainstDaemon(daemon, server_tree, stale, plan, ""))
        << "fault seed " << fault_seed;
  }
  daemon.Stop();
  daemon.Join();
  DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.open_connections, 0u);
  EXPECT_EQ(stats.sessions_opened, stats.sessions_completed);
}

TEST(DaemonChaos, TornFramesNeverCorruptTheReplica) {
  const uint64_t seed = SeedFromEnv(0xC4A1);
  Collection server_tree = ServerTree(seed);
  Collection stale = StaleTree(seed);
  SyncDaemon daemon(server_tree, DaemonOptions{});
  ASSERT_TRUE(daemon.Start().ok());

  for (uint64_t fault_seed = 1; fault_seed <= 4; ++fault_seed) {
    FaultPlan plan;
    plan.seed = fault_seed;
    plan.torn_frame = 0.05;
    // Torn frames are CRC-caught on either side; success or clean
    // failure are both acceptable, silent corruption is not (checked
    // inside the helper).
    RunPlanAgainstDaemon(daemon, server_tree, stale, plan, "");
  }
  daemon.Stop();
  daemon.Join();
  EXPECT_EQ(daemon.stats().open_connections, 0u);
}

TEST(DaemonChaos, MidSessionResetsThenRetrySucceeds) {
  const uint64_t seed = SeedFromEnv(0xC4A2);
  Collection server_tree = ServerTree(seed);
  Collection stale = StaleTree(seed);
  SyncDaemon daemon(server_tree, DaemonOptions{});
  ASSERT_TRUE(daemon.Start().ok());

  // Kill the connection at escalating depths into the transfer — from
  // mid-handshake to mid-session — and require a clean retry each time.
  for (uint64_t cut : {64u, 1024u, 8u * 1024u, 64u * 1024u}) {
    FaultPlan plan;
    plan.seed = cut;
    plan.reset_after_bytes = cut;
    bool ok = RunPlanAgainstDaemon(daemon, server_tree, stale, plan, "");
    EXPECT_FALSE(ok && cut < 128) << "a 64-byte budget cannot finish";
  }
  daemon.Stop();
  daemon.Join();
  EXPECT_EQ(daemon.stats().open_connections, 0u);
}

TEST(DaemonChaos, KilledClientResumesFromCheckpoints) {
  // A client killed mid-session leaves checkpoints behind; the retry
  // must pick them up (resume path over the daemon protocol) and still
  // produce the exact tree.
  const uint64_t seed = SeedFromEnv(0xC4A3);
  TreeChurnProfile profile = ReleaseTreeProfile(6);
  profile.seed = seed;
  profile.min_file_bytes = 96 * 1024;  // multi-round sessions
  profile.max_file_bytes = 256 * 1024;
  profile.frac_unchanged = 0.0;
  profile.frac_edited = 0.9;
  profile.frac_renamed = 0.0;
  profile.frac_deleted = 0.0;
  TreePair pair = MakeTreeWorkload(profile);
  SyncDaemon daemon(pair.new_tree, DaemonOptions{});
  ASSERT_TRUE(daemon.Start().ok());

  const std::string ckpt_dir =
      ::testing::TempDir() + "/fsx-netd-chaos-ckpt";
  std::filesystem::remove_all(ckpt_dir);
  std::filesystem::create_directories(ckpt_dir);

  // Probe a clean run to learn the total byte traffic, then sweep cut
  // depths as fractions of it: some fraction must land after at least
  // one completed round (checkpoints exist) but before the sync ends.
  uint64_t total_traffic = 0;
  {
    ClientOptions probe;
    probe.port = daemon.port();
    auto probed = RunSyncClient(pair.old_tree, probe);
    ASSERT_TRUE(probed.ok()) << probed.status().ToString();
    total_traffic =
        probed->physical_bytes_sent + probed->physical_bytes_received;
    ASSERT_GT(total_traffic, 0u);
  }
  // The traffic is front-loaded (the first round-trip burst carries the
  // bulk of the bytes; the multi-round tail is thin), so walk the cut
  // backwards from just under the total in fine steps: the window where
  // rounds have completed but the sync hasn't lives in that tail.
  bool resumed_run_seen = false;
  for (uint64_t back = 256; back < total_traffic && !resumed_run_seen;
       back += 256) {
    const uint64_t cut = total_traffic - back;
    ClientOptions faulty;
    faulty.port = daemon.port();
    faulty.checkpoint_dir = ckpt_dir;
    faulty.fault.seed = cut;
    faulty.fault.reset_after_bytes = cut;
    faulty.io_timeout_ms = 5000;
    auto first = RunSyncClient(pair.old_tree, faulty);
    if (first.ok()) {
      continue;  // stream interleaving let this run finish; cut lower
    }
    bool have_checkpoint = false;
    for (const auto& entry :
         std::filesystem::directory_iterator(ckpt_dir)) {
      have_checkpoint |= entry.path().extension() == ".ckpt";
    }
    if (!have_checkpoint) {
      continue;  // died before round 1 completed; cut deeper
    }
    ClientOptions clean;
    clean.port = daemon.port();
    clean.checkpoint_dir = ckpt_dir;
    clean.io_timeout_ms = 5000;
    auto retry = RunSyncClient(pair.old_tree, clean);
    ASSERT_TRUE(retry.ok()) << retry.status().ToString();
    EXPECT_EQ(retry->reconstructed, pair.new_tree);
    EXPECT_GE(retry->files_resumed, 1u);
    resumed_run_seen = true;
  }
  EXPECT_TRUE(resumed_run_seen)
      << "no cut depth produced a resumable interruption";
  daemon.Stop();
  daemon.Join();
  EXPECT_EQ(daemon.stats().open_connections, 0u);
  std::filesystem::remove_all(ckpt_dir);
}

TEST(DaemonChaos, DrainUnderLoadLeavesNoWedgedClients) {
  // Drain while a herd of clients is mid-sync, each committing into its
  // own replica dir through ConnectTree: every client must end — with a
  // full replica or a clean drain-time abort — and the daemon's loop
  // must exit by itself within the drain deadline. A partial run
  // deletes nothing: every path both trees hold stays on disk.
  const uint64_t seed = SeedFromEnv(0xC4A4);
  Collection server_tree = ServerTree(seed);
  Collection stale = StaleTree(seed);
  DaemonOptions options;
  options.drain_deadline_us = 5'000'000;
  SyncDaemon daemon(server_tree, options);
  ASSERT_TRUE(daemon.Start().ok());

  const std::string base = ::testing::TempDir() + "/fsx-netd-drain";
  std::filesystem::remove_all(base);
  constexpr int kClients = 8;
  std::vector<std::string> dirs;
  for (int i = 0; i < kClients; ++i) {
    dirs.push_back(base + "/client-" + std::to_string(i));
    ASSERT_TRUE(store::ApplyTree(dirs[i], stale, Manifest{}).ok());
  }
  std::vector<StatusOr<ConnectReport>> results(
      kClients, Status::Internal("not run"));
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      ClientOptions opts;
      opts.port = daemon.port();
      opts.io_timeout_ms = 10000;
      results[i] = ConnectTree(dirs[i], opts);
    });
  }
  daemon.Drain();
  for (std::thread& t : threads) {
    t.join();
  }
  daemon.Join();  // must return: drain bounds the shutdown

  int full = 0, aborted = 0, partial = 0;
  for (int i = 0; i < kClients; ++i) {
    auto disk = LoadTree(dirs[i]);
    ASSERT_TRUE(disk.ok()) << disk.status().ToString();
    if (!results[i].ok()) {
      ++aborted;  // refused at connect/handshake during drain: clean
      EXPECT_EQ(*disk, stale) << "client " << i;
      continue;
    }
    const ClientResult& client = results[i]->client;
    if (client.files_aborted > 0) {
      ++aborted;
      ++partial;
      // Partial run: everything that did complete must be exact, and
      // every path both trees hold is still there, old or new.
      for (const auto& [path, data] : client.reconstructed) {
        auto it = server_tree.find(path);
        ASSERT_NE(it, server_tree.end()) << path;
        EXPECT_EQ(it->second, data) << path;
      }
      for (const auto& [path, data] : stale) {
        auto it = server_tree.find(path);
        if (it == server_tree.end()) {
          continue;
        }
        auto on_disk = disk->find(path);
        ASSERT_NE(on_disk, disk->end()) << "client " << i << " lost " << path;
        EXPECT_TRUE(on_disk->second == data || on_disk->second == it->second)
            << "client " << i << ": " << path << " is neither old nor new";
      }
    } else {
      EXPECT_EQ(client.reconstructed, server_tree) << "client " << i;
      EXPECT_EQ(*disk, server_tree) << "client " << i;
      ++full;
    }
  }
  EXPECT_EQ(full + aborted, kClients);
  EXPECT_EQ(daemon.stats().open_connections, 0u);
  ::testing::Test::RecordProperty("partial_clients", partial);
  std::filesystem::remove_all(base);
}

// Accepts one connection on `listen_fd` and serves `tree` with the real
// tree flow (TreeSyncServer), then refuses every file stream with a
// stream-scoped kError: the partial run a drain or a server-side stream
// error leaves behind, made deterministic.
void ServeTreeRefusingStreams(int listen_fd, const Collection& tree) {
  pollfd lp{listen_fd, POLLIN, 0};
  if (::poll(&lp, 1, 5000) <= 0) {
    return;
  }
  const int conn = ::accept(listen_fd, nullptr, nullptr);
  if (conn < 0) {
    return;
  }
  Fd c(conn);
  const SyncConfig config;
  const TreeSnapshot snapshot(tree, TreeSyncParams{.config = config});
  TreeSyncServer server(snapshot);
  FrameReader reader;
  uint32_t seq = 0;
  auto send_msg = [&](Msg msg, uint64_t stream, ByteSpan body) {
    Bytes payload = EncodeDaemonMsg(msg, stream, body);
    Bytes frame = EncodeFrame(transport::kRecordTypeDaemon, seq++, 0,
                              ByteSpan(payload.data(), payload.size()));
    size_t off = 0;
    while (off < frame.size()) {
      ssize_t n = ::send(c.get(), frame.data() + off, frame.size() - off,
                         MSG_NOSIGNAL);
      if (n <= 0) {
        return;
      }
      off += static_cast<size_t>(n);
    }
  };
  uint8_t buf[4096];
  for (;;) {
    auto rec = reader.Next();
    if (!rec.ok()) {
      pollfd p{c.get(), POLLIN, 0};
      if (::poll(&p, 1, 5000) <= 0) {
        return;
      }
      ssize_t n = ::recv(c.get(), buf, sizeof(buf), 0);
      if (n <= 0) {
        return;  // the client hung up
      }
      reader.Feed(buf, static_cast<size_t>(n));
      continue;
    }
    auto msg = ParseDaemonMsg(ByteSpan(rec->payload.data(),
                                       rec->payload.size()));
    if (!msg.ok()) {
      return;
    }
    const ByteSpan body(msg->body.data(), msg->body.size());
    if (msg->msg == Msg::kHello) {
      HelloAck ack;
      ack.accepted = true;
      ack.config_digest = ConfigWireDigest(config);
      ack.config_text = SerializeSyncConfig(config);
      Bytes reply = EncodeHelloAck(ack);
      send_msg(Msg::kHelloAck, 0, reply);
    } else if (msg->msg == Msg::kWalk || msg->msg == Msg::kPlan) {
      StatusOr<Bytes> reply = msg->msg == Msg::kWalk ? server.OnWalk(body)
                                                     : server.OnPlan(body);
      if (!reply.ok()) {
        return;
      }
      if (!reply->empty()) {
        send_msg(msg->msg, 0, *reply);
      }
    } else if (msg->msg == Msg::kOpenFile) {
      Bytes error = EncodeError(Status::Unavailable("stream refused"));
      send_msg(Msg::kError, msg->stream, error);
    } else if (msg->msg == Msg::kGoodbye) {
      return;
    }
  }
}

TEST(DaemonChaos, PartialConnectDeletesNothing) {
  // The refused streams' files are missing from the reconstruction, so
  // the apply must not mirror-delete: every stale path stays on disk,
  // and a path whose stream was refused keeps its old bytes.
  const uint64_t seed = SeedFromEnv(0xC4A6);
  const Collection server_tree = ServerTree(seed);
  const Collection stale = StaleTree(seed);
  const std::string dir = ::testing::TempDir() + "/fsx-netd-partial";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(store::ApplyTree(dir, stale, Manifest{}).ok());

  uint16_t port = 0;
  auto listener = ListenTcp("127.0.0.1", 0, &port);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  std::thread server([fd = listener->get(), &server_tree] {
    ServeTreeRefusingStreams(fd, server_tree);
  });
  ClientOptions opts;
  opts.port = port;
  opts.io_timeout_ms = 5000;
  auto report = ConnectTree(dir, opts);
  server.join();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const ClientResult& client = report->client;
  ASSERT_GT(client.files_aborted, 0u);
  EXPECT_EQ(client.files_aborted, client.files_sessioned);
  EXPECT_FALSE(client.server_draining);
  EXPECT_EQ(report->apply.files_deleted, 0u);

  auto disk = LoadTree(dir);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  for (const auto& [path, data] : stale) {
    auto on_disk = disk->find(path);
    ASSERT_NE(on_disk, disk->end()) << path << " was deleted";
    if (!client.reconstructed.contains(path)) {
      EXPECT_EQ(on_disk->second, data) << path;
    }
  }
  for (const auto& [path, data] : client.reconstructed) {
    EXPECT_EQ(disk->at(path), server_tree.at(path)) << path;
  }
  std::filesystem::remove_all(dir);
}

TEST(DaemonChaos, DiskFullOnOneClientDoesNotDisturbTheOthers) {
  // 16 clients sync from the daemon concurrently and apply the result
  // to their own replica dirs. One replica sits on a "full disk"
  // (injected ENOSPC scoped to its path): that apply must abort with a
  // typed RESOURCE_EXHAUSTED and roll back to per-file old-or-new,
  // while the other 15 applies land bit-identical. Once space "frees
  // up" (the fault is disarmed), the victim's retry converges too.
  const uint64_t seed = SeedFromEnv(0xC4A5);
  Collection server_tree = ServerTree(seed);
  Collection stale = StaleTree(seed);
  SyncDaemon daemon(server_tree, DaemonOptions{});
  ASSERT_TRUE(daemon.Start().ok());

  const std::string base = ::testing::TempDir() + "/fsx-netd-diskfault";
  std::filesystem::remove_all(base);
  constexpr int kClients = 16;
  std::vector<std::string> dirs;
  dirs.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    dirs.push_back(base + "/client-" + std::to_string(i));
    ASSERT_TRUE(store::ApplyTree(dirs[i], stale, Manifest{}).ok());
  }

  // Arm the full disk only after the stale replicas exist: the byte
  // budget throttles just the applies under test, and only under
  // client 0's root (the trailing '/' keeps "client-1x" out).
  store::FaultVfs fault_vfs;
  store::DiskFaultRule rule;
  rule.path_pattern = "client-0/";
  rule.enospc_after_bytes = 256;
  fault_vfs.AddRule(rule);

  std::vector<Status> apply_status(kClients, Status::Internal("not run"));
  std::vector<obs::SyncObserver> observers(kClients);
  {
    store::ScopedVfs scoped(&fault_vfs);
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i] {
        ClientOptions opts;
        opts.port = daemon.port();
        opts.io_timeout_ms = 10000;
        auto report = ConnectTree(dirs[i], opts, {}, &observers[i]);
        apply_status[i] = report.status();
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }

  // The victim: typed disk-full, an enospc_aborts event, and a replica
  // where every file is bit-exact old or new — never torn.
  EXPECT_EQ(apply_status[0].code(), StatusCode::kResourceExhausted)
      << apply_status[0].ToString();
  EXPECT_GE(observers[0].event_count(obs::Event::kEnospcAbort), 1u);
  auto victim = LoadTree(dirs[0]);
  ASSERT_TRUE(victim.ok()) << victim.status().ToString();
  for (const auto& [path, data] : *victim) {
    auto old_it = stale.find(path);
    auto new_it = server_tree.find(path);
    EXPECT_TRUE((old_it != stale.end() && old_it->second == data) ||
                (new_it != server_tree.end() && new_it->second == data))
        << path << " is neither the old nor the new content";
  }

  // The bystanders: clean applies, bit-identical replicas.
  for (int i = 1; i < kClients; ++i) {
    ASSERT_TRUE(apply_status[i].ok())
        << "client " << i << ": " << apply_status[i].ToString();
    auto tree = LoadTree(dirs[i]);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    EXPECT_EQ(*tree, server_tree) << "client " << i;
  }

  // Disk-full cleared: a fresh connect (its apply recovers whatever the
  // aborted one left) must converge.
  {
    ClientOptions opts;
    opts.port = daemon.port();
    opts.io_timeout_ms = 10000;
    auto report = ConnectTree(dirs[0], opts);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->apply.conflicts.empty());
    auto tree = LoadTree(dirs[0]);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    EXPECT_EQ(*tree, server_tree);
  }

  daemon.Stop();
  daemon.Join();
  EXPECT_EQ(daemon.stats().open_connections, 0u);
  std::filesystem::remove_all(base);
}

}  // namespace
}  // namespace fsx::netd
