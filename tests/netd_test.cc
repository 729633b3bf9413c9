// netd suite: frame/protocol codec units, the poller, the
// daemon transcript pins — a ClientFileSession speaking raw frames to a
// real SyncDaemon must put exactly SynchronizeFile's SimulatedChannel
// transcript on each stream, for every corpus shape, and a
// TreeSyncClient's kWalk/kPlan bodies must be SyncCollectionTree's — the
// tree server half's bounds (a client may ask only for the walk it was
// offered, and plan once), and SyncDaemon end-to-end: handshake, the
// tree flow, multiplexed sessions, concurrency fan-out, eviction,
// deadlines, backpressure, and graceful drain. Labeled `net` in CTest.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <functional>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "fsync/core/config_io.h"
#include "fsync/core/checkpoint.h"
#include "fsync/core/endpoint.h"
#include "fsync/core/file_session.h"
#include "fsync/core/session.h"
#include "fsync/core/tree_session.h"
#include "fsync/netd/client.h"
#include "fsync/netd/daemon.h"
#include "fsync/netd/event_loop.h"
#include "fsync/netd/frame.h"
#include "fsync/netd/protocol.h"
#include "fsync/netd/sockets.h"
#include "fsync/store/fsstore.h"
#include "fsync/testing/corpus.h"
#include "fsync/testing/tree_corpus.h"
#include "fsync/util/bit_io.h"
#include "fsync/util/random.h"
#include "fsync/workload/edits.h"
#include "fsync/workload/text_synth.h"
#include "fsync/workload/tree.h"

namespace fsx::netd {
namespace {

// ---------------------------------------------------------------- frame

TEST(Frame, RoundTripsSingleRecord) {
  Bytes payload = ToBytes("the quick brown fox");
  Bytes frame = EncodeFrame(transport::kRecordTypeDaemon, 7, 3,
                            ByteSpan(payload.data(), payload.size()));
  FrameReader reader;
  reader.Feed(frame.data(), frame.size());
  auto rec = reader.Next();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->type, transport::kRecordTypeDaemon);
  EXPECT_EQ(rec->seq, 7u);
  EXPECT_EQ(rec->payload, payload);
  EXPECT_EQ(reader.Next().status().code(), StatusCode::kNotFound);
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST(Frame, ReassemblesByteByByte) {
  // Three frames, fed one byte at a time, must come out whole and in
  // order — the incremental varint/length parser may never mis-split.
  std::vector<Bytes> payloads = {ToBytes("a"), Bytes(300, 0x42), Bytes{}};
  Bytes wire;
  uint32_t seq = 0;
  for (const Bytes& p : payloads) {
    Bytes f = EncodeFrame(transport::kRecordTypeDaemon, seq++, 0,
                          ByteSpan(p.data(), p.size()));
    wire.insert(wire.end(), f.begin(), f.end());
  }
  FrameReader reader;
  std::vector<Bytes> got;
  for (uint8_t b : wire) {
    reader.Feed(&b, 1);
    for (;;) {
      auto rec = reader.Next();
      if (!rec.ok()) {
        ASSERT_EQ(rec.status().code(), StatusCode::kNotFound);
        break;
      }
      got.push_back(rec->payload);
    }
  }
  EXPECT_EQ(got, payloads);
}

TEST(Frame, PoisonsOnCorruptRecord) {
  Bytes payload = ToBytes("payload");
  Bytes frame = EncodeFrame(transport::kRecordTypeDaemon, 0, 0,
                            ByteSpan(payload.data(), payload.size()));
  frame.back() ^= 0xFF;  // break the CRC
  FrameReader reader;
  reader.Feed(frame.data(), frame.size());
  EXPECT_EQ(reader.Next().status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(reader.poisoned());
  // Poisoning is permanent: a good frame after the bad one stays dead.
  Bytes good = EncodeFrame(transport::kRecordTypeDaemon, 1, 0,
                           ByteSpan(payload.data(), payload.size()));
  reader.Feed(good.data(), good.size());
  EXPECT_EQ(reader.Next().status().code(), StatusCode::kDataLoss);
}

TEST(Frame, RejectsOversizedFrame) {
  // A length header past the bound must poison immediately, without
  // waiting for (or allocating) the advertised bytes.
  uint8_t huge[10];
  size_t n = 0;
  uint64_t v = uint64_t{kMaxFrameBytes} + 1;
  while (v >= 0x80) {
    huge[n++] = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  huge[n++] = static_cast<uint8_t>(v);
  FrameReader reader;
  reader.Feed(huge, n);
  EXPECT_EQ(reader.Next().status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(reader.poisoned());
}

// ------------------------------------------------------------- protocol

TEST(Protocol, DaemonMsgRoundTrip) {
  Bytes body = ToBytes("body bytes");
  Bytes wire = EncodeDaemonMsg(Msg::kFileMsg, 12345,
                               ByteSpan(body.data(), body.size()));
  auto msg = ParseDaemonMsg(ByteSpan(wire.data(), wire.size()));
  ASSERT_TRUE(msg.ok()) << msg.status().ToString();
  EXPECT_EQ(msg->msg, Msg::kFileMsg);
  EXPECT_EQ(msg->stream, 12345u);
  EXPECT_EQ(msg->body, body);
}

TEST(Protocol, HelloAndAckRoundTrip) {
  Bytes hello = EncodeHello();
  uint8_t version = 0;
  ASSERT_TRUE(
      ParseHello(ByteSpan(hello.data(), hello.size()), &version).ok());
  EXPECT_EQ(version, kDaemonVersion);

  HelloAck ack;
  ack.accepted = true;
  ack.config_digest = 0xDEADBEEFCAFEF00Dull;
  ack.config_text = SerializeSyncConfig(SyncConfig{});
  Bytes wire = EncodeHelloAck(ack);
  auto parsed = ParseHelloAck(ByteSpan(wire.data(), wire.size()));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->accepted);
  EXPECT_EQ(parsed->config_digest, ack.config_digest);
  EXPECT_EQ(parsed->config_text, ack.config_text);
}

TEST(Protocol, HelloRejectsBadMagic) {
  Bytes hello = EncodeHello();
  hello[0] ^= 0x01;
  uint8_t version = 0;
  EXPECT_FALSE(
      ParseHello(ByteSpan(hello.data(), hello.size()), &version).ok());
}

TEST(Protocol, OpenFileAndFileMsgRoundTrip) {
  OpenFile open;
  open.kind = SessionMsg::kResumeRequest;
  open.path = "dir/sub/file.txt";
  open.first_msg = Bytes(100, 0x5A);
  Bytes wire = EncodeOpenFile(open);
  auto parsed = ParseOpenFile(ByteSpan(wire.data(), wire.size()));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->kind, SessionMsg::kResumeRequest);
  EXPECT_EQ(parsed->path, open.path);
  EXPECT_EQ(parsed->first_msg, open.first_msg);

  Bytes payload = ToBytes("round reply");
  Bytes fm = EncodeFileMsg(SessionMsg::kRoundReply,
                           ByteSpan(payload.data(), payload.size()));
  auto pf = ParseFileMsg(ByteSpan(fm.data(), fm.size()));
  ASSERT_TRUE(pf.ok()) << pf.status().ToString();
  EXPECT_EQ(pf->first, SessionMsg::kRoundReply);
  EXPECT_EQ(pf->second, payload);
}

TEST(Protocol, OpenFileAndFileMsgRejectOutOfRangeKinds) {
  // A kOpenFile may carry only a first message (request or resume);
  // a kFileMsg only a later one (round reply, repair, fallback).
  OpenFile open;
  open.path = "f";
  Bytes wire = EncodeOpenFile(open);
  for (uint8_t kind : {2, 3, 4, 5, 255}) {
    wire[0] = kind;
    EXPECT_FALSE(ParseOpenFile(ByteSpan(wire.data(), wire.size())).ok())
        << int{kind};
  }
  Bytes fm = EncodeFileMsg(SessionMsg::kRoundReply, ByteSpan());
  for (uint8_t kind : {0, 1, 5, 255}) {
    fm[0] = kind;
    EXPECT_FALSE(ParseFileMsg(ByteSpan(fm.data(), fm.size())).ok())
        << int{kind};
  }
}

TEST(Protocol, ErrorRoundTrip) {
  Bytes wire = EncodeError(Status::NotFound("no such file: x"));
  auto err = ParseError(ByteSpan(wire.data(), wire.size()));
  ASSERT_TRUE(err.ok()) << err.status().ToString();
  EXPECT_EQ(err->code, static_cast<uint8_t>(StatusCode::kNotFound));
  EXPECT_EQ(err->detail, "no such file: x");
}

// -------------------------------------------------------------- pollers

void ExercisePoller(Poller& poller) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  Fd rd(fds[0]), wr(fds[1]);
  ASSERT_TRUE(poller.Add(rd.get(), true, false).ok());

  std::vector<Poller::Event> events;
  ASSERT_TRUE(poller.Wait(0, &events).ok());
  EXPECT_TRUE(events.empty());  // nothing readable yet

  ASSERT_EQ(::write(wr.get(), "x", 1), 1);
  ASSERT_TRUE(poller.Wait(1000, &events).ok());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].fd, rd.get());
  EXPECT_TRUE(events[0].readable);

  char c;
  ASSERT_EQ(::read(rd.get(), &c, 1), 1);
  ASSERT_TRUE(poller.Update(rd.get(), false, false).ok());
  ASSERT_EQ(::write(wr.get(), "y", 1), 1);
  ASSERT_TRUE(poller.Wait(0, &events).ok());
  EXPECT_TRUE(events.empty());  // interest masked off
  poller.Remove(rd.get());
}

TEST(Poller, EpollBackend) {
  Poller poller;
  const Status opened = poller.Open();
  ASSERT_TRUE(opened.ok()) << opened.ToString();
  ExercisePoller(poller);
}

TEST(Poller, OpenFailureIsAnError) {
  // With the descriptor limit at the lowest free fd, epoll_create1
  // fails (EMFILE). Run in a child: the limit is on this test's own
  // process.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const int lowest_free = ::dup(0);
    if (lowest_free < 0) {
      ::_exit(3);
    }
    ::close(lowest_free);
    const rlimit limit{static_cast<rlim_t>(lowest_free),
                       static_cast<rlim_t>(lowest_free)};
    if (::setrlimit(RLIMIT_NOFILE, &limit) != 0) {
      ::_exit(3);
    }
    Poller poller;
    ::_exit(poller.Open().ok() ? 1 : 0);
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0) << "1: opened; 3: setup failed";
}

// --------------------------------------------------------------- daemon

// Adds three files above the 4 KiB small-file threshold, edited in the
// server's version, so a sync runs per-file sessions next to the bundle.
void AddLargeFiles(Collection& tree, bool edited) {
  for (int i = 0; i < 3; ++i) {
    Rng rng(0xB16 + i);
    Bytes data = SynthSourceFile(rng, 40 * 1024);
    if (edited) {
      EditProfile edits;
      edits.num_edits = 5;
      data = ApplyEdits(data, edits, rng);
    }
    tree["large/file-" + std::to_string(i) + ".c"] = std::move(data);
  }
}

Collection SmallServerTree() {
  TreeChurnProfile profile = ReleaseTreeProfile(40);
  profile.seed = 0x5EED;
  Collection tree = MakeTreeWorkload(profile).new_tree;
  AddLargeFiles(tree, /*edited=*/true);
  return tree;
}

Collection StaleLocalTree() {
  TreeChurnProfile profile = ReleaseTreeProfile(40);
  profile.seed = 0x5EED;
  Collection tree = MakeTreeWorkload(profile).old_tree;
  AddLargeFiles(tree, /*edited=*/false);
  return tree;
}

TEST(Daemon, SingleClientFullSync) {
  Collection server_tree = SmallServerTree();
  SyncDaemon daemon(server_tree, DaemonOptions{});
  ASSERT_TRUE(daemon.Start().ok());
  ASSERT_NE(daemon.port(), 0);

  ClientOptions opts;
  opts.port = daemon.port();
  auto result = RunSyncClient(StaleLocalTree(), opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->reconstructed, server_tree);
  EXPECT_EQ(result->files_total, server_tree.size());
  EXPECT_GT(result->files_unchanged, 0u);
  EXPECT_GT(result->files_small, 0u);
  EXPECT_GT(result->files_sessioned, 0u);
  EXPECT_EQ(result->files_aborted, 0u);

  // Drain, not Stop: Stop() is immediate and may tear the connection
  // down before the loop has processed the client's trailing
  // kCloseStream/kGoodbye records, undercounting sessions_completed.
  daemon.Drain();
  daemon.Join();
  DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.sessions_opened, result->files_sessioned);
  EXPECT_EQ(stats.sessions_completed, result->files_sessioned);
  EXPECT_EQ(stats.open_connections, 0u);
}

TEST(Daemon, EmptyLocalReplicaBootstraps) {
  Collection server_tree = SmallServerTree();
  SyncDaemon daemon(server_tree, DaemonOptions{});
  ASSERT_TRUE(daemon.Start().ok());
  ClientOptions opts;
  opts.port = daemon.port();
  auto result = RunSyncClient(Collection{}, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->reconstructed, server_tree);
  EXPECT_EQ(result->files_new, server_tree.size());
}

TEST(Daemon, UnixDomainSocket) {
  Collection server_tree = SmallServerTree();
  DaemonOptions options;
  options.unix_path = ::testing::TempDir() + "/fsx-netd-test.sock";
  SyncDaemon daemon(server_tree, options);
  ASSERT_TRUE(daemon.Start().ok());
  ClientOptions opts;
  opts.unix_path = options.unix_path;
  auto result = RunSyncClient(StaleLocalTree(), opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->reconstructed, server_tree);
}

TEST(Daemon, ServesManyConcurrentClientsBitIdentical) {
  // The ISSUE acceptance bar: >= 64 concurrent loopback clients, every
  // replica bit-identical to the server tree (which is itself what a
  // SimulatedChannel session run converges to — the daemon carries the
  // same endpoint messages, so equality of trees is equality of runs).
  constexpr int kClients = 64;
  Collection server_tree = SmallServerTree();
  Collection stale = StaleLocalTree();
  SyncDaemon daemon(server_tree, DaemonOptions{});
  ASSERT_TRUE(daemon.Start().ok());

  std::vector<StatusOr<ClientResult>> results(
      kClients, Status::Internal("not run"));
  {
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i] {
        ClientOptions opts;
        opts.port = daemon.port();
        // Mix of stale and empty replicas, all converging to the tree.
        results[i] = RunSyncClient(i % 4 == 0 ? Collection{} : stale, opts);
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }
  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(results[i].ok())
        << "client " << i << ": " << results[i].status().ToString();
    EXPECT_EQ(results[i]->reconstructed, server_tree) << "client " << i;
  }
  daemon.Drain();  // graceful: process trailing records before exit
  daemon.Join();
  DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.connections_accepted, static_cast<uint64_t>(kClients));
  EXPECT_EQ(stats.sessions_opened, stats.sessions_completed);
  EXPECT_EQ(stats.open_connections, 0u);
}

// Raw-socket helper for the protocol-level daemon tests: a minimal
// hand-rolled client speaking just enough of the daemon protocol.
class RawClient {
 public:
  static StatusOr<RawClient> Connect(uint16_t port) {
    auto fd = ConnectTcp("127.0.0.1", port);
    FSYNC_RETURN_IF_ERROR(fd.status());
    return RawClient(std::move(*fd));
  }

  Status Send(Msg msg, uint64_t stream, ByteSpan body) {
    Bytes payload = EncodeDaemonMsg(msg, stream, body);
    Bytes frame = EncodeFrame(transport::kRecordTypeDaemon, seq_++, 0,
                              ByteSpan(payload.data(), payload.size()));
    size_t off = 0;
    while (off < frame.size()) {
      ssize_t n = ::send(fd_.get(), frame.data() + off, frame.size() - off,
                         MSG_NOSIGNAL);
      if (n < 0) {
        return Status::Unavailable("raw send failed");
      }
      off += static_cast<size_t>(n);
    }
    return Status::Ok();
  }

  StatusOr<DaemonMsg> Recv(int timeout_ms = 5000) {
    uint8_t buf[4096];
    for (;;) {
      auto rec = reader_.Next();
      if (rec.ok()) {
        return ParseDaemonMsg(
            ByteSpan(rec->payload.data(), rec->payload.size()));
      }
      if (rec.status().code() != StatusCode::kNotFound) {
        return rec.status();
      }
      pollfd p{fd_.get(), POLLIN, 0};
      if (::poll(&p, 1, timeout_ms) <= 0) {
        return Status::Unavailable("raw recv timed out");
      }
      ssize_t n = ::recv(fd_.get(), buf, sizeof(buf), 0);
      if (n <= 0) {
        return Status::Unavailable("raw peer closed");
      }
      reader_.Feed(buf, static_cast<size_t>(n));
    }
  }

  /// Sends `body` as `msg` on stream 0 and returns the body of the
  /// reply, which must be the same kind on stream 0.
  StatusOr<Bytes> Exchange(Msg msg, ByteSpan body) {
    FSYNC_RETURN_IF_ERROR(Send(msg, 0, body));
    FSYNC_ASSIGN_OR_RETURN(DaemonMsg reply, Recv());
    if (reply.msg != msg || reply.stream != 0) {
      return Status::DataLoss("unexpected reply kind");
    }
    return std::move(reply.body);
  }

  /// Runs `client`'s whole walk against the daemon; `bodies` (optional)
  /// receives every ask and reply, in order.
  Status Walk(TreeSyncClient& client, std::vector<Bytes>* bodies = nullptr) {
    std::optional<Bytes> ask = client.Start();
    while (ask.has_value()) {
      FSYNC_ASSIGN_OR_RETURN(Bytes reply, Exchange(Msg::kWalk, *ask));
      if (bodies != nullptr) {
        bodies->push_back(*ask);
        bodies->push_back(reply);
      }
      FSYNC_ASSIGN_OR_RETURN(ask, client.OnWalkReply(reply));
    }
    return Status::Ok();
  }

  Status Handshake() {
    Bytes hello = EncodeHello();
    FSYNC_RETURN_IF_ERROR(
        Send(Msg::kHello, 0, ByteSpan(hello.data(), hello.size())));
    FSYNC_ASSIGN_OR_RETURN(DaemonMsg ack, Recv());
    if (ack.msg != Msg::kHelloAck) {
      return Status::DataLoss("expected hello ack");
    }
    return Status::Ok();
  }

  /// True when the server has closed this connection (EOF within
  /// `timeout_ms`).
  bool WaitForEof(int timeout_ms) {
    uint8_t buf[4096];
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(timeout_ms);
    for (;;) {
      int remain = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now())
              .count());
      if (remain <= 0) {
        return false;
      }
      pollfd p{fd_.get(), POLLIN, 0};
      if (::poll(&p, 1, remain) <= 0) {
        continue;
      }
      ssize_t n = ::recv(fd_.get(), buf, sizeof(buf), 0);
      if (n <= 0) {
        return true;
      }
    }
  }

  int fd() const { return fd_.get(); }

 private:
  explicit RawClient(Fd fd) : fd_(std::move(fd)) {}

  Fd fd_;
  FrameReader reader_;
  uint32_t seq_ = 0;
};

// Syncs `pair` as the daemon's only file ("f") over one raw stream
// driven by a ClientFileSession, and requires the stream's bodies, in
// order, to be SynchronizeFile's SimulatedChannel transcript: the client
// payloads without their SessionMsg byte, the server messages as sent.
// `level` receives the ladder rung that finished the session.
void ExpectDaemonStreamMatchesSimulated(const CorpusPair& pair,
                                        const SyncConfig& config,
                                        const std::string& label,
                                        int* level = nullptr) {
  SimulatedChannel sim;
  sim.EnableTranscript();
  auto expected = SynchronizeFile(pair.f_old, pair.f_new, config, sim);
  ASSERT_TRUE(expected.ok()) << label << ": " << expected.status().ToString();

  DaemonOptions options;
  options.config = config;
  SyncDaemon daemon(Collection{{"f", pair.f_new}}, options);
  ASSERT_TRUE(daemon.Start().ok()) << label;
  auto raw = RawClient::Connect(daemon.port());
  ASSERT_TRUE(raw.ok()) << label;
  ASSERT_TRUE(raw->Handshake().ok()) << label;

  ClientFileSession session(pair.f_old, config);
  SessionSend first = session.Start();
  std::vector<Bytes> bodies = {first.bytes};
  OpenFile open;
  open.kind = first.kind;
  open.path = "f";
  open.first_msg = first.bytes;
  Bytes open_body = EncodeOpenFile(open);
  ASSERT_TRUE(raw->Send(Msg::kOpenFile, 1,
                        ByteSpan(open_body.data(), open_body.size()))
                  .ok());
  for (;;) {
    auto msg = raw->Recv();
    ASSERT_TRUE(msg.ok()) << label << ": " << msg.status().ToString();
    ASSERT_EQ(msg->msg, Msg::kFileMsg) << label;
    ASSERT_EQ(msg->stream, 1u) << label;
    bodies.push_back(msg->body);
    auto next = session.OnServerMessage(
        ByteSpan(msg->body.data(), msg->body.size()));
    ASSERT_TRUE(next.ok()) << label << ": " << next.status().ToString();
    if (!next->has_value()) {
      break;
    }
    bodies.push_back((*next)->bytes);
    Bytes fm = EncodeFileMsg((*next)->kind, ByteSpan((*next)->bytes.data(),
                                                     (*next)->bytes.size()));
    ASSERT_TRUE(
        raw->Send(Msg::kFileMsg, 1, ByteSpan(fm.data(), fm.size())).ok());
  }
  EXPECT_EQ(session.endpoint().result(), pair.f_new) << label;
  EXPECT_EQ(session.degradation_level(), expected->degradation_level)
      << label;
  if (level != nullptr) {
    *level = session.degradation_level();
  }

  ASSERT_EQ(bodies.size(), sim.transcript().size()) << label;
  for (size_t i = 0; i < bodies.size(); ++i) {
    EXPECT_EQ(sim.transcript()[i].dir,
              i % 2 == 0 ? SimulatedChannel::Direction::kClientToServer
                         : SimulatedChannel::Direction::kServerToClient)
        << label << " message " << i;
    ASSERT_EQ(bodies[i], sim.transcript()[i].payload)
        << label << " message " << i;
  }
  ASSERT_TRUE(raw->Send(Msg::kCloseStream, 1, ByteSpan()).ok());
  ASSERT_TRUE(raw->Send(Msg::kGoodbye, 0, ByteSpan()).ok());
  EXPECT_TRUE(raw->WaitForEof(5000)) << label;
  daemon.Stop();
  daemon.Join();
}

TEST(DaemonTranscript, EveryShapeMatchesSimulatedSession) {
  const uint64_t seed = SeedFromEnv(29);
  for (CorpusShape shape : AllCorpusShapes()) {
    CorpusPair pair = MakeCorpusPair(shape, seed);
    ExpectDaemonStreamMatchesSimulated(pair, SyncConfig{}, pair.Label());
  }
}

TEST(DaemonTranscript, LadderRungsMatchSimulatedSession) {
  // Weak verification lets false matches reach the delta, so the stream
  // also carries rung-2 (repair) and rung-3 (full transfer) exchanges.
  SyncConfig config;
  config.verify.group_size = 1;
  config.verify.max_batches = 1;
  config.verify.continuation_group_size = 1;
  config.verify.adaptive_groups = false;
  config.global_extra_bits = 0;
  config.continuation_bits = 2;
  config.repair.region_size = 1024;
  for (bool repair : {true, false}) {
    config.repair.enabled = repair;
    int rungs_reached[3] = {0, 0, 0};
    for (int bits = 1; bits <= 5; ++bits) {
      config.verify.verify_bits = bits;
      for (int seed = 0; seed < 4; ++seed) {
        CorpusPair pair =
            MakeCorpusPair(CorpusShape::kDispersedEdits, 9000 + seed);
        int level = 0;
        ExpectDaemonStreamMatchesSimulated(
            pair, config,
            (repair ? "repair/" : "no-repair/") + std::to_string(bits) +
                "/" + std::to_string(seed),
            &level);
        ++rungs_reached[level];
      }
    }
    // The sweep must actually put ladder exchanges on the stream.
    if (repair) {
      EXPECT_GT(rungs_reached[1], 0) << "region repair never engaged";
    } else {
      EXPECT_EQ(rungs_reached[1], 0);
      EXPECT_GT(rungs_reached[2], 0) << "full transfer never engaged";
    }
  }
}

TEST(DaemonTranscript, TreeMatchesSimulatedTree) {
  // The daemon moves the tree flow's messages unmodified: a
  // TreeSyncClient's kWalk and kPlan bodies are, in order,
  // SyncCollectionTree's walk, plan and bundle messages.
  for (TreeShape shape : kPinnedShapes) {
    TreeCorpusPair pair = MakeTreeCorpusPair(shape, kPinnedSeed);
    const std::string label = pair.Label();
    SimulatedChannel sim;
    sim.EnableTranscript();
    auto expected = SyncCollectionTree(pair.old_tree, pair.new_tree,
                                       TreeSyncParams{}, sim);
    ASSERT_TRUE(expected.ok()) << label;
    // In the simulated transcript: two messages per walk round, then the
    // plan (when a file needs content), and the bundle is the server's
    // first message after it (when a planned file is small).
    const auto& transcript = sim.transcript();
    std::vector<Bytes> want;
    size_t i = 0;
    for (; i < 2 * static_cast<size_t>(expected->manifest_rounds); ++i) {
      want.push_back(transcript[i].payload);
    }
    if (expected->files_small + expected->files_sessioned > 0) {
      want.push_back(transcript[i].payload);
      if (expected->files_small > 0) {
        while (transcript[i].dir !=
               SimulatedChannel::Direction::kServerToClient) {
          ++i;
        }
        want.push_back(transcript[i].payload);
      }
    }

    SyncDaemon daemon(pair.new_tree, DaemonOptions{});
    ASSERT_TRUE(daemon.Start().ok()) << label;
    auto raw = RawClient::Connect(daemon.port());
    ASSERT_TRUE(raw.ok()) << label;
    ASSERT_TRUE(raw->Handshake().ok()) << label;
    TreeSyncClient client(pair.old_tree, TreeSyncParams{});
    std::vector<Bytes> got;
    ASSERT_TRUE(raw->Walk(client, &got).ok()) << label;
    if (std::optional<Bytes> plan = client.Plan()) {
      got.push_back(*plan);
      if (client.awaits_bundle()) {
        auto bundle = raw->Exchange(Msg::kPlan, *plan);
        ASSERT_TRUE(bundle.ok()) << label << ": "
                                 << bundle.status().ToString();
        got.push_back(*bundle);
      } else {
        ASSERT_TRUE(raw->Send(Msg::kPlan, 0, *plan).ok()) << label;
      }
    }
    ASSERT_EQ(got.size(), want.size()) << label;
    for (size_t m = 0; m < got.size(); ++m) {
      EXPECT_EQ(got[m], want[m]) << label << " message " << m;
    }
    ASSERT_TRUE(raw->Send(Msg::kGoodbye, 0, ByteSpan()).ok());
    EXPECT_TRUE(raw->WaitForEof(5000)) << label;

    // A real client over the same daemon ends with the served tree,
    // classified file by file as the simulated run classified it.
    ClientOptions opts;
    opts.port = daemon.port();
    auto result = RunSyncClient(pair.old_tree, opts);
    ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
    EXPECT_EQ(result->reconstructed, pair.new_tree) << label;
    EXPECT_EQ(result->files_total, expected->files_total) << label;
    EXPECT_EQ(result->files_unchanged, expected->files_unchanged) << label;
    EXPECT_EQ(result->files_new, expected->files_new) << label;
    EXPECT_EQ(result->files_adopted, expected->files_adopted) << label;
    EXPECT_EQ(result->files_small, expected->files_small) << label;
    EXPECT_EQ(result->files_sessioned, expected->files_sessioned) << label;
    daemon.Drain();
    daemon.Join();
  }
}

TEST(Daemon, RefusesAV1Hello) {
  SyncDaemon daemon(SmallServerTree(), DaemonOptions{});
  ASSERT_TRUE(daemon.Start().ok());
  // v1 is the full-manifest protocol; v2 bundled files up to 16 KiB.
  for (uint8_t version : {1, 2}) {
    SCOPED_TRACE("client version " + std::to_string(version));
    auto raw = RawClient::Connect(daemon.port());
    ASSERT_TRUE(raw.ok());
    BitWriter hello;
    hello.WriteBits(kDaemonMagic, 32);
    hello.WriteBits(version, 8);
    const Bytes body = hello.Finish();
    ASSERT_TRUE(raw->Send(Msg::kHello, 0, body).ok());
    auto msg = raw->Recv();
    ASSERT_TRUE(msg.ok()) << msg.status().ToString();
    ASSERT_EQ(msg->msg, Msg::kHelloAck);
    auto ack = ParseHelloAck(msg->body);
    ASSERT_TRUE(ack.ok());
    EXPECT_FALSE(ack->accepted);
    EXPECT_EQ(ack->version, kDaemonVersion);
    EXPECT_TRUE(raw->WaitForEof(5000));
  }
  daemon.Stop();
  daemon.Join();
}

// Plays `abuse` on a fresh handshaken connection, then requires the
// daemon to close it as a protocol failure and to serve a full sync
// right afterwards.
void ExpectTreeAbuseFailsTheConnection(
    const std::function<void(RawClient&)>& abuse) {
  Collection server_tree = SmallServerTree();
  SyncDaemon daemon(server_tree, DaemonOptions{});
  ASSERT_TRUE(daemon.Start().ok());
  auto raw = RawClient::Connect(daemon.port());
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw->Handshake().ok());
  abuse(*raw);
  EXPECT_TRUE(raw->WaitForEof(5000));

  ClientOptions opts;
  opts.port = daemon.port();
  auto result = RunSyncClient(StaleLocalTree(), opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->reconstructed, server_tree);
  daemon.Drain();
  daemon.Join();
  EXPECT_EQ(daemon.stats().connections_failed, 1u);
  EXPECT_EQ(daemon.stats().open_connections, 0u);
}

TEST(DaemonTreeBounds, RepeatedRootFailsTheConnection) {
  // Each bare 7-bit root probe would make the server re-hash the whole
  // tree's preimage; the walk offers the root exactly once.
  ExpectTreeAbuseFailsTheConnection([](RawClient& raw) {
    const Collection empty;
    TreeSyncClient client(empty, TreeSyncParams{});
    ASSERT_TRUE(raw.Exchange(Msg::kWalk, client.Start()).ok());
    BitWriter ask;
    ask.WriteVarint(1);
    ask.WriteBits(0, 7);  // depth 0: the root
    const Bytes body = ask.Finish();
    ASSERT_TRUE(raw.Send(Msg::kWalk, 0, body).ok());
  });
}

TEST(DaemonTreeBounds, UnofferedNodeFailsTheConnection) {
  ExpectTreeAbuseFailsTheConnection([](RawClient& raw) {
    const Collection empty;
    TreeSyncClient client(empty, TreeSyncParams{});
    ASSERT_TRUE(raw.Exchange(Msg::kWalk, client.Start()).ok());
    // The root's reply offered its depth-4 descendants; ask for a
    // depth-1 node instead.
    BitWriter ask;
    ask.WriteVarint(1);
    ask.WriteBits(1, 7);  // depth
    ask.WriteBits(0, 1);  // prefix
    const Bytes body = ask.Finish();
    ASSERT_TRUE(raw.Send(Msg::kWalk, 0, body).ok());
  });
}

TEST(DaemonTreeBounds, DuplicatePlanPathFailsTheConnection) {
  ExpectTreeAbuseFailsTheConnection([](RawClient& raw) {
    const Collection empty;
    TreeSyncClient client(empty, TreeSyncParams{});
    ASSERT_TRUE(raw.Walk(client).ok());
    const std::string path = SmallServerTree().begin()->first;
    BitWriter plan;
    plan.WriteVarint(2);
    for (int i = 0; i < 2; ++i) {
      plan.WriteVarint(path.size());
      plan.WriteBytes(AsBytes(path));
    }
    const Bytes body = plan.Finish();
    ASSERT_TRUE(raw.Send(Msg::kPlan, 0, body).ok());
  });
}

TEST(DaemonTreeBounds, SecondPlanFailsTheConnection) {
  ExpectTreeAbuseFailsTheConnection([](RawClient& raw) {
    const Collection empty;
    TreeSyncClient client(empty, TreeSyncParams{});
    ASSERT_TRUE(raw.Walk(client).ok());
    std::optional<Bytes> plan = client.Plan();
    ASSERT_TRUE(plan.has_value());
    ASSERT_TRUE(client.awaits_bundle());
    ASSERT_TRUE(raw.Exchange(Msg::kPlan, *plan).ok());
    ASSERT_TRUE(raw.Send(Msg::kPlan, 0, *plan).ok());
  });
}

TEST(Daemon, StartRefusesAnInvalidConfig) {
  DaemonOptions options;
  options.config.start_block_size = 0;
  SyncDaemon daemon(SmallServerTree(), options);
  EXPECT_EQ(daemon.Start().code(), StatusCode::kInvalidArgument);
}

TEST(Daemon, HandshakeDeadlineClosesSilentConnections) {
  DaemonOptions options;
  options.limits.handshake_deadline_us = 50'000;  // 50 ms
  SyncDaemon daemon(SmallServerTree(), options);
  ASSERT_TRUE(daemon.Start().ok());

  auto raw = RawClient::Connect(daemon.port());
  ASSERT_TRUE(raw.ok());
  // Say nothing; the daemon must hang up on its own.
  EXPECT_TRUE(raw->WaitForEof(5000));
  daemon.Stop();
  daemon.Join();
  EXPECT_GE(daemon.stats().deadline_expirations, 1u);
  EXPECT_EQ(daemon.stats().open_connections, 0u);
}

TEST(Daemon, ConnectionCapEvictsOldestIdle) {
  DaemonOptions options;
  options.max_connections = 1;
  SyncDaemon daemon(SmallServerTree(), options);
  ASSERT_TRUE(daemon.Start().ok());

  auto first = RawClient::Connect(daemon.port());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->Handshake().ok());

  // Second client pushes past the cap; the idle first one is evicted
  // and the newcomer is served.
  auto second = RawClient::Connect(daemon.port());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->Handshake().ok());

  EXPECT_TRUE(first->WaitForEof(5000));
  daemon.Stop();
  daemon.Join();
  EXPECT_GE(daemon.stats().connections_evicted, 1u);
}

TEST(Daemon, BackpressureStallsSlowReaders) {
  // A client that requests a large reply and stops reading must trip
  // the write-queue high watermark: the daemon registers a backpressure
  // stall and pauses reads instead of buffering unboundedly. The bundle
  // of thousands of incompressible small files, queued against a tiny
  // watermark, crosses it deterministically.
  Collection tree;
  Rng rng(0xBAC);
  for (int i = 0; i < 3000; ++i) {
    tree["dir" + std::to_string(i % 10) + "/file-" + std::to_string(i)] =
        rng.RandomBytes(64);
  }
  DaemonOptions options;
  options.limits.write_queue_high_bytes = 64 * 1024;
  options.limits.write_queue_low_bytes = 16 * 1024;
  SyncDaemon daemon(std::move(tree), options);
  ASSERT_TRUE(daemon.Start().ok());

  auto raw = RawClient::Connect(daemon.port());
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw->Handshake().ok());
  const Collection empty;
  TreeSyncClient client(empty, TreeSyncParams{});
  ASSERT_TRUE(raw->Walk(client).ok());
  std::optional<Bytes> plan = client.Plan();
  ASSERT_TRUE(plan.has_value());
  ASSERT_TRUE(raw->Send(Msg::kPlan, 0, *plan).ok());

  // Read nothing until the stall registers.
  bool stalled = false;
  for (int i = 0; i < 200 && !stalled; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    stalled = daemon.stats().backpressure_stalls > 0;
  }
  EXPECT_TRUE(stalled);

  // Once the slow reader catches up, the connection must be perfectly
  // usable again: the bundle arrives intact and goodbye closes clean.
  auto bundle = raw->Recv();
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  EXPECT_EQ(bundle->msg, Msg::kPlan);
  EXPECT_GT(bundle->body.size(), 64u * 1024);
  EXPECT_TRUE(client.OnBundle(bundle->body).ok());
  ASSERT_TRUE(raw->Send(Msg::kGoodbye, 0, ByteSpan()).ok());
  EXPECT_TRUE(raw->WaitForEof(5000));
  daemon.Stop();
  daemon.Join();
  EXPECT_GE(daemon.stats().backpressure_stalls, 1u);
  EXPECT_EQ(daemon.stats().open_connections, 0u);
}

TEST(Daemon, GracefulDrainFinishesInFlightAndRefusesNew) {
  SyncDaemon daemon(SmallServerTree(), DaemonOptions{});
  ASSERT_TRUE(daemon.Start().ok());

  auto raw = RawClient::Connect(daemon.port());
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw->Handshake().ok());

  daemon.Drain();
  // The connected client is told, then new session opens are refused.
  auto msg = raw->Recv();
  ASSERT_TRUE(msg.ok()) << msg.status().ToString();
  EXPECT_EQ(msg->msg, Msg::kDraining);

  SyncConfig config;
  SyncClientEndpoint ep(ByteSpan(), config);
  OpenFile open;
  open.path = "nonexistent";
  open.first_msg = ep.MakeRequest();
  Bytes body = EncodeOpenFile(open);
  ASSERT_TRUE(raw->Send(Msg::kOpenFile, 1,
                        ByteSpan(body.data(), body.size()))
                  .ok());
  auto refusal = raw->Recv();
  ASSERT_TRUE(refusal.ok()) << refusal.status().ToString();
  EXPECT_EQ(refusal->msg, Msg::kError);

  ASSERT_TRUE(raw->Send(Msg::kGoodbye, 0, ByteSpan()).ok());
  EXPECT_TRUE(raw->WaitForEof(5000));
  daemon.Join();  // drain completes once the last connection is gone

  // Listener is down: nobody new gets in.
  EXPECT_FALSE(RawClient::Connect(daemon.port()).ok());
  EXPECT_GE(daemon.stats().connections_drained, 1u);
  EXPECT_EQ(daemon.stats().open_connections, 0u);
}

TEST(Daemon, DrainWithNoConnectionsExitsImmediately) {
  SyncDaemon daemon(SmallServerTree(), DaemonOptions{});
  ASSERT_TRUE(daemon.Start().ok());
  daemon.Drain();
  daemon.Join();
  EXPECT_FALSE(RawClient::Connect(daemon.port()).ok());
}

// A hostile server must not be able to smuggle unsafe paths into the
// client: every path the walk delivers is checked with the apply's rules
// (IsSafeRelativePath, store::IsInternalArtifact) before any session (or
// any checkpoint file name) is derived from it. `evil` is the one leaf
// the server serves.
void ExpectClientRejectsLeaf(const std::string& evil) {
  uint16_t port = 0;
  auto listener_or = ListenTcp("127.0.0.1", 0, &port);
  ASSERT_TRUE(listener_or.ok());
  Fd listener = std::move(*listener_or);

  // Set by the evil server if the client ever goes past the walk.
  std::atomic<bool> went_past_walk{false};
  std::thread evil_server([fd = listener.get(), &evil, &went_past_walk] {
    pollfd lp{fd, POLLIN, 0};
    if (::poll(&lp, 1, 5000) <= 0) {
      return;
    }
    int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) {
      return;
    }
    Fd c(conn);
    FrameReader reader;
    uint32_t seq = 0;
    auto send_msg = [&](Msg msg, ByteSpan body) {
      Bytes payload = EncodeDaemonMsg(msg, 0, body);
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
      if (rec.ok()) {
        auto msg =
            ParseDaemonMsg(ByteSpan(rec->payload.data(),
                                    rec->payload.size()));
        if (!msg.ok()) {
          return;
        }
        if (msg->msg == Msg::kHello) {
          HelloAck ack;
          ack.accepted = true;
          SyncConfig config;
          ack.config_digest = ConfigWireDigest(config);
          ack.config_text = SerializeSyncConfig(config);
          Bytes body = EncodeHelloAck(ack);
          send_msg(Msg::kHelloAck, ByteSpan(body.data(), body.size()));
        } else if (msg->msg == Msg::kWalk) {
          // Answer the root ask with one leaf naming the hostile path:
          // [kReplyLeaves:2][count][name][fp][size][mode].
          BitWriter reply;
          reply.WriteBits(0, 2);
          reply.WriteVarint(1);
          reply.WriteVarint(evil.size());
          reply.WriteBytes(AsBytes(evil));
          reply.WriteBytes(Bytes(16, 0));
          reply.WriteVarint(0);
          reply.WriteVarint(0644);
          const Bytes body = reply.Finish();
          send_msg(Msg::kWalk, body);
        } else if (msg->msg != Msg::kGoodbye) {
          went_past_walk = true;
        }
        continue;
      }
      pollfd p{c.get(), POLLIN, 0};
      if (::poll(&p, 1, 5000) <= 0) {
        return;
      }
      ssize_t n = ::recv(c.get(), buf, sizeof(buf), 0);
      if (n <= 0) {
        return;  // the client hung up
      }
      reader.Feed(buf, static_cast<size_t>(n));
    }
  });

  // One directory per process: ctest runs each test in its own process,
  // in parallel, and the tests that call this must not share it.
  const std::string ckpt_dir = ::testing::TempDir() + "/fsx-netd-hostile-" +
                               std::to_string(::getpid());
  std::filesystem::remove_all(ckpt_dir);
  std::filesystem::create_directories(ckpt_dir);
  ClientOptions opts;
  opts.port = port;
  opts.io_timeout_ms = 5000;
  opts.checkpoint_dir = ckpt_dir;
  auto result = RunSyncClient(Collection{}, opts);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  evil_server.join();
  EXPECT_FALSE(went_past_walk);
  EXPECT_TRUE(std::filesystem::is_empty(ckpt_dir));
  std::filesystem::remove_all(ckpt_dir);
}

TEST(Daemon, ClientRejectsHostileManifest) {
  // A path outside the tree, a staged temp, and a journal-named file in
  // a subdirectory (every `*.fsx-journal` name stays reserved).
  for (const char* evil :
       {"../../etc/passwd", "a.fsx-tmp", "sub/b.fsx-journal"}) {
    SCOPED_TRACE(evil);
    ExpectClientRejectsLeaf(evil);
  }
}

TEST(Daemon, ClientRejectsTheStatIndexName) {
  // A served `.fsx-index` would replace the apply's stat cache, whose
  // records decide which files the next apply re-reads.
  for (const char* evil : {".fsx-index", "sub/.fsx-index"}) {
    SCOPED_TRACE(evil);
    ExpectClientRejectsLeaf(evil);
  }
}

}  // namespace
}  // namespace fsx::netd
