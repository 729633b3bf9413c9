// Drives the message-level endpoints directly (the API a real-transport
// deployment would use), without SimulatedChannel.
#include <gtest/gtest.h>

#include <string>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "fsync/core/block_ledger.h"
#include "fsync/core/endpoint.h"
#include "fsync/delta/zd.h"
#include "fsync/util/bit_io.h"
#include "fsync/util/random.h"
#include "fsync/workload/edits.h"
#include "fsync/workload/text_synth.h"

namespace fsx {
namespace {

struct Pumped {
  Bytes result;
  bool unchanged = false;
  bool used_fallback = false;
  int messages = 0;
};

// Pumps messages between the endpoints until the client completes.
StatusOr<Pumped> Pump(ByteSpan f_old, ByteSpan f_new,
                      const SyncConfig& config) {
  SyncClientEndpoint client(f_old, config);
  SyncServerEndpoint server(f_new, config);
  Pumped out;

  Bytes request = client.MakeRequest();
  ++out.messages;
  FSYNC_ASSIGN_OR_RETURN(Bytes server_msg, server.OnRequest(request));
  for (;;) {
    ++out.messages;
    FSYNC_ASSIGN_OR_RETURN(std::optional<Bytes> reply,
                           client.OnServerMessage(server_msg));
    if (!reply.has_value()) {
      break;
    }
    ++out.messages;
    FSYNC_ASSIGN_OR_RETURN(server_msg, server.OnClientMessage(*reply));
  }
  if (client.needs_fallback()) {
    Bytes full = server.OnFallbackRequest();
    FSYNC_RETURN_IF_ERROR(client.OnFallbackTransfer(full));
    out.used_fallback = true;
  }
  if (!client.done()) {
    return Status::Internal("client did not finish");
  }
  out.result = client.result();
  out.unchanged = client.unchanged();
  return out;
}

TEST(Endpoint, ManualPumpReconstructs) {
  Rng rng(1);
  Bytes f_old = SynthSourceFile(rng, 50000);
  EditProfile ep;
  ep.num_edits = 10;
  Bytes f_new = ApplyEdits(f_old, ep, rng);
  SyncConfig config;
  auto r = Pump(f_old, f_new, config);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->result, f_new);
  EXPECT_FALSE(r->unchanged);
  EXPECT_GT(r->messages, 4);
}

TEST(Endpoint, UnchangedShortCircuit) {
  Rng rng(2);
  Bytes f = SynthSourceFile(rng, 10000);
  SyncConfig config;
  auto r = Pump(f, f, config);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->unchanged);
  EXPECT_EQ(r->result, f);
  EXPECT_EQ(r->messages, 2);  // request + unchanged reply
}

TEST(Endpoint, MessagesSurviveCopying) {
  // Messages must be self-contained byte strings: copy them through an
  // intermediate buffer (as a socket would) and verify nothing breaks.
  Rng rng(3);
  Bytes f_old = SynthSourceFile(rng, 30000);
  EditProfile ep;
  Bytes f_new = ApplyEdits(f_old, ep, rng);
  SyncConfig config;

  SyncClientEndpoint client(f_old, config);
  SyncServerEndpoint server(f_new, config);
  Bytes wire = client.MakeRequest();
  Bytes hop(wire.begin(), wire.end());  // simulated transport copy
  auto server_msg = server.OnRequest(hop);
  ASSERT_TRUE(server_msg.ok());
  Bytes current = *server_msg;
  for (;;) {
    Bytes inbound(current.begin(), current.end());
    auto reply = client.OnServerMessage(inbound);
    ASSERT_TRUE(reply.ok());
    if (!reply->has_value()) {
      break;
    }
    Bytes outbound((*reply)->begin(), (*reply)->end());
    auto next = server.OnClientMessage(outbound);
    ASSERT_TRUE(next.ok());
    current = *next;
  }
  ASSERT_TRUE(client.done());
  EXPECT_EQ(client.result(), f_new);
}

TEST(Endpoint, GarbageRequestRejected) {
  SyncConfig config;
  Bytes f = ToBytes("server file");
  SyncServerEndpoint server(f, config);
  Bytes tiny = {1, 2, 3};  // shorter than a fingerprint
  EXPECT_FALSE(server.OnRequest(tiny).ok());
}

TEST(Endpoint, GarbageServerMessageRejected) {
  SyncConfig config;
  Bytes f = ToBytes("client file");
  SyncClientEndpoint client(f, config);
  Bytes junk;  // empty: not even the unchanged bit
  EXPECT_FALSE(client.OnServerMessage(junk).ok());
}

// ASan and TSan reserve terabytes of shadow address space, which an
// address-space limit forbids.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FSX_SHADOW_MEMORY 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define FSX_SHADOW_MEMORY 1
#endif
#endif

TEST(Endpoint, HugeAnnouncedSizeWithShortDeltaGoesToFullTransfer) {
#ifdef FSX_SHADOW_MEMORY
  GTEST_SKIP() << "an address-space limit cannot run under ASan or TSan";
#endif
  // A hostile first server message: it announces a 2^32-byte F_new and
  // carries a valid zd delta of 11 other bytes. The client holds an empty
  // F_old and runs the two-roundtrip mode ChooseConfig picks for
  // high-latency links, so there is no map phase and the delta follows
  // the header directly.
  auto delta = ZdEncode({}, ToBytes("other bytes"));
  ASSERT_TRUE(delta.ok());
  BitWriter msg;
  msg.WriteBit(false);  // not unchanged
  msg.WriteVarint(uint64_t{1} << 32);
  msg.WriteBytes(Bytes(16, 0));  // F_new's fingerprint
  msg.WriteVarint(delta->size());
  msg.WriteBytes(*delta);
  const Bytes hostile = msg.Finish();

  // Run the client in a child limited to 512 MB of address space, a
  // limit on this test's own process: the short decode must go to the
  // full-transfer rung, not become a repair candidate of 2^32 bytes.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const rlimit limit{512u << 20, 512u << 20};
    if (::setrlimit(RLIMIT_AS, &limit) != 0) {
      ::_exit(3);
    }
    int code = 4;
    try {
      SyncConfig config;
      config.max_roundtrips = 2;
      SyncClientEndpoint client({}, config);
      client.MakeRequest();
      auto reply = client.OnServerMessage(hostile);
      if (!reply.ok() || reply->has_value() || !client.needs_fallback()) {
        code = 1;
      } else {
        code = client.has_repair_candidate() ? 2 : 0;
      }
    } catch (...) {
    }
    ::_exit(code);
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus)) << "child died by signal "
                                  << WTERMSIG(wstatus);
  EXPECT_EQ(WEXITSTATUS(wstatus), 0)
      << "1: not a full-transfer fallback; 2: kept a repair candidate; "
         "3: setrlimit failed; 4: threw";
}

TEST(Endpoint, TraceAvailableAfterCompletion) {
  Rng rng(4);
  Bytes f_old = SynthSourceFile(rng, 40000);
  EditProfile ep;
  ep.num_edits = 6;
  Bytes f_new = ApplyEdits(f_old, ep, rng);
  SyncConfig config;

  SyncClientEndpoint client(f_old, config);
  SyncServerEndpoint server(f_new, config);
  auto msg = server.OnRequest(client.MakeRequest());
  ASSERT_TRUE(msg.ok());
  Bytes current = *msg;
  for (;;) {
    auto reply = client.OnServerMessage(current);
    ASSERT_TRUE(reply.ok());
    if (!reply->has_value()) {
      break;
    }
    auto next = server.OnClientMessage(**reply);
    ASSERT_TRUE(next.ok());
    current = *next;
  }
  EXPECT_FALSE(client.trace().empty());
  EXPECT_EQ(client.rounds_executed(), server.rounds_executed());
  EXPECT_GT(server.delta_payload_bytes(), 0u);
}

// --- Batched group verification -------------------------------------

// Checks GroupVerifyHashes against the per-group GroupVerifyHash on both
// sides (client ranges at match_pos in F_old, server ranges in F_new).
void ExpectBatchMatchesPerGroup(const std::vector<VerifyGroup>& groups,
                                const BlockLedger& ledger, ByteSpan f_old,
                                ByteSpan f_new, uint64_t salt) {
  for (bool client_side : {false, true}) {
    ByteSpan file = client_side ? f_old : f_new;
    for (int bits : {1, 20, 32, 64}) {
      std::vector<uint64_t> got;
      core_internal::GroupVerifyHashes(file, groups, ledger, client_side,
                                       bits, salt, got);
      ASSERT_EQ(got.size(), groups.size());
      for (size_t i = 0; i < groups.size(); ++i) {
        EXPECT_EQ(got[i],
                  core_internal::GroupVerifyHash(file, groups[i].members,
                                                 ledger, client_side, bits,
                                                 salt))
            << "group " << i << " of " << groups.size()
            << " client_side=" << client_side << " bits=" << bits;
      }
    }
  }
}

TEST(GroupVerify, BatchedHashesEqualPerGroupHashes) {
  const uint64_t seed = SeedFromEnv(1331);
  SCOPED_TRACE("FSX_SEED=" + std::to_string(seed));
  Rng rng(seed);
  // 4 KiB blocks and a 1000-byte tail: groups of unequal total length,
  // and enough bytes for runs to overflow the 64 KiB gather buffer.
  SyncConfig config;
  config.start_block_size = 4096;
  const Bytes f_new = rng.RandomBytes(4096 * 40 + 1000);
  const Bytes f_old = rng.RandomBytes(200000);
  BlockLedger ledger(f_new.size(), f_old.size(), config);
  ASSERT_EQ(ledger.num_blocks(), 41u);
  for (size_t id = 0; id < ledger.num_blocks(); ++id) {
    Block& b = ledger.block(id);
    b.match_pos = rng.Uniform(f_old.size() - b.size + 1);
  }
  const uint64_t salt = (uint64_t{0xF5A5} << 32) | (rng.Next() & 0xFFFF);
  auto random_id = [&] { return rng.Uniform(ledger.num_blocks()); };

  // Group counts around multiples of four, single members only.
  for (size_t n : {0, 1, 2, 3, 4, 5, 7, 9, 13}) {
    std::vector<VerifyGroup> groups(n);
    for (VerifyGroup& g : groups) {
      g.members = {random_id()};
    }
    ExpectBatchMatchesPerGroup(groups, ledger, f_old, f_new, salt);
  }
  // Mixed sizes: 1 to 24 members (up to ~96 KiB, past the gather budget
  // on its own), the tail block among them, in random order.
  std::vector<VerifyGroup> mixed(11);
  for (VerifyGroup& g : mixed) {
    const size_t members = 1 + rng.Uniform(24);
    for (size_t k = 0; k < members; ++k) {
      g.members.push_back(random_id());
    }
  }
  mixed[3].members.push_back(ledger.num_blocks() - 1);  // the tail block
  ExpectBatchMatchesPerGroup(mixed, ledger, f_old, f_new, salt);
  // Salvage batches: the failed groups split in halves, then again.
  std::vector<VerifyGroup> split = SplitGroups(mixed);
  ExpectBatchMatchesPerGroup(split, ledger, f_old, f_new, salt + 1);
  ExpectBatchMatchesPerGroup(SplitGroups(split), ledger, f_old, f_new,
                             salt + 2);
}

}  // namespace
}  // namespace fsx
