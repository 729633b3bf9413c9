// Format-stability ("golden") tests: pin exact outputs of everything
// that defines a wire or on-disk format. An intentional format change
// must update these values AND docs/PROTOCOL.md together; an accidental
// change (e.g. reordering hash inputs, touching the substitution table,
// re-tuning a default) fails here before it silently breaks
// interoperability between differently-built endpoints.
#include <gtest/gtest.h>

#include "fsync/compress/codec.h"
#include "fsync/core/collection.h"
#include "fsync/core/session.h"
#include "fsync/delta/zd.h"
#include "fsync/hash/karp_rabin.h"
#include "fsync/hash/md5.h"
#include "fsync/hash/tabled_adler.h"
#include "fsync/reconcile/manifest.h"
#include "fsync/store/fsstore.h"
#include "fsync/store/journal.h"
#include "fsync/testing/tree_corpus.h"
#include "fsync/util/hex.h"
#include "fsync/util/random.h"
#include "fsync/workload/edits.h"
#include "fsync/workload/text_synth.h"

namespace fsx {
namespace {

const char kPangram[] = "The quick brown fox jumps over the lazy dog";

// MD5 over every transcript entry as (direction byte, 8-byte
// little-endian length, payload), in send order.
void HashTranscript(const SimulatedChannel& channel, Md5& h) {
  for (const auto& entry : channel.transcript()) {
    uint8_t head[9];
    const bool up =
        entry.dir == SimulatedChannel::Direction::kClientToServer;
    head[0] = up ? 0 : 1;
    for (int i = 0; i < 8; ++i) {
      head[1 + i] = static_cast<uint8_t>(
          static_cast<uint64_t>(entry.payload.size()) >> (8 * i));
    }
    h.Update(ByteSpan(head, sizeof(head)));
    h.Update(entry.payload);
  }
}

TEST(Golden, TabledAdlerValues) {
  AdlerPair p = TabledAdler::Hash(ToBytes(kPangram));
  EXPECT_EQ(p.a, 57962);
  EXPECT_EQ(p.b, 18479);
  EXPECT_EQ(TabledAdler::Truncate(p, 24), 8581738u);
}

TEST(Golden, KarpRabinValue) {
  EXPECT_EQ(KarpRabin::Hash(ToBytes(kPangram)), 276640233276435057ULL);
}

TEST(Golden, WorkloadGeneratorIsStable) {
  // Benches and EXPERIMENTS.md quote numbers for these seeds; the
  // generator must keep producing identical bytes.
  Rng rng(12345);
  Bytes text = SynthSourceFile(rng, 20000);
  EXPECT_EQ(text.size(), 20737u);
  EXPECT_EQ(HexEncode(Md5::Hash(text)),
            "b6473c18a81b8a70a3ecfe4021d04d56");
}

TEST(Golden, StreamCodecFormat) {
  Rng rng(12345);
  Bytes text = SynthSourceFile(rng, 20000);
  Bytes packed = Compress(text);
  EXPECT_EQ(packed.size(), 5099u);
  EXPECT_EQ(HexEncode(Md5::Hash(packed)),
            "4e5ad5671abb5fb59313fa4204661cb9");
}

TEST(Golden, ZdDeltaFormat) {
  Rng rng(12345);
  Bytes text = SynthSourceFile(rng, 20000);
  EditProfile ep;
  ep.num_edits = 7;
  Bytes text2 = ApplyEdits(text, ep, rng);
  Bytes delta = std::move(ZdEncode(text, text2)).value();
  EXPECT_EQ(delta.size(), 92u);
  EXPECT_EQ(HexEncode(Md5::Hash(delta)),
            "be581341984da228b0bb6464b8d06a33");
}

TEST(Golden, SessionTrafficIsStable) {
  // The exact byte counts of a fixed session pin the whole protocol
  // encoding stack (plans, bitmaps, hash widths, verification layout).
  Rng rng(12345);
  Bytes text = SynthSourceFile(rng, 20000);
  EditProfile ep;
  ep.num_edits = 7;
  Bytes text2 = ApplyEdits(text, ep, rng);
  SyncConfig config;
  SimulatedChannel channel;
  auto r = SynchronizeFile(text, text2, config, channel);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->reconstructed, text2);
  EXPECT_EQ(r->stats.client_to_server_bytes, 75u);
  // 294 before the server's encode was guided by the map; the same
  // session encoded without runs still moves 294.
  EXPECT_EQ(r->stats.server_to_client_bytes, 293u);
  EXPECT_EQ(r->stats.roundtrips, 11u);
}

TEST(Golden, TreeTrafficIsStable) {
  // The whole tree pipeline's wire bytes: manifest walk, adoption, the
  // small-file bundle and the multiplexed sessions.
  Md5 h;
  for (TreeShape shape : kPinnedShapes) {
    TreeCorpusPair pair = MakeTreeCorpusPair(shape, kPinnedSeed);
    SimulatedChannel channel;
    channel.EnableTranscript();
    auto r = SyncCollectionTree(pair.old_tree, pair.new_tree,
                                TreeSyncParams{}, channel);
    ASSERT_TRUE(r.ok()) << pair.Label();
    ASSERT_EQ(r->reconstructed, pair.new_tree) << pair.Label();
    HashTranscript(channel, h);
  }
  EXPECT_EQ(HexEncode(h.Finish()),
            "1b5cf442fffb7e40c6f26994a8c565c0");
}

TEST(Golden, ManifestFileIsStable) {
  // The .fsx-manifest bytes of a fixed collection.
  TreeCorpusPair pair =
      MakeTreeCorpusPair(TreeShape::kMixedChurn, kPinnedSeed);
  Bytes manifest = SerializeManifest(BuildManifest(pair.new_tree));
  EXPECT_EQ(HexEncode(Md5::Hash(manifest)),
            "c50a520c517295b0d58df705479a86e0");
}

TEST(Golden, TreeJournalRecordsAreStable) {
  // The tree journal's record payloads, one of each kind the tree apply
  // writes: a journal left by one build must recover under another.
  const Bytes content = ToBytes(kPangram);
  const Fingerprint fp = FileFingerprint(content);
  std::vector<store::JournalRecord> records(6);
  records[0].type = store::JournalRecordType::kBegin;
  records[1].type = store::JournalRecordType::kFileIntent;
  records[1].op = store::FileOp::kWrite;
  records[1].path = "dir/new.txt";
  records[1].size = content.size();
  records[1].fingerprint = fp;
  records[2].type = store::JournalRecordType::kFileIntent;
  records[2].op = store::FileOp::kDelete;
  records[2].path = "gone.bin";
  records[3].type = store::JournalRecordType::kFileIntent;
  records[3].op = store::FileOp::kAdopt;
  records[3].path = "moved/to.txt";
  records[3].size = content.size();
  records[3].fingerprint = fp;
  records[3].from_path = "from.txt";
  records[4].type = store::JournalRecordType::kCommit;
  records[5].type = store::JournalRecordType::kAbort;
  Md5 h;
  for (const store::JournalRecord& r : records) {
    h.Update(store::EncodeJournalRecord(r));
  }
  EXPECT_EQ(HexEncode(h.Finish()), "62dbb55b6c784f6d01295aeb67a888b9");
}

}  // namespace
}  // namespace fsx
