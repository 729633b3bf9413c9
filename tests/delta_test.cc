#include <gtest/gtest.h>

#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "fsync/compress/codec.h"
#include "fsync/core/endpoint.h"
#include "fsync/delta/delta.h"
#include "fsync/delta/bsdiff.h"
#include "fsync/delta/suffix_array.h"
#include "fsync/delta/vcdiff.h"
#include "fsync/delta/zd.h"
#include "fsync/util/bit_io.h"
#include "fsync/util/random.h"
#include "fsync/workload/edits.h"
#include "fsync/workload/text_synth.h"

namespace fsx {
namespace {

struct DeltaPair {
  Bytes reference;
  Bytes target;
};

DeltaPair MakeEditedPair(uint64_t seed, size_t size, int edits) {
  Rng rng(seed);
  DeltaPair p;
  p.reference = SynthSourceFile(rng, size);
  EditProfile ep;
  ep.num_edits = edits;
  p.target = ApplyEdits(p.reference, ep, rng);
  return p;
}

// --- zd ---------------------------------------------------------------

class ZdRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(ZdRoundTrip, EditedFiles) {
  DeltaPair p = MakeEditedPair(GetParam(), 500 + GetParam() * 997,
                               1 + GetParam() % 20);
  auto delta = ZdEncode(p.reference, p.target);
  ASSERT_TRUE(delta.ok());
  auto back = ZdDecode(p.reference, *delta);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, p.target);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ZdRoundTrip, ::testing::Range(0, 20));

TEST(Zd, EmptyTarget) {
  Bytes ref = ToBytes("reference");
  auto delta = ZdEncode(ref, {});
  ASSERT_TRUE(delta.ok());
  auto back = ZdDecode(ref, *delta);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(Zd, EmptyReference) {
  Rng rng(5);
  Bytes tgt = SynthSourceFile(rng, 8000);
  auto delta = ZdEncode({}, tgt);
  ASSERT_TRUE(delta.ok());
  auto back = ZdDecode({}, *delta);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, tgt);
  // Without a reference, zd degenerates to self-compression; it should
  // still compress redundant text.
  EXPECT_LT(delta->size(), tgt.size() / 2);
}

TEST(Zd, IdenticalFilesProduceTinyDelta) {
  Rng rng(6);
  Bytes f = SynthSourceFile(rng, 100000);
  auto delta = ZdEncode(f, f);
  ASSERT_TRUE(delta.ok());
  EXPECT_LT(delta->size(), 64u);
}

TEST(Zd, SmallEditCostsFarLessThanCompression) {
  DeltaPair p = MakeEditedPair(7, 60000, 4);
  auto delta = ZdEncode(p.reference, p.target);
  ASSERT_TRUE(delta.ok());
  Bytes self = Compress(p.target);
  EXPECT_LT(delta->size() * 5, self.size());
}

TEST(Zd, RejectsWrongReference) {
  DeltaPair p = MakeEditedPair(8, 4000, 5);
  auto delta = ZdEncode(p.reference, p.target);
  ASSERT_TRUE(delta.ok());
  Bytes wrong_ref(p.reference.begin(), p.reference.end() - 1);
  auto r = ZdDecode(wrong_ref, *delta);
  EXPECT_FALSE(r.ok());  // size check catches it
}

TEST(Zd, TruncatedDeltaFailsCleanly) {
  DeltaPair p = MakeEditedPair(9, 9000, 6);
  auto delta = ZdEncode(p.reference, p.target);
  ASSERT_TRUE(delta.ok());
  for (size_t cut = 1; cut < delta->size(); cut += 7) {
    Bytes t(delta->begin(), delta->begin() + cut);
    auto r = ZdDecode(p.reference, t);
    if (r.ok()) {
      EXPECT_NE(*r, p.target);  // at minimum it must not silently succeed
    }
  }
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

TEST(Zd, HugeDeclaredTargetIsDataLossInBoundedMemory) {
#ifdef FSX_SHADOW_MEMORY
  GTEST_SKIP() << "an address-space limit cannot run under ASan or TSan";
#endif
  Rng rng(12);
  Bytes f = SynthSourceFile(rng, 100000);
  auto delta = ZdEncode(f, f);
  ASSERT_TRUE(delta.ok());
  // Rewrite the leading target-size varint to declare 2^32 bytes, the
  // largest size the decoder's plausibility check admits.
  BitReader in(*delta);
  ASSERT_TRUE(in.ReadVarint().ok());
  const size_t varint_bytes = delta->size() - in.bits_remaining() / 8;
  BitWriter head;
  head.WriteVarint(uint64_t{1} << 32);
  Bytes hostile = head.Finish();
  hostile.insert(hostile.end(), delta->begin() + varint_bytes, delta->end());

  // Decode in a child limited to 512 MB of address space, a limit on
  // this test's own process: it must return DataLoss, not throw
  // bad_alloc or crash.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const rlimit limit{512u << 20, 512u << 20};
    if (::setrlimit(RLIMIT_AS, &limit) != 0) {
      ::_exit(3);
    }
    int code = 4;
    try {
      auto r = ZdDecode(f, hostile);
      code = r.ok() ? 1 : r.status().code() == StatusCode::kDataLoss ? 0 : 2;
    } catch (...) {
    }
    ::_exit(code);
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus)) << "child died by signal "
                                  << WTERMSIG(wstatus);
  EXPECT_EQ(WEXITSTATUS(wstatus), 0)
      << "1: decoded; 2: not DataLoss; 3: setrlimit failed; 4: threw";
}

TEST(Zd, BinaryContent) {
  Rng rng(10);
  Bytes ref = rng.RandomBytes(30000);
  Bytes tgt = ref;
  // Splice random chunks around.
  for (int i = 0; i < 5; ++i) {
    size_t from = rng.Uniform(ref.size() - 1000);
    Bytes chunk(ref.begin() + from, ref.begin() + from + 1000);
    size_t at = rng.Uniform(tgt.size());
    tgt.insert(tgt.begin() + at, chunk.begin(), chunk.end());
  }
  auto delta = ZdEncode(ref, tgt);
  ASSERT_TRUE(delta.ok());
  auto back = ZdDecode(ref, *delta);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, tgt);
  // All content exists in the reference: delta must be small.
  EXPECT_LT(delta->size(), tgt.size() / 20);
}

// --- zd, guided by known runs ------------------------------------------

// Runs a whole session between the endpoints and returns the server's
// delta reference and the known runs its ledger ended with.
Bytes LedgerReference(ByteSpan f_old, ByteSpan f_new,
                      std::vector<KnownRun>* runs) {
  SyncConfig config;
  SyncClientEndpoint client(f_old, config);
  SyncServerEndpoint server(f_new, config);
  StatusOr<Bytes> msg = server.OnRequest(client.MakeRequest());
  while (msg.ok()) {
    auto reply = client.OnServerMessage(*msg);
    if (!reply.ok() || !reply->has_value()) {
      break;
    }
    msg = server.OnClientMessage(**reply);
  }
  EXPECT_TRUE(msg.ok()) << msg.status().ToString();
  EXPECT_TRUE(client.done());
  EXPECT_EQ(client.result(), Bytes(f_new.begin(), f_new.end()));
  return server.DeltaReference(runs);
}

class ZdGuidedRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(ZdGuidedRoundTrip, LedgerRuns) {
  DeltaPair p = MakeEditedPair(100 + GetParam(), 20000 + GetParam() * 7919,
                               1 + GetParam() * 3);
  std::vector<KnownRun> runs;
  Bytes ref = LedgerReference(p.reference, p.target, &runs);
  ASSERT_FALSE(runs.empty());
  for (size_t i = 1; i < runs.size(); ++i) {  // touching ranges merged
    EXPECT_LT(runs[i - 1].target_pos + runs[i - 1].length,
              runs[i].target_pos);
  }
  auto delta = ZdEncode(ref, p.target, runs);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  auto back = ZdDecode(ref, *delta);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, p.target);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ZdGuidedRoundTrip, ::testing::Range(0, 8));

// A target spliced from reference pieces and new bytes, with the runs
// that name the pieces.
struct GuidedCase {
  Bytes reference;
  Bytes target;
  std::vector<KnownRun> runs;
};

GuidedCase MakeSplicedCase() {
  Rng rng(21);
  GuidedCase c;
  c.reference = SynthSourceFile(rng, 6000);
  auto copy = [&](uint64_t from, uint64_t length) {
    c.runs.push_back({c.target.size(), from, length});
    c.target.insert(c.target.end(), c.reference.begin() + from,
                    c.reference.begin() + from + length);
  };
  auto fresh = [&](size_t length) {
    Append(c.target, rng.RandomBytes(length));
  };
  copy(1000, 700);
  copy(200, 300);   // touches the run before it in the target only
  fresh(40);
  copy(4000, 2);    // shorter than min_match
  fresh(9);
  copy(4500, 3);
  copy(2500, 1);    // touches a short run
  fresh(100);
  copy(3000, 1200);
  copy(5000, 900);  // ends at the target's end
  return c;
}

TEST(ZdGuided, SyntheticRunsRoundTrip) {
  GuidedCase c = MakeSplicedCase();
  auto delta = ZdEncode(c.reference, c.target, c.runs);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  auto back = ZdDecode(c.reference, *delta);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, c.target);
  auto plain = ZdEncode(c.reference, c.target);
  ASSERT_TRUE(plain.ok());
  EXPECT_LE(delta->size(), plain->size());
}

TEST(ZdGuided, RunExtendsPastItsEnd) {
  // The bytes after the run still match the reference, so its copy runs
  // on to the target's end: the same delta as one run over everything.
  Rng rng(22);
  Bytes f = SynthSourceFile(rng, 30000);
  std::vector<KnownRun> head = {{0, 0, 100}};
  std::vector<KnownRun> whole = {{0, 0, f.size()}};
  auto from_head = ZdEncode(f, f, head);
  auto from_whole = ZdEncode(f, f, whole);
  ASSERT_TRUE(from_head.ok());
  ASSERT_TRUE(from_whole.ok());
  EXPECT_EQ(*from_head, *from_whole);
  auto back = ZdDecode(f, *from_head);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, f);
}

TEST(ZdGuided, EmptyRunListMatchesUnguided) {
  DeltaPair p = MakeEditedPair(23, 30000, 9);
  auto plain = ZdEncode(p.reference, p.target);
  ASSERT_TRUE(plain.ok());
  auto empty = ZdEncode(p.reference, p.target, std::vector<KnownRun>{});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(*empty, *plain);
  std::vector<KnownRun> zero_length = {{0, 0, 0}, {500, 7, 0}};
  auto zeros = ZdEncode(p.reference, p.target, zero_length);
  ASSERT_TRUE(zeros.ok());
  EXPECT_EQ(*zeros, *plain);
  auto dispatched =
      DeltaEncode(DeltaCodec::kZd, p.reference, p.target, {});
  ASSERT_TRUE(dispatched.ok());
  EXPECT_EQ(*dispatched, *plain);
}

TEST(ZdGuided, BadRunsAreInvalidArgument) {
  GuidedCase c = MakeSplicedCase();
  const uint64_t n = c.target.size();
  const uint64_t m = c.reference.size();
  auto expect_invalid = [&](std::vector<KnownRun> runs, const char* what) {
    auto delta = ZdEncode(c.reference, c.target, runs);
    ASSERT_FALSE(delta.ok()) << what;
    EXPECT_EQ(delta.status().code(), StatusCode::kInvalidArgument) << what;
  };
  std::vector<KnownRun> unsorted = c.runs;
  std::swap(unsorted[0], unsorted[1]);
  expect_invalid(unsorted, "unsorted");
  std::vector<KnownRun> overlapping = c.runs;
  overlapping[1].target_pos -= 1;
  overlapping[1].ref_pos -= 1;
  overlapping[1].length += 1;
  expect_invalid(overlapping, "overlapping");
  expect_invalid({{n - 10, 0, 11}}, "past the target's end");
  expect_invalid({{0, m - 10, 11}}, "past the reference's end");
  expect_invalid({{UINT64_MAX, 0, 2}}, "target position overflows");
  expect_invalid({{0, UINT64_MAX, 2}}, "reference position overflows");
  std::vector<KnownRun> unequal = c.runs;
  unequal[0].ref_pos += 1;
  expect_invalid(unequal, "bytes differ");
}

TEST(ZdGuided, OtherCodecsIgnoreRuns) {
  GuidedCase c = MakeSplicedCase();
  for (DeltaCodec codec : {DeltaCodec::kVcdiff, DeltaCodec::kBsdiff}) {
    auto guided = DeltaEncode(codec, c.reference, c.target, c.runs);
    auto plain = DeltaEncode(codec, c.reference, c.target);
    ASSERT_TRUE(guided.ok());
    ASSERT_TRUE(plain.ok());
    EXPECT_EQ(*guided, *plain);
  }
}

// --- vcdiff -------------------------------------------------------------

class VcdiffRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(VcdiffRoundTrip, EditedFiles) {
  DeltaPair p = MakeEditedPair(100 + GetParam(), 300 + GetParam() * 1313,
                               1 + GetParam() % 15);
  auto delta = VcdiffEncode(p.reference, p.target);
  ASSERT_TRUE(delta.ok());
  auto back = VcdiffDecode(p.reference, *delta);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, p.target);
}

INSTANTIATE_TEST_SUITE_P(Sweep, VcdiffRoundTrip, ::testing::Range(0, 16));

TEST(Vcdiff, RunsAreDetected) {
  Bytes src = ToBytes("unrelated");
  Bytes tgt(5000, 'x');
  auto delta = VcdiffEncode(src, tgt);
  ASSERT_TRUE(delta.ok());
  EXPECT_LT(delta->size(), 64u);
  auto back = VcdiffDecode(src, *delta);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, tgt);
}

TEST(Vcdiff, EmptyEverything) {
  auto delta = VcdiffEncode({}, {});
  ASSERT_TRUE(delta.ok());
  auto back = VcdiffDecode({}, *delta);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(Vcdiff, BadMagicRejected) {
  Bytes junk = {1, 2, 3, 4, 5};
  EXPECT_FALSE(VcdiffDecode({}, junk).ok());
}

TEST(Vcdiff, SourceSizeMismatchRejected) {
  DeltaPair p = MakeEditedPair(11, 2000, 3);
  auto delta = VcdiffEncode(p.reference, p.target);
  ASSERT_TRUE(delta.ok());
  Bytes short_src(p.reference.begin(), p.reference.end() - 5);
  EXPECT_FALSE(VcdiffDecode(short_src, *delta).ok());
}

// --- suffix array + bsdiff ----------------------------------------------

TEST(SuffixArrayTest, SortsSuffixes) {
  Bytes data = ToBytes("banana");
  SuffixArray sa(data);
  // Suffix order of "banana": a, ana, anana, banana, na, nana
  std::vector<uint32_t> want = {5, 3, 1, 0, 4, 2};
  EXPECT_EQ(sa.order(), want);
}

TEST(SuffixArrayTest, LongestMatchFindsSubstrings) {
  Bytes data = ToBytes("the quick brown fox jumps over the lazy dog");
  SuffixArray sa(data);
  size_t pos = 0;
  Bytes pat = ToBytes("brown fox");
  EXPECT_EQ(sa.LongestMatch(pat, pos), 9u);
  EXPECT_EQ(pos, 10u);
  Bytes partial = ToBytes("quick red");
  EXPECT_EQ(sa.LongestMatch(partial, pos), 6u);  // "quick " matches
  Bytes none = ToBytes("XYZ");
  EXPECT_EQ(sa.LongestMatch(none, pos), 0u);
}

TEST(SuffixArrayTest, MatchesAgainstBruteForce) {
  Rng rng(50);
  Bytes data = rng.RandomBytes(500);
  // Low-entropy alphabet to force repeats.
  for (auto& b : data) {
    b &= 0x3;
  }
  SuffixArray sa(data);
  for (int trial = 0; trial < 50; ++trial) {
    Bytes pat = rng.RandomBytes(1 + rng.Uniform(20));
    for (auto& b : pat) {
      b &= 0x3;
    }
    size_t pos = 0;
    size_t got = sa.LongestMatch(pat, pos);
    // Brute force.
    size_t want = 0;
    for (size_t i = 0; i < data.size(); ++i) {
      size_t len = 0;
      while (i + len < data.size() && len < pat.size() &&
             data[i + len] == pat[len]) {
        ++len;
      }
      want = std::max(want, len);
    }
    EXPECT_EQ(got, want) << "trial " << trial;
    if (got > 0) {
      EXPECT_TRUE(std::equal(pat.begin(), pat.begin() + got,
                             data.begin() + pos));
    }
  }
}

class BsdiffRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(BsdiffRoundTrip, EditedFiles) {
  DeltaPair p = MakeEditedPair(200 + GetParam(), 400 + GetParam() * 1777,
                               1 + GetParam() % 18);
  auto delta = BsdiffEncode(p.reference, p.target);
  ASSERT_TRUE(delta.ok());
  auto back = BsdiffDecode(p.reference, *delta);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, p.target);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BsdiffRoundTrip, ::testing::Range(0, 16));

TEST(Bsdiff, EmptyCases) {
  auto d1 = BsdiffEncode({}, {});
  ASSERT_TRUE(d1.ok());
  EXPECT_TRUE(BsdiffDecode({}, *d1)->empty());
  Bytes t = ToBytes("brand new content");
  auto d2 = BsdiffEncode({}, t);
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(*BsdiffDecode({}, *d2), t);
  auto d3 = BsdiffEncode(t, {});
  ASSERT_TRUE(d3.ok());
  EXPECT_TRUE(BsdiffDecode(t, *d3)->empty());
}

TEST(Bsdiff, ScatteredByteChangesCompressWell) {
  // bsdiff's specialty: many single-byte changes (as in recompiled
  // binaries) land in the near-zero diff section.
  Rng rng(51);
  Bytes ref = rng.RandomBytes(100000);
  Bytes tgt = ref;
  for (int i = 0; i < 500; ++i) {
    tgt[rng.Uniform(tgt.size())] ^= 1;  // 500 scattered bit flips
  }
  auto bs = BsdiffEncode(ref, tgt);
  auto zd = ZdEncode(ref, tgt);
  ASSERT_TRUE(bs.ok());
  ASSERT_TRUE(zd.ok());
  EXPECT_EQ(*BsdiffDecode(ref, *bs), tgt);
  // With a change every ~200 bytes, exact-copy codecs pay per fragment;
  // bsdiff pays ~1 control triple total.
  EXPECT_LT(bs->size(), zd->size());
}

TEST(Bsdiff, RejectsWrongSource) {
  DeltaPair p = MakeEditedPair(52, 3000, 4);
  auto delta = BsdiffEncode(p.reference, p.target);
  ASSERT_TRUE(delta.ok());
  Bytes wrong(p.reference.begin(), p.reference.end() - 1);
  EXPECT_FALSE(BsdiffDecode(wrong, *delta).ok());
}

TEST(Bsdiff, TruncatedDeltaFailsCleanly) {
  DeltaPair p = MakeEditedPair(53, 8000, 6);
  auto delta = BsdiffEncode(p.reference, p.target);
  ASSERT_TRUE(delta.ok());
  for (size_t cut = 0; cut < delta->size(); cut += 11) {
    Bytes t(delta->begin(), delta->begin() + cut);
    auto r = BsdiffDecode(p.reference, t);
    if (r.ok()) {
      EXPECT_NE(*r, p.target);
    }
  }
}

// --- Dispatch + comparative behaviour -----------------------------------

TEST(DeltaDispatch, BothCodecsRoundTrip) {
  DeltaPair p = MakeEditedPair(12, 20000, 8);
  for (DeltaCodec codec :
       {DeltaCodec::kZd, DeltaCodec::kVcdiff, DeltaCodec::kBsdiff}) {
    auto delta = DeltaEncode(codec, p.reference, p.target);
    ASSERT_TRUE(delta.ok());
    auto back = DeltaDecode(codec, p.reference, *delta);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, p.target);
  }
}

TEST(DeltaDispatch, ZdBeatsVcdiffOnText) {
  // The entropy-coded zd should out-compress the byte-aligned vcdiff on
  // lightly edited text, mirroring the paper's zdelta-vs-vcdiff ordering.
  DeltaPair p = MakeEditedPair(13, 80000, 10);
  auto zd = DeltaEncode(DeltaCodec::kZd, p.reference, p.target);
  auto vc = DeltaEncode(DeltaCodec::kVcdiff, p.reference, p.target);
  ASSERT_TRUE(zd.ok());
  ASSERT_TRUE(vc.ok());
  EXPECT_LT(zd->size(), vc->size());
}

}  // namespace
}  // namespace fsx
