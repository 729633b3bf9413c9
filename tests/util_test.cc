#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>

#include "fsync/util/bit_io.h"
#include "fsync/util/hex.h"
#include "fsync/util/mapped_file.h"
#include "fsync/util/random.h"
#include "fsync/util/status.h"

namespace fsx {
namespace {

// --- Status / StatusOr ------------------------------------------------

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = Status::DataLoss("truncated");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(s.ToString(), "DATA_LOSS: truncated");
}

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) {
    return Status::InvalidArgument("not positive");
  }
  return x;
}

StatusOr<int> DoubleIt(int x) {
  FSYNC_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(StatusOr, ValuePath) {
  auto r = DoubleIt(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(StatusOr, ErrorPropagates) {
  auto r = DoubleIt(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// --- BitWriter / BitReader ---------------------------------------------

TEST(BitIo, SingleBits) {
  BitWriter w;
  for (int i = 0; i < 12; ++i) {
    w.WriteBit(i % 3 == 0);
  }
  Bytes buf = w.Finish();
  BitReader r(buf);
  for (int i = 0; i < 12; ++i) {
    auto b = r.ReadBit();
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*b, i % 3 == 0) << i;
  }
}

TEST(BitIo, MixedWidthRoundTrip) {
  BitWriter w;
  w.WriteBits(0x5, 3);
  w.WriteBits(0xABCD, 16);
  w.WriteBits(1, 1);
  w.WriteBits(0x123456789ULL, 37);
  w.WriteBits(0xFFFFFFFFFFFFFFFFULL, 64);
  Bytes buf = w.Finish();

  BitReader r(buf);
  EXPECT_EQ(r.ReadBits(3).value(), 0x5u);
  EXPECT_EQ(r.ReadBits(16).value(), 0xABCDu);
  EXPECT_EQ(r.ReadBits(1).value(), 1u);
  EXPECT_EQ(r.ReadBits(37).value(), 0x123456789ULL);
  EXPECT_EQ(r.ReadBits(64).value(), 0xFFFFFFFFFFFFFFFFULL);
}

TEST(BitIo, WriteBitsMasksHighBits) {
  BitWriter w;
  w.WriteBits(0xFF, 4);  // only low 4 bits should land
  w.WriteBits(0, 4);
  Bytes buf = w.Finish();
  BitReader r(buf);
  EXPECT_EQ(r.ReadBits(8).value(), 0x0Fu);
}

TEST(BitIo, VarintRoundTrip) {
  BitWriter w;
  const uint64_t values[] = {0,    1,      127,        128,
                             300,  16383,  16384,      1ULL << 32,
                             ~0ULL};
  for (uint64_t v : values) {
    w.WriteVarint(v);
  }
  Bytes buf = w.Finish();
  BitReader r(buf);
  for (uint64_t v : values) {
    auto got = r.ReadVarint();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
}

TEST(BitIo, VarintUnaligned) {
  BitWriter w;
  w.WriteBits(0x3, 2);
  w.WriteVarint(123456);
  Bytes buf = w.Finish();
  BitReader r(buf);
  EXPECT_EQ(r.ReadBits(2).value(), 0x3u);
  EXPECT_EQ(r.ReadVarint().value(), 123456u);
}

TEST(BitIo, BytesAndAlignment) {
  BitWriter w;
  w.WriteBit(true);
  w.AlignToByte();
  Bytes payload = {1, 2, 3, 250};
  w.WriteBytes(payload);
  Bytes buf = w.Finish();
  BitReader r(buf);
  EXPECT_TRUE(r.ReadBit().value());
  r.AlignToByte();
  EXPECT_EQ(r.ReadBytes(4).value(), payload);
}

TEST(BitIo, ReadPastEndFails) {
  BitWriter w;
  w.WriteBits(0xAA, 8);
  Bytes buf = w.Finish();
  BitReader r(buf);
  EXPECT_TRUE(r.ReadBits(8).ok());
  EXPECT_FALSE(r.ReadBits(1).ok());
  EXPECT_EQ(r.ReadBits(1).status().code(), StatusCode::kOutOfRange);
  // A byte count whose bit count wraps 64 bits is past the end too.
  BitReader big(buf);
  EXPECT_EQ(big.ReadBytes((size_t{1} << 61) + 1).status().code(),
            StatusCode::kOutOfRange);
}

TEST(BitIo, BitCountTracksExactly) {
  BitWriter w;
  w.WriteBits(1, 5);
  w.WriteBits(2, 11);
  EXPECT_EQ(w.bit_count(), 16u);
}

// --- Rng ---------------------------------------------------------------

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, UniformWithinBound) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, SkewedSizeBounds) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.SkewedSize(16, 4096);
    EXPECT_GE(v, 16u);
    EXPECT_LE(v, 4096u);
  }
}

TEST(Rng, RandomBytesLengthAndVariety) {
  Rng rng(9);
  Bytes b = rng.RandomBytes(4096);
  EXPECT_EQ(b.size(), 4096u);
  int counts[256] = {};
  for (uint8_t v : b) {
    ++counts[v];
  }
  int nonzero = 0;
  for (int c : counts) {
    nonzero += c > 0;
  }
  EXPECT_GT(nonzero, 200);
}

// --- Hex ---------------------------------------------------------------

TEST(Hex, RoundTrip) {
  Bytes data = {0x00, 0x01, 0xAB, 0xFF};
  std::string hex = HexEncode(data);
  EXPECT_EQ(hex, "0001abff");
  EXPECT_EQ(HexDecode(hex), data);
}

TEST(Hex, RejectsBadInput) {
  EXPECT_TRUE(HexDecode("abc").empty());   // odd length
  EXPECT_TRUE(HexDecode("zz").empty());    // bad digit
  EXPECT_TRUE(HexDecode("").empty());
}

// --- MappedFile / ReadWholeFile ---------------------------------------

class TempFile {
 public:
  explicit TempFile(ByteSpan content) {
    path_ = (std::filesystem::temp_directory_path() /
             ("fsx_mapped_file_test_" +
              std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
              "_" + std::to_string(counter_++)))
                .string();
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(content.data()),
              static_cast<std::streamsize>(content.size()));
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::string path_;
};

TEST(MappedFile, SpanMatchesFileContent) {
  Bytes content = Rng(77).RandomBytes(64 * 1024 + 13);
  TempFile file(content);
  auto mapped = MappedFile::Open(file.path());
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_EQ(mapped->size(), content.size());
  EXPECT_TRUE(std::equal(content.begin(), content.end(),
                         mapped->span().begin()));
}

TEST(MappedFile, EmptyFileYieldsEmptySpan) {
  TempFile file{ByteSpan()};
  auto mapped = MappedFile::Open(file.path());
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped->size(), 0u);
  // Zero-length mmap is invalid, so the empty file must have taken the
  // owned-buffer fallback — the API contract hides which path ran.
  EXPECT_FALSE(mapped->is_mapped());
}

TEST(MappedFile, MissingFileIsNotFound) {
  auto mapped = MappedFile::Open("/nonexistent/fsx/mapped/file");
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(ReadWholeFile("/nonexistent/fsx/mapped/file").ok());
}

TEST(MappedFile, MoveTransfersOwnership) {
  Bytes content = Rng(78).RandomBytes(4096);
  TempFile file(content);
  auto mapped = MappedFile::Open(file.path());
  ASSERT_TRUE(mapped.ok());
  MappedFile moved = std::move(mapped).value();
  MappedFile target;
  target = std::move(moved);
  ASSERT_EQ(target.size(), content.size());
  EXPECT_TRUE(std::equal(content.begin(), content.end(),
                         target.span().begin()));
  EXPECT_EQ(moved.size(), 0u);  // NOLINT(bugprone-use-after-move)
}

TEST(MappedFile, ReadWholeFileMatchesMapping) {
  Bytes content = Rng(79).RandomBytes(12345);
  TempFile file(content);
  auto owned = ReadWholeFile(file.path());
  ASSERT_TRUE(owned.ok()) << owned.status().ToString();
  EXPECT_EQ(*owned, content);
}

}  // namespace
}  // namespace fsx
