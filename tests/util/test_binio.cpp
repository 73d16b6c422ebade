// Binary I/O substrate (DESIGN.md §15): CRC32, bounds-checked reader,
// writer round trips, patching, and the mmap loader.
#include "util/binio.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace resilience {
namespace {

std::vector<std::byte> as_bytes(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

TEST(Crc32, MatchesIeeeReferenceVectors) {
  // Standard check values for the IEEE 802.3 polynomial.
  EXPECT_EQ(util::crc32({}), 0u);
  EXPECT_EQ(util::crc32(as_bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(util::crc32(as_bytes("a")), 0xE8B7BE43u);
}

TEST(Crc32, SeedChainsIncrementalComputation) {
  const auto whole = as_bytes("hello, world");
  const auto head = as_bytes("hello, ");
  const auto tail = as_bytes("world");
  EXPECT_EQ(util::crc32(whole), util::crc32(tail, util::crc32(head)));
}

TEST(Crc32, DetectsSingleBitFlip) {
  auto data = as_bytes("the quick brown fox");
  const std::uint32_t before = util::crc32(data);
  data[7] ^= std::byte{0x10};
  EXPECT_NE(util::crc32(data), before);
}

TEST(BinWriter, ScalarAndArrayRoundTrip) {
  util::BinWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-42);
  w.i64(-1234567890123LL);
  w.f64(3.141592653589793);
  w.str("golden");
  const std::uint64_t u64s[] = {1, 2, 3};
  w.u64_array(u64s);
  const double f64s[] = {-1.5, 0.0, 2.25};
  w.f64_array(f64s);

  util::BinReader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1234567890123LL);
  EXPECT_EQ(r.f64(), 3.141592653589793);
  EXPECT_EQ(r.str(), "golden");
  std::uint64_t u_out[3] = {};
  r.u64_array(u_out);
  EXPECT_EQ(u_out[2], 3u);
  double f_out[3] = {};
  r.f64_array(f_out);
  EXPECT_EQ(f_out[0], -1.5);
  EXPECT_EQ(f_out[2], 2.25);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BinWriter, ScalarsAreLittleEndianOnTheWire) {
  util::BinWriter w;
  w.u32(0x01020304u);
  const auto buf = w.buffer();
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], std::byte{0x04});
  EXPECT_EQ(buf[3], std::byte{0x01});
}

TEST(BinWriter, PatchRewritesPlaceholders) {
  util::BinWriter w;
  const std::size_t at32 = w.size();
  w.u32(0);
  const std::size_t at64 = w.size();
  w.u64(0);
  w.str("tail");
  w.patch_u32(at32, 7u);
  w.patch_u64(at64, 99u);
  util::BinReader r(w.buffer());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_EQ(r.u64(), 99u);
  EXPECT_EQ(r.str(), "tail");
}

TEST(BinReader, ThrowsPastTheEnd) {
  util::BinWriter w;
  w.u32(5);
  util::BinReader r(w.buffer());
  (void)r.u32();
  EXPECT_THROW((void)r.u8(), util::BinError);
  util::BinReader r2(w.buffer());
  EXPECT_THROW((void)r2.u64(), util::BinError);
  util::BinReader r3(w.buffer());
  EXPECT_THROW((void)r3.bytes(5), util::BinError);
}

TEST(BinReader, StrRejectsLengthBeyondBuffer) {
  util::BinWriter w;
  w.u32(1000);  // claims 1000 bytes follow; none do
  util::BinReader r(w.buffer());
  EXPECT_THROW((void)r.str(), util::BinError);
}

// count() bounds a claimed element count by the bytes left: exactly
// enough passes, one more element (or a 2^40 claim) throws before any
// caller could size a vector from it.
TEST(BinReader, CountRejectsMoreElementsThanTheInputHolds) {
  util::BinWriter w;
  w.u64(2);
  w.u64(7);
  w.u64(8);
  util::BinReader fits(w.buffer());
  EXPECT_EQ(fits.count(sizeof(std::uint64_t)), 2u);

  util::BinWriter over;
  over.u64(3);
  over.u64(7);
  over.u64(8);
  util::BinReader r(over.buffer());
  EXPECT_THROW((void)r.count(sizeof(std::uint64_t)), util::BinError);

  util::BinWriter huge;
  huge.u64(std::uint64_t{1} << 40);
  util::BinReader h(huge.buffer());
  EXPECT_THROW((void)h.count(1), util::BinError);
}

TEST(BinReader, BytesBorrowsFromTheUnderlyingBuffer) {
  util::BinWriter w;
  w.str("abcdef");
  const auto buf = w.buffer();
  util::BinReader r(buf);
  (void)r.u32();
  const auto span = r.bytes(6);
  EXPECT_EQ(span.data(), buf.data() + 4);  // a view, not a copy
}

TEST(MappedFile, MapsWrittenBytesAndOutlivesTheUnlink) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("binio_map_" + std::to_string(::getpid()) + ".bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "mapped-bytes";
  }
  const auto map = util::MappedFile::open(path.string());
  ASSERT_NE(map, nullptr);
  std::filesystem::remove(path);  // the mapping keeps the inode alive
  const auto bytes = map->bytes();
  ASSERT_EQ(bytes.size(), 12u);
  EXPECT_EQ(std::memcmp(bytes.data(), "mapped-bytes", 12), 0);
}

TEST(MappedFile, MissingFileReturnsNull) {
  EXPECT_EQ(util::MappedFile::open("/nonexistent/binio/nope.bin"), nullptr);
}

TEST(MappedFile, EmptyFileMapsToEmptySpan) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("binio_empty_" + std::to_string(::getpid()) + ".bin");
  { std::ofstream out(path, std::ios::binary); }
  const auto map = util::MappedFile::open(path.string());
  ASSERT_NE(map, nullptr);
  EXPECT_TRUE(map->bytes().empty());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace resilience
