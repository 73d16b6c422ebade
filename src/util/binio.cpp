#include "util/binio.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cstring>

namespace resilience::util {

namespace {

// Slicing-by-8 CRC32: table[0] is the classic one-byte-at-a-time table;
// table[k][b] advances table[k-1][b] by one zero byte, so eight lookups
// retire eight input bytes per iteration. Same polynomial, same result as
// the bytewise loop — validating a multi-hundred-KB golden store file is
// the hot path here, and the bytewise loop was its entire cost.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = tables[0][i];
    for (std::size_t k = 1; k < 8; ++k) {
      c = tables[0][c & 0xFFu] ^ (c >> 8);
      tables[k][i] = c;
    }
  }
  return tables;
}

constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrcTables =
    make_crc_tables();

}  // namespace

std::uint32_t crc32(std::span<const std::byte> bytes,
                    std::uint32_t seed) noexcept {
  const auto& t = kCrcTables;
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const std::byte* p = bytes.data();
  std::size_t n = bytes.size();
  while (n >= 8) {
    // Byte shifts, not a load + bswap dance: the compiler folds these
    // into single 32-bit loads on little-endian hosts, and the code stays
    // correct on big-endian ones.
    const std::uint32_t lo =
        c ^ (static_cast<std::uint32_t>(p[0]) |
             static_cast<std::uint32_t>(p[1]) << 8 |
             static_cast<std::uint32_t>(p[2]) << 16 |
             static_cast<std::uint32_t>(p[3]) << 24);
    const std::uint32_t hi = static_cast<std::uint32_t>(p[4]) |
                             static_cast<std::uint32_t>(p[5]) << 8 |
                             static_cast<std::uint32_t>(p[6]) << 16 |
                             static_cast<std::uint32_t>(p[7]) << 24;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ static_cast<std::uint32_t>(*p)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void BinWriter::u32(std::uint32_t v) {
  buf_.push_back(static_cast<std::byte>(v & 0xffu));
  buf_.push_back(static_cast<std::byte>((v >> 8) & 0xffu));
  buf_.push_back(static_cast<std::byte>((v >> 16) & 0xffu));
  buf_.push_back(static_cast<std::byte>((v >> 24) & 0xffu));
}

void BinWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v & 0xffffffffu));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void BinWriter::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void BinWriter::str(std::string_view s) {
  if (s.size() > UINT32_MAX) throw BinError("binio: string too long");
  u32(static_cast<std::uint32_t>(s.size()));
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  buf_.insert(buf_.end(), p, p + s.size());
}

void BinWriter::bytes(std::span<const std::byte> b) {
  buf_.insert(buf_.end(), b.begin(), b.end());
}

void BinWriter::u64_array(std::span<const std::uint64_t> a) {
  // Raw memcpy is the point of the binary format: binio.hpp's
  // static_assert guarantees the in-memory layout already is the wire
  // layout.
  const auto* p = reinterpret_cast<const std::byte*>(a.data());
  buf_.insert(buf_.end(), p, p + a.size_bytes());
}

void BinWriter::f64_array(std::span<const double> a) {
  const auto* p = reinterpret_cast<const std::byte*>(a.data());
  buf_.insert(buf_.end(), p, p + a.size_bytes());
}

void BinWriter::patch_u32(std::size_t offset, std::uint32_t v) {
  if (offset + 4 > buf_.size()) throw BinError("binio: patch out of range");
  for (int i = 0; i < 4; ++i) {
    buf_[offset + static_cast<std::size_t>(i)] =
        static_cast<std::byte>((v >> (8 * i)) & 0xffu);
  }
}

void BinWriter::patch_u64(std::size_t offset, std::uint64_t v) {
  patch_u32(offset, static_cast<std::uint32_t>(v & 0xffffffffu));
  patch_u32(offset + 4, static_cast<std::uint32_t>(v >> 32));
}

void BinReader::need(std::size_t n) const {
  if (n > bytes_.size() - pos_) {
    throw BinError("binio: read past end of input");
  }
}

std::uint8_t BinReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(bytes_[pos_++]);
}

std::uint32_t BinReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(bytes_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t BinReader::u64() {
  const std::uint64_t lo = u32();
  const std::uint64_t hi = u32();
  return lo | (hi << 32);
}

double BinReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string BinReader::str() {
  const std::uint32_t len = u32();
  const auto b = bytes(len);
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

std::span<const std::byte> BinReader::bytes(std::size_t n) {
  need(n);
  const auto out = bytes_.subspan(pos_, n);
  pos_ += n;
  return out;
}

void BinReader::u64_array(std::span<std::uint64_t> out) {
  const auto b = bytes(out.size_bytes());
  std::memcpy(out.data(), b.data(), b.size());
}

void BinReader::f64_array(std::span<double> out) {
  const auto b = bytes(out.size_bytes());
  std::memcpy(out.data(), b.data(), b.size());
}

std::size_t BinReader::count(std::size_t elem_bytes) {
  const std::uint64_t n = u64();
  if (n > remaining() / elem_bytes) {
    throw BinError("binio: element count exceeds the remaining input");
  }
  return static_cast<std::size_t>(n);
}

void BinReader::seek(std::size_t offset) {
  if (offset > bytes_.size()) throw BinError("binio: seek past end of input");
  pos_ = offset;
}

std::shared_ptr<MappedFile> MappedFile::open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return nullptr;
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return nullptr;
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  void* data = nullptr;
  if (size > 0) {
    data = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (data == MAP_FAILED) {
      ::close(fd);
      return nullptr;
    }
  }
  ::close(fd);  // the mapping keeps the inode alive
  return std::shared_ptr<MappedFile>(new MappedFile(data, size));
}

MappedFile::~MappedFile() {
  if (data_ != nullptr && size_ > 0) ::munmap(data_, size_);
}

}  // namespace resilience::util
