// Little-endian binary serialization primitives: the shared substrate of
// the golden-v2 store files (harness/golden_store) and the binary shard
// wire frames (shard/protocol).
//
// Scope is deliberately small: bounds-checked scalar and raw-array
// encode/decode, an IEEE CRC32 for section checksums, and a read-only
// mmap wrapper whose spans back the zero-copy checkpoint restore path.
// Everything is little-endian on the wire, and the raw-array paths
// memcpy in-memory doubles and u64s as they are: the static_assert below
// refuses to build on a host whose layout differs, so a byte-order
// assumption can never silently corrupt data.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace resilience::util {

static_assert(std::endian::native == std::endian::little &&
                  std::numeric_limits<double>::is_iec559,
              "binio writes in-memory u64s and doubles as little-endian "
              "IEEE 754 bytes");

/// Malformed or truncated binary input. Callers treat it like JsonError:
/// a store file raising it is corrupt (unlink + refill), a wire frame
/// raising it is a protocol bug or a dead peer.
class BinError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// IEEE CRC32 (polynomial 0xEDB88320, the zlib/PNG variant). `seed`
/// chains partial computations: crc32(b) == crc32(b2, crc32(b1)) for any
/// split b = b1 + b2.
[[nodiscard]] std::uint32_t crc32(std::span<const std::byte> bytes,
                                  std::uint32_t seed = 0) noexcept;

/// Append-only little-endian encoder over a growable byte buffer.
class BinWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  /// u32 byte length followed by the raw bytes.
  void str(std::string_view s);
  void bytes(std::span<const std::byte> b);
  /// Raw little-endian array payloads (no length prefix; callers write
  /// the element count themselves).
  void u64_array(std::span<const std::uint64_t> a);
  void f64_array(std::span<const double> a);

  /// Overwrite a previously written u32/u64 (section-table backfill).
  void patch_u32(std::size_t offset, std::uint32_t v);
  void patch_u64(std::size_t offset, std::uint64_t v);

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] std::span<const std::byte> buffer() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::byte> take() && { return std::move(buf_); }

 private:
  std::vector<std::byte> buf_;
};

/// Bounds-checked little-endian decoder over a borrowed byte span. Every
/// read past the end throws BinError; bytes() hands back sub-spans of the
/// underlying storage (zero copy), so the span must outlive them.
class BinReader {
 public:
  explicit BinReader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();
  /// Borrow `n` bytes from the underlying span and advance past them.
  [[nodiscard]] std::span<const std::byte> bytes(std::size_t n);
  void u64_array(std::span<std::uint64_t> out);
  void f64_array(std::span<double> out);
  /// Read a u64 element count and check that the rest of the input can
  /// hold that many elements of at least `elem_bytes` each, so a hostile
  /// count throws BinError instead of sizing an allocation.
  [[nodiscard]] std::size_t count(std::size_t elem_bytes);

  [[nodiscard]] std::size_t offset() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }
  void seek(std::size_t offset);

 private:
  void need(std::size_t n) const;

  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
};

/// Read-only mmap of a whole file, shared among everything that borrows
/// spans out of it (the golden-v2 loader pins one behind each loaded
/// CheckpointData). Store files are only ever replaced by rename, never
/// truncated in place, so a live mapping always sees the complete inode
/// it opened.
class MappedFile {
 public:
  /// Map `path`; nullptr when the file cannot be opened or mapped (the
  /// caller treats it as a store miss). An empty file maps to an empty
  /// span.
  [[nodiscard]] static std::shared_ptr<MappedFile> open(
      const std::string& path);

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return {static_cast<const std::byte*>(data_), size_};
  }

 private:
  MappedFile(void* data, std::size_t size) : data_(data), size_(size) {}

  void* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace resilience::util
