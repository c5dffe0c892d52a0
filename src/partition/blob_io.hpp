#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/hash.hpp"

namespace sg::partition::detail {
template <typename T>
struct is_pair : std::false_type {};
template <typename A, typename B>
struct is_pair<std::pair<A, B>> : std::true_type {};
}  // namespace sg::partition::detail

namespace sg::partition {

/// FNV-1a 64-bit content checksum. Shared by the on-disk partition
/// store and the fault subsystem's checkpoint files so both formats
/// detect truncation and bit corruption the same way (delegates to the
/// single shared implementation in util/hash.hpp).
[[nodiscard]] inline std::uint64_t fnv1a64(const void* data, std::size_t n,
                                           std::uint64_t seed =
                                               util::kFnv1aOffset) {
  return util::fnv1a64(data, n, seed);
}

/// Serializes PODs and vectors into a flat byte buffer. Doubles as the
/// write-side archive for checkpointable program state: `ar(a, b, c)`
/// serializes each field in declaration order.
class ByteWriter {
 public:
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void pod(const T& value) {
    const auto* p = reinterpret_cast<const char*>(&value);
    bytes_.insert(bytes_.end(), p, p + sizeof value);
  }

  template <typename T>
  void vec(const std::vector<T>& v) {
    pod(static_cast<std::uint64_t>(v.size()));
    if constexpr (std::is_trivially_copyable_v<T>) {
      if (!v.empty()) {
        const auto* p = reinterpret_cast<const char*>(v.data());
        bytes_.insert(bytes_.end(), p, p + v.size() * sizeof(T));
      }
    } else {
      for (const T& e : v) field(e);
    }
  }

  template <typename... Ts>
  void operator()(const Ts&... fields) {
    (field(fields), ...);
  }

  [[nodiscard]] const std::vector<char>& bytes() const { return bytes_; }
  [[nodiscard]] std::vector<char> take() { return std::move(bytes_); }

 private:
  template <typename T>
  void field(const T& f) {
    if constexpr (std::is_trivially_copyable_v<T>) {
      pod(f);
    } else if constexpr (detail::is_pair<T>::value) {
      // std::pair is not trivially copyable even for POD members;
      // serialize memberwise (also avoids writing padding bytes).
      field(f.first);
      field(f.second);
    } else {
      vec(f);
    }
  }

  std::vector<char> bytes_;
};

/// Bounds-checked reader over a serialized buffer; every underflow or
/// implausible length throws a std::runtime_error naming `context`
/// instead of reading garbage. Doubles as the read-side archive.
class ByteReader {
 public:
  ByteReader(const std::vector<char>& data, std::string context)
      : data_(data.data()), size_(data.size()), context_(std::move(context)) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  [[nodiscard]] T pod() {
    need(sizeof(T), "value");
    T value;
    std::memcpy(&value, data_ + pos_, sizeof value);
    pos_ += sizeof value;
    return value;
  }

  template <typename T>
  [[nodiscard]] std::vector<T> vec() {
    const auto n = pod<std::uint64_t>();
    std::vector<T> v;
    if constexpr (std::is_trivially_copyable_v<T>) {
      if (n > (size_ - pos_) / sizeof(T)) {
        throw std::runtime_error(context_ + ": array length " +
                                 std::to_string(n) +
                                 " exceeds remaining file size (corrupt?)");
      }
      if (n != 0) {
        v.resize(n);
        std::memcpy(v.data(), data_ + pos_, n * sizeof(T));
        pos_ += n * sizeof(T);
      }
    } else {
      if (n > size_ - pos_) {  // each element needs >= 1 byte
        throw std::runtime_error(context_ + ": array length " +
                                 std::to_string(n) +
                                 " exceeds remaining file size (corrupt?)");
      }
      v.resize(n);
      for (T& e : v) field(e);
    }
    return v;
  }

  template <typename... Ts>
  void operator()(Ts&... fields) {
    (field(fields), ...);
  }

  /// Asserts the buffer was consumed exactly (catches format drift).
  void expect_end() const {
    if (pos_ != size_) {
      throw std::runtime_error(context_ + ": " +
                               std::to_string(size_ - pos_) +
                               " trailing bytes after payload (corrupt?)");
    }
  }

  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

 private:
  template <typename T>
  void field(T& f) {
    if constexpr (std::is_trivially_copyable_v<T>) {
      f = pod<T>();
    } else if constexpr (detail::is_pair<T>::value) {
      field(f.first);
      field(f.second);
    } else {
      f = vec<typename T::value_type>();
    }
  }

  void need(std::size_t n, const char* what) const {
    if (size_ - pos_ < n) {
      throw std::runtime_error(context_ + ": truncated " + what + " (need " +
                               std::to_string(n) + " bytes, have " +
                               std::to_string(size_ - pos_) + ")");
    }
  }

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::string context_;
};

/// Lowercase hex rendering of a 64-bit digest for error messages.
[[nodiscard]] inline std::string digest_hex(std::uint64_t h) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string s = "0x";
  for (int shift = 60; shift >= 0; shift -= 4) {
    s += kHex[(h >> shift) & 0xf];
  }
  return s;
}

/// Checksummed envelope shared by partition parts, manifests,
/// checkpoints and reshard migration blobs:  magic(4) | version(4) |
/// payload_size(8) | payload | fnv1a64(payload)(8).
inline constexpr std::size_t kSealHeaderBytes = 4 + 4 + 8;
inline constexpr std::size_t kSealTrailerBytes = 8;

[[nodiscard]] inline std::vector<char> seal_payload(
    std::array<char, 4> magic, std::uint32_t version,
    const std::vector<char>& payload) {
  const auto size = static_cast<std::uint64_t>(payload.size());
  const std::uint64_t sum = fnv1a64(payload.data(), payload.size());
  // Sized once and filled at fixed offsets: GCC 12 reports a false
  // -Wstringop-overflow on a chain of insert() calls here.
  std::vector<char> out(kSealHeaderBytes + payload.size() +
                        kSealTrailerBytes);
  std::memcpy(out.data(), magic.data(), magic.size());
  std::memcpy(out.data() + 4, &version, sizeof version);
  std::memcpy(out.data() + 8, &size, sizeof size);
  std::copy(payload.begin(), payload.end(),
            out.begin() + static_cast<std::ptrdiff_t>(kSealHeaderBytes));
  std::memcpy(out.data() + kSealHeaderBytes + payload.size(), &sum,
              sizeof sum);
  return out;
}

/// Validates a sealed envelope and returns its payload. Throws a
/// std::runtime_error starting with `context` and naming `source` (a
/// path, "migration blob") on a short envelope, bad magic, version
/// mismatch, a length field that disagrees with the bytes present, or a
/// checksum failure. The length is checked before anything is copied,
/// so a corrupted length field never drives an allocation. A checksum
/// failure names the stored (expected) and recomputed (actual) digest;
/// when the caller holds a known-good copy of the payload (checkpoint
/// read-back verification does), pass it as `reference` and the error
/// additionally pinpoints the byte offset of the first differing
/// block, localizing the corruption inside the blob.
[[nodiscard]] inline std::vector<char> open_sealed(
    std::vector<char> sealed, std::array<char, 4> magic,
    std::uint32_t version, const std::string& context,
    const std::string& source, const std::vector<char>* reference = nullptr) {
  if (sealed.size() < kSealHeaderBytes + kSealTrailerBytes) {
    throw std::runtime_error(context + ": truncated envelope in " + source);
  }
  if (!std::equal(magic.begin(), magic.end(), sealed.begin())) {
    throw std::runtime_error(context + ": bad magic in " + source);
  }
  std::uint32_t stored_version = 0;
  std::memcpy(&stored_version, sealed.data() + 4, sizeof stored_version);
  if (stored_version != version) {
    throw std::runtime_error(context + ": unsupported version " +
                             std::to_string(stored_version) + " in " +
                             source + " (expected " +
                             std::to_string(version) + ")");
  }
  std::uint64_t size = 0;
  std::memcpy(&size, sealed.data() + 8, sizeof size);
  if (size != sealed.size() - kSealHeaderBytes - kSealTrailerBytes) {
    throw std::runtime_error(
        context + ": declared payload size " + std::to_string(size) +
        " does not match the " + std::to_string(sealed.size()) +
        " bytes of " + source + " (corrupt length field?)");
  }
  std::uint64_t stored_sum = 0;
  std::memcpy(&stored_sum, sealed.data() + kSealHeaderBytes + size,
              sizeof stored_sum);
  // The payload is opened in place: no second buffer the size of it.
  std::vector<char>& payload = sealed;
  const auto header = static_cast<std::ptrdiff_t>(kSealHeaderBytes);
  payload.erase(payload.begin(), payload.begin() + header);
  payload.resize(static_cast<std::size_t>(size));
  const std::uint64_t sum = fnv1a64(payload.data(), payload.size());
  if (sum != stored_sum) {
    std::string msg = context + ": checksum mismatch in " + source +
                      " (expected " + digest_hex(stored_sum) + ", actual " +
                      digest_hex(sum) + ")";
    if (reference != nullptr && reference->size() == payload.size()) {
      const auto diff =
          std::mismatch(payload.begin(), payload.end(), reference->begin());
      if (diff.first != payload.end()) {
        msg += "; first differing block at byte offset " +
               std::to_string(diff.first - payload.begin()) + " of " +
               std::to_string(payload.size());
      } else {
        // Payload bytes match the reference, so the stored trailer
        // itself took the hit.
        msg += "; payload matches reference — stored checksum corrupt";
      }
    } else if (reference != nullptr) {
      msg += "; payload size " + std::to_string(payload.size()) +
             " differs from reference size " +
             std::to_string(reference->size());
    }
    throw std::runtime_error(msg);
  }
  return payload;
}

/// Writes `payload` sealed (see seal_payload) to `path`.
inline void write_checksummed_file(const std::filesystem::path& path,
                                   std::array<char, 4> magic,
                                   std::uint32_t version,
                                   const std::vector<char>& payload) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot open " + path.string() +
                             " for writing");
  }
  const std::vector<char> sealed = seal_payload(magic, version, payload);
  out.write(sealed.data(), static_cast<std::streamsize>(sealed.size()));
  if (!out) {
    throw std::runtime_error("short write to " + path.string());
  }
}

/// Reads `path` and opens it with open_sealed, naming the path in every
/// error.
[[nodiscard]] inline std::vector<char> read_checksummed_file(
    const std::filesystem::path& path, std::array<char, 4> magic,
    std::uint32_t version, const std::string& context,
    const std::vector<char>* reference = nullptr) {
  std::ifstream in(path, std::ios::binary);
  std::error_code ec;
  const std::uintmax_t file_size = std::filesystem::file_size(path, ec);
  if (!in || ec) {
    throw std::runtime_error(context + ": cannot open " + path.string());
  }
  std::vector<char> sealed(static_cast<std::size_t>(file_size));
  in.read(sealed.data(), static_cast<std::streamsize>(sealed.size()));
  if (!in) {
    throw std::runtime_error(context + ": short read of " + path.string());
  }
  return open_sealed(std::move(sealed), magic, version, context,
                     path.string(), reference);
}

}  // namespace sg::partition
