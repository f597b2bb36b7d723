#include "ckpt/format.h"

#include <array>
#include <cstring>

namespace vb::ckpt {

namespace {

// Slicing-by-8 tables: t[0] is the classic bytewise table; t[k][b] is the
// CRC of byte b followed by k zero bytes, so eight table lookups advance
// the CRC over eight input bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

const CrcTables& crc_tables() {
  static const CrcTables t = make_crc_tables();
  return t;
}

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t crc) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  const CrcTables& t = crc_tables();
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

Writer::Writer() {
  u32(kMagic);
  u32(kVersion);
}

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Writer::begin_section(const char* name) {
  str(name);
  open_.push_back(buf_.size());
  u64(0);  // patched by end_section
}

void Writer::end_section() {
  if (open_.empty()) throw CkptError("end_section with no open section");
  std::size_t at = open_.back();
  open_.pop_back();
  std::uint64_t len = buf_.size() - (at + 8);
  for (int i = 0; i < 8; ++i) {
    buf_[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(len >> (8 * i));
  }
}

std::vector<std::uint8_t> Writer::finish() {
  if (!open_.empty()) throw CkptError("finish with unclosed section");
  std::uint32_t c = crc32(buf_.data(), buf_.size());
  u32(c);
  return std::move(buf_);
}

Reader::Reader(const std::vector<std::uint8_t>& image) : buf_(image) {
  if (buf_.size() < 12) {
    throw CkptError("checkpoint truncated: " + std::to_string(buf_.size()) +
                    " bytes, need at least 12 (magic + version + crc)");
  }
  end_ = buf_.size() - 4;
  std::uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<std::uint32_t>(buf_[end_ + static_cast<std::size_t>(i)])
              << (8 * i);
  }
  std::uint32_t computed = crc32(buf_.data(), end_);
  if (stored != computed) {
    throw CkptError("checkpoint CRC mismatch: stored " + std::to_string(stored) +
                    ", computed " + std::to_string(computed) +
                    " — the image is corrupted or truncated");
  }
  std::uint32_t magic = u32();
  if (magic != kMagic) {
    throw CkptError("bad checkpoint magic: not a v-Bundle checkpoint image");
  }
  std::uint32_t version = u32();
  if (version != kVersion) {
    throw CkptError("unsupported checkpoint version " + std::to_string(version) +
                    " (this build reads version " + std::to_string(kVersion) +
                    " only)");
  }
}

void Reader::need(std::size_t n, const char* what) {
  if (end_ - pos_ < n) {
    throw CkptError(std::string("checkpoint truncated while reading ") + what);
  }
  if (!open_.empty() && pos_ + n > open_.back().second) {
    throw CkptError("section '" + open_.back().first +
                    "' overrun: component reads past its serialized length");
  }
}

std::uint8_t Reader::u8() {
  need(1, "u8");
  return buf_[pos_++];
}

std::uint32_t Reader::u32() {
  need(4, "u32");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(buf_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  need(8, "u64");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(buf_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

bool Reader::boolean() {
  std::uint8_t v = u8();
  if (v > 1) {
    throw CkptError("corrupt boolean value " + std::to_string(v));
  }
  return v == 1;
}

std::string Reader::str() {
  std::uint32_t n = u32();
  need(n, "string payload");
  std::string s(reinterpret_cast<const char*>(buf_.data()) +
                    static_cast<std::ptrdiff_t>(pos_),
                n);
  pos_ += n;
  return s;
}

void Reader::enter_section(const char* name) {
  std::string got = str();
  if (got != name) {
    throw CkptError("checkpoint section mismatch: expected '" +
                    std::string(name) + "', found '" + got +
                    "' — image does not match this component tree");
  }
  std::uint64_t len = u64();
  if (len > end_ - pos_) {
    throw CkptError("section '" + got + "' length " + std::to_string(len) +
                    " exceeds remaining image");
  }
  open_.emplace_back(got, pos_ + len);
}

void Reader::exit_section() {
  if (open_.empty()) throw CkptError("exit_section with no open section");
  auto [name, end] = open_.back();
  open_.pop_back();
  if (pos_ != end) {
    throw CkptError("section '" + name + "' not fully consumed: " +
                    std::to_string(end - pos_) + " bytes left unread");
  }
}

}  // namespace vb::ckpt
