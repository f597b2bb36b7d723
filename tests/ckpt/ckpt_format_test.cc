// Format forward-guard for the checkpoint subsystem: a corrupted, truncated,
// version-skewed, or mis-walked image must fail loudly with CkptError —
// never UB, never silent partial state.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "ckpt/format.h"
#include "ckpt/payload_codec.h"
#include "pastry/message.h"
#include "vbundle/cloud.h"

namespace vb::ckpt {
namespace {

std::vector<std::uint8_t> sample_image() {
  Writer w;
  w.begin_section("outer");
  w.u8(7);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(3.141592653589793);
  w.boolean(true);
  w.boolean(false);
  w.str("hello checkpoint");
  w.u128(U128{0x1111222233334444ull, 0x5555666677778888ull});
  w.begin_section("inner");
  w.u64(99);
  w.end_section();
  w.end_section();
  return w.finish();
}

TEST(CkptFormat, RoundTripsEveryPrimitive) {
  std::vector<std::uint8_t> image = sample_image();
  Reader r(image);
  r.enter_section("outer");
  EXPECT_EQ(r.u8(), 7u);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 3.141592653589793);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), "hello checkpoint");
  EXPECT_TRUE(r.u128() == (U128{0x1111222233334444ull, 0x5555666677778888ull}));
  r.enter_section("inner");
  EXPECT_EQ(r.u64(), 99u);
  r.exit_section();
  r.exit_section();
  EXPECT_TRUE(r.at_end());
}

TEST(CkptFormat, ImageIsDeterministic) {
  EXPECT_EQ(sample_image(), sample_image());
}

/// The plain one-byte-at-a-time CRC-32 (IEEE, reflected 0xEDB88320) that
/// the sliced crc32() must reproduce bit for bit.
std::uint32_t crc32_bytewise(const std::uint8_t* p, std::size_t n,
                             std::uint32_t crc = 0) {
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(CkptFormat, Crc32MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  std::vector<std::uint8_t> buf(64 + 8);
  std::uint32_t x = 0x9E3779B9u;
  for (std::uint8_t& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::uint8_t* p = buf.data() + off;
      ASSERT_EQ(crc32(p, len), crc32_bytewise(p, len))
          << "offset " << off << " length " << len;
      // Chaining through `crc` equals one pass over the whole range.
      ASSERT_EQ(crc32(p + len / 3, len - len / 3, crc32(p, len / 3)),
                crc32_bytewise(p, len))
          << "chained, offset " << off << " length " << len;
    }
  }
  // The standard check value: CRC-32 of "123456789".
  const char* check = "123456789";
  EXPECT_EQ(crc32(check, 9), 0xCBF43926u);
}

TEST(CkptFormat, Crc32OfARealCloudImageMatchesBytewiseReference) {
  core::CloudConfig cfg;
  cfg.topology.num_pods = 2;
  cfg.topology.racks_per_pod = 2;
  cfg.topology.hosts_per_rack = 4;
  core::VBundleCloud cloud(cfg);
  host::CustomerId c = cloud.add_customer("crc");
  for (int i = 0; i < 20; ++i) cloud.boot_vm(c, host::VmSpec{100, 200});
  std::vector<std::uint8_t> image = cloud.save_checkpoint();
  ASSERT_GT(image.size(), 1000u);
  const std::size_t body = image.size() - 4;
  std::uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<std::uint32_t>(image[body + static_cast<std::size_t>(i)])
              << (8 * i);
  }
  EXPECT_EQ(crc32(image.data(), body), crc32_bytewise(image.data(), body));
  EXPECT_EQ(stored, crc32_bytewise(image.data(), body));
}

TEST(CkptFormat, CorruptedByteFailsCrcUpFront) {
  std::vector<std::uint8_t> image = sample_image();
  // Flip one payload byte (well past magic/version so only the CRC notices).
  image[image.size() / 2] ^= 0x01;
  EXPECT_THROW({ Reader r(image); }, CkptError);
}

TEST(CkptFormat, EveryCorruptedPositionIsCaught) {
  const std::vector<std::uint8_t> good = sample_image();
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::vector<std::uint8_t> bad = good;
    bad[i] ^= 0xFF;
    EXPECT_THROW({ Reader r(bad); }, CkptError) << "byte " << i;
  }
}

TEST(CkptFormat, FutureVersionIsRefused) {
  // Patch the version field (offset 4, little-endian) and fix up the CRC so
  // only the version check can object: the guard must hold even for an
  // otherwise pristine image from a newer writer.
  std::vector<std::uint8_t> image = sample_image();
  image[4] = static_cast<std::uint8_t>(kVersion + 1);
  std::uint32_t crc = crc32(image.data(), image.size() - 4);
  for (int i = 0; i < 4; ++i) {
    image[image.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  }
  try {
    Reader r(image);
    FAIL() << "future version accepted";
  } catch (const CkptError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(CkptFormat, BadMagicIsRefused) {
  std::vector<std::uint8_t> image = sample_image();
  image[0] = 'X';
  EXPECT_THROW({ Reader r(image); }, CkptError);
}

TEST(CkptFormat, TruncationAtEveryLengthIsRefused) {
  const std::vector<std::uint8_t> good = sample_image();
  for (std::size_t n = 0; n < good.size(); ++n) {
    std::vector<std::uint8_t> cut(good.begin(),
                                  good.begin() + static_cast<std::ptrdiff_t>(n));
    EXPECT_THROW({ Reader r(cut); }, CkptError) << "length " << n;
  }
}

TEST(CkptFormat, GarbageIsRefused) {
  std::vector<std::uint8_t> junk(256);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (auto& b : junk) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::uint8_t>(x);
  }
  EXPECT_THROW({ Reader r(junk); }, CkptError);
}

TEST(CkptFormat, SectionNameMismatchThrows) {
  std::vector<std::uint8_t> image = sample_image();
  Reader r(image);
  EXPECT_THROW(r.enter_section("wrong"), CkptError);
}

TEST(CkptFormat, UnderconsumedSectionThrows) {
  std::vector<std::uint8_t> image = sample_image();
  Reader r(image);
  r.enter_section("outer");
  r.u8();
  EXPECT_THROW(r.exit_section(), CkptError);
}

TEST(CkptFormat, ReadPastSectionEndThrows) {
  Writer w;
  w.begin_section("s");
  w.u8(1);
  w.end_section();
  std::vector<std::uint8_t> image = w.finish();
  Reader r(image);
  r.enter_section("s");
  r.u8();
  EXPECT_THROW(r.u64(), CkptError);
}

struct UnregisteredPayload : pastry::Payload {
  std::size_t wire_bytes() const override { return 8; }
  std::string name() const override { return "test.unregistered"; }
};

TEST(CkptPayloadCodec, UnregisteredPayloadFailsLoudly) {
  Writer w;
  UnregisteredPayload p;
  EXPECT_THROW(PayloadCodec::encode(w, p), CkptError);

  // A decoder hitting a name nobody registered must throw, not crash.
  Writer w2;
  w2.str("test.unregistered");
  std::vector<std::uint8_t> image = w2.finish();
  Reader r(image);
  EXPECT_THROW(PayloadCodec::decode(r), CkptError);
}

}  // namespace
}  // namespace vb::ckpt
