// Whirlpool against the ISO/IEC 10118-3 reference vectors, and the table-form
// compression against the bytewise reference.
#include "crypto/whirlpool.h"

#include <gtest/gtest.h>

#include <string_view>

#include "common/hex.h"
#include "common/rng.h"

namespace mccp::crypto {
namespace {

Bytes ascii(std::string_view s) { return Bytes(s.begin(), s.end()); }

std::string hex(const std::array<std::uint8_t, Whirlpool::kDigestSize>& d) {
  return to_hex(ByteSpan(d.data(), d.size()));
}

std::string hash_hex(ByteSpan data) { return hex(whirlpool(data)); }

// The hash chained on the bytewise reference compression: the same padding
// the communication controller feeds the simulated CU, then one
// whirlpool_compress_reference per block.
std::string reference_hash_hex(ByteSpan data) {
  Bytes padded = whirlpool_pad(data);
  std::array<std::uint8_t, 64> h{};
  for (std::size_t off = 0; off < padded.size(); off += 64)
    whirlpool_compress_reference(h, padded.data() + off);
  return hex(h);
}

struct IsoVector {
  std::string_view message;
  std::string_view digest;
};

// ISO/IEC 10118-3 reference vectors.
constexpr IsoVector kIsoVectors[] = {
    {"",
     "19fa61d75522a4669b44e39c1d2e1726c530232130d407f89afee0964997f7a7"
     "3e83be698b288febcf88e3e03c4f0757ea8964e59b63d93708b138cc42a66eb3"},
    {"a",
     "8aca2602792aec6f11a67206531fb7d7f0dff59413145e6973c45001d0087b42"
     "d11bc645413aeff63a42391a39145a591a92200d560195e53b478584fdae231a"},
    {"abc",
     "4e2448a4c6f486bb16b6562c73b4020bf3043e3a731bce721ae1b303d97e6d4c"
     "7181eebdb6c57e277d0e34957114cbd6c797fc9d95d8b582d225292076d4eef5"},
    {"message digest",
     "378c84a4126e2dc6e56dcc7458377aac838d00032230f53ce1f5700c0ffb4d3b"
     "8421557659ef55c106b4b52ac5a4aaa692ed920052838f3362e86dbd37a8903e"},
};

TEST(Whirlpool, EmptyString) {
  EXPECT_EQ(hash_hex({}), kIsoVectors[0].digest);
}

TEST(Whirlpool, SingleA) {
  EXPECT_EQ(hash_hex(ascii(kIsoVectors[1].message)), kIsoVectors[1].digest);
}

TEST(Whirlpool, Abc) {
  EXPECT_EQ(hash_hex(ascii(kIsoVectors[2].message)), kIsoVectors[2].digest);
}

TEST(Whirlpool, MessageDigest) {
  EXPECT_EQ(hash_hex(ascii(kIsoVectors[3].message)), kIsoVectors[3].digest);
}

TEST(Whirlpool, ReferenceCompressMatchesIsoVectors) {
  for (const IsoVector& v : kIsoVectors)
    EXPECT_EQ(reference_hash_hex(ascii(v.message)), v.digest) << '"' << v.message << '"';
}

// The table-form compression against the bytewise reference, including the
// all-zero and all-0xFF chaining values and blocks.
TEST(Whirlpool, TableCompressMatchesReference) {
  std::array<std::uint8_t, 64> zeros{}, ones{};
  ones.fill(0xFF);
  for (const auto& h0 : {zeros, ones}) {
    for (const auto& block : {zeros, ones}) {
      auto fast = h0, ref = h0;
      whirlpool_compress(fast, block.data());
      whirlpool_compress_reference(ref, block.data());
      ASSERT_EQ(fast, ref);
    }
  }
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    std::array<std::uint8_t, 64> h, block;
    rng.fill(h.data(), h.size());
    rng.fill(block.data(), block.size());
    auto ref = h;
    whirlpool_compress(h, block.data());
    whirlpool_compress_reference(ref, block.data());
    ASSERT_EQ(h, ref) << "pair " << i;
  }
}

TEST(Whirlpool, IncrementalMatchesOneShot) {
  Rng rng(1);
  Bytes data = rng.bytes(300);
  Whirlpool w;
  w.update(ByteSpan(data).subspan(0, 10));
  w.update(ByteSpan(data).subspan(10, 100));
  w.update(ByteSpan(data).subspan(110));
  EXPECT_EQ(w.digest(), whirlpool(data));
}

TEST(Whirlpool, BlockBoundarySizes) {
  Rng rng(2);
  // Exercise the padding logic around the 32-byte length-field boundary.
  for (std::size_t n : {31u, 32u, 33u, 63u, 64u, 65u, 127u, 128u}) {
    Bytes data = rng.bytes(n);
    Whirlpool w;
    w.update(data);
    auto d1 = w.digest();
    EXPECT_EQ(d1, whirlpool(data)) << "size " << n;
    // digest() pads the tail itself; whirlpool_pad pads for the CU.
    EXPECT_EQ(hex(d1), reference_hash_hex(data)) << "size " << n;
  }
}

TEST(Whirlpool, ResetRestoresInitialState) {
  Whirlpool w;
  w.update(ascii("junk"));
  w.reset();
  EXPECT_EQ(w.digest(), whirlpool({}));
}

TEST(Whirlpool, AvalancheOnSingleBitFlip) {
  Bytes a = ascii("The quick brown fox jumps over the lazy dog");
  Bytes b = a;
  b[0] ^= 1;
  auto da = whirlpool(a), db = whirlpool(b);
  int differing_bits = 0;
  for (std::size_t i = 0; i < da.size(); ++i) {
    std::uint8_t x = static_cast<std::uint8_t>(da[i] ^ db[i]);
    while (x) {
      differing_bits += x & 1;
      x >>= 1;
    }
  }
  // Expect roughly half of 512 bits to differ; 150 is a loose lower bound.
  EXPECT_GT(differing_bits, 150);
}

TEST(Whirlpool, SboxIsBijective) {
  bool seen[256] = {};
  for (int i = 0; i < 256; ++i) {
    std::uint8_t s = whirlpool_sbox(static_cast<std::uint8_t>(i));
    EXPECT_FALSE(seen[s]);
    seen[s] = true;
  }
  // Known first entries of the published S-box table.
  EXPECT_EQ(whirlpool_sbox(0x00), 0x18);
  EXPECT_EQ(whirlpool_sbox(0x01), 0x23);
  EXPECT_EQ(whirlpool_sbox(0x02), 0xc6);
}

}  // namespace
}  // namespace mccp::crypto
