// Kernel-dispatch layer: tier detection/override plumbing, and the core
// contract — every hardware tier is bit-identical to the portable
// T-table/Shoup reference across AES block ops, CTR keystreams (both
// counter widths, including the inc32 and 0xFFFF inc16 wraps at every
// lane and batch position), GHASH, GCM, CCM (every nonce length, long-form
// AAD, batch-boundary tails, tag rejection) and CBC-MAC, over all key
// sizes and non-block-aligned tails.
#include "crypto/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/aes.h"
#include "crypto/cbc_mac.h"
#include "crypto/ccm.h"
#include "crypto/ctr.h"
#include "crypto/gcm.h"
#include "crypto/ghash.h"

namespace mccp::crypto {
namespace {

/// Flip to a tier for one scope, restoring the previously dispatched tier
/// on exit so test order never leaks state.
class ScopedKernel {
 public:
  explicit ScopedKernel(const std::string& tier) : previous_(active_kernel_name()) {
    set_crypto_kernel(tier);
  }
  ~ScopedKernel() { set_crypto_kernel(previous_); }
  ScopedKernel(const ScopedKernel&) = delete;
  ScopedKernel& operator=(const ScopedKernel&) = delete;

 private:
  std::string previous_;
};

/// The hardware tiers this host can actually run ("auto"/"portable"
/// excluded — they are aliases of entries already covered).
std::vector<std::string> hardware_tiers() {
  std::vector<std::string> tiers;
  for (const std::string& t : supported_crypto_kernels())
    if (t != "auto" && t != "portable") tiers.push_back(t);
  return tiers;
}

/// Every tier this host can run, the portable reference first.
std::vector<std::string> all_tiers() {
  std::vector<std::string> tiers{"portable"};
  for (const std::string& t : hardware_tiers()) tiers.push_back(t);
  return tiers;
}

const std::size_t kKeyLens[] = {16, 24, 32};

/// Payload lengths with every tail 0..15 just before and after the 8-block
/// (aesni CTR) and 16-block (vaes CTR) batch boundaries.
std::vector<std::size_t> batch_boundary_lens() {
  std::vector<std::size_t> lens;
  for (std::size_t blocks : {7u, 8u, 15u, 16u})
    for (std::size_t tail = 0; tail < 16; ++tail) lens.push_back(16 * blocks + tail);
  return lens;
}

TEST(KernelDispatch, DetectionSmoke) {
  // supported_crypto_kernels() always offers the reference and auto...
  auto tiers = supported_crypto_kernels();
  EXPECT_NE(std::find(tiers.begin(), tiers.end(), "portable"), tiers.end());
  EXPECT_NE(std::find(tiers.begin(), tiers.end(), "auto"), tiers.end());
  // ...and the active set is one of them (auto resolves to a concrete name).
  std::string active = active_kernel_name();
  EXPECT_NE(std::find(tiers.begin(), tiers.end(), active), tiers.end());
  if (detected_kernel_tier() == KernelTier::kPortable) {
    EXPECT_EQ(hardware_tiers().size(), 0u);
  } else {
    EXPECT_GE(hardware_tiers().size(), 1u);
  }
}

TEST(KernelDispatch, OverrideRoundTrip) {
  std::string before = active_kernel_name();
  for (const std::string& tier : supported_crypto_kernels()) {
    set_crypto_kernel(tier);
    if (tier != "auto") {
      EXPECT_EQ(active_kernel_name(), tier);
    }
  }
  set_crypto_kernel(before);
  EXPECT_EQ(active_kernel_name(), before);
}

TEST(KernelDispatch, RejectsUnknownAndUnsupportedNames) {
  std::string before = active_kernel_name();
  EXPECT_THROW(set_crypto_kernel("sse9000"), std::invalid_argument);
  EXPECT_THROW(set_crypto_kernel(""), std::invalid_argument);
  EXPECT_THROW(set_crypto_kernel("PORTABLE"), std::invalid_argument);  // case-sensitive
  if (detected_kernel_tier() < KernelTier::kVaes) {
    EXPECT_THROW(set_crypto_kernel("vaes"), std::invalid_argument);
  }
  if (detected_kernel_tier() < KernelTier::kAesni) {
    EXPECT_THROW(set_crypto_kernel("aesni"), std::invalid_argument);
  }
  // A failed set leaves the dispatched tier untouched.
  EXPECT_EQ(active_kernel_name(), before);
}

// Payload lengths exercising empty input, sub-block, exact blocks, the
// 4-block GHASH aggregation boundary, and non-aligned tails beyond it.
const std::size_t kLens[] = {0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 255, 256, 1000, 2048};

TEST(KernelDispatch, AesBlockBitIdentity) {
  Rng rng(101);
  for (std::size_t key_len : {16u, 24u, 32u}) {
    auto keys = aes_expand_key(rng.bytes(key_len));
    for (int i = 0; i < 64; ++i) {
      Block128 pt = rng.block();
      Block128 want_ct, want_pt;
      {
        ScopedKernel k("portable");
        want_ct = aes_encrypt_block(keys, pt);
        want_pt = aes_decrypt_block(keys, want_ct);
      }
      ASSERT_EQ(want_pt, pt);
      for (const auto& tier : hardware_tiers()) {
        ScopedKernel k(tier);
        ASSERT_EQ(aes_encrypt_block(keys, pt), want_ct) << tier << " key_len=" << key_len;
        ASSERT_EQ(aes_decrypt_block(keys, want_ct), pt) << tier << " key_len=" << key_len;
      }
    }
  }
}

TEST(KernelDispatch, CtrKeystreamBitIdentity) {
  Rng rng(102);
  for (std::size_t key_len : {16u, 24u, 32u}) {
    auto keys = aes_expand_key(rng.bytes(key_len));
    for (std::size_t len : kLens) {
      Bytes data = rng.bytes(len);
      Block128 ctr = rng.block();
      Bytes want32, want16;
      {
        ScopedKernel k("portable");
        want32 = ctr_transform(keys, ctr, data);
        want16 = ctr_transform_inc16(keys, ctr, data);
      }
      for (const auto& tier : hardware_tiers()) {
        ScopedKernel k(tier);
        ASSERT_EQ(ctr_transform(keys, ctr, data), want32) << tier << " len=" << len;
        ASSERT_EQ(ctr_transform_inc16(keys, ctr, data), want16) << tier << " len=" << len;
      }
    }
  }
}

TEST(KernelDispatch, CtrInc16WrapBitIdentity) {
  // Start the 16-bit counter close enough to 0xFFFF that a 2 KB keystream
  // wraps it — the INC-core semantics the hardware tiers must reproduce
  // with their in-register 16-bit counter adds.
  Rng rng(103);
  auto keys = aes_expand_key(rng.bytes(16));
  Bytes data = rng.bytes(2048);
  for (unsigned start : {0xFFFEu, 0xFFFFu, 0xFF80u}) {
    Block128 ctr = rng.block();
    ctr.b[14] = static_cast<std::uint8_t>(start >> 8);
    ctr.b[15] = static_cast<std::uint8_t>(start & 0xFF);
    Bytes want;
    {
      ScopedKernel k("portable");
      want = ctr_transform_inc16(keys, ctr, data);
    }
    for (const auto& tier : hardware_tiers()) {
      ScopedKernel k(tier);
      ASSERT_EQ(ctr_transform_inc16(keys, ctr, data), want) << tier << " start=" << start;
    }
  }
}

TEST(KernelDispatch, GhashBitIdentity) {
  Rng rng(104);
  for (int rep = 0; rep < 8; ++rep) {
    Block128 h = rng.block();
    for (std::size_t len : kLens) {
      Bytes data = rng.bytes(len);
      Block128 want;
      {
        ScopedKernel k("portable");
        Ghash g(h);
        g.update_padded(data);
        want = g.digest();
      }
      for (const auto& tier : hardware_tiers()) {
        ScopedKernel k(tier);
        Ghash g(h);
        g.update_padded(data);
        ASSERT_EQ(g.digest(), want) << tier << " len=" << len;
      }
    }
  }
}

TEST(KernelDispatch, GcmSealOpenBitIdentity) {
  Rng rng(105);
  for (std::size_t key_len : {16u, 24u, 32u}) {
    auto keys = aes_expand_key(rng.bytes(key_len));
    GcmKey cached(keys);
    for (std::size_t len : kLens) {
      Bytes iv = rng.bytes(12);
      Bytes aad = rng.bytes(len % 48);  // varies 0..47, non-aligned
      Bytes pt = rng.bytes(len);
      GcmSealed want;
      {
        ScopedKernel k("portable");
        want = gcm_seal(keys, iv, aad, pt);
      }
      for (const auto& tier : hardware_tiers()) {
        ScopedKernel k(tier);
        GcmSealed got = gcm_seal(keys, iv, aad, pt);
        ASSERT_EQ(got.ciphertext, want.ciphertext) << tier << " key=" << key_len << " len=" << len;
        ASSERT_EQ(got.tag, want.tag) << tier << " key=" << key_len << " len=" << len;
        // The cached-key fast path and the portable-produced tag interoperate.
        GcmSealed cached_got = gcm_seal(cached, iv, aad, pt);
        ASSERT_EQ(cached_got.tag, want.tag) << tier;
        auto opened = gcm_open(cached, iv, aad, want.ciphertext, want.tag);
        ASSERT_TRUE(opened.has_value()) << tier;
        ASSERT_EQ(*opened, pt) << tier;
      }
    }
  }
}

/// Seal under the portable reference, then require every hardware tier to
/// produce the same ciphertext and tag and to open it.
void expect_ccm_bit_identity(const AesRoundKeys& keys, const CcmParams& p, const Bytes& nonce,
                             const Bytes& aad, const Bytes& pt, const std::string& what) {
  CcmSealed want;
  {
    ScopedKernel k("portable");
    want = ccm_seal(keys, p, nonce, aad, pt);
  }
  for (const auto& tier : hardware_tiers()) {
    ScopedKernel k(tier);
    CcmSealed got = ccm_seal(keys, p, nonce, aad, pt);
    ASSERT_EQ(got.ciphertext, want.ciphertext) << tier << " " << what;
    ASSERT_EQ(got.tag, want.tag) << tier << " " << what;
    auto opened = ccm_open(keys, p, nonce, aad, want.ciphertext, want.tag);
    ASSERT_TRUE(opened.has_value()) << tier << " " << what;
    ASSERT_EQ(*opened, pt) << tier << " " << what;
  }
}

TEST(KernelDispatch, CcmSealOpenBitIdentity) {
  // Includes every tail 0..15 around the 8- and 16-block CTR batches.
  Rng rng(106);
  const CcmParams p{.tag_len = 8, .nonce_len = 13};
  std::vector<std::size_t> lens = batch_boundary_lens();
  lens.insert(lens.end(), {0u, 1u, 17u, 255u, 2048u});
  for (std::size_t key_len : kKeyLens) {
    auto keys = aes_expand_key(rng.bytes(key_len));
    for (std::size_t len : lens) {
      expect_ccm_bit_identity(keys, p, rng.bytes(13), rng.bytes(len % 40), rng.bytes(len),
                              "key=" + std::to_string(key_len) + " len=" + std::to_string(len));
    }
  }
}

TEST(KernelDispatch, CbcMacBitIdentity) {
  // Every chain length 1..130 blocks, through the public one-shot (zero
  // IV) and through the kernel entry from a nonzero chaining value.
  Rng rng(107);
  for (std::size_t key_len : kKeyLens) {
    auto keys = aes_expand_key(rng.bytes(key_len));
    const Bytes data = rng.bytes(130 * 16);
    const Block128 x0 = rng.block();
    for (std::size_t blocks = 1; blocks <= 130; ++blocks) {
      const ByteSpan msg(data.data(), blocks * 16);
      Block128 want, want_x = x0;
      {
        ScopedKernel k("portable");
        want = cbc_mac(keys, msg);
        active_kernels().cbc_mac_blocks(keys, want_x, data.data(), blocks);
      }
      for (const auto& tier : hardware_tiers()) {
        ScopedKernel k(tier);
        ASSERT_EQ(cbc_mac(keys, msg), want) << tier << " key=" << key_len << " blocks=" << blocks;
        Block128 x = x0;
        active_kernels().cbc_mac_blocks(keys, x, data.data(), blocks);
        ASSERT_EQ(x, want_x) << tier << " key=" << key_len << " blocks=" << blocks;
      }
    }
  }
}

TEST(KernelDispatch, CtrInPlaceBitIdentity) {
  Rng rng(109);
  for (std::size_t key_len : kKeyLens) {
    auto keys = aes_expand_key(rng.bytes(key_len));
    for (std::size_t len : batch_boundary_lens()) {
      const Bytes data = rng.bytes(len);
      const Block128 ctr = rng.block();
      for (bool wide : {true, false}) {
        Bytes want(len);
        {
          ScopedKernel k("portable");
          active_kernels().ctr_xor(keys, ctr, wide, data.data(), want.data(), len);
        }
        for (const auto& tier : all_tiers()) {
          ScopedKernel k(tier);
          Bytes buf = data;
          active_kernels().ctr_xor(keys, ctr, wide, buf.data(), buf.data(), len);
          ASSERT_EQ(buf, want) << tier << " key=" << key_len << " len=" << len
                               << " wide=" << wide;
        }
      }
    }
  }
}

TEST(KernelDispatch, CounterWrapAtEveryLaneAndBatchPosition) {
  // Place the counter wrap (inc32: 0xFFFFFFFF -> 0, no carry into byte 11;
  // inc16: 0xFFFF -> 0, no carry into byte 13) at every block position of
  // a 41-block keystream: every lane of the 8-block and 16-block batches,
  // the first and second batch, and the scalar tail. Each tier must match
  // the portable oracle, and the block after the wrap must be the
  // keystream of the counter with its low word zeroed.
  Rng rng(110);
  for (std::size_t key_len : kKeyLens) {
    auto keys = aes_expand_key(rng.bytes(key_len));
    const Bytes data = rng.bytes(41 * 16 + 5);  // block 40 is full; a 5-byte tail follows
    for (bool wide : {true, false}) {
      for (std::uint32_t w = 1; w <= 40; ++w) {
        Block128 ctr = rng.block();
        if (wide) {
          ctr.set_word(3, 0u - w);
        } else {
          const std::uint16_t low = static_cast<std::uint16_t>(0x10000u - w);
          ctr.b[14] = static_cast<std::uint8_t>(low >> 8);
          ctr.b[15] = static_cast<std::uint8_t>(low);
        }
        Block128 wrapped = ctr;
        if (wide) {
          wrapped.set_word(3, 0);
        } else {
          wrapped.b[14] = wrapped.b[15] = 0;
        }
        const Block128 ks_wrapped = [&] {
          ScopedKernel k("portable");
          return aes_encrypt_block(keys, wrapped);
        }();
        Bytes want(data.size());
        {
          ScopedKernel k("portable");
          active_kernels().ctr_xor(keys, ctr, wide, data.data(), want.data(), data.size());
        }
        for (const auto& tier : all_tiers()) {
          ScopedKernel k(tier);
          Bytes got(data.size());
          active_kernels().ctr_xor(keys, ctr, wide, data.data(), got.data(), data.size());
          ASSERT_EQ(got, want) << tier << " key=" << key_len << " wide=" << wide << " w=" << w;
          for (std::size_t i = 0; i < 16; ++i)
            ASSERT_EQ(got[16 * w + i] ^ data[16 * w + i], ks_wrapped.b[i])
                << tier << " wide=" << wide << " w=" << w << " byte " << i;
        }
      }
    }
  }
}

TEST(KernelDispatch, CcmPayloadKernelInPlaceBitIdentity) {
  // The one-pass entry itself, both directions, out of place and in place,
  // against the portable MAC-then-CTR loops.
  Rng rng(112);
  for (std::size_t key_len : kKeyLens) {
    auto keys = aes_expand_key(rng.bytes(key_len));
    std::vector<std::size_t> lens = batch_boundary_lens();
    lens.insert(lens.end(), {0u, 1u, 15u, 16u, 17u, 2048u});
    for (std::size_t len : lens) {
      const Bytes data = rng.bytes(len);
      const Block128 ctr1 = rng.block();
      const Block128 x0 = rng.block();
      for (bool decrypt : {false, true}) {
        Bytes want(len);
        Block128 want_x = x0;
        {
          ScopedKernel k("portable");
          active_kernels().ccm_payload(keys, ctr1, want_x, data.data(), want.data(), len, decrypt);
        }
        for (const auto& tier : all_tiers()) {
          ScopedKernel k(tier);
          Bytes got(len);
          Block128 got_x = x0;
          active_kernels().ccm_payload(keys, ctr1, got_x, data.data(), got.data(), len, decrypt);
          ASSERT_EQ(got, want) << tier << " len=" << len << " decrypt=" << decrypt;
          ASSERT_EQ(got_x, want_x) << tier << " len=" << len << " decrypt=" << decrypt;
          Bytes buf = data;
          Block128 buf_x = x0;
          active_kernels().ccm_payload(keys, ctr1, buf_x, buf.data(), buf.data(), len, decrypt);
          ASSERT_EQ(buf, want) << tier << " in place, len=" << len << " decrypt=" << decrypt;
          ASSERT_EQ(buf_x, want_x) << tier << " in place, len=" << len << " decrypt=" << decrypt;
        }
      }
    }
  }
}

TEST(KernelDispatch, CcmNonceLengthsBitIdentity) {
  Rng rng(113);
  for (std::size_t key_len : kKeyLens) {
    auto keys = aes_expand_key(rng.bytes(key_len));
    for (std::size_t n = 7; n <= 13; ++n) {
      const CcmParams p{.tag_len = 4 + 2 * (n - 7), .nonce_len = n};
      for (std::size_t len : {0u, 1u, 33u, 300u}) {
        expect_ccm_bit_identity(keys, p, rng.bytes(n), rng.bytes(len % 24), rng.bytes(len),
                                "key=" + std::to_string(key_len) + " nonce=" +
                                    std::to_string(n) + " len=" + std::to_string(len));
      }
    }
  }
}

TEST(KernelDispatch, CcmLongFormAadBitIdentity) {
  // 0xFEFF takes the 2-byte length prefix, 0xFF00 the first 6-byte
  // (0xFFFE) form, and 0x10000 a 6-byte form past 16 bits.
  Rng rng(114);
  const CcmParams p{.tag_len = 16, .nonce_len = 12};
  for (std::size_t key_len : kKeyLens) {
    auto keys = aes_expand_key(rng.bytes(key_len));
    for (std::size_t aad_len : {0xFEFFu, 0xFF00u, 0x10000u}) {
      expect_ccm_bit_identity(keys, p, rng.bytes(12), rng.bytes(aad_len), rng.bytes(100),
                              "key=" + std::to_string(key_len) + " aad=" +
                                  std::to_string(aad_len));
    }
  }
}

TEST(KernelDispatch, CcmRejectsTamperedAndTruncatedTagsOnEveryTier) {
  Rng rng(116);
  const CcmParams p{.tag_len = 12, .nonce_len = 11};
  for (std::size_t key_len : kKeyLens) {
    auto keys = aes_expand_key(rng.bytes(key_len));
    const Bytes nonce = rng.bytes(11);
    const Bytes aad = rng.bytes(9);
    for (std::size_t len : {0u, 5u, 16u, 200u}) {
      const Bytes pt = rng.bytes(len);
      for (const auto& tier : all_tiers()) {
        ScopedKernel k(tier);
        const CcmSealed sealed = ccm_seal(keys, p, nonce, aad, pt);
        ASSERT_TRUE(ccm_open(keys, p, nonce, aad, sealed.ciphertext, sealed.tag).has_value());
        for (std::size_t i = 0; i < sealed.tag.size(); ++i) {
          Bytes bad = sealed.tag;
          bad[i] ^= 0x01;
          EXPECT_FALSE(ccm_open(keys, p, nonce, aad, sealed.ciphertext, bad).has_value())
              << tier << " len=" << len << " tag byte " << i;
        }
        Bytes truncated(sealed.tag.begin(), sealed.tag.end() - 1);
        EXPECT_FALSE(ccm_open(keys, p, nonce, aad, sealed.ciphertext, truncated).has_value())
            << tier << " len=" << len;
        if (len != 0) {
          Bytes bad_ct = sealed.ciphertext;
          bad_ct[len - 1] ^= 0x80;  // the tail block feeds the MAC too
          EXPECT_FALSE(ccm_open(keys, p, nonce, aad, bad_ct, sealed.tag).has_value())
              << tier << " len=" << len;
        }
      }
    }
  }
}

TEST(KernelDispatch, GhashCopiesOfBorrowersAndOwnersMidStream) {
  // A borrowing accumulator is a table pointer and a digest; copying either
  // kind mid-stream must continue exactly like the original, and a copy of
  // an owner must outlive its source.
  static_assert(sizeof(Ghash) <= 48, "a borrowing Ghash carries no table storage");
  Rng rng(117);
  const Block128 h = rng.block();
  const Gf128Table table(h);
  const Bytes head = rng.bytes(80);
  const Bytes rest = rng.bytes(100);
  Bytes all = head;
  all.insert(all.end(), rest.begin(), rest.end());
  all.resize(192, 0);  // update_padded zero-pads the tail; ghash() wants it aligned
  const Block128 want = ghash(h, all);
  for (const auto& tier : all_tiers()) {
    ScopedKernel k(tier);
    Ghash borrower(table);
    borrower.update_padded(head);
    std::optional<Ghash> owner(std::in_place, h);
    owner->update_padded(head);

    Ghash borrower_copy(borrower);
    Ghash owner_copy(*owner);
    Ghash assigned(table);
    assigned = *owner;
    Ghash moved(std::move(*owner));
    owner.reset();  // the copies must not point into the destroyed owner

    for (Ghash* g : {&borrower, &borrower_copy, &owner_copy, &assigned, &moved}) {
      g->update_padded(rest);
      EXPECT_EQ(g->digest(), want) << tier;
      EXPECT_EQ(g->h(), h) << tier;
    }
  }
}

TEST(KernelDispatch, TableBuiltUnderPortableStillAcceleratesGhash) {
  // Gf128Table caches its CLMUL powers on hardware capability, not on the
  // dispatched tier — a table built while portable was forced must still
  // produce identical digests after flipping to a hardware tier.
  if (hardware_tiers().empty()) GTEST_SKIP() << "no hardware tiers on this host";
  Rng rng(108);
  Block128 h = rng.block();
  Bytes data = rng.bytes(1000);
  Block128 want;
  Gf128Table table = [&] {
    ScopedKernel k("portable");
    Gf128Table t(h);
    Ghash g(h);
    g.update_padded(data);
    want = g.digest();
    return t;
  }();
  for (const auto& tier : hardware_tiers()) {
    ScopedKernel k(tier);
    Block128 y{};
    active_kernels().ghash_blocks(table, y, data.data(), data.size() / 16);
    y = active_kernels().ghash_mul(table, y ^ [&] {
          Block128 tail{};
          std::copy(data.begin() + 992, data.end(), tail.b.begin());
          return tail;
        }());
    ASSERT_EQ(y, want) << tier;
  }
}

}  // namespace
}  // namespace mccp::crypto
