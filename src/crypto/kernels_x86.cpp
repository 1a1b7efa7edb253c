// x86 hardware kernel tiers: AES-NI + PCLMULQDQ, and VAES/AVX2 on top.
//
// Everything here is gated on GCC/Clang x86 builds; per-function
// `__attribute__((target(...)))` markers let the intrinsics compile inside a
// translation unit built with the project's baseline flags, and CPUID
// feature detection (run once) decides whether the resulting function
// pointers are ever published. Other architectures (and other compilers)
// fall through to the stubs at the bottom, which report "no hardware tier"
// and leave the portable kernels in charge.
//
// Bit-identity notes:
//  * AESENC/AESDEC implement exactly the FIPS-197 rounds the T-tables
//    implement; the repo's round-key layout (16 big-endian bytes per
//    Block128) is byte-for-byte the layout the instructions consume, and
//    the equivalent-inverse `drk` schedule is precisely AESDEC's expected
//    key order.
//  * Counter blocks live byte-reversed in a vector register, where the
//    big-endian low word of the block is lane 0: inc32 is an add_epi32 and
//    the INC core's inc16 an add_epi16 on that lane, each wrapping exactly
//    as the scalar helpers do (0xFFFFFFFF -> 0 without carrying into byte
//    11; 0xFFFF -> 0 without carrying into byte 13).
//  * The CCM pass runs the CBC-MAC chain, which is latency-bound (each
//    block needs the previous block's ciphertext), and carries one
//    independent CTR block through the same AESENC rounds in its shadow:
//    the "stitching" technique of the white paper cited below, applied to
//    CCM's two halves.
//  * GHASH uses the reflected-operand carry-less multiply of Intel's GCM
//    white paper (Gueron & Kounavis): operands are byte-reversed on load,
//    the 255-bit product is shifted left one bit, then reduced modulo
//    1 + x + x^2 + x^7 + x^128. Same field, same math, identical bits —
//    enforced by tests/crypto/kernel_dispatch_test.cpp against the Shoup
//    table and the bit-serial reference.

#include "crypto/kernels.h"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__) && \
    !defined(MCCP_NO_X86_KERNELS)
#define MCCP_X86_KERNELS 1
#endif

#ifdef MCCP_X86_KERNELS

#include <cpuid.h>
#include <immintrin.h>

#include <cstring>

namespace mccp::crypto {
namespace {

#define MCCP_TARGET_SSSE3 __attribute__((target("ssse3")))
#define MCCP_TARGET_AESNI __attribute__((target("aes,ssse3")))
#define MCCP_TARGET_CLMUL __attribute__((target("pclmul,ssse3")))
#define MCCP_TARGET_VAES __attribute__((target("vaes,avx2,aes,ssse3")))

// ---- feature detection ------------------------------------------------------

bool os_ymm_enabled() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  if (!(ecx & (1u << 27))) return false;  // OSXSAVE: xgetbv is usable
  unsigned lo, hi;
  // xgetbv(0), raw-encoded so the TU needs no -mxsave.
  __asm__ volatile(".byte 0x0f, 0x01, 0xd0" : "=a"(lo), "=d"(hi) : "c"(0));
  return (lo & 0x6) == 0x6;  // XMM and YMM state enabled
}

bool cpu_has_aesni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const unsigned want = (1u << 25) | (1u << 1) | (1u << 9);  // AES, PCLMULQDQ, SSSE3
  return (ecx & want) == want;
}

bool cpu_has_vaes() {
  if (!cpu_has_aesni() || !os_ymm_enabled()) return false;
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return (ebx & (1u << 5)) && (ecx & (1u << 9));  // AVX2, VAES
}

// ---- AES block pipeline (AES-NI) -------------------------------------------

MCCP_TARGET_SSSE3 inline __m128i bswap128(__m128i x) {
  const __m128i rev = _mm_setr_epi8(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
  return _mm_shuffle_epi8(x, rev);
}

MCCP_TARGET_AESNI inline __m128i load_rk(const Block128& rk) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(rk.b.data()));
}

MCCP_TARGET_AESNI inline __m128i load_block(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

MCCP_TARGET_AESNI inline void store_block(std::uint8_t* p, __m128i x) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), x);
}

/// The first `n` (< 16) bytes at `p`, zero-padded to a block.
MCCP_TARGET_AESNI inline __m128i load_partial(const std::uint8_t* p, std::size_t n) {
  alignas(16) std::uint8_t buf[16] = {};
  std::memcpy(buf, p, n);
  return _mm_load_si128(reinterpret_cast<const __m128i*>(buf));
}

/// Store the first `n` (< 16) bytes of `x` at `p`.
MCCP_TARGET_AESNI inline void store_partial(std::uint8_t* p, __m128i x, std::size_t n) {
  alignas(16) std::uint8_t buf[16];
  _mm_store_si128(reinterpret_cast<__m128i*>(buf), x);
  std::memcpy(p, buf, n);
}

MCCP_TARGET_AESNI Block128 aesni_encrypt(const AesRoundKeys& keys, const Block128& in) {
  const int nr = keys.rounds();
  __m128i x = load_block(in.b.data());
  x = _mm_xor_si128(x, load_rk(keys.rk[0]));
  for (int r = 1; r < nr; ++r) x = _mm_aesenc_si128(x, load_rk(keys.rk[static_cast<std::size_t>(r)]));
  x = _mm_aesenclast_si128(x, load_rk(keys.rk[static_cast<std::size_t>(nr)]));
  Block128 out;
  store_block(out.b.data(), x);
  return out;
}

MCCP_TARGET_AESNI Block128 aesni_decrypt(const AesRoundKeys& keys, const Block128& in) {
  // The equivalent-inverse schedule (drk[0] = rk[nr], InvMixColumns on the
  // middle keys, drk[nr] = rk[0]) is exactly what AESDEC's round order
  // expects.
  const int nr = keys.rounds();
  __m128i x = load_block(in.b.data());
  x = _mm_xor_si128(x, load_rk(keys.drk[0]));
  for (int r = 1; r < nr; ++r) x = _mm_aesdec_si128(x, load_rk(keys.drk[static_cast<std::size_t>(r)]));
  x = _mm_aesdeclast_si128(x, load_rk(keys.drk[static_cast<std::size_t>(nr)]));
  Block128 out;
  store_block(out.b.data(), x);
  return out;
}

// ---- round keys held in registers -------------------------------------------
//
// The CBC-MAC chain and the CCM pass are latency-bound: each block waits for
// the one before it. With the round count a template parameter the rounds
// unroll fully and the schedule is loaded into registers once per call, not
// once per round of every block.

template <int Nr>
MCCP_TARGET_AESNI inline void load_schedule(const AesRoundKeys& keys, __m128i* k) {
#pragma GCC unroll 16
  for (int r = 0; r <= Nr; ++r) k[r] = load_rk(keys.rk[static_cast<std::size_t>(r)]);
}

template <int Nr>
MCCP_TARGET_AESNI inline __m128i encrypt1(const __m128i* k, __m128i a) {
  a = _mm_xor_si128(a, k[0]);
#pragma GCC unroll 16
  for (int r = 1; r < Nr; ++r) a = _mm_aesenc_si128(a, k[r]);
  return _mm_aesenclast_si128(a, k[Nr]);
}

/// Two independent blocks through the same rounds, interleaved so the
/// second rides in the first's AESENC latency.
template <int Nr>
MCCP_TARGET_AESNI inline void encrypt2(const __m128i* k, __m128i& a, __m128i& b) {
  a = _mm_xor_si128(a, k[0]);
  b = _mm_xor_si128(b, k[0]);
#pragma GCC unroll 16
  for (int r = 1; r < Nr; ++r) {
    a = _mm_aesenc_si128(a, k[r]);
    b = _mm_aesenc_si128(b, k[r]);
  }
  a = _mm_aesenclast_si128(a, k[Nr]);
  b = _mm_aesenclast_si128(b, k[Nr]);
}

// ---- counters in a vector register ------------------------------------------

/// A counter block byte-reversed so its big-endian low word is lane 0.
MCCP_TARGET_AESNI inline __m128i load_counter(const Block128& ctr) {
  return bswap128(load_block(ctr.b.data()));
}

/// Step a byte-reversed counter once: inc32 adds 1 to the low 32-bit lane,
/// inc16 to the low 16-bit lane, each wrapping within its width.
MCCP_TARGET_AESNI inline __m128i counter_next(__m128i rev, bool wide_counter) {
  const __m128i one = _mm_cvtsi32_si128(1);
  return wide_counter ? _mm_add_epi32(rev, one) : _mm_add_epi16(rev, one);
}

// ---- CTR keystream ----------------------------------------------------------

/// Eight counter blocks per iteration in lockstep: each round key feeds
/// every lane, so lane 0's AESENC latency hides behind lanes 1..7. The
/// trip counts are compile-time constants, so the lanes stay in registers
/// at -O2 as well as -O3. The last batch also runs all eight lanes and
/// stores only the bytes that remain.
template <int Nr>
MCCP_TARGET_AESNI void ctr_xor_impl(const AesRoundKeys& keys, const Block128& ctr0,
                                    bool wide_counter, const std::uint8_t* in,
                                    std::uint8_t* out, std::size_t len) {
  __m128i k[Nr + 1];
  load_schedule<Nr>(keys, k);
  __m128i ctr = load_counter(ctr0);
  for (std::size_t off = 0; off < len; off += 8 * 16) {
    __m128i x[8];
#pragma GCC unroll 8
    for (int j = 0; j < 8; ++j) {
      x[j] = _mm_xor_si128(bswap128(ctr), k[0]);
      ctr = counter_next(ctr, wide_counter);
    }
#pragma GCC unroll 16
    for (int r = 1; r < Nr; ++r) {
#pragma GCC unroll 8
      for (int j = 0; j < 8; ++j) x[j] = _mm_aesenc_si128(x[j], k[r]);
    }
    const std::size_t left = len - off;
#pragma GCC unroll 8
    for (std::size_t j = 0; j < 8; ++j) {
      const __m128i ks = _mm_aesenclast_si128(x[j], k[Nr]);
      const std::size_t at = off + 16 * j;
      if (16 * j + 16 <= left)
        store_block(out + at, _mm_xor_si128(load_block(in + at), ks));
      else if (16 * j < left)
        store_partial(out + at, _mm_xor_si128(load_partial(in + at, left - 16 * j), ks),
                      left - 16 * j);
    }
  }
}

MCCP_TARGET_AESNI void aesni_ctr_xor(const AesRoundKeys& keys, const Block128& ctr0,
                                     bool wide_counter, const std::uint8_t* in, std::uint8_t* out,
                                     std::size_t len) {
  switch (keys.rounds()) {
    case 10: return ctr_xor_impl<10>(keys, ctr0, wide_counter, in, out, len);
    case 12: return ctr_xor_impl<12>(keys, ctr0, wide_counter, in, out, len);
    default: return ctr_xor_impl<14>(keys, ctr0, wide_counter, in, out, len);
  }
}

MCCP_TARGET_VAES inline __m256i broadcast_rk(const Block128& rk) {
  return _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(rk.b.data())));
}

MCCP_TARGET_VAES void vaes_ctr_xor(const AesRoundKeys& keys, const Block128& ctr0,
                                   bool wide_counter, const std::uint8_t* in, std::uint8_t* out,
                                   std::size_t len) {
  // Two byte-reversed counters per YMM register, stepping by 2 in each
  // 128-bit lane; _mm256_shuffle_epi8 byte-reverses within each lane.
  const __m128i c0 = load_counter(ctr0);
  __m256i ctr = _mm256_inserti128_si256(_mm256_castsi128_si256(c0),
                                        counter_next(c0, wide_counter), 1);
  const __m256i two = _mm256_set_epi32(0, 0, 0, 2, 0, 0, 0, 2);
  const __m256i rev = _mm256_broadcastsi128_si256(
      _mm_setr_epi8(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0));
  const int nr = keys.rounds();
  std::size_t off = 0;
  // 16 blocks per iteration: 8 YMM lanes of 2 blocks each.
  while (len - off >= 16 * 16) {
    __m256i x[8];
#pragma GCC unroll 8
    for (int j = 0; j < 8; ++j) {
      x[j] = _mm256_shuffle_epi8(ctr, rev);
      ctr = wide_counter ? _mm256_add_epi32(ctr, two) : _mm256_add_epi16(ctr, two);
    }
    __m256i k = broadcast_rk(keys.rk[0]);
#pragma GCC unroll 8
    for (int j = 0; j < 8; ++j) x[j] = _mm256_xor_si256(x[j], k);
    for (int r = 1; r < nr; ++r) {
      k = broadcast_rk(keys.rk[static_cast<std::size_t>(r)]);
  #pragma GCC unroll 8
    for (int j = 0; j < 8; ++j) x[j] = _mm256_aesenc_epi128(x[j], k);
    }
    k = broadcast_rk(keys.rk[static_cast<std::size_t>(nr)]);
#pragma GCC unroll 8
    for (int j = 0; j < 8; ++j) x[j] = _mm256_aesenclast_epi128(x[j], k);
#pragma GCC unroll 8
    for (int j = 0; j < 8; ++j) {
      __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + off + 32 * j));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + off + 32 * j),
                          _mm256_xor_si256(d, x[j]));
    }
    off += 16 * 16;
  }
  if (off < len) {
    Block128 next;
    store_block(next.b.data(), bswap128(_mm256_castsi256_si128(ctr)));
    aesni_ctr_xor(keys, next, wide_counter, in + off, out + off, len - off);
  }
}

// ---- CBC-MAC and the one-pass CCM payload -----------------------------------

template <int Nr>
MCCP_TARGET_AESNI void cbc_mac_blocks_impl(const AesRoundKeys& keys, Block128& x,
                                           const std::uint8_t* data, std::size_t nblocks) {
  __m128i k[Nr + 1];
  load_schedule<Nr>(keys, k);
  __m128i mac = load_block(x.b.data());
  for (std::size_t i = 0; i < nblocks; ++i)
    mac = encrypt1<Nr>(k, _mm_xor_si128(mac, load_block(data + 16 * i)));
  store_block(x.b.data(), mac);
}

MCCP_TARGET_AESNI void aesni_cbc_mac_blocks(const AesRoundKeys& keys, Block128& x,
                                            const std::uint8_t* data, std::size_t nblocks) {
  switch (keys.rounds()) {
    case 10: return cbc_mac_blocks_impl<10>(keys, x, data, nblocks);
    case 12: return cbc_mac_blocks_impl<12>(keys, x, data, nblocks);
    default: return cbc_mac_blocks_impl<14>(keys, x, data, nblocks);
  }
}

template <int Nr>
MCCP_TARGET_AESNI void ccm_payload_impl(const AesRoundKeys& keys, const Block128& ctr1,
                                        Block128& x, const std::uint8_t* in, std::uint8_t* out,
                                        std::size_t len, bool decrypt) {
  __m128i k[Nr + 1];
  load_schedule<Nr>(keys, k);
  const std::size_t full = len / 16;
  const std::size_t tail = len % 16;
  __m128i ctr = load_counter(ctr1);
  __m128i mac = load_block(x.b.data());
  if (!decrypt) {
    // Seal: block i's plaintext feeds the MAC and block i's counter the
    // keystream, so the two run through the rounds side by side.
    for (std::size_t i = 0; i < full; ++i) {
      const __m128i p = load_block(in + 16 * i);
      __m128i ks = bswap128(ctr);
      ctr = counter_next(ctr, /*wide_counter=*/true);
      mac = _mm_xor_si128(mac, p);
      encrypt2<Nr>(k, mac, ks);
      store_block(out + 16 * i, _mm_xor_si128(p, ks));
    }
    if (tail != 0) {
      const __m128i p = load_partial(in + 16 * full, tail);
      __m128i ks = bswap128(ctr);
      mac = _mm_xor_si128(mac, p);
      encrypt2<Nr>(k, mac, ks);
      store_partial(out + 16 * full, _mm_xor_si128(p, ks), tail);
    }
  } else if (len != 0) {
    // Open: the MAC absorbs plaintext, which needs its own keystream block
    // first, so the keystream runs one block ahead — block i+1's counter
    // rides in MAC block i's shadow. The last pass computes one keystream
    // block nobody reads, for free.
    __m128i ks = encrypt1<Nr>(k, bswap128(ctr));
    ctr = counter_next(ctr, /*wide_counter=*/true);
    for (std::size_t i = 0; i < full; ++i) {
      const __m128i p = _mm_xor_si128(load_block(in + 16 * i), ks);
      store_block(out + 16 * i, p);
      mac = _mm_xor_si128(mac, p);
      ks = bswap128(ctr);
      ctr = counter_next(ctr, /*wide_counter=*/true);
      encrypt2<Nr>(k, mac, ks);
    }
    if (tail != 0) {
      store_partial(out + 16 * full, _mm_xor_si128(load_partial(in + 16 * full, tail), ks), tail);
      mac = encrypt1<Nr>(k, _mm_xor_si128(mac, load_partial(out + 16 * full, tail)));
    }
  }
  store_block(x.b.data(), mac);
}

MCCP_TARGET_AESNI void aesni_ccm_payload(const AesRoundKeys& keys, const Block128& ctr1,
                                         Block128& x, const std::uint8_t* in, std::uint8_t* out,
                                         std::size_t len, bool decrypt) {
  switch (keys.rounds()) {
    case 10: return ccm_payload_impl<10>(keys, ctr1, x, in, out, len, decrypt);
    case 12: return ccm_payload_impl<12>(keys, ctr1, x, in, out, len, decrypt);
    default: return ccm_payload_impl<14>(keys, ctr1, x, in, out, len, decrypt);
  }
}

// ---- GHASH via carry-less multiply -----------------------------------------

/// Schoolbook 128x128 carry-less multiply into a 256-bit product [hi:lo].
MCCP_TARGET_CLMUL inline void clmul256(__m128i a, __m128i b, __m128i* lo, __m128i* hi) {
  __m128i t0 = _mm_clmulepi64_si128(a, b, 0x00);
  __m128i t1 = _mm_clmulepi64_si128(a, b, 0x10);
  __m128i t2 = _mm_clmulepi64_si128(a, b, 0x01);
  __m128i t3 = _mm_clmulepi64_si128(a, b, 0x11);
  __m128i mid = _mm_xor_si128(t1, t2);
  *lo = _mm_xor_si128(t0, _mm_slli_si128(mid, 8));
  *hi = _mm_xor_si128(t3, _mm_srli_si128(mid, 8));
}

/// Shift the 256-bit product left one bit (reflected-operand fixup) and
/// reduce modulo 1 + x + x^2 + x^7 + x^128. Linear in [hi:lo], so XOR-ing
/// several clmul256 products before one reduce is exact.
MCCP_TARGET_CLMUL inline __m128i ghash_reduce(__m128i lo, __m128i hi) {
  __m128i c_lo = _mm_srli_epi32(lo, 31);
  __m128i c_hi = _mm_srli_epi32(hi, 31);
  lo = _mm_slli_epi32(lo, 1);
  hi = _mm_slli_epi32(hi, 1);
  hi = _mm_or_si128(hi, _mm_slli_si128(c_hi, 4));
  hi = _mm_or_si128(hi, _mm_srli_si128(c_lo, 12));
  lo = _mm_or_si128(lo, _mm_slli_si128(c_lo, 4));

  __m128i t7 = _mm_slli_epi32(lo, 31);
  __m128i t8 = _mm_slli_epi32(lo, 30);
  __m128i t9 = _mm_slli_epi32(lo, 25);
  t7 = _mm_xor_si128(t7, _mm_xor_si128(t8, t9));
  t8 = _mm_srli_si128(t7, 4);
  t7 = _mm_slli_si128(t7, 12);
  lo = _mm_xor_si128(lo, t7);

  __m128i r = _mm_srli_epi32(lo, 1);
  r = _mm_xor_si128(r, _mm_srli_epi32(lo, 2));
  r = _mm_xor_si128(r, _mm_srli_epi32(lo, 7));
  r = _mm_xor_si128(r, t8);
  lo = _mm_xor_si128(lo, r);
  return _mm_xor_si128(hi, lo);
}

MCCP_TARGET_CLMUL inline __m128i gfmul_reflected(__m128i a, __m128i b) {
  __m128i lo, hi;
  clmul256(a, b, &lo, &hi);
  return ghash_reduce(lo, hi);
}

MCCP_TARGET_CLMUL bool build_powers_impl(const Block128& h, std::uint8_t* out64) {
  __m128i h1 = bswap128(_mm_loadu_si128(reinterpret_cast<const __m128i*>(h.b.data())));
  __m128i h2 = gfmul_reflected(h1, h1);
  __m128i h3 = gfmul_reflected(h2, h1);
  __m128i h4 = gfmul_reflected(h3, h1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out64 + 0), h1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out64 + 16), h2);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out64 + 32), h3);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out64 + 48), h4);
  return true;
}

MCCP_TARGET_CLMUL Block128 clmul_ghash_mul(const Gf128Table& table, const Block128& x) {
  const std::uint8_t* pw = table.clmul_powers();
  if (!pw) return table.mul(x);  // table predates CLMUL support: exact fallback
  __m128i h1 = _mm_load_si128(reinterpret_cast<const __m128i*>(pw));
  __m128i a = bswap128(_mm_loadu_si128(reinterpret_cast<const __m128i*>(x.b.data())));
  Block128 out;
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out.b.data()), bswap128(gfmul_reflected(a, h1)));
  return out;
}

MCCP_TARGET_CLMUL void clmul_ghash_blocks(const Gf128Table& table, Block128& y,
                                          const std::uint8_t* data, std::size_t nblocks) {
  const std::uint8_t* pw = table.clmul_powers();
  if (!pw) {
    for (std::size_t i = 0; i < nblocks; ++i)
      y = table.mul(y ^ Block128::from_span(ByteSpan(data + 16 * i, 16)));
    return;
  }
  const __m128i h1 = _mm_load_si128(reinterpret_cast<const __m128i*>(pw));
  const __m128i h2 = _mm_load_si128(reinterpret_cast<const __m128i*>(pw + 16));
  const __m128i h3 = _mm_load_si128(reinterpret_cast<const __m128i*>(pw + 32));
  const __m128i h4 = _mm_load_si128(reinterpret_cast<const __m128i*>(pw + 48));
  __m128i acc = bswap128(_mm_loadu_si128(reinterpret_cast<const __m128i*>(y.b.data())));
  // Aggregated reduction: ((((y^X0)H ^ X1)H ^ X2)H ^ X3)H =
  // (y^X0)H^4 ^ X1·H^3 ^ X2·H^2 ^ X3·H — four multiplies, one reduction.
  while (nblocks >= 4) {
    __m128i x0 = bswap128(_mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 0)));
    __m128i x1 = bswap128(_mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16)));
    __m128i x2 = bswap128(_mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32)));
    __m128i x3 = bswap128(_mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48)));
    __m128i lo, hi, plo, phi;
    clmul256(_mm_xor_si128(acc, x0), h4, &lo, &hi);
    clmul256(x1, h3, &plo, &phi);
    lo = _mm_xor_si128(lo, plo);
    hi = _mm_xor_si128(hi, phi);
    clmul256(x2, h2, &plo, &phi);
    lo = _mm_xor_si128(lo, plo);
    hi = _mm_xor_si128(hi, phi);
    clmul256(x3, h1, &plo, &phi);
    lo = _mm_xor_si128(lo, plo);
    hi = _mm_xor_si128(hi, phi);
    acc = ghash_reduce(lo, hi);
    data += 64;
    nblocks -= 4;
  }
  for (std::size_t i = 0; i < nblocks; ++i) {
    __m128i x = bswap128(_mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)));
    acc = gfmul_reflected(_mm_xor_si128(acc, x), h1);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(y.b.data()), bswap128(acc));
}

// ---- kernel tables ----------------------------------------------------------

// The CBC-MAC chain and the CCM pass carry one block per MAC block, which
// fits in 128-bit registers; the vaes tier shares them.
constexpr CryptoKernels kAesniKernels{
    "aesni",              aesni_encrypt,   aesni_decrypt,
    aesni_ctr_xor,        clmul_ghash_mul, clmul_ghash_blocks,
    aesni_cbc_mac_blocks, aesni_ccm_payload,
};

constexpr CryptoKernels kVaesKernels{
    "vaes",               aesni_encrypt,   aesni_decrypt,
    vaes_ctr_xor,         clmul_ghash_mul, clmul_ghash_blocks,
    aesni_cbc_mac_blocks, aesni_ccm_payload,
};

}  // namespace

namespace detail {

bool build_clmul_powers(const Block128& h, std::uint8_t* out64) {
  static const bool have = cpu_has_aesni();  // needs PCLMULQDQ + SSSE3
  if (!have) return false;
  return build_powers_impl(h, out64);
}

const CryptoKernels* aesni_kernels() {
  static const CryptoKernels* k = cpu_has_aesni() ? &kAesniKernels : nullptr;
  return k;
}

const CryptoKernels* vaes_kernels() {
  static const CryptoKernels* k = cpu_has_vaes() ? &kVaesKernels : nullptr;
  return k;
}

}  // namespace detail
}  // namespace mccp::crypto

#else  // !MCCP_X86_KERNELS — portable-only builds (non-x86, other compilers)

namespace mccp::crypto::detail {

bool build_clmul_powers(const Block128&, std::uint8_t*) { return false; }
const CryptoKernels* aesni_kernels() { return nullptr; }
const CryptoKernels* vaes_kernels() { return nullptr; }

}  // namespace mccp::crypto::detail

#endif
