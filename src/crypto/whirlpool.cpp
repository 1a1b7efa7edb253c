#include "crypto/whirlpool.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace mccp::crypto {

namespace {

// --- S-box from the E / E^-1 / R mini-boxes (ISO/IEC 10118-3 annex) -------

constexpr std::uint8_t kE[16] = {0x1, 0xB, 0x9, 0xC, 0xD, 0x6, 0xF, 0x3,
                                 0xE, 0x8, 0x7, 0x4, 0xA, 0x2, 0x5, 0x0};
constexpr std::uint8_t kR[16] = {0x7, 0xC, 0xB, 0xD, 0xE, 0x4, 0x9, 0xF,
                                 0x6, 0x3, 0x8, 0xA, 0x2, 0x5, 0x1, 0x0};

// GF(2^8) with the Whirlpool polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D).
constexpr std::uint8_t wp_xtime(std::uint8_t a) {
  return static_cast<std::uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1D : 0x00));
}
std::uint8_t wp_mul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    a = wp_xtime(a);
    b >>= 1;
  }
  return p;
}

// The MDS diffusion matrix is circulant: row 0 is (1, 1, 4, 1, 8, 5, 2, 9),
// row r is row 0 rotated right by r.
constexpr std::uint8_t kCir[8] = {0x01, 0x01, 0x04, 0x01, 0x08, 0x05, 0x02, 0x09};

struct WpTables {
  std::array<std::uint8_t, 256> sbox{};
  // Table form (Barreto & Rijmen): with each state row held as a big-endian
  // uint64_t, cir[c][x] is the row S(x) * (row c of the circulant matrix),
  // so a round's SubBytes + ShiftColumns + MixRows is 64 lookups (rho()).
  // cir[c] is cir[0] rotated right by c bytes.
  std::array<std::array<std::uint64_t, 256>, 8> cir{};
  // Round constant r+1 as a row word: its first row is S[8r] .. S[8r+7];
  // the other seven rows are zero.
  std::array<std::uint64_t, Whirlpool::kRounds> rc{};

  WpTables() {
    std::uint8_t einv[16];
    for (int i = 0; i < 16; ++i) einv[kE[i]] = static_cast<std::uint8_t>(i);
    for (int x = 0; x < 256; ++x) {
      std::uint8_t hi = kE[x >> 4];
      std::uint8_t lo = einv[x & 0xF];
      std::uint8_t y = kR[hi ^ lo];
      sbox[static_cast<std::size_t>(x)] =
          static_cast<std::uint8_t>((kE[hi ^ y] << 4) | einv[lo ^ y]);
    }
    for (std::size_t x = 0; x < 256; ++x) {
      std::uint64_t row = 0;
      for (std::uint8_t coef : kCir) row = (row << 8) | wp_mul(sbox[x], coef);
      for (std::size_t c = 0; c < 8; ++c) cir[c][x] = std::rotr(row, static_cast<int>(8 * c));
    }
    for (std::size_t r = 0; r < rc.size(); ++r) rc[r] = load_be64(sbox.data() + 8 * r);
  }
};

const WpTables& wp() {
  static const WpTables t;
  return t;
}

// --- Table form ------------------------------------------------------------

using Rows = std::array<std::uint64_t, 8>;

// theta(pi(gamma(a))): output row i takes byte c of input row (i - c) mod 8
// (ShiftColumns moves column c down by c) through table c.
Rows rho(const Rows& a, const WpTables& t) {
  Rows o;
  for (std::size_t i = 0; i < 8; ++i) {
    std::uint64_t w = 0;
    for (std::size_t c = 0; c < 8; ++c)
      w ^= t.cir[c][(a[(i - c) & 7] >> (56 - 8 * c)) & 0xFF];
    o[i] = w;
  }
  return o;
}

// --- Bytewise reference form -----------------------------------------------

// State is an 8x8 matrix of bytes; 512-bit blocks map to it row-major
// (byte k -> row k/8, column k%8).
using State = std::array<std::uint8_t, 64>;

State sub_bytes(const State& s) {
  State o;
  for (std::size_t i = 0; i < 64; ++i) o[i] = wp().sbox[s[i]];
  return o;
}

// gamma/pi: shift column j downwards by j positions.
State shift_columns(const State& s) {
  State o;
  for (int c = 0; c < 8; ++c)
    for (int r = 0; r < 8; ++r)
      o[static_cast<std::size_t>(8 * ((r + c) % 8) + c)] =
          s[static_cast<std::size_t>(8 * r + c)];
  return o;
}

// theta: multiply the state by the circulant matrix on the right:
// out[r][c] = sum_k state[r][k] * cir[(c - k) mod 8].
State mix_rows(const State& s) {
  State o{};
  for (int r = 0; r < 8; ++r) {
    for (int c = 0; c < 8; ++c) {
      std::uint8_t acc = 0;
      for (int k = 0; k < 8; ++k) {
        acc ^= wp_mul(s[static_cast<std::size_t>(8 * r + k)], kCir[(c - k + 8) % 8]);
      }
      o[static_cast<std::size_t>(8 * r + c)] = acc;
    }
  }
  return o;
}

State add_key(State s, const State& k) {
  for (std::size_t i = 0; i < 64; ++i) s[i] ^= k[i];
  return s;
}

// Round constant r: first row is S[8(r-1)] .. S[8(r-1)+7], rest zero.
State round_constant(int r) {
  State rc{};
  for (int j = 0; j < 8; ++j)
    rc[static_cast<std::size_t>(j)] = wp().sbox[static_cast<std::size_t>(8 * (r - 1) + j)];
  return rc;
}

}  // namespace

std::uint8_t whirlpool_sbox(std::uint8_t x) { return wp().sbox[x]; }

void whirlpool_compress(std::array<std::uint8_t, 64>& h, const std::uint8_t block[64]) {
  const WpTables& t = wp();
  Rows k, m, s;
  for (std::size_t i = 0; i < 8; ++i) {
    k[i] = load_be64(h.data() + 8 * i);
    m[i] = load_be64(block + 8 * i);
    s[i] = m[i] ^ k[i];  // sigma[K^0]
  }
  for (std::uint64_t rc : t.rc) {
    k = rho(k, t);
    k[0] ^= rc;
    s = rho(s, t);
    for (std::size_t i = 0; i < 8; ++i) s[i] ^= k[i];
  }
  // Miyaguchi-Preneel: H <- W(H, m) ^ H ^ m.
  for (std::size_t i = 0; i < 8; ++i)
    store_be64(h.data() + 8 * i, load_be64(h.data() + 8 * i) ^ s[i] ^ m[i]);
}

void whirlpool_compress_reference(std::array<std::uint8_t, 64>& h,
                                  const std::uint8_t block[64]) {
  State m;
  std::memcpy(m.data(), block, 64);
  State k;
  std::memcpy(k.data(), h.data(), 64);
  State s = add_key(m, k);  // sigma[K^0]
  for (int r = 1; r <= Whirlpool::kRounds; ++r) {
    k = add_key(mix_rows(shift_columns(sub_bytes(k))), round_constant(r));
    s = add_key(mix_rows(shift_columns(sub_bytes(s))), k);
  }
  // Miyaguchi-Preneel: H <- W(H, m) ^ H ^ m.
  for (std::size_t i = 0; i < 64; ++i) h[i] = static_cast<std::uint8_t>(h[i] ^ s[i] ^ m[i]);
}

Bytes whirlpool_pad(ByteSpan message) {
  Bytes out(whirlpool_padded_len(message.size()), 0);
  std::copy(message.begin(), message.end(), out.begin());
  out[message.size()] = 0x80;
  // 256-bit length field; we carry the low 64 bits.
  store_be64(out.data() + out.size() - 8, static_cast<std::uint64_t>(message.size()) * 8);
  return out;
}

void Whirlpool::compress(const std::uint8_t* block) { whirlpool_compress(h_, block); }

void Whirlpool::update(ByteSpan data) {
  total_bytes_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    std::size_t take = std::min(data.size(), kBlockSize - buf_len_);
    std::memcpy(buf_.data() + buf_len_, data.data(), take);
    buf_len_ += take;
    off = take;
    if (buf_len_ == kBlockSize) {
      compress(buf_.data());
      buf_len_ = 0;
    }
  }
  while (off + kBlockSize <= data.size()) {
    compress(data.data() + off);
    off += kBlockSize;
  }
  if (off < data.size()) {
    std::memcpy(buf_.data(), data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
}

std::array<std::uint8_t, Whirlpool::kDigestSize> Whirlpool::digest() {
  // Pad: 0x80, zeros to 32 mod 64, then a 256-bit big-endian bit length
  // (we only track 64 bits of it; the upper 192 bits are zero).
  std::array<std::uint8_t, 2 * kBlockSize> pad{};
  const std::size_t pad_len = whirlpool_padded_len(total_bytes_) - total_bytes_;
  pad[0] = 0x80;
  store_be64(pad.data() + pad_len - 8, total_bytes_ * 8);
  update(ByteSpan(pad.data(), pad_len));
  // After padding, buf_len_ is zero and total length is block-aligned.
  std::array<std::uint8_t, kDigestSize> out;
  std::memcpy(out.data(), h_.data(), kDigestSize);
  return out;
}

void Whirlpool::reset() {
  h_.fill(0);
  buf_.fill(0);
  buf_len_ = 0;
  total_bytes_ = 0;
}

std::array<std::uint8_t, Whirlpool::kDigestSize> whirlpool(ByteSpan data) {
  Whirlpool w;
  w.update(data);
  return w.digest();
}

}  // namespace mccp::crypto
