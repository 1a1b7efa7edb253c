#include "crypto/ccm.h"

#include <stdexcept>

#include "crypto/cbc_mac.h"
#include "crypto/kernels.h"

namespace mccp::crypto {

bool ccm_params_valid(const CcmParams& p) {
  bool tag_ok = p.tag_len >= 4 && p.tag_len <= 16 && p.tag_len % 2 == 0;
  bool nonce_ok = p.nonce_len >= 7 && p.nonce_len <= 13;
  return tag_ok && nonce_ok;
}

Block128 ccm_b0(const CcmParams& p, ByteSpan nonce, std::size_t aad_len, std::size_t msg_len) {
  const std::size_t q = 15 - p.nonce_len;
  Block128 b0{};
  std::uint8_t flags = 0;
  if (aad_len > 0) flags |= 0x40;
  flags |= static_cast<std::uint8_t>(((p.tag_len - 2) / 2) << 3);
  flags |= static_cast<std::uint8_t>(q - 1);
  b0.b[0] = flags;
  for (std::size_t i = 0; i < p.nonce_len; ++i) b0.b[1 + i] = nonce[i];
  std::uint64_t len = msg_len;
  for (std::size_t i = 0; i < q; ++i) {
    b0.b[15 - i] = static_cast<std::uint8_t>(len);
    len >>= 8;
  }
  if (len != 0) throw std::invalid_argument("ccm: message too long for nonce length");
  return b0;
}

std::size_t ccm_encoded_aad_len(std::size_t aad_len) {
  if (aad_len == 0) return 0;
  const std::size_t prefix = aad_len < 0xFF00 ? 2 : aad_len <= 0xFFFFFFFFULL ? 6 : 10;
  return (prefix + aad_len + 15) / 16 * 16;
}

Bytes ccm_encode_aad(ByteSpan aad) {
  Bytes out;
  const std::size_t a = aad.size();
  out.reserve(ccm_encoded_aad_len(a));
  if (a == 0) return out;
  if (a < 0xFF00) {
    out.push_back(static_cast<std::uint8_t>(a >> 8));
    out.push_back(static_cast<std::uint8_t>(a));
  } else if (a <= 0xFFFFFFFFULL) {
    out.push_back(0xFF);
    out.push_back(0xFE);
    for (int i = 3; i >= 0; --i) out.push_back(static_cast<std::uint8_t>(a >> (8 * i)));
  } else {
    out.push_back(0xFF);
    out.push_back(0xFF);
    for (int i = 7; i >= 0; --i) out.push_back(static_cast<std::uint8_t>(a >> (8 * i)));
  }
  out.insert(out.end(), aad.begin(), aad.end());
  // Zero-pad to a block boundary (the padded-AAD blocks feed CBC-MAC).
  while (out.size() % 16 != 0) out.push_back(0);
  return out;
}

Block128 ccm_ctr_block(const CcmParams& p, ByteSpan nonce, std::uint64_t index) {
  const std::size_t q = 15 - p.nonce_len;
  Block128 ctr{};
  ctr.b[0] = static_cast<std::uint8_t>(q - 1);
  for (std::size_t i = 0; i < p.nonce_len; ++i) ctr.b[1 + i] = nonce[i];
  for (std::size_t i = 0; i < q; ++i) {
    ctr.b[15 - i] = static_cast<std::uint8_t>(index);
    index >>= 8;
  }
  return ctr;
}

namespace {

/// The MAC chain after B0 and the encoded AAD: everything CBC-MAC absorbs
/// before the payload.
Block128 ccm_header_mac(const AesRoundKeys& keys, const CcmParams& p, ByteSpan nonce,
                        ByteSpan aad, std::size_t msg_len) {
  CbcMac mac(keys);
  mac.update(ccm_b0(p, nonce, aad.size(), msg_len));
  if (!aad.empty()) mac.update_padded(ccm_encode_aad(aad));
  return mac.mac();
}

/// MAC the payload and run its CTR transform in one kernel pass, then
/// mask the MAC with the keystream block of Ctr_0. Returns the full tag.
Block128 ccm_payload_tag(const AesRoundKeys& keys, const CcmParams& p, ByteSpan nonce,
                         ByteSpan aad, ByteSpan in, std::uint8_t* out, bool decrypt) {
  Block128 t = ccm_header_mac(keys, p, nonce, aad, in.size());
  if (!in.empty())
    active_kernels().ccm_payload(keys, ccm_ctr_block(p, nonce, 1), t, in.data(), out, in.size(),
                                 decrypt);
  return t ^ aes_encrypt_block(keys, ccm_ctr_block(p, nonce, 0));
}

}  // namespace

CcmSealed ccm_seal(const AesRoundKeys& keys, const CcmParams& p, ByteSpan nonce, ByteSpan aad,
                   ByteSpan plaintext) {
  if (!ccm_params_valid(p)) throw std::invalid_argument("ccm: invalid parameters");
  if (nonce.size() != p.nonce_len) throw std::invalid_argument("ccm: nonce length mismatch");

  CcmSealed out;
  out.ciphertext.resize(plaintext.size());
  Block128 t = ccm_payload_tag(keys, p, nonce, aad, plaintext, out.ciphertext.data(),
                               /*decrypt=*/false);
  out.tag.assign(t.b.begin(), t.b.begin() + static_cast<std::ptrdiff_t>(p.tag_len));
  return out;
}

std::optional<Bytes> ccm_open(const AesRoundKeys& keys, const CcmParams& p, ByteSpan nonce,
                              ByteSpan aad, ByteSpan ciphertext, ByteSpan tag) {
  if (!ccm_params_valid(p)) throw std::invalid_argument("ccm: invalid parameters");
  if (nonce.size() != p.nonce_len) throw std::invalid_argument("ccm: nonce length mismatch");
  if (tag.size() != p.tag_len) return std::nullopt;

  Bytes plaintext(ciphertext.size());
  Block128 t = ccm_payload_tag(keys, p, nonce, aad, ciphertext, plaintext.data(),
                               /*decrypt=*/true);
  if (!ct_equal(ByteSpan(t.b.data(), p.tag_len), tag)) return std::nullopt;
  return plaintext;
}

}  // namespace mccp::crypto
