// AES-CCM: Counter with CBC-MAC (NIST SP 800-38C / RFC 3610).
//
// Besides the one-shot seal/open API this header exposes the *formatting
// function* (B0 block, encoded AAD, counter blocks) as standalone helpers.
// The paper's communication controller "must format data prior to send them
// to the cryptographic cores" (§VI.B) — the radio substrate reuses exactly
// these helpers so the simulated cores receive spec-formatted input.
#pragma once

#include <optional>

#include "common/bytes.h"
#include "crypto/aes.h"

namespace mccp::crypto {

struct CcmParams {
  std::size_t tag_len = 16;    // t: 4, 6, 8, 10, 12, 14 or 16 bytes
  std::size_t nonce_len = 13;  // n: 7..13 bytes (q = 15 - n)
};

/// True if the (tag_len, nonce_len) pair is allowed by SP 800-38C.
bool ccm_params_valid(const CcmParams& p);

/// The B0 block: flags || nonce || message length.
Block128 ccm_b0(const CcmParams& p, ByteSpan nonce, std::size_t aad_len, std::size_t msg_len);

/// The a-encoding of the AAD length prepended to the AAD (SP 800-38C A.2.2).
Bytes ccm_encode_aad(ByteSpan aad);

/// ccm_encode_aad(aad).size() for an AAD of `aad_len` bytes, without
/// building the buffer: length prefix + AAD, zero-padded to 16 bytes.
std::size_t ccm_encoded_aad_len(std::size_t aad_len);

/// Counter block Ctr_i: flags(q-1) || nonce || i.
Block128 ccm_ctr_block(const CcmParams& p, ByteSpan nonce, std::uint64_t index);

struct CcmSealed {
  Bytes ciphertext;  // same length as plaintext
  Bytes tag;         // tag_len bytes
};

/// Authenticated encryption. Throws std::invalid_argument on bad parameters.
CcmSealed ccm_seal(const AesRoundKeys& keys, const CcmParams& p, ByteSpan nonce, ByteSpan aad,
                   ByteSpan plaintext);

/// Authenticated decryption; nullopt when the tag does not verify.
std::optional<Bytes> ccm_open(const AesRoundKeys& keys, const CcmParams& p, ByteSpan nonce,
                              ByteSpan aad, ByteSpan ciphertext, ByteSpan tag);

}  // namespace mccp::crypto
