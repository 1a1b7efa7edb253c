// CBC-MAC (FIPS 113 style, as used inside CCM): T = last CBC ciphertext
// block over zero IV. Only safe for fixed-length, prefix-free messages —
// which is how CCM's formatting function uses it.
#pragma once

#include "common/bytes.h"
#include "crypto/aes.h"

namespace mccp::crypto {

/// Incremental CBC-MAC accumulator, mirroring the simulated core's
/// XOR -> SAES -> FAES chaining loop.
class CbcMac {
 public:
  explicit CbcMac(const AesRoundKeys& keys) : keys_(&keys) {}

  /// Absorb one full 128-bit block.
  void update(const Block128& block) {
    x_ ^= block;
    x_ = aes_encrypt_block(*keys_, x_);
  }

  /// Absorb a byte string, zero-padding the final partial block (the CCM
  /// convention for both AAD and payload). Full blocks go through the
  /// dispatched `cbc_mac_blocks` kernel.
  void update_padded(ByteSpan data);

  const Block128& mac() const { return x_; }

 private:
  const AesRoundKeys* keys_;
  Block128 x_{};
};

/// One-shot CBC-MAC over block-aligned data.
Block128 cbc_mac(const AesRoundKeys& keys, ByteSpan data);

}  // namespace mccp::crypto
