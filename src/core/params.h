// Task parameters handed from the Task Scheduler to a Cryptographic Core.
//
// The scheduler "sends channel and packet parameters to the core (including
// the algorithm ID, the authenticated only field size, the plaintext field
// size and the tag length for authenticated channels)" — paper SVI.B. Our
// cores receive them through an 8-bit parameter mailbox the controller
// firmware reads with INPUT instructions.
#pragma once

#include <cstdint>

namespace mccp::core {

/// Firmware routine selector (the algorithm ID of SVI.B). Enc/dec variants
/// are distinct entry points in the controller program.
enum class AlgId : std::uint8_t {
  kGcmEncrypt = 0,
  kGcmDecrypt = 1,
  kCcm1Encrypt = 2,   // whole CCM packet on one core
  kCcm1Decrypt = 3,
  kCcmCtrEncrypt = 4, // CTR half of a two-core CCM (paired with kCcmMac*)
  kCcmCtrDecrypt = 5,
  kCcmMacEncrypt = 6, // CBC-MAC half of a two-core CCM
  kCcmMacDecrypt = 7,
  kCtr = 8,           // plain CTR (encrypt == decrypt)
  kCbcMacGenerate = 9,
  kCbcMacVerify = 10,
  /// Whirlpool hashing; requires the Whirlpool image in the CU slot
  /// (partial reconfiguration, paper SVII.B).
  kWhirlpoolHash = 11,
};

const char* alg_name(AlgId id);

/// Per-packet parameters written into the mailbox before the start strobe.
struct CoreTaskParams {
  AlgId alg{AlgId::kGcmEncrypt};
  /// Authenticated-only field, in 16-byte blocks after CCM encoding / GCM
  /// zero-padding (the communication controller formats the stream).
  std::uint8_t aad_blocks = 0;
  /// Payload field in 16-byte blocks (payloads must be block-aligned: the
  /// stream layouts in core/firmware.cpp carry whole blocks; the hardware's
  /// XOR byte mask could trim a ragged tail, which the model leaves out).
  std::uint8_t data_blocks = 0;
  /// Byte mask for the tag: bit k keeps tag byte k. 0xFFFF = full 16-byte
  /// tag, 0x00FF = 8-byte tag, ...
  std::uint16_t tag_mask = 0xFFFF;
  /// GCM only: 0 = 96-bit IV fast path (J0 arrives pre-formatted); n > 0 =
  /// the stream starts with n GHASH blocks (padded IV + IV-length block)
  /// from which the firmware derives J0 on-core (SP 800-38D long-IV path).
  std::uint8_t iv_blocks = 0;
};

/// Mask with the `len` most significant tag bytes kept.
constexpr std::uint16_t tag_mask_for_len(unsigned len) {
  return static_cast<std::uint16_t>(len >= 16 ? 0xFFFF : (1u << len) - 1);
}

/// Result codes the firmware reports through the done port.
enum class CoreResult : std::uint8_t {
  kOk = 0,
  kAuthFail = 1,
  kBadAlgorithm = 2,
};

// --- controller port map ---------------------------------------------------
// Write ports.
inline constexpr std::uint8_t kPortCuInstr = 0x00;   // CU instruction strobe
inline constexpr std::uint8_t kPortMask0 = 0x02;     // XOR byte-mask bits 0-7
inline constexpr std::uint8_t kPortMask1 = 0x03;     // XOR byte-mask bits 8-15
inline constexpr std::uint8_t kPortDone = 0x20;      // task completion + result
// Read ports.
inline constexpr std::uint8_t kPortCuStatus = 0x01;  // CU status bits
inline constexpr std::uint8_t kPortAlg = 0x10;
inline constexpr std::uint8_t kPortAadBlocks = 0x11;
inline constexpr std::uint8_t kPortDataBlocks = 0x12;
inline constexpr std::uint8_t kPortTagMask0 = 0x13;
inline constexpr std::uint8_t kPortTagMask1 = 0x14;
inline constexpr std::uint8_t kPortIvBlocks = 0x15;

// CU status bits (kPortCuStatus).
inline constexpr std::uint8_t kStatusCuBusy = 0x01;
inline constexpr std::uint8_t kStatusEqu = 0x02;
inline constexpr std::uint8_t kStatusAesBusy = 0x04;
inline constexpr std::uint8_t kStatusGhashBusy = 0x08;
inline constexpr std::uint8_t kStatusInEmpty = 0x10;
inline constexpr std::uint8_t kStatusOutFull = 0x20;
inline constexpr std::uint8_t kStatusShiftInReady = 0x40;
inline constexpr std::uint8_t kStatusShiftOutEmpty = 0x80;

}  // namespace mccp::core
