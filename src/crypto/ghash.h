// GHASH (SP 800-38D §6.4): the universal hash underlying GCM authentication.
//
// Besides the one-shot helper, an incremental `Ghash` object mirrors how the
// paper's GHASH processing core is driven: LOADH loads the hash subkey H,
// each SGFM instruction absorbs one 128-bit block, FGFM reads the digest.
#pragma once

#include <memory>

#include "common/bytes.h"
#include "crypto/gf128.h"
#include "crypto/kernels.h"

namespace mccp::crypto {

/// Incremental GHASH accumulator. Loading H precomputes Shoup 8-bit
/// multiplication tables (Gf128Table), so each absorbed block costs 16
/// table lookups instead of a 128-iteration bit-serial multiply; property
/// tests pin the result to the reference gf128_mul.
///
/// An accumulator either owns its table (built from H, held on the heap)
/// or borrows one, in which case it is just a pointer and the running
/// digest. A copy of a borrower keeps borrowing; a copy of an owner owns
/// its own copy of the table.
class Ghash {
 public:
  explicit Ghash(const Block128& h)
      : owned_(std::make_unique<Gf128Table>(h)), table_(owned_.get()) {}
  /// Borrow a prebuilt table (e.g. a cached per-key `crypto::GcmKey`):
  /// skips the 256-multiple table build entirely. The table must outlive
  /// this accumulator.
  explicit Ghash(const Gf128Table& shared) : table_(&shared) {}

  Ghash(const Ghash& other) { *this = other; }
  Ghash& operator=(const Ghash& other) {
    if (this != &other) {
      owned_ = other.owned_ ? std::make_unique<Gf128Table>(*other.owned_) : nullptr;
      table_ = owned_ ? owned_.get() : other.table_;
      y_ = other.y_;
    }
    return *this;
  }
  Ghash(Ghash&&) noexcept = default;
  Ghash& operator=(Ghash&&) noexcept = default;

  /// Load a new hash subkey (resets the accumulator and owns the table).
  void load_h(const Block128& h) {
    owned_ = std::make_unique<Gf128Table>(h);
    table_ = owned_.get();
    y_ = Block128{};
  }

  /// Absorb one 128-bit block: Y <- (Y ^ X) * H. Dispatches to the active
  /// kernel tier (CLMUL where available; Shoup table otherwise).
  void update(const Block128& x) { y_ = active_kernels().ghash_mul(*table_, y_ ^ x); }

  /// Absorb a byte string, zero-padding the final partial block. Full
  /// blocks go through the bulk kernel (4-block aggregated reduction on
  /// the CLMUL tiers).
  void update_padded(ByteSpan data);

  const Block128& digest() const { return y_; }
  const Block128& h() const { return table_->h(); }

 private:
  std::unique_ptr<Gf128Table> owned_;  // null when borrowing
  const Gf128Table* table_ = nullptr;
  Block128 y_{};
};

/// One-shot GHASH over `data` (must be a multiple of 16 bytes).
Block128 ghash(const Block128& h, ByteSpan data);

}  // namespace mccp::crypto
