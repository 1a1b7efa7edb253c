// The Cross Bar (paper SIII.A, Fig. 1): connects the communication
// controller's 32-bit I/O port to the core FIFOs under Task Scheduler
// control.
//
// Grant model: the Task Scheduler opens a core FIFO "in write mode" when it
// accepts an ENCRYPT/DECRYPT, and in read mode when RETRIEVE_DATA succeeds;
// TRANSFER_DONE closes both. Bandwidth model: one 32-bit word per direction
// per clock, arbitrated round-robin among granted cores — 6.08 Gbps each
// way at 190 MHz, comfortably above the 4-core aggregate of Table II
// (1.98 Gbps + overheads).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/crypto_core.h"
#include "sim/clocked.h"

namespace mccp::top {

/// Event-driven bookkeeping: two lane bitmasks (write-granted lanes that
/// hold words, read-granted lanes) and a running outbox word count, so a
/// tick() or quiet() touches only the lanes that can move. At most 64
/// lanes; the round-robin order is the plain index scan's.
class CrossBar final : public sim::Clocked {
 public:
  explicit CrossBar(std::vector<core::CryptoCore*> cores);

  // -- grant control (Task Scheduler only) -----------------------------------
  void open_write(std::size_t core_idx) { write_granted_ |= bit(checked(core_idx)); }
  void open_read(std::size_t core_idx) { read_granted_ |= bit(checked(core_idx)); }
  void close(std::size_t core_idx);
  bool write_granted(std::size_t core_idx) const {
    return (write_granted_ & bit(checked(core_idx))) != 0;
  }
  bool read_granted(std::size_t core_idx) const {
    return (read_granted_ & bit(checked(core_idx))) != 0;
  }

  // -- communication-controller side ------------------------------------------
  /// Queue words for delivery into a write-granted core FIFO. Throws if the
  /// lane is not granted (hardware would simply not route the strobe; the
  /// model treats it as a protocol error worth failing loudly on).
  void push_words(std::size_t core_idx, const std::vector<std::uint32_t>& words);
  /// Collect words the crossbar has drained from a read-granted core FIFO.
  std::vector<std::uint32_t> take_output(std::size_t core_idx);
  /// Allocation-free variant for polling: append the drained words to
  /// `out` and return whether any moved.
  bool take_output_into(std::size_t core_idx, std::vector<std::uint32_t>& out);
  std::size_t pending_input(std::size_t core_idx) const {
    const Lane& l = lanes_.at(core_idx);
    return l.inbox.size() - l.inbox_head;
  }
  /// Words drained from core FIFOs and not yet collected, over all lanes.
  std::size_t output_words() const { return outbox_words_; }

  void tick() override;
  std::string name() const override { return "crossbar"; }

  /// True when a tick() would move nothing — no write-granted lane with a
  /// buffered word and FIFO space, no read-granted lane with output words —
  /// and every outbox has been drained by the host. Core-side bursts keep
  /// this invariant: the FIFO transitions that would un-block a lane (a CU
  /// LOAD pop or STORE push) always run under a real per-cycle tick.
  bool quiet() const;

  std::uint64_t words_in() const { return words_in_; }
  std::uint64_t words_out() const { return words_out_; }

 private:
  struct Lane {
    std::vector<std::uint32_t> inbox;  // inbox[inbox_head..] wait for the core's in-FIFO
    std::size_t inbox_head = 0;
    std::vector<std::uint32_t> outbox;  // drained from the core's out-FIFO
  };

  static std::uint64_t bit(std::size_t i) { return std::uint64_t{1} << i; }
  std::size_t checked(std::size_t core_idx) const;

  std::vector<core::CryptoCore*> cores_;
  std::vector<Lane> lanes_;
  std::uint64_t write_granted_ = 0;
  std::uint64_t write_ready_ = 0;  // write-granted lanes whose inbox holds words
  std::uint64_t read_granted_ = 0;
  std::size_t outbox_words_ = 0;
  std::size_t write_rr_ = 0;
  std::size_t read_rr_ = 0;
  std::uint64_t words_in_ = 0;
  std::uint64_t words_out_ = 0;
};

}  // namespace mccp::top
