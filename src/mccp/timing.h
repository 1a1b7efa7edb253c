// Cycle model of the Task Scheduler software and Key Scheduler hardware.
//
// The paper's Task Scheduler is "a simple 8-bit controller which executes
// the task scheduling software" (SIII.A) but gives no cycle figures for it;
// we model each control-protocol instruction with a fixed decode+dispatch
// latency equivalent to a short PicoBlaze routine (N instructions x 2
// cycles). These overheads are amortized over whole packets (thousands of
// cycles), so Table II throughput is insensitive to their exact values;
// the control-latency ablation of bench/paper_figures measures how much.
//
// NOTE on the two timing headers: this file (namespace mccp::top) owns the
// MCCP top-level overheads only — Task Scheduler decode/dispatch, done
// polling, Key Scheduler expansion. The Cryptographic Unit datapath costs
// (AES/GHASH latencies, I/O beats, per-instruction occupancy) live in
// cu/timing.h (namespace mccp::cu); see the note there. Neither header
// redefines the other's constants, and the host layer observes timing only
// through the simulated device clocks.
#pragma once

#include "crypto/aes.h"

namespace mccp::top {

/// Instruction-register decode + table lookup + response (~12 controller
/// instructions at 2 cycles each).
inline constexpr int kControlLatencyCycles = 24;

/// Polling loop delay between a core raising done and the scheduler
/// observing it / raising Data Available (~8 instructions).
inline constexpr int kDoneScanCycles = 16;

/// Key Scheduler: the round keys are generated word-serially from the
/// session key (4 x (rounds+1) words, one per cycle) — 44/52/60 cycles for
/// 128/192/256-bit keys, mirroring the iterative AES datapath.
inline constexpr int key_expansion_cycles(crypto::AesKeySize ks) {
  return 4 * (crypto::aes_rounds(ks) + 1);
}

}  // namespace mccp::top
