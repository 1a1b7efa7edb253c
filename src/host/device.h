// The host driver's device abstraction.
//
// The paper's MCCP "is embedded in a much larger platform including one main
// controller and one communication controller" (SIII.A), and the
// architecture "is scalable; the number of embedded crypto-cores may vary".
// Production deployments scale one step further: a fleet of MCCP devices
// behind one host driver. `Device` is the stable seam between that driver
// (`host::Engine`) and whatever sits underneath — the cycle-accurate
// simulator today (`SimDevice`), RTL co-simulation or real PCIe/AXI hardware
// later. Everything above this interface is transport-agnostic.
//
// A Device bundles one MCCP's control port (the 4-step instruction protocol
// of SIII.B) with its crossbar pump (packet formatting, lane streaming,
// Data-Available service, output draining). Control-plane calls complete
// synchronously; the data plane is asynchronous: `submit()` queues a job and
// returns immediately, `step()` advances the device one scheduling round,
// and `result()` exposes the job's live state.
//
// Threading contract: a Device is a single-threaded clock domain and
// implementations need NO internal synchronization. The driver guarantees
// that at most one thread touches a given device at any time. The Engine
// steps event-driven devices (FastDevice and any device it cannot see a
// SimDevice in) on its caller's thread. In its worker-pool mode a
// simulated device i is pinned to executor i % size for the stepping
// calls of a round (`step()`, `pump_round()`, `quiet_horizon()`,
// `advance_quiet()`, `advance_to()`); executor 0 is the caller's own
// thread, and the pool spawns min(num_workers, devices) - 1 more once the
// fleet holds a simulated device. Every pool pass is separated from the
// caller's submit/control/result/forget accesses by a barrier (a
// happens-before edge on both entry and exit). Distinct devices may be
// driven concurrently; nothing behind this interface may share mutable
// state across devices.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "mccp/control.h"
#include "mccp/key_store.h"
#include "reconfig/reconfig.h"
#include "sim/clocked.h"

namespace mccp::host {

using top::ChannelMode;

/// Descriptor of an open channel on one device. Plain data — the RAII
/// `host::Channel` wraps one of these.
struct ChannelInfo {
  std::uint8_t id = 0;
  ChannelMode mode{};
  top::KeyId key_id = 0;
  std::uint8_t tag_len = 16;
  std::uint8_t nonce_len = 13;  // CCM only
};

/// Device-local job identifier (dense, per-device).
using DeviceJobId = std::uint64_t;

/// Final (or in-flight partial) state of a transferred packet.
struct JobResult {
  bool complete = false;
  bool auth_ok = true;
  Bytes payload;          // ciphertext (encrypt) or plaintext (decrypt)
  Bytes tag;              // encrypt only
  sim::Cycle submit_cycle = 0;
  sim::Cycle accept_cycle = 0;    // ENCRYPT/DECRYPT acknowledged
  sim::Cycle complete_cycle = 0;  // TRANSFER_DONE acknowledged
  std::uint32_t rejections = 0;   // busy-error retries before acceptance
};

/// Everything the device needs to run one packet.
struct JobSpec {
  ChannelInfo channel;
  bool decrypt = false;
  Bytes iv_or_nonce;
  Bytes aad;
  Bytes payload;
  Bytes tag;  // decrypt only
  /// 0 = most urgent; equal priorities are served in arrival order
  /// (SIII.C); distinct priorities implement the SVIII QoS extension.
  unsigned priority = 128;
};

/// A GCM submit whose IV length differs from the channel's registered
/// nonce_len is unservable, and the two backends used to diverge on it: the
/// simulated core waits forever for IV stream words that never arrive,
/// while the fast path happily computes a tag the hardware never would.
/// Backends call this at the submit seam and fail the job immediately
/// (complete, !auth_ok) instead. Other modes don't need the check: CTR/CBC
/// formatting is length-agnostic at this seam and CCM nonce lengths are
/// validated at OPEN.
inline bool gcm_iv_length_mismatch(const JobSpec& spec) {
  return spec.channel.mode == ChannelMode::kGcm &&
         spec.iv_or_nonce.size() != spec.channel.nonce_len;
}

/// Which CU slot personality a channel mode executes on (paper SVII.B):
/// Whirlpool hashing needs the Whirlpool image; every block-cipher mode
/// runs on the AES-encryption(+key-schedule) image.
inline reconfig::CoreImage image_for_mode(ChannelMode mode) {
  return mode == ChannelMode::kWhirlpool ? reconfig::CoreImage::kWhirlpool
                                         : reconfig::CoreImage::kAesEncryptWithKs;
}

class Device {
 public:
  virtual ~Device() = default;
  virtual std::string name() const = 0;

  // -- main-controller duties (red/black boundary, SIII.A) --------------------
  virtual void provision_key(top::KeyId id, Bytes session_key) = 0;

  // -- control plane (each call runs the 4-step protocol to completion) -------
  virtual std::optional<ChannelInfo> open_channel(ChannelMode mode, top::KeyId key,
                                                  unsigned tag_len = 16,
                                                  unsigned nonce_len = 13) = 0;
  virtual bool close_channel(std::uint8_t channel_id) = 0;
  /// Return-register value of the last control instruction.
  virtual std::uint8_t last_error() const = 0;

  // -- data plane (asynchronous) ----------------------------------------------
  /// Queue a packet; never blocks. Errors (unknown channel, ...) surface on
  /// the job itself: it completes with `auth_ok == false`.
  virtual DeviceJobId submit(JobSpec spec) = 0;
  /// Queue a burst of packets in one call, consuming the specs. Semantically
  /// identical to calling submit() in order; backends override to amortize
  /// per-job bookkeeping at high offered load.
  virtual std::vector<DeviceJobId> submit_batch(std::span<JobSpec> specs) {
    std::vector<DeviceJobId> ids;
    ids.reserve(specs.size());
    for (JobSpec& spec : specs) ids.push_back(submit(std::move(spec)));
    return ids;
  }
  /// Advance one scheduling round: service interrupts, drain outputs, issue
  /// the next pending instruction, tick the clock at least once.
  virtual void step() = 0;
  /// Advance the device clock to at least `target` (no-op if already
  /// there). The cycle-accurate backend really simulates the interval; an
  /// idle event-driven backend may jump. Workload pacing uses this to skip
  /// quiet gaps between arrivals without submitting early.
  virtual void advance_to(sim::Cycle target) {
    while (now() < target) step();
  }
  virtual bool idle() const = 0;

  // -- lockstep quiet-burst seam ----------------------------------------------
  // A cycle-accurate backend can split step() into "run the controller's
  // scheduling round at the current cycle" (pump_round) and "advance the
  // clock" (advance_quiet), and can bound how many upcoming cycles are
  // provably inert (quiet_horizon). A fleet driver then pumps every device
  // at the same cycle, ticks every clock once, and when no controller
  // acted advances all clocks on together to the fleet-min horizon —
  // fast-forwarding quiet spans without ever letting one device's clock
  // race its siblings (which would skew wait budgets and later
  // submit-cycle stamps). The
  // resulting trajectory is bit-identical to per-cycle stepping.
  /// Opt-in flag; when false the driver just calls step() and the three
  /// methods below are never invoked.
  virtual bool supports_quiet_burst() const { return false; }
  /// Run one scheduling round at the current cycle WITHOUT advancing the
  /// clock. Returns true when the controller did anything observable —
  /// the fleet must then advance by exactly one cycle so the action's
  /// consequences replay at the classic cadence.
  virtual bool pump_round() { return true; }
  /// After a pump_round() that returned false: upper bound (capped at
  /// `cap`) on upcoming cycles, counted from the current one, during which
  /// this device is provably inert. 0 or 1 means "advance one real cycle".
  /// Each inert cycle lowers the bound by exactly one.
  virtual sim::Cycle quiet_horizon(sim::Cycle /*cap*/) const { return 1; }
  /// Advance exactly `n` cycles; n must be 1 or fit in what is left of
  /// the device's last reported quiet_horizon(): the driver may spend one
  /// horizon h as advance_quiet(1) then advance_quiet(k) with 1 + k <= h.
  /// n == 1 is a real tick.
  virtual void advance_quiet(sim::Cycle n) {
    while (n-- > 0) step();
  }

  /// Live view of a job (partial until `complete`); nullptr if unknown.
  virtual const JobResult* result(DeviceJobId id) const = 0;
  /// Sentinel for completions(): the backend keeps no counter, so callers
  /// must scan result() to discover completions.
  static constexpr std::uint64_t kCompletionsUnknown = ~0ull;
  /// Monotone count of jobs that have reached a final state — bumped no
  /// later than the moment result() first reports the job complete. The
  /// Engine polls this to skip scanning a device whose in-flight jobs
  /// cannot have finished since the last look; decorators that hide some
  /// completions may over-report (extra scans are merely wasted work) but
  /// must never under-report.
  virtual std::uint64_t completions() const { return kCompletionsUnknown; }
  /// Drop a completed job's bookkeeping (the Engine copies results out).
  virtual void forget(DeviceJobId id) = 0;

  // -- slot personalities & partial reconfiguration (paper SVII.B) ------------
  /// The core image slot `slot` currently hosts. While a swap is in flight
  /// the OLD image is reported (the region only commits on completion).
  virtual reconfig::CoreImage slot_image(std::size_t /*slot*/) const {
    return reconfig::CoreImage::kAesEncryptWithKs;
  }
  /// True while slot `slot`'s bitstream transfer is running (the slot is
  /// unschedulable; sibling slots keep working).
  virtual bool slot_reconfiguring(std::size_t /*slot*/) const { return false; }
  /// Slots whose committed personality is `img` right now (in-flight swaps
  /// count for neither image).
  virtual std::size_t slots_with_image(reconfig::CoreImage img) const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < num_cores(); ++i)
      if (!slot_reconfiguring(i) && slot_image(i) == img) ++n;
    return n;
  }
  /// Begin swapping slot `slot` to `image` from `store`. The slot must be
  /// idle and not already reconfiguring; it is unavailable for the
  /// returned number of cycles and comes back with the new personality.
  /// nullopt = busy / already swapping / unsupported backend. A submit
  /// whose mode needs an image no slot holds triggers this automatically
  /// when the device's auto_reconfig policy is on, and fails fast when it
  /// is off — it is never silently computed.
  virtual std::optional<std::uint64_t> begin_reconfiguration(std::size_t /*slot*/,
                                                             reconfig::CoreImage /*image*/,
                                                             reconfig::BitstreamStore /*store*/) {
    return std::nullopt;
  }
  /// Swaps started on this device + the slot-cycles they spent (will
  /// spend) unavailable — the fleet-level reconfiguration accounting the
  /// workload reports aggregate.
  virtual std::uint64_t reconfigurations() const { return 0; }
  virtual std::uint64_t reconfig_stall_cycles() const { return 0; }
  /// Of those, swaps that landed `img` specifically (per-class workload
  /// accounting attributes swaps to the image a class's mode needs).
  virtual std::uint64_t reconfigurations_to(reconfig::CoreImage /*img*/) const { return 0; }

  // -- introspection ----------------------------------------------------------
  virtual sim::Cycle now() const = 0;
  virtual std::size_t num_cores() const = 0;
  virtual std::size_t inflight() const = 0;
  virtual std::size_t open_channel_count() const = 0;
  /// True once the device has died (hardware fault, hot-unplug). A failed
  /// device freezes: its clock stops, in-flight jobs never complete, and
  /// control calls are rejected. Backends themselves never fail — the
  /// FaultyDevice decorator injects this for fleet-recovery testing — but
  /// the Engine checks it at the seam so real transports can report real
  /// faults the same way.
  virtual bool failed() const { return false; }
};

}  // namespace mccp::host
