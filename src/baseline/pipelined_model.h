// Analytic model of the "classical" alternatives the paper argues against
// (SI-SII): a fully-unrolled pipelined AES-GCM accelerator (Lemsitzer-style
// [1]) and a mono-core iterative accelerator.
//
// The pipelined design achieves one 128-bit block per clock on GCM — tens
// of Gbps — but (a) "data dependencies in some block cipher modes (e.g.
// CCM) make unrolled implementations useless": CBC-MAC chaining only admits
// one block in flight, so throughput collapses to one block per pipeline
// depth; and (b) "complex designs are needed when multiplexed channels use
// different standards": it is fixed-function. These closed-form rates are
// the comparison side of the flexibility section of bench/paper_figures;
// the MCCP side is measured on the simulator.
#pragma once

#include <cstddef>

namespace mccp::baseline {

struct PipelinedGcmCore {
  /// Pipeline latency in clocks: high-frequency FPGA AES pipelines register
  /// sub-round stages (~4 per round x 10 rounds). This is what CBC-MAC
  /// chaining pays per block.
  int pipeline_depth = 40;
  /// Lemsitzer et al. on a Virtex-4 FX100 (Table III row): 32 Mbps/MHz on
  /// GCM as published.
  double gcm_mbps_per_mhz = 32.0;
  double frequency_mhz = 140.0;
  int slices = 6000;
  int brams = 30;
};

/// GCM/CTR throughput at the published streaming rate, with a pipeline fill
/// per packet.
double pipelined_gcm_mbps(const PipelinedGcmCore& core, std::size_t packet_bytes);

/// CCM/CBC-MAC throughput: the chaining dependency admits one block per
/// `pipeline_depth` clocks — the unrolled area buys nothing.
double pipelined_ccm_mbps(const PipelinedGcmCore& core);

/// Mono-core iterative accelerator (one Chodowiec-Gaj AES, hard-wired GCM
/// control): the paper's "classical mono-core approach [that] either
/// provides limited throughput or does not allow simple management of
/// multi-channel streams".
struct MonoCoreAccelerator {
  int cycles_per_block = 49;  // same iterative loop bound as one MCCP core
  double frequency_mhz = 190.0;
};

double mono_core_mbps(const MonoCoreAccelerator& core);

/// Aggregate rate of a traffic mix where a `gcm_fraction` share of bytes
/// runs at `gcm_mbps` and the rest at `ccm_mbps` on the same engine
/// (time-shared, harmonic combination).
double mixed_traffic_mbps(double gcm_fraction, double gcm_mbps, double ccm_mbps);

}  // namespace mccp::baseline
