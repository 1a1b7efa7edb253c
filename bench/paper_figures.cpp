// Every modeled figure of the paper reproduction, as one JSON document.
//
//   paper_figures                 print the document
//   paper_figures --check GOLDEN  diff it against a checked-in golden
//                                 (tests/data/paper_figures.json)
//
// A cell compared with the paper is {"ours", "paper"[, "tol"]}; every run
// checks the relative deviation against "tol" (1% on the theoretical
// column and loop cycles, 10% on the 2 KB column and Tables III and IV).
// Cycle counts are stored as integers, every other number in its shortest
// exact form, and --check needs each cell to equal the golden bit for bit.
// On a mismatch it prints the differing cells and writes the document to
// paper_figures.actual.json, which replaces the golden when a figure moves
// on purpose. Each distinct simulation runs once.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "baseline/literature.h"
#include "baseline/pipelined_model.h"
#include "bench_common.h"
#include "common/json.h"
#include "core/single_core_harness.h"
#include "crypto/aes.h"
#include "crypto/ccm.h"
#include "crypto/gf128.h"
#include "cu/timing.h"
#include "mccp/timing.h"
#include "picoblaze/isa.h"
#include "reconfig/reconfig.h"

namespace mccp::bench {
namespace {

constexpr double kTolTheory = 0.01;    // theoretical column, loop cycles
constexpr double kTolMeasured = 0.10;  // 2 KB column, Tables III and IV
constexpr std::uint64_t kPacketBits = 2048 * 8;

/// Pretty-printed JSON, one cell per line, plus the paper deviations beyond
/// their tolerance. (JsonWriter writes one line with 6-digit doubles; the
/// golden needs exact numbers and a reviewable diff.)
class Doc {
 public:
  Doc& open(const std::string& key) {
    put(key, "{");
    path_.push_back(key);
    first_ = true;
    return *this;
  }
  Doc& close() {
    path_.pop_back();
    out_ += "\n  " + indent() + '}';
    first_ = false;
    return *this;
  }
  Doc& num(const std::string& key, double v) { return put(key, fmt(v)); }
  Doc& count(const std::string& key, std::uint64_t v) { return put(key, std::to_string(v)); }
  Doc& text(const std::string& key, const std::string& v) {
    return put(key, JsonWriter::quote(v));
  }
  /// Our value beside the paper's; with `tol` > 0 the relative deviation
  /// must stay within it.
  Doc& vs_paper(const std::string& key, double ours, double paper, double tol = 0) {
    std::string cell = "{\"ours\": " + fmt(ours) + ", \"paper\": " + fmt(paper);
    if (tol > 0) {
      cell += ", \"tol\": " + fmt(tol);
      const double dev = (ours - paper) / paper;
      if (std::abs(dev) > tol) {
        std::string where;
        for (const std::string& k : path_) where += k + '/';
        char buf[96];
        std::snprintf(buf, sizeof buf, ": ours deviates %+.1f%% from the paper, beyond +-%.0f%%",
                      100 * dev, 100 * tol);
        violations_.push_back(where + key + buf);
      }
    }
    return put(key, cell + '}');
  }

  std::string str() const { return '{' + out_ + "\n}"; }
  const std::vector<std::string>& violations() const { return violations_; }

  /// Shortest text that parses back to the same double.
  static std::string fmt(double v) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  }

 private:
  Doc& put(const std::string& key, const std::string& json) {
    out_ += (first_ ? "\n  " : ",\n  ") + indent() + JsonWriter::quote(key) + ": " + json;
    first_ = false;
    return *this;
  }
  std::string indent() const { return std::string(2 * path_.size(), ' '); }

  std::string out_;
  std::vector<std::string> path_;
  std::vector<std::string> violations_;
  bool first_ = true;
};

// --- measurements ------------------------------------------------------------

/// One isolated core: packets of 8 and 40 blocks give the steady-state loop
/// slope, a 128-block packet the 2 KB figure.
struct CoreRun {
  sim::Cycle cycles_8_blocks, cycles_40_blocks, cycles_2kb;

  double loop_cycles() const {
    return static_cast<double>(cycles_40_blocks - cycles_8_blocks) / 32.0;
  }
  double theoretical_mbps() const { return 128.0 * kMHz / loop_cycles(); }
  double packet_mbps() const { return mbps_from_cycles(kPacketBits, cycles_2kb); }
};

enum class CoreMode { kGcm, kCcm, kCbcMac };

/// A `blocks`-block job whose IV/nonce and payload derive from `seed`.
core::CoreJob core_job(CoreMode mode, std::size_t blocks, std::uint64_t seed) {
  Rng r(seed + blocks);
  switch (mode) {
    case CoreMode::kGcm: {
      Bytes iv = r.bytes(12);
      return core::format_gcm_encrypt(iv, {}, r.bytes(blocks * 16));
    }
    case CoreMode::kCcm: {
      Bytes nonce = r.bytes(13);
      return core::format_ccm1_encrypt({.tag_len = 8, .nonce_len = 13}, nonce, {},
                                       r.bytes(blocks * 16));
    }
    case CoreMode::kCbcMac: break;
  }
  return core::format_cbcmac_generate(r.bytes((blocks + 1) * 16), 16);
}

CoreRun measure_core(CoreMode mode, std::size_t key_len, std::uint64_t seed) {
  Rng rng(key_len * 7 + 1);
  core::SingleCoreHarness h(rng.bytes(key_len));
  const sim::Cycle c8 = h.run(core_job(mode, 8, seed)).cycles;
  const sim::Cycle c40 = h.run(core_job(mode, 40, seed)).cycles;
  return {c8, c40, h.run(core_job(mode, 128, seed)).cycles};
}

/// Saturated one-device runs of 2 KB packets.
PlatformMeasurement gcm_platform(const top::MccpConfig& cfg, std::size_t key_len,
                                 std::size_t packets) {
  return measure_engine({.num_devices = 1, .device = cfg}, host::ChannelMode::kGcm, key_len, 2048,
                        packets, 16, 12);
}
PlatformMeasurement ccm_platform(std::size_t cores, top::CcmMapping mapping, std::size_t key_len,
                                 std::size_t packets) {
  return measure_engine({.num_devices = 1, .device = {.num_cores = cores, .ccm_mapping = mapping}},
                        host::ChannelMode::kCcm, key_len, 2048, packets);
}

// --- Table II ----------------------------------------------------------------

constexpr std::size_t kKeyLens[3] = {16, 24, 32};
constexpr const char* kKeyBits[3] = {"128", "192", "256"};

// SVII.A loop periods {T_GCM, T_CBC, T_CCM 1-core} and the SV.A AES block
// latency per key size.
constexpr double kPaperLoop[3][4] = {{49, 55, 104, 44}, {57, 63, 120, 52}, {65, 71, 136, 60}};

// Table II verbatim, {theoretical, 2 KB} for GCM 1 core, GCM 4x1, CCM 1
// core, CCM 4x1, CCM 2 cores, CCM 2x2.
constexpr double kPaperTable2[3][6][2] = {
    {{496, 437}, {1984, 1748}, {233, 214}, {932, 856}, {442, 393}, {884, 786}},
    {{426, 382}, {1704, 1528}, {202, 187}, {808, 748}, {386, 348}, {772, 696}},
    {{374, 337}, {1496, 1348}, {178, 171}, {712, 684}, {342, 313}, {684, 626}},
};

constexpr std::size_t kPlatformPackets = 16;
constexpr std::size_t kPairPackets = 12;  // the one-pair CCM platform

struct Table2Runs {
  CoreRun gcm, ccm1, cbc;
  PlatformMeasurement gcm4, ccm4, ccm2, ccm22;
};

Table2Runs run_table2(std::size_t key_len) {
  return {measure_core(CoreMode::kGcm, key_len, 11),
          measure_core(CoreMode::kCcm, key_len, 22),
          measure_core(CoreMode::kCbcMac, key_len, 33),
          gcm_platform({.num_cores = 4}, key_len, kPlatformPackets),
          ccm_platform(4, top::CcmMapping::kSingleCore, key_len, kPlatformPackets),
          ccm_platform(2, top::CcmMapping::kPairPreferred, key_len, kPairPackets),
          ccm_platform(4, top::CcmMapping::kPairPreferred, key_len, kPlatformPackets)};
}

/// The cells every Table II row shares. `lanes` packets run at once, each
/// at `loop` cycles per block (a split-CCM pair is one lane bound by
/// T_CBC); `lane_cycles` is our 2 KB packet time per lane. The overhead is
/// that time beyond 128 x T_loop; the paper's is implied by its 2 KB cell
/// and its SVII.A loop period.
void table2_cells(Doc& doc, int lanes, double loop, double paper_loop, const double paper[2],
                  double packet_mbps, double lane_cycles) {
  doc.num("loop_cycles", loop)
      .vs_paper("theoretical_mbps", lanes * (128.0 * kMHz / loop), paper[0], kTolTheory)
      .vs_paper("packet_2kb_mbps", packet_mbps, paper[1], kTolMeasured)
      .vs_paper("overhead_2kb_cycles", lane_cycles - 128 * loop,
                kPacketBits * kMHz * lanes / paper[1] - 128 * paper_loop);
}

void core_row(Doc& doc, const char* id, const CoreRun& r, double paper_loop,
              const double paper[2]) {
  doc.open(id).count("packet_cycles", r.cycles_2kb);
  table2_cells(doc, 1, r.loop_cycles(), paper_loop, paper, r.packet_mbps(),
               static_cast<double>(r.cycles_2kb));
  doc.close();
}

void platform_row(Doc& doc, const char* id, int lanes, const PlatformMeasurement& m,
                  std::size_t packets, double loop, double paper_loop, const double paper[2]) {
  doc.open(id).count("packets", packets).count("makespan_cycles", m.makespan_cycles);
  table2_cells(doc, lanes, loop, paper_loop, paper, m.aggregate_mbps,
               static_cast<double>(m.makespan_cycles) * lanes / static_cast<double>(packets));
  doc.close();
}

void table2(Doc& doc, const Table2Runs (&runs)[3]) {
  doc.open("table2");
  for (int k = 0; k < 3; ++k) {
    const Table2Runs& r = runs[k];
    const double* loop = kPaperLoop[k];
    const auto& paper = kPaperTable2[k];
    const double t_gcm = r.gcm.loop_cycles(), t_ccm = r.ccm1.loop_cycles();
    const double t_cbc = r.cbc.loop_cycles();
    doc.open(kKeyBits[k]);
    core_row(doc, "gcm_1core", r.gcm, loop[0], paper[0]);
    platform_row(doc, "gcm_4x1", 4, r.gcm4, kPlatformPackets, t_gcm, loop[0], paper[1]);
    core_row(doc, "ccm_1core", r.ccm1, loop[2], paper[2]);
    platform_row(doc, "ccm_4x1", 4, r.ccm4, kPlatformPackets, t_ccm, loop[2], paper[3]);
    platform_row(doc, "ccm_2cores", 1, r.ccm2, kPairPackets, t_cbc, loop[1], paper[4]);
    platform_row(doc, "ccm_2x2", 2, r.ccm22, kPlatformPackets, t_cbc, loop[1], paper[5]);
    doc.close();
  }
  doc.close();
}

// --- Table III ---------------------------------------------------------------

void literature_row(Doc& doc, const baseline::LiteratureEntry& e) {
  doc.open(e.implementation)
      .text("platform", e.platform)
      .text("programmable", e.programmable ? "Yes" : "No")
      .text("algorithm", e.algorithm)
      .num("mbps_per_mhz", e.mbps_per_mhz)
      .num("freq_mhz", e.frequency_mhz);
  if (e.slices >= 0) doc.num("slices", e.slices).num("brams", e.brams);
  doc.close();
}

/// The published rows, then ours: Table II's 4-core 2 KB AES-128
/// aggregates per MHz.
void table3(Doc& doc, const Table2Runs& aes128) {
  constexpr double kPaperCcmMbpsPerMhz = 4.43;  // the paper row's CCM figure
  doc.open("table3");
  for (const auto& e : baseline::table3_literature()) literature_row(doc, e);
  const baseline::LiteratureEntry paper = baseline::table3_mccp_paper_row();
  literature_row(doc, paper);
  const baseline::ImplementationResults impl = baseline::mccp_implementation();
  doc.open("MCCP (this simulator)")
      .text("platform", impl.device)
      .vs_paper("gcm_mbps_per_mhz", aes128.gcm4.aggregate_mbps / impl.frequency_mhz,
                paper.mbps_per_mhz, kTolMeasured)
      .vs_paper("ccm_mbps_per_mhz", aes128.ccm4.aggregate_mbps / impl.frequency_mhz,
                kPaperCcmMbpsPerMhz, kTolMeasured)
      .num("freq_mhz", impl.frequency_mhz)
      .num("slices", impl.slices)
      .num("brams", impl.brams)
      .close()
      .close();
}

// --- Table IV ----------------------------------------------------------------

void table4(Doc& doc, const CoreRun& gcm128) {
  using namespace mccp::reconfig;
  constexpr auto kCf = BitstreamStore::kCompactFlash;
  constexpr auto kRam = BitstreamStore::kRam;
  const struct {
    CoreImage img;
    double slices, brams, kb, cf_ms, ram_ms;
  } paper[] = {{CoreImage::kAesEncryptWithKs, 351, 4, 89, 380, 63},
               {CoreImage::kWhirlpool, 1153, 4, 97, 416, 69}};
  doc.open("table4");
  for (const auto& p : paper) {
    const Bitstream bs = bitstream_for(p.img);
    doc.open(image_name(p.img))
        .vs_paper("slices", bs.slices, p.slices, kTolMeasured)
        .vs_paper("brams", bs.brams, p.brams, kTolMeasured)
        .vs_paper("bitstream_kb", bs.size_bytes / 1024, p.kb, kTolMeasured)
        .count("cf_cycles", reconfiguration_cycles(p.img, kCf))
        .vs_paper("cf_ms", reconfiguration_seconds(p.img, kCf) * 1e3, p.cf_ms, kTolMeasured)
        .count("ram_cycles", reconfiguration_cycles(p.img, kRam))
        .vs_paper("ram_ms", reconfiguration_seconds(p.img, kRam) * 1e3, p.ram_ms, kTolMeasured)
        .close();
  }
  const ReconfigurableRegion region;
  doc.open("region")
      .vs_paper("slices", region.slices, 1280, kTolMeasured)
      .vs_paper("brams", region.brams, 16, kTolMeasured)
      .close();

  // SVII.B: bitstream caching is mandatory, and one swap costs far too
  // many packets for per-packet algorithm switching.
  const std::uint64_t swap = reconfiguration_cycles(CoreImage::kAesEncryptWithKs, kRam);
  doc.open("conclusions")
      .vs_paper("caching_speedup_cf_over_ram",
                reconfiguration_seconds(CoreImage::kWhirlpool, kCf) /
                    reconfiguration_seconds(CoreImage::kWhirlpool, kRam),
                416.0 / 69.0, kTolMeasured)
      .count("ram_swap_cycles", swap)
      .num("ram_swap_ms", static_cast<double>(swap) / (kMHz * 1e3))
      .num("ram_swap_in_2kb_gcm_packets",
           static_cast<double>(swap) / static_cast<double>(gcm128.cycles_2kb))
      .close()
      .close();
}

// --- SVII.A loop cycles and the CU instruction costs -------------------------

constexpr crypto::AesKeySize kKeySizes[3] = {crypto::AesKeySize::k128, crypto::AesKeySize::k192,
                                             crypto::AesKeySize::k256};

/// Measured loop periods and the T_SAES + T_FAES (+ T_XOR) decomposition
/// they imply; T_SAES is the AES core's block latency.
void loop_cycles(Doc& doc) {
  doc.open("loop_cycles");
  for (int k = 0; k < 3; ++k) {
    const double gcm = measure_core(CoreMode::kGcm, kKeyLens[k], 1).loop_cycles();
    const double cbc = measure_core(CoreMode::kCbcMac, kKeyLens[k], 2).loop_cycles();
    const double ccm = measure_core(CoreMode::kCcm, kKeyLens[k], 3).loop_cycles();
    const double saes = crypto::aes_core_cycles(kKeySizes[k]);
    doc.open(kKeyBits[k])
        .vs_paper("t_gcm", gcm, kPaperLoop[k][0], kTolTheory)
        .vs_paper("t_cbc", cbc, kPaperLoop[k][1], kTolTheory)
        .vs_paper("t_ccm_1core", ccm, kPaperLoop[k][2], kTolTheory)
        .vs_paper("t_saes", saes, kPaperLoop[k][3], kTolTheory)
        .num("t_faes", gcm - saes)
        .num("t_xor", cbc - gcm)
        .close();
  }
  doc.close();
}

void cu_costs(Doc& doc) {
  doc.open("cu_costs")
      .count("io_cycles", cu::kIoCycles)
      .count("start_cycles", cu::kStartCycles)
      .count("finalize_cycles", cu::kFinalizeCycles)
      .count("xor_cycles", cu::kXorCycles)
      .count("inc_cycles", cu::kIncCycles)
      .vs_paper("ghash_cycles", cu::kGhashCycles, 43, kTolTheory)
      .count("ghash_digit_iterations", crypto::gf128_digit_iterations(3))
      .vs_paper("controller_cycles_per_instruction", pb::kCyclesPerInstruction, 2, kTolTheory)
      .count("control_latency_cycles", top::kControlLatencyCycles)
      .close();
}

// --- CCM task mapping (SVII.A) -----------------------------------------------

constexpr struct {
  const char* id;
  top::CcmMapping mapping;
} kMappings[3] = {{"4x1", top::CcmMapping::kSingleCore},
                  {"2x2", top::CcmMapping::kPairPreferred},
                  {"adaptive", top::CcmMapping::kAdaptive}};

/// Sum of accept -> complete cycles over six 2 KB packets sent one at a
/// time.
std::uint64_t light_load_latency_sum(top::CcmMapping mapping) {
  host::Engine engine({.num_devices = 1, .device = {.num_cores = 4, .ccm_mapping = mapping}});
  Rng rng(9);
  engine.provision_key(1, rng.bytes(16));
  auto ch = engine.open_channel(host::ChannelMode::kCcm, 1, 8, 13);
  std::uint64_t total = 0;
  for (int i = 0; i < 6; ++i) {
    const auto& r = engine.submit_encrypt(ch, rng.bytes(13), {}, rng.bytes(2048)).wait();
    total += r.complete_cycle - r.accept_cycle;
  }
  return total;
}

/// 4x1 gives each packet one core (more throughput); 2x2 splits it over a
/// pair (about half the latency). Same 4 cores, same AES-128 traffic.
void ccm_mapping(Doc& doc) {
  constexpr std::size_t kPackets = 20;
  PlatformMeasurement sat[3];
  doc.open("ccm_mapping").open("saturation");
  for (int i = 0; i < 3; ++i) {
    sat[i] = ccm_platform(4, kMappings[i].mapping, 16, kPackets);
    doc.open(kMappings[i].id)
        .count("packets", kPackets)
        .count("makespan_cycles", sat[i].makespan_cycles)
        .count("latency_cycles_sum", sat[i].latency_cycles_sum)
        .num("aggregate_mbps", sat[i].aggregate_mbps)
        .num("mean_latency_us", sat[i].mean_latency_cycles / kMHz)
        .close();
  }
  doc.close()
      .open("ratios_4x1_over_2x2")
      .vs_paper("throughput", sat[0].aggregate_mbps / sat[1].aggregate_mbps, 856.0 / 786.0)
      .num("latency", sat[0].mean_latency_cycles / sat[1].mean_latency_cycles)
      .close()
      .open("light_load");
  for (const auto& m : kMappings) {
    const std::uint64_t sum = light_load_latency_sum(m.mapping);
    doc.open(m.id)
        .count("latency_cycles_sum", sum)
        .num("mean_latency_us", static_cast<double>(sum) / 6.0 / kMHz)
        .close();
  }
  doc.close().close();
}

// --- packet-size curve and core scaling ----------------------------------------

/// Single-core AES-128 throughput from one block to the 2 KB FIFO limit,
/// against the loop limits.
void packet_size(Doc& doc, const CoreRun& gcm_limit) {
  const CoreRun ccm_limit = measure_core(CoreMode::kCcm, 16, 6);
  doc.open("packet_size")
      .num("gcm_loop_cycles", gcm_limit.loop_cycles())
      .num("gcm_asymptote_mbps", gcm_limit.theoretical_mbps())
      .num("ccm_loop_cycles", ccm_limit.loop_cycles())
      .num("ccm_asymptote_mbps", ccm_limit.theoretical_mbps());
  Rng rng(77);
  Bytes key = rng.bytes(16);
  core::SingleCoreHarness hg(key), hc(key);
  for (std::size_t bytes : {16u, 64u, 128u, 256u, 512u, 1024u, 1536u, 2048u}) {
    const sim::Cycle gcm = hg.run(core_job(CoreMode::kGcm, bytes / 16, 91)).cycles;
    const sim::Cycle ccm = hc.run(core_job(CoreMode::kCcm, bytes / 16, 92)).cycles;
    const double gcm_mbps = mbps_from_cycles(bytes * 8, gcm);
    const double ccm_mbps = mbps_from_cycles(bytes * 8, ccm);
    const double gcm_pct = 100.0 * gcm_mbps / gcm_limit.theoretical_mbps();
    const double ccm_pct = 100.0 * ccm_mbps / ccm_limit.theoretical_mbps();
    doc.open(std::to_string(bytes))
        .count("gcm_cycles", gcm)
        .num("gcm_mbps", gcm_mbps)
        .count("ccm_cycles", ccm)
        .num("ccm_mbps", ccm_mbps);
    if (bytes == 2048)  // the paper's 2 KB share of the loop limit (Table II, AES-128)
      doc.vs_paper("gcm_pct_of_max", gcm_pct, 100.0 * 437 / 496)
          .vs_paper("ccm_pct_of_max", ccm_pct, 100.0 * 214 / 233);
    else
      doc.num("gcm_pct_of_max", gcm_pct).num("ccm_pct_of_max", ccm_pct);
    doc.close();
  }
  doc.close();
}

/// 1..8 cores under saturating 2 KB AES-GCM-128 traffic, six packets per
/// core, against N x the single-core 2 KB figure.
void core_scaling(Doc& doc, const CoreRun& single) {
  doc.open("core_scaling")
      .count("single_core_packet_cycles", single.cycles_2kb)
      .num("single_core_packet_mbps", single.packet_mbps())
      .num("single_core_theoretical_mbps", single.theoretical_mbps());
  for (std::size_t n = 1; n <= 8; ++n) {
    const PlatformMeasurement m = gcm_platform({.num_cores = n}, 16, 6 * n);
    const double ideal = static_cast<double>(n) * single.packet_mbps();
    doc.open(std::to_string(n)).count("packets", 6 * n).count("makespan_cycles", m.makespan_cycles);
    if (n == 4)  // Table II GCM 4x1, 2 KB
      doc.vs_paper("aggregate_mbps", m.aggregate_mbps, 1748);
    else
      doc.num("aggregate_mbps", m.aggregate_mbps);
    doc.num("ideal_mbps", ideal)
        .num("efficiency", m.aggregate_mbps / ideal)
        .count("busy_rejections", m.rejections)
        .close();
  }
  doc.close();
}

// --- SI-SII flexibility --------------------------------------------------------

/// The pipelined and mono-core rows are closed-form models
/// (baseline/pipelined_model.h); the MCCP row is Table II's 4-core 2 KB
/// AES-128 runs. "mix" is a 50/50 GCM/CCM byte mix on one engine.
void flexibility(Doc& doc, const Table2Runs& aes128) {
  const baseline::PipelinedGcmCore pipe;
  const double pipe_gcm = baseline::pipelined_gcm_mbps(pipe, 2048);
  const double pipe_ccm = baseline::pipelined_ccm_mbps(pipe);
  const double mono_gcm = baseline::mono_core_mbps({});
  const double mono_ccm = baseline::mono_core_mbps({104, 190.0});
  const double mccp_gcm = aes128.gcm4.aggregate_mbps;
  const double mccp_ccm = aes128.ccm4.aggregate_mbps;
  const double pipe_mix = baseline::mixed_traffic_mbps(0.5, pipe_gcm, pipe_ccm);
  const double mono_mix = baseline::mixed_traffic_mbps(0.5, mono_gcm, mono_ccm);
  const double mccp_mix = baseline::mixed_traffic_mbps(0.5, mccp_gcm, mccp_ccm);
  const baseline::ImplementationResults impl = baseline::mccp_implementation();
  auto row = [&doc](const char* id, double gcm, double ccm, double mix) -> Doc& {
    return doc.open(id).num("gcm_mbps", gcm).num("ccm_mbps", ccm).num("mix_mbps", mix);
  };
  doc.open("flexibility");
  row("pipelined_gcm_model", pipe_gcm, pipe_ccm, pipe_mix)
      .num("slices", pipe.slices)
      .num("brams", pipe.brams)
      .close();
  row("mono_core_model", mono_gcm, mono_ccm, mono_mix).close();
  row("mccp_4cores", mccp_gcm, mccp_ccm, mccp_mix)
      .num("slices", impl.slices)
      .num("brams", impl.brams)
      .close()
      .open("ratios")
      .num("pipelined_over_mccp_gcm", pipe_gcm / mccp_gcm)
      .num("mccp_over_pipelined_ccm", mccp_ccm / pipe_ccm)
      .num("mccp_over_pipelined_mix", mccp_mix / pipe_mix)
      .num("mccp_over_mono_mix", mccp_mix / mono_mix)
      .close()
      .close();
}

// --- design ablations ------------------------------------------------------------

/// Cycles for 40 x 256-byte GCM packets on 4 cores.
sim::Cycle small_packet_cycles(bool key_cache) {
  host::Engine engine({.device = {.num_cores = 4, .key_cache_enabled = key_cache}});
  Rng rng(1);
  engine.provision_key(1, rng.bytes(16));
  host::Channel ch = engine.open_channel(top::ChannelMode::kGcm, 1, 16, 12);
  const sim::Cycle start = engine.device(0).now();
  for (int i = 0; i < 40; ++i) engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(256));
  engine.wait_all();
  return engine.device(0).now() - start;
}

/// Submit -> complete cycle sums {voice, bulk} of 8 voice 160-byte CTR
/// packets queued behind 24 bulk 2 KB GCM packets, at bulk priority or
/// prioritized.
std::pair<std::uint64_t, std::uint64_t> qos_latency_sums(bool prioritized) {
  host::Engine engine({.device = {.num_cores = 4}});
  Rng rng(3);
  engine.provision_key(1, rng.bytes(16));
  host::Channel bulk_ch = engine.open_channel(top::ChannelMode::kGcm, 1, 16, 12);
  host::Channel voice_ch = engine.open_channel(top::ChannelMode::kCtr, 1);
  std::vector<host::Completion> bulk, voice;
  for (int i = 0; i < 24; ++i)
    bulk.push_back(engine.submit_encrypt(bulk_ch, rng.bytes(12), {}, rng.bytes(2048), 200));
  for (int i = 0; i < 8; ++i) {
    Bytes ctr = rng.bytes(16);
    ctr[14] = ctr[15] = 0;
    voice.push_back(
        engine.submit_encrypt(voice_ch, ctr, {}, rng.bytes(160), prioritized ? 0u : 200u));
  }
  engine.wait_all();
  auto sum = [](const std::vector<host::Completion>& jobs) {
    std::uint64_t total = 0;
    for (const host::Completion& job : jobs)
      total += job.result().complete_cycle - job.result().submit_cycle;
    return total;
  };
  return {sum(voice), sum(bulk)};
}

void ablations(Doc& doc, const PlatformMeasurement& default_gcm4) {
  // 1. Key Cache (SIV.A): without it every request re-expands the key.
  const sim::Cycle cached = small_packet_cycles(true), uncached = small_packet_cycles(false);
  const double cached_mbps = mbps_from_cycles(40 * 256 * 8, cached);
  const double uncached_mbps = mbps_from_cycles(40 * 256 * 8, uncached);
  doc.open("ablations")
      .open("key_cache")
      .count("enabled_cycles", cached)
      .num("enabled_mbps", cached_mbps)
      .count("disabled_cycles", uncached)
      .num("disabled_mbps", uncached_mbps)
      .num("benefit_pct", 100.0 * (cached_mbps / uncached_mbps - 1.0))
      .close();

  // 2. Task Scheduler latency per control instruction on Table II's 4-core
  // GCM-128 platform; the default latency is Table II's run itself.
  doc.open("control_latency");
  for (int latency : {8, top::kControlLatencyCycles, 64, 128, 256, 512}) {
    const PlatformMeasurement m =
        latency == top::kControlLatencyCycles
            ? default_gcm4
            : gcm_platform({.num_cores = 4, .control_latency_cycles = latency}, 16,
                           kPlatformPackets);
    doc.open(std::to_string(latency))
        .count("makespan_cycles", m.makespan_cycles)
        .num("aggregate_mbps", m.aggregate_mbps)
        .close();
  }
  doc.close();

  // 3. QoS priorities (SVIII extension): voice latency under bulk load.
  const auto [fifo_voice, fifo_bulk] = qos_latency_sums(false);
  const auto [prio_voice, prio_bulk] = qos_latency_sums(true);
  auto us = [](std::uint64_t sum, int n) { return static_cast<double>(sum) / n / kMHz; };
  doc.open("qos");
  for (const auto& [id, voice, bulk] : {std::tuple{"arrival_order", fifo_voice, fifo_bulk},
                                        std::tuple{"prioritized", prio_voice, prio_bulk}})
    doc.open(id)
        .count("voice_latency_cycles_sum", voice)
        .num("voice_latency_us", us(voice, 8))
        .count("bulk_latency_cycles_sum", bulk)
        .num("bulk_latency_us", us(bulk, 24))
        .close();
  doc.num("voice_speedup", us(fifo_voice, 8) / us(prio_voice, 8))
      .num("bulk_cost_pct", 100.0 * (us(prio_bulk, 24) / us(fifo_bulk, 24) - 1.0))
      .close()
      .close();
}

Doc paper_figures() {
  Table2Runs runs[3];
  for (int k = 0; k < 3; ++k) runs[k] = run_table2(kKeyLens[k]);
  const CoreRun gcm_seed5 = measure_core(CoreMode::kGcm, 16, 5);  // packet-size limit, core-scaling reference

  Doc doc;
  doc.num("clock_mhz", kMHz);
  table2(doc, runs);
  table3(doc, runs[0]);
  table4(doc, runs[0].gcm);
  loop_cycles(doc);
  ccm_mapping(doc);
  packet_size(doc, gcm_seed5);
  core_scaling(doc, gcm_seed5);
  flexibility(doc, runs[0]);
  ablations(doc, runs[0].gcm4);
  cu_costs(doc);
  return doc;
}

// --- golden check ------------------------------------------------------------------

/// Leaves of an object tree as text, by '/'-joined path.
void flatten(const json::Value& v, const std::string& path,
             std::map<std::string, std::string>& out) {
  if (v.is_object()) {
    for (const auto& [key, child] : v.as_object())
      flatten(child, path.empty() ? key : path + '/' + key, out);
  } else if (v.is_number()) {
    out[path] = Doc::fmt(v.as_number());
  } else {
    out[path] = v.is_string() ? JsonWriter::quote(v.as_string()) : "<not a number or string>";
  }
}

/// Every cell of `actual` must equal the golden's.
bool matches_golden(const std::string& actual, const char* golden_path) {
  std::map<std::string, std::string> want, got;
  try {
    flatten(json::parse_file(golden_path), "", want);
  } catch (const json::ParseError& e) {
    std::fprintf(stderr, "paper_figures: %s\n", e.what());
    return false;
  }
  flatten(json::parse(actual), "", got);
  std::size_t diffs = 0;
  auto report = [&](const std::string& path, const std::string& g, const std::string& a) {
    ++diffs;
    std::printf("  %s: golden %s, actual %s\n", path.c_str(), g.c_str(), a.c_str());
  };
  for (const auto& [path, g] : want) {
    auto it = got.find(path);
    if (it == got.end() || it->second != g)
      report(path, g, it == got.end() ? "<missing>" : it->second);
  }
  for (const auto& [path, a] : got)
    if (want.find(path) == want.end()) report(path, "<missing>", a);

  if (diffs == 0) {
    std::printf("paper_figures: all %zu cells match %s\n", got.size(), golden_path);
    return true;
  }
  JsonWriter::write_text_file("paper_figures.actual.json", actual);
  std::printf("paper_figures: %zu cell(s) differ from %s; the whole document is in "
              "paper_figures.actual.json\n",
              diffs, golden_path);
  return false;
}

}  // namespace
}  // namespace mccp::bench

int main(int argc, char** argv) {
  const char* golden = nullptr;
  if (argc == 3 && std::strcmp(argv[1], "--check") == 0) {
    golden = argv[2];
  } else if (argc != 1) {
    std::fprintf(stderr, "usage: paper_figures [--check GOLDEN]\n");
    return 2;
  }
  const mccp::bench::Doc doc = mccp::bench::paper_figures();
  for (const std::string& v : doc.violations())
    std::fprintf(stderr, "paper_figures: %s\n", v.c_str());
  bool ok = doc.violations().empty();
  if (golden == nullptr)
    std::printf("%s\n", doc.str().c_str());
  else
    ok = mccp::bench::matches_golden(doc.str(), golden) && ok;
  return ok ? 0 : 1;
}
