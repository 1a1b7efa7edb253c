// CCM task-mapping walkthrough: the same packet processed on one core vs
// split across two cores through the inter-core ring (paper SIV.A/SIV.D),
// showing the throughput/latency trade-off of SVII.A first-hand.
//
//   $ ./build/examples/ccm_offload
#include <cstdio>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/ccm.h"
#include "host/engine.h"

using namespace mccp;

namespace {

double run_config(top::CcmMapping mapping, const char* label) {
  host::Engine engine({.num_devices = 1, .device = {.num_cores = 4, .ccm_mapping = mapping}});
  Rng rng(5);
  Bytes key = rng.bytes(16);
  engine.provision_key(1, key);
  auto ch = engine.open_channel(host::ChannelMode::kCcm, 1, /*tag=*/8, /*nonce=*/13);
  if (!ch) return 0;

  Bytes nonce = rng.bytes(13), aad = rng.bytes(10), pt = rng.bytes(2048);
  const host::JobResult& r = engine.submit_encrypt(ch, nonce, aad, pt).wait();

  // Validate against the software reference every time.
  auto ref = crypto::ccm_seal(crypto::aes_expand_key(key),
                              {.tag_len = 8, .nonce_len = 13}, nonce, aad, pt);
  bool ok = r.auth_ok && r.payload == ref.ciphertext && r.tag == ref.tag;

  double latency_us = static_cast<double>(r.complete_cycle - r.accept_cycle) / 190.0;
  std::printf("%-28s latency %7.1f us   tag %s   %s\n", label, latency_us,
              to_hex(r.tag).c_str(), ok ? "(matches reference)" : "(MISMATCH!)");
  return ok ? latency_us : 0;
}

}  // namespace

int main() {
  std::printf("AES-128-CCM, one 2 KB packet, 10-byte AAD:\n\n");
  double single = run_config(top::CcmMapping::kSingleCore, "1 core (CTR+CBC serial)");
  double paired = run_config(top::CcmMapping::kPairPreferred, "2 cores (CBC-MAC || CTR)");
  if (single == 0 || paired == 0) return 1;

  std::printf("\nsplit-CCM speedup on one packet: %.2fx (paper: T_CCM1/T_CBC = 104/55 = 1.89)\n",
              single / paired);
  std::printf(
      "\nThe flip side (paper SVII.A): with four cores, 4x1 single-core packets beat\n"
      "2x2 split pairs on total throughput — bench/paper_figures (ccm_mapping) has the "
      "numbers.\n");
  return 0;
}
