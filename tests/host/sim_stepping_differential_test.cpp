// Chip-stepping differential: a SimDevice driven only by step() (one
// scheduling round plus one chip cycle per call, never a quiet burst)
// against a twin driven by advance_to() bursts of random length. Both see
// the same submits at the same cycles; every job must end with the
// identical JobResult: submit, accept and complete cycles, busy
// rejections, auth verdict and bytes. This pins the burst path (the Mccp
// quiet horizon, honoured by the event-driven crossbar, request scan, swap
// countdowns and per-core skips) to cycle-by-cycle stepping. What a single
// tick does is pinned absolutely by tests/workload/sim_golden_test.cpp.
#include <gtest/gtest.h>

#include <vector>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/aes.h"
#include "crypto/cbc_mac.h"
#include "crypto/ccm.h"
#include "crypto/gcm.h"
#include "host/sim_device.h"

namespace mccp::host {
namespace {

struct Keys {
  Bytes k128, k192, k256;
};

std::vector<ChannelInfo> open_channels(SimDevice& dev, const Keys& keys) {
  dev.provision_key(1, keys.k128);
  dev.provision_key(2, keys.k256);
  dev.provision_key(3, keys.k192);
  std::vector<ChannelInfo> out;
  auto open = [&](ChannelMode mode, top::KeyId key, unsigned tag_len, unsigned nonce_len) {
    auto ch = dev.open_channel(mode, key, tag_len, nonce_len);
    EXPECT_TRUE(ch.has_value());
    out.push_back(*ch);
  };
  open(ChannelMode::kGcm, 1, 16, 12);       // 96-bit IV fast path
  open(ChannelMode::kGcm, 2, 12, 8);        // on-core GHASH J0 derivation
  open(ChannelMode::kCcm, 3, 8, 13);
  open(ChannelMode::kCcm, 1, 16, 7);
  open(ChannelMode::kCtr, 2, 16, 16);
  open(ChannelMode::kCbcMac, 1, 16, 0);
  open(ChannelMode::kWhirlpool, 0, 16, 0);  // forces an auto-reconfiguration
  return out;
}

const Bytes& key_of(const Keys& keys, top::KeyId id) {
  return id == 1 ? keys.k128 : id == 2 ? keys.k256 : keys.k192;
}

/// One random job on a random channel. Decrypts carry the correct tag half
/// of the time and a corrupted one otherwise.
JobSpec random_job(Rng& rng, const std::vector<ChannelInfo>& channels, const Keys& keys) {
  JobSpec s;
  s.channel = channels[rng.next_below(channels.size())];
  const ChannelInfo& ch = s.channel;
  const unsigned priorities[] = {0, 64, 128};
  s.priority = priorities[rng.next_below(3)];
  const std::size_t blocks = 1 + rng.next_below(48);
  const crypto::AesRoundKeys rk =
      ch.mode == ChannelMode::kWhirlpool ? crypto::AesRoundKeys{}
                                         : crypto::aes_expand_key(key_of(keys, ch.key_id));
  const bool good_tag = rng.next_below(2) == 0;
  switch (ch.mode) {
    case ChannelMode::kGcm: {
      s.iv_or_nonce = rng.bytes(ch.nonce_len);
      s.aad = rng.bytes(rng.next_below(40));
      s.payload = rng.bytes(16 * blocks);
      if (rng.next_below(3) == 0) {
        s.decrypt = true;
        auto sealed = crypto::gcm_seal(rk, s.iv_or_nonce, s.aad, s.payload, ch.tag_len);
        s.payload = sealed.ciphertext;
        s.tag = sealed.tag;
        if (!good_tag) s.tag[0] ^= 0x01;
      }
      break;
    }
    case ChannelMode::kCcm: {
      s.iv_or_nonce = rng.bytes(ch.nonce_len);
      s.aad = rng.bytes(rng.next_below(40));
      s.payload = rng.bytes(16 * blocks);
      if (rng.next_below(3) == 0) {
        s.decrypt = true;
        crypto::CcmParams p{ch.tag_len, ch.nonce_len};
        auto sealed = crypto::ccm_seal(rk, p, s.iv_or_nonce, s.aad, s.payload);
        s.payload = sealed.ciphertext;
        s.tag = sealed.tag;
        if (!good_tag) s.tag.back() ^= 0x80;
      }
      break;
    }
    case ChannelMode::kCtr: {
      s.iv_or_nonce = rng.bytes(16);
      s.iv_or_nonce[14] = s.iv_or_nonce[15] = 0;  // the INC core counts 16 bits
      s.payload = rng.bytes(16 * blocks);
      break;
    }
    case ChannelMode::kCbcMac: {
      s.payload = rng.bytes(16 * (blocks + 1));
      if (rng.next_below(2) == 0) {
        s.decrypt = true;  // verify
        const Block128 mac = crypto::cbc_mac(rk, s.payload);
        s.tag.assign(mac.b.begin(), mac.b.begin() + ch.tag_len);
        if (!good_tag) s.tag[3] ^= 0x10;
      }
      break;
    }
    case ChannelMode::kWhirlpool:
      s.payload = rng.bytes(rng.next_below(300));
      break;
  }
  return s;
}

struct Arrival {
  sim::Cycle cycle;
  JobSpec spec;
};

void expect_same_results(top::CcmMapping mapping, std::uint64_t seed) {
  top::MccpConfig cfg;
  cfg.num_cores = 4;
  cfg.ccm_mapping = mapping;
  cfg.reconfig_time_divisor = 64;
  SimDevice stepped(cfg, "stepped");
  SimDevice burst(cfg, "burst");

  Rng rng(seed);
  Keys keys{rng.bytes(16), rng.bytes(24), rng.bytes(32)};
  const std::vector<ChannelInfo> channels = open_channels(stepped, keys);
  const std::vector<ChannelInfo> twin = open_channels(burst, keys);
  ASSERT_EQ(channels.size(), twin.size());
  for (std::size_t i = 0; i < channels.size(); ++i) ASSERT_EQ(channels[i].id, twin[i].id);
  ASSERT_EQ(stepped.now(), burst.now());

  // Bursty arrivals: clumps of same-cycle submits separated by gaps that
  // range from back-to-back to long enough for the chip to drain.
  std::vector<Arrival> arrivals;
  sim::Cycle t = stepped.now();
  for (int i = 0; i < 48; ++i) {
    const std::uint64_t gap_kind = rng.next_below(4);
    t += gap_kind == 0 ? 0 : gap_kind == 1 ? rng.next_below(50) : rng.next_below(4000);
    arrivals.push_back({t, random_job(rng, channels, keys)});
  }

  std::vector<DeviceJobId> ids_a, ids_b;
  for (const Arrival& a : arrivals) {
    // A round that runs a control instruction spans that instruction's
    // cycles, so both drivers may land past the arrival, but never apart.
    while (stepped.now() < a.cycle) stepped.step();
    while (burst.now() < a.cycle)
      burst.advance_to(std::min<sim::Cycle>(a.cycle, burst.now() + 1 + rng.next_below(700)));
    ASSERT_EQ(burst.now(), stepped.now());
    ids_a.push_back(stepped.submit(a.spec));
    ids_b.push_back(burst.submit(a.spec));
  }
  const sim::Cycle limit = stepped.now() + 20'000'000;
  while (!stepped.idle()) {
    ASSERT_LT(stepped.now(), limit) << "stepped device never drained";
    stepped.step();
  }
  while (!burst.idle()) {
    ASSERT_LT(burst.now(), limit) << "burst device never drained";
    burst.advance_to(burst.now() + 1 + rng.next_below(5000));
  }

  std::size_t auth_failures = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const JobResult* a = stepped.result(ids_a[i]);
    const JobResult* b = burst.result(ids_b[i]);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_TRUE(a->complete && b->complete) << "job " << i;
    EXPECT_EQ(a->submit_cycle, b->submit_cycle) << "job " << i;
    EXPECT_EQ(a->accept_cycle, b->accept_cycle) << "job " << i;
    EXPECT_EQ(a->complete_cycle, b->complete_cycle) << "job " << i;
    EXPECT_EQ(a->rejections, b->rejections) << "job " << i;
    EXPECT_EQ(a->auth_ok, b->auth_ok) << "job " << i;
    EXPECT_EQ(to_hex(a->payload), to_hex(b->payload)) << "job " << i;
    EXPECT_EQ(to_hex(a->tag), to_hex(b->tag)) << "job " << i;
    if (!a->auth_ok) ++auth_failures;
  }
  // The mix really exercised the failure path and the swap path.
  EXPECT_GT(auth_failures, 0u);
  EXPECT_GT(stepped.reconfigurations(), 0u);
  EXPECT_EQ(stepped.reconfigurations(), burst.reconfigurations());
  EXPECT_EQ(stepped.reconfig_stall_cycles(), burst.reconfig_stall_cycles());
}

TEST(SimSteppingDifferential, BurstsMatchPerCycleStepsSingleCoreCcm) {
  for (std::uint64_t seed : {11u, 12u}) expect_same_results(top::CcmMapping::kSingleCore, seed);
}

TEST(SimSteppingDifferential, BurstsMatchPerCycleStepsSplitCcm) {
  for (std::uint64_t seed : {21u, 22u}) expect_same_results(top::CcmMapping::kPairPreferred, seed);
}

}  // namespace
}  // namespace mccp::host
