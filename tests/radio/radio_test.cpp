// Radio / communication-controller layer: channel lifecycle, resource
// exhaustion, decrypt-heavy traffic and end-to-end stats plumbing, driven
// through a one-device host::Engine on the cycle-accurate backend.
#include <gtest/gtest.h>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/ccm.h"
#include "crypto/gcm.h"
#include "host/engine.h"

namespace mccp::radio {
namespace {

using host::Channel;
using host::ChannelMode;
using host::Completion;
using host::Engine;

TEST(Radio, ChannelLifecycleOpenCloseReopen) {
  Engine engine({.device = {.num_cores = 2}});
  Rng rng(1);
  engine.provision_key(1, rng.bytes(16));
  Channel ch = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  ASSERT_TRUE(ch.valid());
  // Close the channel on the device itself, under the engine's handle.
  EXPECT_TRUE(engine.device(0).close_channel(ch.info().id));
  // Traffic on a closed channel fails cleanly (job completes unauthenticated).
  Completion job = engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(32));
  engine.wait_all();
  EXPECT_TRUE(job.result().complete);
  EXPECT_FALSE(job.result().auth_ok);
  // Re-open gets the freed channel id back.
  Channel ch2 = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  ASSERT_TRUE(ch2.valid());
  EXPECT_EQ(ch2.info().id, ch.info().id);
}

TEST(Radio, ChannelTableExhaustsAtSixtyFour) {
  Engine engine({.device = {.num_cores = 1}});
  engine.provision_key(1, Bytes(16, 1));
  host::Device& dev = engine.device(0);
  std::vector<host::ChannelInfo> handles;
  for (int i = 0; i < 64; ++i) {
    auto ch = dev.open_channel(ChannelMode::kCtr, 1);
    ASSERT_TRUE(ch.has_value()) << i;
    handles.push_back(*ch);
  }
  EXPECT_FALSE(dev.open_channel(ChannelMode::kCtr, 1).has_value());
  EXPECT_TRUE(dev.close_channel(handles[10].id));
  EXPECT_TRUE(dev.open_channel(ChannelMode::kCtr, 1).has_value());
}

TEST(Radio, DecryptHeavyTrafficMix) {
  // Seal a batch in software, decrypt everything through the platform.
  Engine engine({.device = {.num_cores = 4}});
  Rng rng(2);
  Bytes k1 = rng.bytes(16), k2 = rng.bytes(24);
  engine.provision_key(1, k1);
  engine.provision_key(2, k2);
  Channel gcm = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  Channel ccm = engine.open_channel(ChannelMode::kCcm, 2, 8, 13);
  ASSERT_TRUE(gcm.valid() && ccm.valid());
  auto keys1 = crypto::aes_expand_key(k1);
  auto keys2 = crypto::aes_expand_key(k2);

  struct Pkt {
    Completion job;
    Bytes pt;
  };
  std::vector<Pkt> pkts;
  for (int i = 0; i < 10; ++i) {
    Bytes pt = rng.bytes(16 * (1 + rng.next_below(30)));
    if (i % 2 == 0) {
      Bytes iv = rng.bytes(12), aad = rng.bytes(6);
      auto sealed = crypto::gcm_seal(keys1, iv, aad, pt);
      pkts.push_back({engine.submit_decrypt(gcm, iv, aad, sealed.ciphertext, sealed.tag), pt});
    } else {
      Bytes nonce = rng.bytes(13), aad = rng.bytes(4);
      auto sealed =
          crypto::ccm_seal(keys2, {.tag_len = 8, .nonce_len = 13}, nonce, aad, pt);
      pkts.push_back({engine.submit_decrypt(ccm, nonce, aad, sealed.ciphertext, sealed.tag), pt});
    }
  }
  engine.wait_all();
  for (const auto& p : pkts) {
    ASSERT_TRUE(p.job.result().complete);
    EXPECT_TRUE(p.job.result().auth_ok);
    EXPECT_EQ(to_hex(p.job.result().payload), to_hex(p.pt));
  }
}

TEST(Radio, GcmChannelWithNonStandardIvLength) {
  // OPEN carries the channel's IV length; non-96-bit IVs take the on-core
  // GHASH J0 derivation.
  Engine engine({.device = {.num_cores = 2}});
  Rng rng(9);
  Bytes key = rng.bytes(16);
  engine.provision_key(1, key);
  Channel ch = engine.open_channel(ChannelMode::kGcm, 1, /*tag=*/16, /*iv len=*/8);
  ASSERT_TRUE(ch.valid());
  Bytes iv = rng.bytes(8), pt = rng.bytes(128);
  Completion job = engine.submit_encrypt(ch, iv, {}, pt);
  engine.wait_all();
  auto ref = crypto::gcm_seal(crypto::aes_expand_key(key), iv, {}, pt);
  EXPECT_EQ(to_hex(job.result().payload), to_hex(ref.ciphertext));
  EXPECT_EQ(to_hex(job.result().tag), to_hex(ref.tag));
}

TEST(Radio, JobTimestampsAreOrdered) {
  Engine engine({.device = {.num_cores = 1}});
  Rng rng(3);
  engine.provision_key(1, rng.bytes(16));
  Channel ch = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  Completion job = engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(256));
  engine.wait_all();
  const auto& r = job.result();
  EXPECT_LE(r.submit_cycle, r.accept_cycle);
  EXPECT_LT(r.accept_cycle, r.complete_cycle);
}

TEST(Radio, PerCoreStatisticsAccumulate) {
  Engine engine({.device = {.num_cores = 2}});
  Rng rng(4);
  engine.provision_key(1, rng.bytes(16));
  Channel ch = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  for (int i = 0; i < 4; ++i) engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(512));
  engine.wait_all();
  const top::Mccp& mccp = engine.sim_device(0)->mccp();
  std::uint64_t total_tasks = 0, total_aes = 0;
  for (std::size_t i = 0; i < mccp.num_cores(); ++i) {
    total_tasks += mccp.core(i).tasks_completed();
    total_aes += mccp.core(i).unit().aes_blocks();
  }
  EXPECT_EQ(total_tasks, 4u);
  // 512 B = 32 blocks -> >= 33 AES per packet (keystream + H + wasted + tag).
  EXPECT_GE(total_aes, 4u * 34u);
  EXPECT_EQ(mccp.requests_completed(), 4u);
}

}  // namespace
}  // namespace mccp::radio
