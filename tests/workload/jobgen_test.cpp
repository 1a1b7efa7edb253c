// Per-class job generation — the presets are well-formed channel
// parameters, CTR IVs leave the INC core's counter space clear, and a
// stream is a pure function of (scenario seed, class index).
#include <gtest/gtest.h>

#include "crypto/ccm.h"
#include "workload/jobgen.h"

namespace mccp::workload {
namespace {

std::vector<GeneratedJob> take_all(const ClassSpec& spec, std::uint64_t seed,
                                   std::size_t class_index) {
  ClassJobStream stream(spec, seed, class_index, /*max_cycles=*/0);
  std::vector<GeneratedJob> jobs;
  while (!stream.exhausted()) jobs.push_back(stream.take());
  return jobs;
}

TEST(JobGen, PresetsAreWellFormed) {
  for (const char* name : {"voip", "video", "bulk", "control", "whirlpool"}) {
    const ChannelClass p = preset_class(name);
    EXPECT_EQ(p.name, name);
    EXPECT_TRUE(p.key_len == 16 || p.key_len == 24 || p.key_len == 32) << name;
    if (p.mode == ChannelMode::kCcm) {
      EXPECT_TRUE(crypto::ccm_params_valid({p.tag_len, p.nonce_len})) << name;
    }
  }
}

TEST(JobGen, CtrCountersAreIncSafe) {
  const auto jobs = take_all({.profile = preset_class("voip"), .packets = 20}, 7, 0);
  ASSERT_EQ(jobs.size(), 20u);
  for (const GeneratedJob& g : jobs) {
    ASSERT_EQ(g.job.iv_or_nonce.size(), 16u);
    EXPECT_EQ(g.job.iv_or_nonce[14], 0);
    EXPECT_EQ(g.job.iv_or_nonce[15], 0);
  }
}

TEST(JobGen, StreamIsAPureFunctionOfSeedAndClass) {
  const ClassSpec spec{.profile = preset_class("video"), .packets = 10};
  const auto a = take_all(spec, 99, 1);
  const auto b = take_all(spec, 99, 1);
  ASSERT_EQ(a.size(), 10u);
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].job.iv_or_nonce, b[i].job.iv_or_nonce);
    EXPECT_EQ(a[i].job.aad, b[i].job.aad);
    EXPECT_EQ(a[i].job.payload, b[i].job.payload);
  }
  EXPECT_NE(take_all(spec, 100, 1)[0].job.payload, a[0].job.payload);  // other seed
  EXPECT_NE(take_all(spec, 99, 2)[0].job.payload, a[0].job.payload);   // other class
}

}  // namespace
}  // namespace mccp::workload
