// Private per-core dormancy (CryptoCore::private_dormancy/skip_dormant, the
// shortcut Mccp::tick takes for a parked core on a dormant unit) against
// plain per-cycle tick(): a whole GCM task must finish on the same cycle
// with the same result, output words, retirement and busy counts. The
// stream is fed at most one word per cycle, as the crossbar does, so the
// skips run while the core's input FIFO keeps changing underneath them; a
// starved feed also parks the controller on LOADs waiting for words, which
// no skip may step over.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/crypto_core.h"
#include "core/stream_format.h"
#include "crypto/aes.h"

namespace mccp::core {
namespace {

struct Fixture {
  CoreJob job;
  Bytes key = Bytes(16, 0x42);

  Fixture() {
    Bytes iv(12), aad(8), pt(160);
    for (std::size_t i = 0; i < iv.size(); ++i) iv[i] = static_cast<std::uint8_t>(i + 1);
    for (std::size_t i = 0; i < aad.size(); ++i) aad[i] = static_cast<std::uint8_t>(0xA0 + i);
    for (std::size_t i = 0; i < pt.size(); ++i) pt[i] = static_cast<std::uint8_t>(i * 7);
    job = format_gcm_encrypt(iv, aad, pt);
  }

  void prime(CryptoCore& c) const {
    c.load_round_keys(crypto::aes_expand_key(key));
    c.connect_shift_in(&c.shift_out());
    // Let the firmware reach its idle HALT before the start strobe.
    for (int i = 0; i < 100 && !c.controller().halted(); ++i) c.tick();
    c.start_task(job.params);
  }
};

/// Run the task to done, feeding one stream word every `feed_every` cycles
/// while the FIFO has room. `skipping` takes Mccp::tick's per-core decision
/// every cycle.
sim::Cycle run_task(CryptoCore& c, const CoreJob& job, sim::Cycle feed_every, bool skipping,
                    std::uint64_t* skips) {
  std::size_t fed = 0;
  sim::Cycle cycles = 0;
  while (!c.done_pending() && cycles < 200000) {
    if (cycles % feed_every == 0 && fed < job.stream.size() && !c.in_fifo().full())
      c.in_fifo().push(job.stream[fed++]);
    const std::uint64_t h = skipping ? c.private_dormancy() : 0;
    if (h >= 2) {
      c.skip_dormant(h);
      ++*skips;
    } else {
      c.tick();
    }
    ++cycles;
  }
  // Count out any skip still outstanding so both cores end in step.
  for (int k = 0; k < 1000 && c.skip_remaining() != 0; ++k) {
    c.tick();
    ++cycles;
  }
  EXPECT_EQ(c.skip_remaining(), 0u);
  return cycles;
}

void expect_skipping_matches_ticking(sim::Cycle feed_every) {
  Fixture f;
  CryptoCore ref{"ref"}, fast{"fast"};
  f.prime(ref);
  f.prime(fast);
  std::uint64_t ref_skips = 0, skips = 0;
  const sim::Cycle ref_cycles = run_task(ref, f.job, feed_every, false, &ref_skips);
  const sim::Cycle cycles = run_task(fast, f.job, feed_every, true, &skips);
  ASSERT_TRUE(ref.done_pending());
  ASSERT_TRUE(fast.done_pending());
  EXPECT_GT(skips, 0u);  // the shortcut was taken

  EXPECT_EQ(cycles, ref_cycles);
  EXPECT_EQ(fast.result(), ref.result());
  EXPECT_EQ(fast.busy_cycles(), ref.busy_cycles());
  EXPECT_EQ(fast.controller().instructions_retired(), ref.controller().instructions_retired());
  EXPECT_EQ(fast.unit().ops_executed(), ref.unit().ops_executed());
  EXPECT_EQ(fast.unit().aes_blocks(), ref.unit().aes_blocks());
  std::vector<std::uint32_t> out_ref, out_fast;
  while (!ref.out_fifo().empty()) out_ref.push_back(ref.out_fifo().pop());
  while (!fast.out_fifo().empty()) out_fast.push_back(fast.out_fifo().pop());
  EXPECT_EQ(out_fast, out_ref);
  EXPECT_EQ(out_ref.size(), f.job.expected_output_words);
}

TEST(CryptoCorePrivateDormancy, MatchesPerCycleTick) {
  for (sim::Cycle feed_every : {1u, 7u}) {
    SCOPED_TRACE(feed_every);
    expect_skipping_matches_ticking(feed_every);
  }
}

TEST(CryptoCorePrivateDormancy, CoreInASkipRefusesSchedulerActions) {
  Fixture f;
  CryptoCore c{"c"};
  f.prime(c);
  for (std::uint32_t w : f.job.stream)
    if (!c.in_fifo().full()) c.in_fifo().push(w);
  // Tick until the controller parks on a dormant unit, then skip.
  std::uint64_t h = 0;
  for (int i = 0; i < 20000 && h < 2; ++i) {
    h = c.private_dormancy();
    if (h < 2) c.tick();
  }
  ASSERT_GE(h, 2u);
  c.skip_dormant(h);
  ASSERT_EQ(c.skip_remaining(), h - 1);
  EXPECT_EQ(c.quiet_horizon(), h - 1);
  EXPECT_EQ(c.private_dormancy(), 0u);

  EXPECT_THROW(c.start_task(f.job.params), std::logic_error);
  EXPECT_THROW(c.acknowledge_done(), std::logic_error);
  EXPECT_THROW(c.load_round_keys(crypto::aes_expand_key(f.key)), std::logic_error);
  EXPECT_THROW(c.set_personality(cu::CuPersonality::kWhirlpool), std::logic_error);
  EXPECT_THROW(c.advance_quiet(h), std::logic_error);  // past the skip

  // Counting the skip down (by ticks or a quiet burst) brings it back in step.
  c.advance_quiet(h - 2);
  EXPECT_EQ(c.skip_remaining(), 1u);
  c.tick();
  EXPECT_EQ(c.skip_remaining(), 0u);
}

}  // namespace
}  // namespace mccp::core
