#include "sim/fifo.h"

#include <gtest/gtest.h>

namespace mccp::sim {
namespace {

TEST(Fifo, FifoOrdering) {
  Fifo<int> f(4);
  f.push(1);
  f.push(2);
  f.push(3);
  EXPECT_EQ(f.pop(), 1);
  EXPECT_EQ(f.pop(), 2);
  EXPECT_EQ(f.pop(), 3);
  EXPECT_TRUE(f.empty());
}

TEST(Fifo, CapacityEnforced) {
  Fifo<int> f(2);
  EXPECT_TRUE(f.try_push(1));
  EXPECT_TRUE(f.try_push(2));
  EXPECT_TRUE(f.full());
  EXPECT_FALSE(f.try_push(3));
  EXPECT_THROW(f.push(3), std::overflow_error);
}

TEST(Fifo, UnderflowDetected) {
  Fifo<int> f(2);
  int v;
  EXPECT_FALSE(f.try_pop(v));
  EXPECT_THROW(f.pop(), std::underflow_error);
}

TEST(Fifo, SecureClearDropsEverything) {
  Fifo<std::uint32_t> f(kCoreFifoDepth);
  for (std::uint32_t i = 0; i < 100; ++i) f.push(i);
  f.clear();
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.size(), 0u);
}

TEST(Fifo, StatisticsTrackUsage) {
  Fifo<int> f(8);
  for (int i = 0; i < 5; ++i) f.push(i);
  f.pop();
  f.push(9);
  EXPECT_EQ(f.high_watermark(), 5u);
  EXPECT_EQ(f.total_pushed(), 6u);
}

TEST(Fifo, OrderSurvivesWrapAround) {
  // Interleaved pushes and pops walk the ring's indices past the end of
  // the storage many times; order, size and full/empty must not notice.
  Fifo<int> f(5);
  int next_in = 0, next_out = 0;
  for (int round = 0; round < 40; ++round) {
    for (int k = 0; k < 1 + round % 5 && !f.full(); ++k) f.push(next_in++);
    EXPECT_EQ(f.size(), static_cast<std::size_t>(next_in - next_out));
    for (int k = 0; k < 1 + (round * 3) % 4 && !f.empty(); ++k) {
      EXPECT_EQ(f.front(), next_out);
      EXPECT_EQ(f.pop(), next_out++);
    }
  }
  while (!f.empty()) EXPECT_EQ(f.pop(), next_out++);
  EXPECT_EQ(next_out, next_in);
  EXPECT_GT(next_in, 20);
}

TEST(Fifo, PaperGeometryHoldsA2KBPacket) {
  // 512 x 32-bit = 2048 bytes: exactly one maximum-size packet.
  Fifo<std::uint32_t> f(kCoreFifoDepth);
  for (std::size_t i = 0; i < kCoreFifoDepth; ++i)
    EXPECT_TRUE(f.try_push(static_cast<std::uint32_t>(i)));
  EXPECT_TRUE(f.full());
  EXPECT_EQ(f.capacity() * 4, 2048u);
}

}  // namespace
}  // namespace mccp::sim
