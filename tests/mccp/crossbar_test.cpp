// Cross Bar unit tests: grant discipline, word-per-cycle metering,
// round-robin fairness among granted cores, and a randomized check of the
// bitmask bookkeeping against a plain index-scan model of the same ports.
#include "mccp/crossbar.h"

#include <gtest/gtest.h>

#include <deque>

#include "common/rng.h"
#include "sim/simulation.h"

namespace mccp::top {
namespace {

struct XbHarness {
  std::vector<std::unique_ptr<core::CryptoCore>> cores;
  std::unique_ptr<CrossBar> xb;
  sim::Simulation sim;

  explicit XbHarness(std::size_t n) {
    std::vector<core::CryptoCore*> raw;
    for (std::size_t i = 0; i < n; ++i) {
      cores.push_back(std::make_unique<core::CryptoCore>("c" + std::to_string(i)));
      raw.push_back(cores.back().get());
    }
    xb = std::make_unique<CrossBar>(raw);
    sim.add(xb.get());  // cores not ticked: we inspect FIFOs directly
  }
};

TEST(CrossBar, PushWithoutGrantThrows) {
  XbHarness h(2);
  EXPECT_THROW(h.xb->push_words(0, {1, 2, 3}), std::logic_error);
}

TEST(CrossBar, DeliversOneWordPerCycle) {
  XbHarness h(1);
  h.xb->open_write(0);
  h.xb->push_words(0, {10, 20, 30});
  h.sim.run(1);
  EXPECT_EQ(h.cores[0]->in_fifo().size(), 1u);
  h.sim.run(2);
  EXPECT_EQ(h.cores[0]->in_fifo().size(), 3u);
  EXPECT_EQ(h.cores[0]->in_fifo().pop(), 10u);
}

TEST(CrossBar, RoundRobinSharesWriteBandwidth) {
  XbHarness h(2);
  h.xb->open_write(0);
  h.xb->open_write(1);
  h.xb->push_words(0, std::vector<std::uint32_t>(10, 0xA));
  h.xb->push_words(1, std::vector<std::uint32_t>(10, 0xB));
  h.sim.run(10);
  // One word per cycle total, alternating between the two lanes.
  EXPECT_EQ(h.cores[0]->in_fifo().size() + h.cores[1]->in_fifo().size(), 10u);
  EXPECT_EQ(h.cores[0]->in_fifo().size(), 5u);
  EXPECT_EQ(h.cores[1]->in_fifo().size(), 5u);
}

TEST(CrossBar, ReadDrainsGrantedCoreOnly) {
  XbHarness h(2);
  for (std::uint32_t w = 0; w < 4; ++w) {
    h.cores[0]->out_fifo().push(w);
    h.cores[1]->out_fifo().push(w + 100);
  }
  h.xb->open_read(0);
  h.sim.run(8);
  EXPECT_EQ(h.xb->take_output(0).size(), 4u);
  EXPECT_TRUE(h.xb->take_output(1).empty());
  EXPECT_EQ(h.cores[1]->out_fifo().size(), 4u);  // untouched without a grant
}

TEST(CrossBar, CloseClearsBuffersAndGrants) {
  XbHarness h(1);
  h.xb->open_write(0);
  h.xb->open_read(0);
  h.xb->push_words(0, {1, 2, 3, 4, 5, 6, 7, 8});
  h.sim.run(2);
  h.xb->close(0);
  EXPECT_FALSE(h.xb->write_granted(0));
  EXPECT_FALSE(h.xb->read_granted(0));
  EXPECT_EQ(h.xb->pending_input(0), 0u);
  std::size_t delivered = h.cores[0]->in_fifo().size();
  h.sim.run(5);
  EXPECT_EQ(h.cores[0]->in_fifo().size(), delivered);  // nothing moves after close
}

TEST(CrossBar, BackpressureWhenCoreFifoFull) {
  XbHarness h(1);
  h.xb->open_write(0);
  // Fill the core FIFO completely.
  while (!h.cores[0]->in_fifo().full()) h.cores[0]->in_fifo().push(0);
  h.xb->push_words(0, {1, 2, 3});
  h.sim.run(10);
  EXPECT_EQ(h.xb->pending_input(0), 3u);  // stalled, not dropped
  h.cores[0]->in_fifo().pop();
  h.sim.run(2);
  EXPECT_EQ(h.xb->pending_input(0), 2u);  // resumed after space appeared
}

TEST(CrossBar, ThroughputCountersAdvance) {
  XbHarness h(1);
  h.xb->open_write(0);
  h.xb->open_read(0);
  h.xb->push_words(0, {1, 2});
  h.cores[0]->out_fifo().push(9);
  h.sim.run(3);
  EXPECT_EQ(h.xb->words_in(), 2u);
  EXPECT_EQ(h.xb->words_out(), 1u);
}

/// The Cross Bar as a plain index scan over per-lane queues: the reference
/// the event-driven bookkeeping must reproduce word for word.
struct ScanModel {
  struct Lane {
    bool write = false, read = false;
    std::deque<std::uint32_t> inbox, outbox;
  };
  std::vector<Lane> lanes;
  std::size_t write_rr = 0, read_rr = 0;

  explicit ScanModel(std::size_t n) : lanes(n) {}

  void tick(std::vector<std::deque<std::uint32_t>>& in, std::vector<std::deque<std::uint32_t>>& out,
            std::size_t depth) {
    const std::size_t n = lanes.size();
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = (write_rr + k) % n;
      if (lanes[i].write && !lanes[i].inbox.empty() && in[i].size() < depth) {
        in[i].push_back(lanes[i].inbox.front());
        lanes[i].inbox.pop_front();
        write_rr = (i + 1) % n;
        break;
      }
    }
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = (read_rr + k) % n;
      if (lanes[i].read && !out[i].empty()) {
        lanes[i].outbox.push_back(out[i].front());
        out[i].pop_front();
        read_rr = (i + 1) % n;
        break;
      }
    }
  }
};

TEST(CrossBar, MatchesIndexScanModelUnderRandomTraffic) {
  for (std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{5}}) {
    XbHarness h(n);
    ScanModel model(n);
    std::vector<std::deque<std::uint32_t>> in(n), out(n);  // the model's core FIFOs
    const std::size_t depth = h.cores[0]->in_fifo().capacity();
    Rng rng(1000 + n);
    std::uint32_t next_word = 1;
    for (int cycle = 0; cycle < 20000; ++cycle) {
      const std::size_t i = rng.next_below(n);
      switch (rng.next_below(12)) {
        case 0:
          h.xb->open_write(i);
          model.lanes[i].write = true;
          break;
        case 1:
          h.xb->open_read(i);
          model.lanes[i].read = true;
          break;
        case 2:
          if (rng.next_below(4) == 0) {
            h.xb->close(i);
            model.lanes[i] = ScanModel::Lane{};
          }
          break;
        case 3:
        case 4:
          if (model.lanes[i].write) {
            std::vector<std::uint32_t> words(1 + rng.next_below(40));
            for (auto& w : words) w = next_word++;
            h.xb->push_words(i, words);
            model.lanes[i].inbox.insert(model.lanes[i].inbox.end(), words.begin(), words.end());
          }
          break;
        case 5:  // the unit consumes input (LOAD)
          for (int k = 0; k < 4 && !in[i].empty(); ++k) {
            ASSERT_EQ(h.cores[i]->in_fifo().pop(), in[i].front());
            in[i].pop_front();
          }
          break;
        case 6:  // the unit produces output (STORE)
          for (int k = 0; k < 4 && out[i].size() < depth; ++k) {
            h.cores[i]->out_fifo().push(next_word);
            out[i].push_back(next_word++);
          }
          break;
        case 7: {  // the host collects drained words
          std::vector<std::uint32_t> got;
          h.xb->take_output_into(i, got);
          ASSERT_EQ(got, std::vector<std::uint32_t>(model.lanes[i].outbox.begin(),
                                                    model.lanes[i].outbox.end()));
          model.lanes[i].outbox.clear();
          break;
        }
        default:
          break;
      }
      // quiet() is exactly "a tick would move nothing and no outbox holds words".
      bool model_quiet = true;
      std::size_t outbox_words = 0;
      for (std::size_t j = 0; j < n; ++j) {
        const auto& l = model.lanes[j];
        outbox_words += l.outbox.size();
        if (!l.outbox.empty() || (l.write && !l.inbox.empty() && in[j].size() < depth) ||
            (l.read && !out[j].empty()))
          model_quiet = false;
      }
      ASSERT_EQ(h.xb->quiet(), model_quiet) << "n=" << n << " cycle " << cycle;
      ASSERT_EQ(h.xb->output_words(), outbox_words) << "n=" << n << " cycle " << cycle;

      h.sim.step();
      model.tick(in, out, depth);
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ(h.cores[j]->in_fifo().size(), in[j].size()) << "lane " << j << " cycle " << cycle;
        ASSERT_EQ(h.cores[j]->out_fifo().size(), out[j].size()) << "lane " << j;
        ASSERT_EQ(h.xb->pending_input(j), model.lanes[j].inbox.size()) << "lane " << j;
        ASSERT_EQ(h.xb->write_granted(j), model.lanes[j].write);
        ASSERT_EQ(h.xb->read_granted(j), model.lanes[j].read);
      }
    }
    EXPECT_GT(h.xb->words_in(), 1000u) << "n=" << n;
    EXPECT_GT(h.xb->words_out(), 1000u) << "n=" << n;
  }
}

}  // namespace
}  // namespace mccp::top
