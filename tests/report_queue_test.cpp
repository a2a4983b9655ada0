// Bounded MPMC report queue: FIFO per producer, backpressure on a full
// queue, and clean shutdown that drains everything already enqueued.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "core/report_queue.h"
#include "obs/names.h"
#include "obs/registry.h"

namespace wiscape::core {
namespace {

// Tags a record so tests can recover (producer, sequence) after dequeue.
trace::measurement_record tagged(std::uint64_t producer, double seq) {
  trace::measurement_record r;
  r.client_id = producer;
  r.time_s = seq;
  return r;
}

TEST(ReportQueue, RejectsZeroCapacity) {
  EXPECT_THROW(report_queue(0), std::invalid_argument);
}

TEST(ReportQueue, SingleThreadFifo) {
  report_queue q(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.push(tagged(1, i)));
  EXPECT_EQ(q.size(), 5u);
  std::vector<trace::measurement_record> out;
  EXPECT_EQ(q.pop_batch(out, 3), 3u);
  EXPECT_EQ(q.pop_batch(out, 100), 2u);
  ASSERT_EQ(out.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(out[i].time_s, i);
  EXPECT_EQ(q.size(), 0u);
}

TEST(ReportQueue, FifoPerProducerUnderConcurrency) {
  constexpr std::uint64_t kProducers = 4;
  constexpr std::size_t kPerProducer = 2000;
  report_queue q(64);

  std::vector<std::thread> producers;
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.push(tagged(p, static_cast<double>(i))));
      }
    });
  }

  std::vector<trace::measurement_record> drained;
  std::thread consumer([&] {
    std::vector<trace::measurement_record> batch;
    while (drained.size() < kProducers * kPerProducer) {
      batch.clear();
      if (q.pop_batch(batch, 128) == 0) break;
      drained.insert(drained.end(), batch.begin(), batch.end());
    }
  });
  for (auto& t : producers) t.join();
  q.close();
  consumer.join();

  ASSERT_EQ(drained.size(), kProducers * kPerProducer);
  // Each producer's records appear in its push order.
  std::vector<double> next(kProducers, 0.0);
  for (const auto& rec : drained) {
    ASSERT_LT(rec.client_id, kProducers);
    EXPECT_EQ(rec.time_s, next[rec.client_id]);
    next[rec.client_id] += 1.0;
  }
}

TEST(ReportQueue, FullQueueBlocksProducerUntilConsumed) {
  report_queue q(2);
  ASSERT_TRUE(q.push(tagged(1, 0)));
  ASSERT_TRUE(q.push(tagged(1, 1)));

  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    ASSERT_TRUE(q.push(tagged(1, 2)));  // blocks until the consumer pops
    third_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_pushed.load()) << "push returned while queue was full";

  std::vector<trace::measurement_record> out;
  EXPECT_EQ(q.pop_batch(out, 1), 1u);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(q.pop_batch(out, 10), 2u);
  ASSERT_EQ(out.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(out[i].time_s, i);  // FIFO held
}

TEST(ReportQueue, CloseDrainsEnqueuedItemsThenReturnsZero) {
  report_queue q(16);
  for (int i = 0; i < 7; ++i) ASSERT_TRUE(q.push(tagged(1, i)));
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.push(tagged(1, 100)));  // no new items after close

  std::vector<trace::measurement_record> out;
  EXPECT_EQ(q.pop_batch(out, 4), 4u);
  EXPECT_EQ(q.pop_batch(out, 4), 3u);  // the remainder drains
  EXPECT_EQ(q.pop_batch(out, 4), 0u);  // then consumers see shutdown
  ASSERT_EQ(out.size(), 7u);
  for (int i = 0; i < 7; ++i) EXPECT_EQ(out[i].time_s, i);
}

TEST(ReportQueue, CloseUnblocksWaitingProducerAndConsumer) {
  report_queue q(1);
  ASSERT_TRUE(q.push(tagged(1, 0)));
  std::thread blocked_producer([&] {
    EXPECT_FALSE(q.push(tagged(1, 1)));  // full; close() must release it
  });
  report_queue empty_q(1);
  std::thread blocked_consumer([&] {
    std::vector<trace::measurement_record> out;
    EXPECT_EQ(empty_q.pop_batch(out, 8), 0u);  // empty; close() releases it
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  empty_q.close();
  blocked_producer.join();
  blocked_consumer.join();
}

// A batch crosses whole through push_owned (the one batch push).
TEST(ReportQueue, PushBatchEnqueuesAllInOrder) {
  report_queue q(64);
  std::vector<trace::measurement_record> batch;
  for (int i = 0; i < 10; ++i) batch.push_back(tagged(1, i));
  EXPECT_EQ(q.push_owned(batch), 10u);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(q.size(), 10u);
  std::vector<trace::measurement_record> out;
  EXPECT_EQ(q.pop_batch(out, 100), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[i].time_s, i);
  std::vector<trace::measurement_record> none;
  EXPECT_EQ(q.push_owned(none), 0u);  // empty batch is a no-op
  EXPECT_EQ(q.size(), 0u);
}

TEST(ReportQueue, PushBatchStaysContiguousAcrossProducers) {
  // Two producers batch-push concurrently into a roomy queue: each batch
  // must land contiguous (one lock hold), in order, nothing interleaved.
  constexpr std::size_t kBatch = 50;
  report_queue q(256);
  auto make = [](std::uint64_t p) {
    std::vector<trace::measurement_record> batch;
    for (std::size_t i = 0; i < kBatch; ++i) {
      batch.push_back(tagged(p, static_cast<double>(i)));
    }
    return batch;
  };
  std::thread a([&] {
    auto batch = make(1);
    EXPECT_EQ(q.push_owned(batch), kBatch);
  });
  std::thread b([&] {
    auto batch = make(2);
    EXPECT_EQ(q.push_owned(batch), kBatch);
  });
  a.join();
  b.join();
  std::vector<trace::measurement_record> out;
  EXPECT_EQ(q.pop_batch(out, 2 * kBatch), 2 * kBatch);
  // Batches didn't interleave: the producer id changes at most once.
  int switches = 0;
  for (std::size_t i = 1; i < out.size(); ++i) {
    if (out[i].client_id != out[i - 1].client_id) ++switches;
  }
  EXPECT_LE(switches, 1);
  // And within each batch the order held.
  std::vector<double> next(3, 0.0);
  for (const auto& rec : out) {
    EXPECT_EQ(rec.time_s, next[rec.client_id]);
    next[rec.client_id] += 1.0;
  }
}

TEST(ReportQueue, PushBatchAfterCloseDropsEverything) {
  report_queue q(8);
  q.close();
  std::vector<trace::measurement_record> batch{tagged(1, 0), tagged(1, 1)};
  EXPECT_EQ(q.push_owned(batch), 0u);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(q.size(), 0u);
}

// size() is the depth monitors and the shedding check poll from other
// threads: a lock-free read that never exceeds capacity, tracks every
// push and pop, and (under TSan) never races the mutex-held writers.
TEST(ReportQueue, SizeIsALockFreeDepthReadAcrossPushesAndPops) {
  static_assert(noexcept(std::declval<const report_queue&>().size()));
  constexpr std::size_t kCap = 16;
  report_queue q(kCap);
  ASSERT_TRUE(q.push(tagged(1, 0)));
  ASSERT_TRUE(q.push(tagged(1, 1)));
  const std::vector<trace::measurement_record> five(5, tagged(2, 0));
  std::vector<trace::measurement_record> batch = five;
  ASSERT_EQ(q.push_owned(batch), 5u);
  EXPECT_EQ(q.size(), 7u);
  std::vector<trace::measurement_record> out;
  ASSERT_EQ(q.pop_batch(out, 4), 4u);
  EXPECT_EQ(q.size(), 3u);

  std::atomic<bool> done{false};
  std::atomic<std::size_t> over_capacity{0};
  std::thread monitor([&] {
    while (!done.load(std::memory_order_relaxed)) {
      if (q.size() > kCap) over_capacity.fetch_add(1);
    }
  });
  std::thread producer([&] {
    for (int i = 0; i < 2000; ++i) {
      batch.assign(five.begin(), five.end());
      ASSERT_TRUE(q.push_owned(batch) == five.size());
    }
  });
  std::size_t drained = 0;
  while (drained < 3 + 2000 * five.size()) {
    out.clear();
    drained += q.pop_batch(out, 7);
  }
  producer.join();
  done.store(true, std::memory_order_relaxed);
  monitor.join();
  EXPECT_EQ(over_capacity.load(), 0u);
  EXPECT_EQ(q.size(), 0u);
}

TEST(ReportQueue, WaitEmptyReturnsOnceConsumed) {
  report_queue q(8);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.push(tagged(1, i)));
  std::thread consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::vector<trace::measurement_record> out;
    q.pop_batch(out, 8);
  });
  q.wait_empty();
  EXPECT_EQ(q.size(), 0u);
  consumer.join();
}

// ---- the batch ring: owned hand-offs, prefix pops, recycling ---------------

std::vector<trace::measurement_record> run(std::uint64_t producer, int from,
                                           int count) {
  std::vector<trace::measurement_record> out;
  for (int i = from; i < from + count; ++i) out.push_back(tagged(producer, i));
  return out;
}

TEST(ReportQueue, FifoAcrossOwnedAndCopiedPushes) {
  report_queue q(64);
  auto owned = run(1, 0, 5);
  ASSERT_EQ(q.push_owned(owned), 5u);
  EXPECT_TRUE(owned.empty());
  ASSERT_TRUE(q.push(tagged(1, 5)));
  owned = run(1, 6, 4);
  ASSERT_EQ(q.push_owned(owned), 4u);
  ASSERT_TRUE(q.push(tagged(1, 10)));
  owned = run(1, 11, 9);
  ASSERT_EQ(q.push_owned(owned), 9u);
  EXPECT_EQ(q.size(), 20u);
  std::vector<trace::measurement_record> out;
  // Uneven pops cut batches at every kind of boundary.
  for (const std::size_t max : {3u, 1u, 7u, 2u, 100u}) q.pop_batch(out, max);
  ASSERT_EQ(out.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(out[i].time_s, i);
  EXPECT_EQ(q.size(), 0u);
}

TEST(ReportQueue, PopBatchHonoursMaxExactlyWithPrefixSplit) {
  report_queue q(64);
  for (int b = 0; b < 3; ++b) {
    auto batch = run(1, 5 * b, 5);
    batch.reserve(64);  // big enough to be swapped out whole
    ASSERT_EQ(q.push_owned(batch), 5u);
  }
  std::vector<trace::measurement_record> out;
  // 7 = the whole first batch (swapped out) + a 2-record prefix of the next.
  EXPECT_EQ(q.pop_batch(out, 7), 7u);
  ASSERT_EQ(out.size(), 7u);
  EXPECT_EQ(q.size(), 8u);
  // A prefix of a partly popped batch, then exactly max again.
  std::vector<trace::measurement_record> more;
  EXPECT_EQ(q.pop_batch(more, 2), 2u);
  EXPECT_EQ(q.pop_batch(more, 4), 4u);
  EXPECT_EQ(q.pop_batch(more, 4), 2u);  // only 2 left
  out.insert(out.end(), more.begin(), more.end());
  ASSERT_EQ(out.size(), 15u);
  for (int i = 0; i < 15; ++i) EXPECT_EQ(out[i].time_s, i);
  // A batch larger than max comes out as prefixes of exactly max.
  auto big = run(2, 0, 10);
  ASSERT_EQ(q.push_owned(big), 10u);
  std::vector<trace::measurement_record> a, b, c;
  EXPECT_EQ(q.pop_batch(a, 4), 4u);
  EXPECT_EQ(q.pop_batch(b, 4), 4u);
  EXPECT_EQ(q.pop_batch(c, 4), 2u);
  EXPECT_EQ(a.front().time_s, 0);
  EXPECT_EQ(b.front().time_s, 4);
  EXPECT_EQ(c.back().time_s, 9);
  // Appending to a non-empty out never swaps it away.
  std::vector<trace::measurement_record> kept{tagged(9, -1)};
  auto tail = run(3, 0, 3);
  tail.reserve(64);
  ASSERT_EQ(q.push_owned(tail), 3u);
  EXPECT_EQ(q.pop_batch(kept, 64), 3u);
  ASSERT_EQ(kept.size(), 4u);
  EXPECT_EQ(kept.front().client_id, 9u);
  EXPECT_EQ(kept.back().time_s, 2);
}

TEST(ReportQueue, OwnedBatchLargerThanCapacityFedInGulps) {
  constexpr std::size_t kBatch = 100;
  report_queue q(8);
  auto batch = run(1, 0, static_cast<int>(kBatch));
  std::vector<trace::measurement_record> drained;
  std::atomic<std::size_t> deepest{0};
  std::thread consumer([&] {
    std::vector<trace::measurement_record> out;
    while (drained.size() < kBatch) {
      deepest.store(std::max(deepest.load(), q.size()));
      out.clear();
      if (q.pop_batch(out, 3) == 0) break;
      drained.insert(drained.end(), out.begin(), out.end());
    }
  });
  EXPECT_EQ(q.push_owned(batch), kBatch);
  EXPECT_TRUE(batch.empty());
  consumer.join();
  EXPECT_LE(deepest.load(), 8u);
  ASSERT_EQ(drained.size(), kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) EXPECT_EQ(drained[i].time_s, i);
}

TEST(ReportQueue, CloseReleasesProducerBlockedWithOwnedBatch) {
  auto& rejected =
      obs::registry::global().get_counter(obs::names::kQueueRejected);
  report_queue q(4);
  auto first = run(1, 0, 3);
  ASSERT_EQ(q.push_owned(first), 3u);
  const std::uint64_t rejected0 = rejected.value();
  std::atomic<bool> returned{false};
  std::thread producer([&] {
    auto batch = run(1, 3, 2);  // 3 + 2 > 4: waits to fit whole
    EXPECT_EQ(q.push_owned(batch), 0u);
    EXPECT_TRUE(batch.empty());
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(returned.load()) << "push_owned returned while it did not fit";
  q.close();
  producer.join();
  EXPECT_EQ(rejected.value() - rejected0, 2u);
  // What was enqueued before close still drains.
  std::vector<trace::measurement_record> out;
  EXPECT_EQ(q.pop_batch(out, 10), 3u);
  EXPECT_EQ(q.pop_batch(out, 10), 0u);
}

TEST(ReportQueue, RecycledVectorsComeBackAndHugeOnesAreReleased) {
  report_queue q(4096);
  // A drained batch's vector is recycled: the next owned push gets it back
  // empty, with its capacity, so refilling it allocates nothing.
  auto a = run(1, 0, 4);
  a.reserve(16);
  const auto* storage = a.data();
  ASSERT_EQ(q.push_owned(a), 4u);
  std::vector<trace::measurement_record> out;
  ASSERT_EQ(q.pop_batch(out, 32), 4u);  // 16 < 32: copied out, recycled
  auto b = run(1, 4, 1);
  ASSERT_EQ(q.push_owned(b), 1u);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.capacity(), 16u);
  EXPECT_EQ(b.data(), storage);
  out.clear();
  ASSERT_EQ(q.pop_batch(out, 32), 1u);

  // A vector above the cap is released instead.
  report_queue big_q(4096);
  auto huge = run(2, 0, 1);
  huge.reserve(report_queue::max_recycled_capacity + 1);
  ASSERT_EQ(big_q.push_owned(huge), 1u);
  out.clear();
  ASSERT_EQ(big_q.pop_batch(out, 4096), 1u);  // copied out, then released
  auto c = run(2, 1, 1);
  ASSERT_EQ(big_q.push_owned(c), 1u);
  EXPECT_LE(c.capacity(), report_queue::max_recycled_capacity);
}

}  // namespace
}  // namespace wiscape::core
