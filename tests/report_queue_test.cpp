// Bounded MPMC report queue: FIFO per producer, backpressure on a full
// queue, and clean shutdown that drains everything already enqueued.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "core/report_queue.h"

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
  EXPECT_FALSE(q.try_push(tagged(1, 99)));  // full: non-blocking push fails

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

TEST(ReportQueue, PushBatchEnqueuesAllInOrder) {
  report_queue q(64);
  std::vector<trace::measurement_record> batch;
  for (int i = 0; i < 10; ++i) batch.push_back(tagged(1, i));
  EXPECT_EQ(q.push_batch(batch), 10u);
  EXPECT_EQ(q.size(), 10u);
  std::vector<trace::measurement_record> out;
  EXPECT_EQ(q.pop_batch(out, 100), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[i].time_s, i);
  EXPECT_EQ(q.push_batch({}), 0u);  // empty batch is a no-op
}

TEST(ReportQueue, PushBatchLargerThanCapacityFeedsThroughBackpressure) {
  // A batch bigger than the queue's capacity must flow through in gulps as
  // the consumer makes room, keeping order, losing nothing.
  constexpr std::size_t kBatch = 100;
  report_queue q(8);
  std::vector<trace::measurement_record> batch;
  for (std::size_t i = 0; i < kBatch; ++i) {
    batch.push_back(tagged(1, static_cast<double>(i)));
  }
  std::vector<trace::measurement_record> drained;
  std::thread consumer([&] {
    std::vector<trace::measurement_record> out;
    while (drained.size() < kBatch) {
      out.clear();
      if (q.pop_batch(out, 16) == 0) break;
      drained.insert(drained.end(), out.begin(), out.end());
    }
  });
  EXPECT_EQ(q.push_batch(batch), kBatch);
  q.close();
  consumer.join();
  ASSERT_EQ(drained.size(), kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) EXPECT_EQ(drained[i].time_s, i);
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
  std::thread a([&] { EXPECT_EQ(q.push_batch(make(1)), kBatch); });
  std::thread b([&] { EXPECT_EQ(q.push_batch(make(2)), kBatch); });
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
  EXPECT_EQ(q.push_batch(batch), 0u);
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
  ASSERT_TRUE(q.try_push(tagged(1, 1)));
  std::vector<trace::measurement_record> batch(5, tagged(2, 0));
  ASSERT_EQ(q.push_batch(batch), 5u);
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
      ASSERT_TRUE(q.push_batch(batch) == batch.size());
    }
  });
  std::size_t drained = 0;
  while (drained < 3 + 2000 * batch.size()) {
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

}  // namespace
}  // namespace wiscape::core
