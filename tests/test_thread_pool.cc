/**
 * @file
 * Tests for the concurrency pieces the sweep engines share: the
 * work-stealing thread pool, the sim::fanOut cell loop, and the
 * single-flight ComputeOnce baseline map (its failure path included).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/compute_once.hh"
#include "common/thread_pool.hh"
#include "sim/sweep.hh"

namespace moatsim
{
namespace
{

TEST(ThreadPool, RunsEveryJobExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    std::vector<std::atomic<int>> hits(512);
    for (auto &h : hits)
        h = 0;
    for (size_t i = 0; i < hits.size(); ++i)
        pool.submit([&hits, i] { ++hits[i]; });
    pool.wait();
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroThreadsMeansHardwareConcurrency)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.threadCount(), ThreadPool::hardwareThreads());
    EXPECT_GE(ThreadPool::hardwareThreads(), 1u);
}

TEST(ThreadPool, SingleWorkerDrainsEverything)
{
    ThreadPool pool(1);
    std::atomic<int> sum{0};
    for (int i = 1; i <= 100; ++i)
        pool.submit([&sum, i] { sum += i; });
    pool.wait();
    EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, ReusableAfterWait)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 32; ++i)
            pool.submit([&count] { ++count; });
        pool.wait();
        EXPECT_EQ(count.load(), 32 * (round + 1));
    }
}

TEST(ThreadPool, JobsMaySubmitJobs)
{
    // wait() must cover work spawned by running jobs (a sweep cell
    // enqueuing follow-up cells).
    ThreadPool pool(3);
    std::atomic<int> count{0};
    for (int i = 0; i < 8; ++i) {
        pool.submit([&pool, &count] {
            ++count;
            pool.submit([&count] { ++count; });
        });
    }
    pool.wait();
    EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPool, MoreThreadsThanJobs)
{
    ThreadPool pool(8);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, WaitWithNothingSubmittedReturns)
{
    ThreadPool pool(2);
    pool.wait();
    SUCCEED();
}

TEST(FanOut, RunsEveryIndexAndRethrowsTheLowestFailure)
{
    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        std::vector<std::atomic<int>> ran(16);
        try {
            sim::fanOut(ran.size(), jobs, [&](size_t i) {
                ++ran[i];
                if (i == 3 || i == 11)
                    throw std::runtime_error(std::to_string(i));
            });
            FAIL() << "fanOut swallowed the failures";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "3");
        }
        for (const auto &r : ran)
            EXPECT_EQ(r.load(), 1);
    }
}

using Cache = ComputeOnce<int, std::string>;

TEST(ComputeOnce, ThrowingComputeLeavesNoEntryAndNextGetRecomputes)
{
    Cache cache;
    int computes = 0;
    EXPECT_THROW(cache.get(7,
                           [&]() -> Cache::Ptr {
                               ++computes;
                               throw std::runtime_error("boom");
                           }),
                 std::runtime_error);
    EXPECT_EQ(cache.size(), 0u);

    const auto value = cache.get(7, [&] {
        ++computes;
        return std::make_shared<const std::string>("ok");
    });
    EXPECT_EQ(*value, "ok");
    EXPECT_EQ(computes, 2);
    EXPECT_EQ(cache.size(), 1u);
    // Cached now: a further get neither computes nor copies.
    EXPECT_EQ(cache.get(7, [&]() -> Cache::Ptr {
                  ++computes;
                  return nullptr;
              }).get(),
              value.get());
    EXPECT_EQ(computes, 2);
}

TEST(ComputeOnce, EveryWaiterOnAFailedKeyGetsTheException)
{
    Cache cache;
    constexpr int kWaiters = 6;
    std::atomic<bool> computing{false};
    std::atomic<bool> release{false};
    std::atomic<int> arrived{0};
    std::atomic<int> waiterComputes{0};
    std::atomic<int> waiterFailures{0};

    std::thread owner([&] {
        EXPECT_THROW(cache.get(1,
                               [&]() -> Cache::Ptr {
                                   computing = true;
                                   while (!release)
                                       std::this_thread::yield();
                                   throw std::runtime_error("first");
                               }),
                     std::runtime_error);
    });
    while (!computing)
        std::this_thread::yield();

    std::vector<std::thread> waiters;
    for (int w = 0; w < kWaiters; ++w) {
        waiters.emplace_back([&] {
            ++arrived;
            try {
                cache.get(1, [&]() -> Cache::Ptr {
                    ++waiterComputes;
                    throw std::runtime_error("late");
                });
            } catch (const std::runtime_error &e) {
                if (std::string(e.what()) == "first")
                    ++waiterFailures;
            }
        });
    }
    // Let every waiter reach the shared future before the owner fails.
    while (arrived < kWaiters)
        std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    release = true;
    owner.join();
    for (auto &t : waiters)
        t.join();

    EXPECT_EQ(waiterComputes.load(), 0);
    EXPECT_EQ(waiterFailures.load(), kWaiters);
    EXPECT_EQ(cache.size(), 0u);
}

TEST(ComputeOnce, ConcurrentGettersOfOneKeyComputeOnce)
{
    Cache cache;
    constexpr int kGetters = 8;
    std::atomic<int> computes{0};
    std::atomic<bool> go{false};
    std::vector<Cache::Ptr> got(kGetters);
    std::vector<std::thread> getters;
    for (int g = 0; g < kGetters; ++g) {
        getters.emplace_back([&, g] {
            while (!go)
                std::this_thread::yield();
            got[g] = cache.get(42, [&] {
                ++computes;
                // Widen the window in which the others must block.
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
                return std::make_shared<const std::string>("v");
            });
        });
    }
    go = true;
    for (auto &t : getters)
        t.join();
    EXPECT_EQ(computes.load(), 1);
    EXPECT_EQ(cache.size(), 1u);
    for (const auto &p : got)
        EXPECT_EQ(p.get(), got[0].get());
}

} // namespace
} // namespace moatsim
