/**
 * @file
 * ThreadPool unit tests: submission-order results, exception
 * propagation, shutdown draining, and HSU_JOBS parsing.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/threadpool.hh"

namespace hsu
{
namespace
{

TEST(ThreadPool, ResultsComeBackInSubmissionOrder)
{
    ThreadPool pool(4);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 200; ++i)
        futures.push_back(pool.submit([i] { return i * i; }));
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, MoreJobsThanQueueBound)
{
    // 2 workers x queue_factor 1 = queue bound 2; submit() must block
    // and resume rather than drop or deadlock.
    ThreadPool pool(2, 1);
    std::atomic<int> ran{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 64; ++i) {
        futures.push_back(pool.submit([&ran] {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
            ++ran;
        }));
    }
    for (auto &f : futures)
        f.get();
    EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture)
{
    ThreadPool pool(2);
    auto ok = pool.submit([] { return 7; });
    auto bad = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_EQ(ok.get(), 7);
    EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks)
{
    std::atomic<int> ran{0};
    std::vector<std::future<void>> futures;
    {
        ThreadPool pool(2);
        for (int i = 0; i < 32; ++i) {
            futures.push_back(pool.submit([&ran] {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
                ++ran;
            }));
        }
        // Destroy the pool with most tasks still queued.
    }
    EXPECT_EQ(ran.load(), 32);
    for (auto &f : futures)
        EXPECT_NO_THROW(f.get());
}

TEST(ThreadPool, DefaultJobsHonorsEnvVar)
{
    ASSERT_EQ(setenv("HSU_JOBS", "7", 1), 0);
    EXPECT_EQ(defaultJobs(), 7u);
    EXPECT_EQ(ThreadPool(0).numThreads(), 7u);

    // Malformed or non-positive values are refused, naming the value.
    ASSERT_EQ(setenv("HSU_JOBS", "banana", 1), 0);
    EXPECT_DEATH(defaultJobs(),
                 "HSU_JOBS must be a positive integer, got 'banana'");
    ASSERT_EQ(setenv("HSU_JOBS", "0", 1), 0);
    EXPECT_DEATH(defaultJobs(),
                 "HSU_JOBS must be a positive integer, got '0'");

    ASSERT_EQ(unsetenv("HSU_JOBS"), 0);
    EXPECT_GE(defaultJobs(), 1u);
}

TEST(ThreadPool, ExplicitThreadCountWins)
{
    ASSERT_EQ(setenv("HSU_JOBS", "7", 1), 0);
    EXPECT_EQ(ThreadPool(3).numThreads(), 3u);
    ASSERT_EQ(unsetenv("HSU_JOBS"), 0);
}

} // namespace
} // namespace hsu
