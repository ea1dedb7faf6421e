/**
 * @file
 * One CPU budget for serving and intra-op work: every serving worker
 * thread runs its kernels on its own share w = max(1, B / W) of the
 * global pool's B threads. Checks the split, that a worker's
 * parallelFor stays within w threads, that the compiled ResNet proxy
 * answers bit for bit as on the global pool, and that a width-1
 * worker takes no probe-counted lock inside runBatch.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/lock_probe.h"
#include "common/parallel.h"
#include "data/classification.h"
#include "models/classifier.h"
#include "nn/plan.h"
#include "serving/shard.h"
#include "sim/real_executor.h"

namespace mlperf {
namespace serving {
namespace {

constexpr int kBudget = 4;

/** Sets the global pool to the test budget; restores it after. */
class CpuBudget : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        saved_ = ThreadPool::global()->threadCount();
        ThreadPool::setGlobalThreads(kBudget);
    }
    void TearDown() override { ThreadPool::setGlobalThreads(saved_); }

  private:
    int saved_ = 1;
};

/** Collects every response; thread-safe. */
class CollectingDelegate : public loadgen::ResponseDelegate
{
  public:
    void
    querySamplesComplete(
        const std::vector<loadgen::QuerySampleResponse> &responses)
        override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &response : responses)
            data_.push_back(response);
    }

    std::vector<loadgen::QuerySampleResponse>
    responses() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return data_;
    }

  private:
    mutable std::mutex mutex_;
    std::vector<loadgen::QuerySampleResponse> data_;
};

/** Threads mode's default pool: one shard, an unbounded queue. */
ShardOptions
oneShard(int64_t workers)
{
    ShardOptions options;
    options.shards = 1;
    options.workersPerShard = workers;
    options.queueCapacityBatches = 0;
    return options;
}

Batch
makeBatch(uint64_t first_id, uint64_t size,
          loadgen::ResponseDelegate &delegate)
{
    Batch batch;
    for (uint64_t i = 0; i < size; ++i)
        batch.items.push_back({{first_id + i, i}, &delegate, 0, 0});
    return batch;
}

/** Records how many distinct threads ran one parallelFor per batch. */
class ThreadCountingInference : public BatchInference
{
  public:
    std::string name() const override { return "thread-counting"; }

    std::vector<loadgen::QuerySampleResponse>
    runBatch(const std::vector<loadgen::QuerySample> &samples) override
    {
        std::mutex mutex;
        std::set<std::thread::id> ids;
        parallelFor(0, 64, 1, [&](int64_t b, int64_t e) {
            volatile int64_t spin = 0;
            for (int64_t i = b; i < e; ++i) {
                for (int k = 0; k < 20000; ++k)
                    spin = spin + k;
            }
            std::lock_guard<std::mutex> lock(mutex);
            ids.insert(std::this_thread::get_id());
        });
        size_t seen = maxThreads.load();
        while (ids.size() > seen &&
               !maxThreads.compare_exchange_weak(seen, ids.size())) {
        }
        std::vector<loadgen::QuerySampleResponse> responses;
        for (const auto &sample : samples)
            responses.push_back({sample.id, "ok"});
        return responses;
    }

    std::atomic<size_t> maxThreads{0};
};

/**
 * The compiled ResNet proxy; each response carries the sample's raw
 * logits so outputs compare bit for bit. Accumulates the LockProbe
 * delta across every call on the calling thread.
 */
class LogitsInference : public BatchInference
{
  public:
    LogitsInference(const models::ImageClassifier &model,
                    const data::ClassificationDataset &dataset)
        : model_(model), dataset_(dataset)
    {
    }

    std::string name() const override { return "resnet-logits"; }

    std::vector<loadgen::QuerySampleResponse>
    runBatch(const std::vector<loadgen::QuerySample> &samples) override
    {
        const uint64_t locksBefore = LockProbe::threadAcquisitions();
        const nn::CompiledModel &compiled = model_.compiled();
        const int64_t n = static_cast<int64_t>(samples.size());
        auto &instance = nn::ExecutionInstance::thread();
        float *staged = instance.stageInput(compiled, n);
        for (int64_t i = 0; i < n; ++i) {
            const tensor::Tensor image = dataset_.image(
                static_cast<int64_t>(samples[static_cast<size_t>(i)].index));
            std::copy(image.data(), image.data() + image.numel(),
                      staged + i * image.numel());
        }
        const float *logits = instance.run(compiled, n);
        const int64_t per = compiled.planFor(n).outputNumel / n;
        std::vector<loadgen::QuerySampleResponse> responses;
        for (int64_t i = 0; i < n; ++i) {
            const char *row =
                reinterpret_cast<const char *>(logits + i * per);
            responses.push_back(
                {samples[static_cast<size_t>(i)].id,
                 std::string(row, row + per * sizeof(float))});
        }
        locks.fetch_add(LockProbe::threadAcquisitions() - locksBefore);
        calls.fetch_add(1);
        return responses;
    }

    std::atomic<uint64_t> locks{0};
    std::atomic<uint64_t> calls{0};

  private:
    const models::ImageClassifier &model_;
    const data::ClassificationDataset &dataset_;
};

TEST_F(CpuBudget, WorkersSplitTheIntraOpBudget)
{
    sim::RealExecutor ex;
    ThreadCountingInference inference;
    ServingStats stats;
    for (int64_t workers : {1, 2, 3, 4, 8}) {
        ShardedWorkerPool pool(ex, inference, stats, oneShard(workers));
        const int width = pool.intraOpWidth();
        EXPECT_EQ(width, std::max<int64_t>(1, kBudget / workers))
            << workers;
        if (workers <= kBudget) {
            EXPECT_LE(workers * width, kBudget) << workers;
        }
    }

    // A sharded pool counts every worker it can run: an autoscaled
    // pool's ceiling, not the shards active now.
    ShardOptions sharding;
    sharding.shards = 2;
    sharding.workersPerShard = 1;
    EXPECT_EQ(ShardedWorkerPool(ex, inference, stats, sharding)
                  .intraOpWidth(),
              2);
    sharding.shards = 4;
    sharding.initialActiveShards = 1;
    EXPECT_EQ(ShardedWorkerPool(ex, inference, stats, sharding)
                  .intraOpWidth(),
              1);
}

TEST_F(CpuBudget, WorkerParallelForStaysWithinItsWidth)
{
    sim::RealExecutor ex;
    ServingStats stats;
    CollectingDelegate delegate;
    for (int64_t workers : {1, 2, 4}) {
        ThreadCountingInference inference;
        ShardedWorkerPool pool(ex, inference, stats, oneShard(workers));
        for (uint64_t b = 0; b < 12; ++b) {
            Batch batch = makeBatch(b, 1, delegate);
            ASSERT_TRUE(pool.submit(batch));
        }
        pool.shutdown();
        EXPECT_GE(inference.maxThreads.load(), 1u);
        EXPECT_LE(inference.maxThreads.load(),
                  static_cast<size_t>(pool.intraOpWidth()))
            << workers << " workers";
    }

    ShardOptions sharding;
    sharding.shards = 2;
    sharding.workersPerShard = 2;
    ThreadCountingInference inference;
    ShardedWorkerPool pool(ex, inference, stats, sharding);
    for (uint64_t b = 0; b < 12; ++b) {
        Batch batch = makeBatch(b, 1, delegate);
        ASSERT_TRUE(pool.submit(batch));
    }
    pool.shutdown();
    EXPECT_EQ(inference.maxThreads.load(), 1u);
}

class CpuBudgetResnet : public CpuBudget
{
  protected:
    static void
    SetUpTestSuite()
    {
        dataset_ = new data::ClassificationDataset();
        model_ = new models::ImageClassifier(
            models::ImageClassifier::resnet50Proxy(*dataset_));
    }
    static void
    TearDownTestSuite()
    {
        delete model_;
        delete dataset_;
    }

    static data::ClassificationDataset *dataset_;
    static models::ImageClassifier *model_;
};

data::ClassificationDataset *CpuBudgetResnet::dataset_ = nullptr;
models::ImageClassifier *CpuBudgetResnet::model_ = nullptr;

TEST_F(CpuBudgetResnet, WorkerOutputsBitIdenticalToGlobalPool)
{
    constexpr uint64_t kBatch = 8;
    LogitsInference inference(*model_, *dataset_);
    std::vector<loadgen::QuerySample> samples;
    for (uint64_t i = 0; i < kBatch; ++i)
        samples.push_back({i, i});
    // Reference: the test thread is unbound, so the global pool.
    const auto reference = inference.runBatch(samples);

    sim::RealExecutor ex;
    ServingStats stats;
    for (int64_t workers : {1, 2, 4}) {  // widths 4, 2, 1
        CollectingDelegate delegate;
        ShardedWorkerPool pool(ex, inference, stats, oneShard(workers));
        Batch batch = makeBatch(0, kBatch, delegate);
        ASSERT_TRUE(pool.submit(batch));
        pool.shutdown();
        auto responses = delegate.responses();
        ASSERT_EQ(responses.size(), kBatch);
        std::sort(responses.begin(), responses.end(),
                  [](const auto &a, const auto &b) { return a.id < b.id; });
        for (uint64_t i = 0; i < kBatch; ++i) {
            EXPECT_EQ(responses[i].data, reference[i].data)
                << "sample " << i << ", width " << pool.intraOpWidth();
        }
    }
}

TEST_F(CpuBudgetResnet, WidthOneWorkerTakesNoProbedLocks)
{
    LogitsInference inference(*model_, *dataset_);
    std::vector<loadgen::QuerySample> samples;
    for (uint64_t i = 0; i < 8; ++i)
        samples.push_back({i, i});
    // The probe sees the compute substrate: on the shared global pool
    // every pooled kernel call takes the pool's job locks.
    inference.runBatch(samples);
    EXPECT_GT(inference.locks.load(), 0u);

    inference.locks.store(0);
    inference.calls.store(0);
    sim::RealExecutor ex;
    ServingStats stats;
    CollectingDelegate delegate;
    ShardedWorkerPool pool(ex, inference, stats, oneShard(kBudget));
    ASSERT_EQ(pool.intraOpWidth(), 1);
    uint64_t id = 0;
    for (uint64_t size = 1; size <= 8; ++size) {
        Batch batch = makeBatch(id, size, delegate);
        id += size;
        ASSERT_TRUE(pool.submit(batch));
    }
    pool.shutdown();
    EXPECT_EQ(inference.calls.load(), 8u);
    EXPECT_EQ(inference.locks.load(), 0u);
    EXPECT_EQ(delegate.responses().size(), id);
}

} // namespace
} // namespace serving
} // namespace mlperf
