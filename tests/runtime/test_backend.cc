/**
 * @file
 * Tests for the execution-backend layer: registry lookup, run-to-run
 * determinism of every registered backend, the timing memo, the single shared task layout, and bit-identical
 * thread-pooled functional execution.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "runtime/backend.h"
#include "runtime/partition.h"
#include "runtime/system.h"
#include "screening/trainer.h"
#include "workloads/synthetic.h"

namespace enmc::runtime {
namespace {

JobSpec
smallJob(uint64_t l = 65536, uint64_t batch = 2)
{
    JobSpec spec;
    spec.categories = l;
    spec.hidden = 256;
    spec.reduced = 64;
    spec.batch = batch;
    spec.candidates = l / 100;
    return spec;
}

// ------------------------------------------------------------- registry

TEST(BackendRegistry, ListsAllBuiltins)
{
    const auto names = backendNames();
    for (const char *expected :
         {"enmc", "nda", "chameleon", "tensordimm", "tensordimm-large",
          "cpu", "cpu-full", "auto"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expected),
                  names.end())
            << "missing backend " << expected;
    }
}

TEST(BackendRegistry, CreatesEveryRegisteredBackend)
{
    for (const auto &name : backendNames()) {
        if (name.rfind("test-", 0) == 0)
            continue; // entries other tests registered
        const auto backend = createBackend(name);
        ASSERT_NE(backend, nullptr);
        EXPECT_EQ(backend->name(), name);
    }
}

TEST(BackendRegistry, UnknownNameDies)
{
    EXPECT_DEATH((void)createBackend("not-a-backend"), "unknown backend");
}

TEST(BackendRegistry, UnknownNameDeathListsTheRegistry)
{
    // The miss message must enumerate what *is* registered, so a typo'd
    // --backend flag is self-diagnosing.
    EXPECT_DEATH((void)createBackend("not-a-backend"),
                 "registered:.*enmc");
}

TEST(BackendRegistry, ContainsReflectsRegistration)
{
    auto &reg = BackendRegistry::instance();
    EXPECT_FALSE(reg.contains("test-contains"));
    reg.add("test-contains", [](const SystemConfig &cfg) {
        return std::make_unique<EnmcBackend>(cfg);
    });
    EXPECT_TRUE(reg.contains("test-contains"));
    const auto names = backendNames();
    EXPECT_NE(std::find(names.begin(), names.end(), "test-contains"),
              names.end());
}

TEST(BackendRegistry, DuplicateRegistrationReplacesTheFactory)
{
    // The factory outlives this test in the process-wide registry, so it
    // captures its counters by value (shared), never this stack frame.
    auto &reg = BackendRegistry::instance();
    auto first_calls = std::make_shared<int>(0);
    auto second_calls = std::make_shared<int>(0);
    reg.add("test-dup", [first_calls](const SystemConfig &cfg) {
        ++*first_calls;
        return std::make_unique<EnmcBackend>(cfg);
    });
    reg.add("test-dup", [second_calls](const SystemConfig &cfg) {
        ++*second_calls;
        return std::make_unique<EnmcBackend>(cfg);
    });
    (void)createBackend("test-dup");
    EXPECT_EQ(*first_calls, 0) << "replaced factory must never run";
    EXPECT_EQ(*second_calls, 1);
}

// ---------------------------------------------------------- determinism

TEST(BackendDeterminism, EveryBackendRepeatsTimingExactly)
{
    const JobSpec spec = smallJob();
    for (const auto &name : backendNames()) {
        if (name == "auto")
            continue; // adaptive by design: consecutive calls are warm-up
                      // probes of different candidates (decision-sequence
                      // determinism is covered in test_planner.cc)
        const auto backend = createBackend(name);
        const TimingResult a = backend->runJob(spec);
        const TimingResult b = backend->runJob(spec);
        EXPECT_EQ(a.rank_cycles, b.rank_cycles) << name;
        EXPECT_EQ(a.rank.screen_bytes, b.rank.screen_bytes) << name;
        EXPECT_EQ(a.rank.exec_bytes, b.rank.exec_bytes) << name;
        EXPECT_EQ(a.rank.dram_reads, b.rank.dram_reads) << name;
        EXPECT_DOUBLE_EQ(a.seconds, b.seconds) << name;
        EXPECT_GT(a.rank_cycles, 0u) << name;
    }
}

TEST(BackendDeterminism, FreshInstanceMatchesReusedInstance)
{
    const JobSpec spec = smallJob();
    for (const auto &name : backendNames()) {
        const Cycles first = createBackend(name)->runJob(spec).rank_cycles;
        const Cycles second = createBackend(name)->runJob(spec).rank_cycles;
        EXPECT_EQ(first, second) << name;
    }
}

TEST(BackendDeterminism, TimingIgnoresTheFaultSeed)
{
    // A cluster times every node through one backend although each node
    // has its own fault seed: exact only while timing never reads it.
    SystemConfig a;
    a.fault.enabled = true;
    a.fault.data_ber = 1e-4;
    a.fault.stuck_ranks = {1};
    SystemConfig b = a;
    b.fault.seed = a.fault.seed + 3;
    const JobSpec spec = smallJob();
    for (const char *name : {"enmc", "enmc-resilient"}) {
        const TimingResult ra = createBackend(name, a)->runJob(spec);
        const TimingResult rb = createBackend(name, b)->runJob(spec);
        EXPECT_EQ(ra.rank_cycles, rb.rank_cycles) << name;
        EXPECT_EQ(ra.ranks, rb.ranks) << name;
        EXPECT_EQ(ra.rank.screen_bytes, rb.rank.screen_bytes) << name;
        EXPECT_EQ(ra.rank.exec_bytes, rb.rank.exec_bytes) << name;
        EXPECT_EQ(ra.rank.dram_reads, rb.rank.dram_reads) << name;
        EXPECT_DOUBLE_EQ(ra.seconds, rb.seconds) << name;
    }
}

TEST(MemoizedBackend, SimulatesEachJobOnceAndDelegatesTheRest)
{
    // A backend that counts its timing runs, behind the memo.
    struct Counting : EnmcBackend
    {
        using EnmcBackend::EnmcBackend;
        TimingResult runJob(const JobSpec &spec) const override
        {
            ++runs;
            return EnmcBackend::runJob(spec);
        }
        mutable int runs = 0;
    };
    auto inner = std::make_unique<Counting>(SystemConfig{});
    const Counting &counting = *inner;
    MemoizedBackend memo(std::move(inner));
    EXPECT_EQ(memo.name(), "enmc");

    const JobSpec a = smallJob();
    JobSpec b = a;
    b.candidates += 1; // any field of the spec is part of the key
    const TimingResult first = memo.runJob(a);
    EXPECT_EQ(memo.runJob(a).rank_cycles, first.rank_cycles);
    EXPECT_EQ(memo.runBatch(a, 0.0).route, "enmc");
    EXPECT_EQ(counting.runs, 1);
    memo.runJob(b);
    EXPECT_EQ(counting.runs, 2);
    EXPECT_EQ(first.rank_cycles, EnmcBackend(SystemConfig{}).runJob(a)
                                     .rank_cycles);
}

TEST(BackendDeterminism, BackendsRankRelativeToEachOther)
{
    // The whole point of the uniform interface: timings compare directly.
    const JobSpec spec = smallJob();
    const double enmc = createBackend("enmc")->runJob(spec).seconds;
    const double td = createBackend("tensordimm")->runJob(spec).seconds;
    const double cpu_full = createBackend("cpu-full")->runJob(spec).seconds;
    EXPECT_LT(enmc, td);       // dual-module INT4 screening wins
    EXPECT_LT(td, cpu_full);   // any NMP scheme beats the CPU baseline
}

// --------------------------------------------------------------- layout

TEST(TaskLayoutPolicy, TimingAndFunctionalPathsShareOneLayout)
{
    // The timing path builds tasks through makeSliceTask; the functional
    // path assigns the layout on its hand-built slice task. For the same
    // task shape the five base addresses must be byte-identical.
    const JobSpec spec = smallJob();
    const uint64_t rows = 1024, cands = 32;
    const arch::RankTask timing =
        EnmcSystem::makeSliceTask(spec, rows, cands);

    arch::RankTask functional;
    functional.categories = rows;
    functional.hidden = spec.hidden;
    functional.reduced = spec.reduced;
    functional.quant = spec.quant;
    functional.batch = spec.batch;
    TaskLayout::assign(functional);

    EXPECT_EQ(functional.screen_weight_base, timing.screen_weight_base);
    EXPECT_EQ(functional.class_weight_base, timing.class_weight_base);
    EXPECT_EQ(functional.bias_base, timing.bias_base);
    EXPECT_EQ(functional.feature_base, timing.feature_base);
    EXPECT_EQ(functional.output_base, timing.output_base);
}

TEST(TaskLayoutPolicy, RegionsAreDisjointAndAligned)
{
    arch::RankTask task;
    task.categories = 777;
    task.hidden = 300;
    task.reduced = 75;
    task.batch = 3;
    const uint64_t footprint = TaskLayout::assign(task);

    const Addr bases[] = {task.screen_weight_base, task.class_weight_base,
                          task.bias_base, task.feature_base,
                          task.output_base};
    for (size_t i = 0; i + 1 < 5; ++i)
        EXPECT_LT(bases[i], bases[i + 1]);
    for (Addr base : bases)
        EXPECT_EQ(base % TaskLayout::kAlign, 0u);
    EXPECT_GE(footprint,
              task.output_base + task.categories * sizeof(float));
}

TEST(RankPartitionerPolicy, CoversRangeWithContiguousDisjointSlices)
{
    const auto slices = RankPartitioner::partition(100, 1000, 7);
    ASSERT_FALSE(slices.empty());
    EXPECT_EQ(slices.front().begin, 100u);
    uint64_t covered = 0;
    for (size_t i = 0; i < slices.size(); ++i) {
        EXPECT_GT(slices[i].rows, 0u);
        if (i > 0) {
            EXPECT_EQ(slices[i].begin,
                      slices[i - 1].begin + slices[i - 1].rows);
        }
        covered += slices[i].rows;
    }
    EXPECT_EQ(covered, 1000u);
    EXPECT_LE(slices.size(), 7u);
}

TEST(RankPartitionerPolicy, DropsTrailingEmptySlices)
{
    // 10 rows over 8 parts: ceil slicing gives 2-row slices, so only 5
    // slices carry work.
    const auto slices = RankPartitioner::partition(0, 10, 8);
    EXPECT_EQ(slices.size(), 5u);
    EXPECT_EQ(slices.back().begin + slices.back().rows, 10u);
}

// ------------------------------------------------- threaded functional

class ThreadedFunctional : public ::testing::Test
{
  protected:
    ThreadedFunctional()
        : model_(makeConfig())
    {
        screening::ScreenerConfig cfg;
        cfg.categories = 1024;
        cfg.hidden = 64;
        cfg.selection = screening::SelectionMode::Threshold;
        Rng rng(11);
        screener_ = std::make_unique<screening::Screener>(cfg, rng);
        Rng data = model_.makeRng(2);
        auto train = model_.sampleHiddenBatch(data, 128);
        screening::Trainer trainer(model_.classifier(), *screener_,
                                   screening::TrainerConfig{});
        trainer.train(train, {});
        screener_->freezeQuantized();
        const float cut = screening::tuneThreshold(*screener_, train, 32);
        screener_->setSelection(screening::SelectionMode::Threshold, 32,
                                cut);
        h_batch_ = model_.sampleHiddenBatch(data, 3);
    }

    static workloads::SyntheticConfig
    makeConfig()
    {
        workloads::SyntheticConfig cfg;
        cfg.categories = 1024;
        cfg.hidden = 64;
        return cfg;
    }

    EnmcSystem::FunctionalResult
    runWithThreads(uint64_t threads) const
    {
        SystemConfig cfg;
        cfg.sim_threads = threads;
        EnmcSystem sys(cfg);
        return sys.runFunctional(model_.classifier(), *screener_, h_batch_,
                                 8);
    }

    workloads::SyntheticModel model_;
    std::unique_ptr<screening::Screener> screener_;
    std::vector<tensor::Vector> h_batch_;
};

TEST_F(ThreadedFunctional, PooledRunsBitMatchSerial)
{
    const auto serial = runWithThreads(1);
    for (uint64_t threads : {2ull, 8ull}) {
        const auto pooled = runWithThreads(threads);
        EXPECT_EQ(pooled.rank_cycles, serial.rank_cycles)
            << threads << " threads";
        ASSERT_EQ(pooled.logits.size(), serial.logits.size());
        for (size_t item = 0; item < serial.logits.size(); ++item) {
            for (size_t i = 0; i < serial.logits[item].size(); ++i)
                ASSERT_EQ(pooled.logits[item][i], serial.logits[item][i])
                    << threads << " threads, item " << item << " logit "
                    << i;
            ASSERT_EQ(pooled.candidates[item], serial.candidates[item])
                << threads << " threads, item " << item;
            for (size_t i = 0; i < serial.probabilities[item].size(); ++i)
                ASSERT_EQ(pooled.probabilities[item][i],
                          serial.probabilities[item][i]);
        }
    }
}

TEST_F(ThreadedFunctional, GlobalPoolBitMatchesSerial)
{
    const auto serial = runWithThreads(1);
    const auto pooled = runWithThreads(0); // process-wide pool
    EXPECT_EQ(pooled.rank_cycles, serial.rank_cycles);
    for (size_t item = 0; item < serial.logits.size(); ++item) {
        for (size_t i = 0; i < serial.logits[item].size(); ++i)
            ASSERT_EQ(pooled.logits[item][i], serial.logits[item][i]);
        ASSERT_EQ(pooled.candidates[item], serial.candidates[item]);
    }
}

} // namespace
} // namespace enmc::runtime
