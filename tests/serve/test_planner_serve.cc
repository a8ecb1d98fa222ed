/**
 * @file
 * Soak/stress tests of the adaptive offload planner behind the serving
 * loop (`--backend=auto`).
 *
 * The scenario mirrors bench/cluster_serving's shape: a drifting Poisson
 * arrival mix (rate and candidate budget both shift mid-run, moving
 * traffic into a fresh planner bin) with a scripted mid-run fault burst
 * that blacklists the steady-state winner. The contracts:
 *  - the planner never routes a batch to the blacklisted/dead backend
 *    during the burst window;
 *  - zero wrong answers end-to-end — every admitted response is
 *    memcmp-equal to the single-query reference forward, exactly like
 *    the cluster kill test;
 *  - the burst forces at least one steady-state switch (the
 *    check_metrics `--expect-switch` invariant);
 *  - the live threaded pipeline serves the same correctness under real
 *    concurrency.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <vector>

#include "runtime/api.h"
#include "runtime/planner.h"
#include "serve/loop.h"
#include "workloads/synthetic.h"

namespace enmc::serve {
namespace {

class PlannerSoakTest : public ::testing::Test
{
  protected:
    PlannerSoakTest()
        : model_(makeConfig()), rng_(model_.makeRng(1)),
          train_(model_.sampleHiddenBatch(rng_, 160)),
          val_(model_.sampleHiddenBatch(rng_, 48)),
          queries_(model_.sampleHiddenBatch(rng_, 48))
    {
    }

    static workloads::SyntheticConfig
    makeConfig()
    {
        workloads::SyntheticConfig cfg;
        cfg.categories = 1024;
        cfg.hidden = 64;
        return cfg;
    }

    std::unique_ptr<runtime::EnmcClassifier>
    makeClassifier(uint64_t threads)
    {
        runtime::ClassifierOptions opt;
        opt.candidates = 48;
        runtime::SystemConfig sys;
        sys.sim_threads = threads;
        auto clf = std::make_unique<runtime::EnmcClassifier>(
            model_.classifier(), opt, sys);
        clf->calibrate(train_, val_);
        return clf;
    }

    static runtime::JobSpec
    job()
    {
        runtime::JobSpec spec;
        spec.categories = 32768;
        spec.hidden = 128;
        spec.reduced = 32;
        spec.candidates = 512;
        return spec;
    }

    static std::vector<std::string>
    candidates()
    {
        return {"cpu", "enmc", "tensordimm"};
    }

    /** The backend an offline profile would pick for this job — the
     *  planner's steady-state winner, and the kill victim that forces a
     *  mid-run switch deterministically. */
    static std::string
    offlineWinner(uint64_t batch, uint64_t cands)
    {
        runtime::JobSpec spec = job();
        spec.batch = batch;
        spec.candidates = cands;
        double best = -1.0;
        std::string winner;
        for (const auto &name : candidates()) {
            const double s =
                runtime::createBackend(name)->runJob(spec).seconds;
            if (best < 0.0 || s < best) {
                best = s;
                winner = name;
            }
        }
        return winner;
    }

    ServeConfig
    autoConfig() const
    {
        ServeConfig cfg;
        cfg.backend = "auto";
        cfg.queue_capacity = 64;
        cfg.max_batch = 8;
        cfg.max_delay_us = 50.0;
        cfg.warmup_requests = 0;
        cfg.topk = 5;
        cfg.planner.candidates = candidates();
        cfg.planner.explore_every = 8;
        return cfg;
    }

    /**
     * Drifting Poisson mix over the query set: two saturating Poisson
     * bursts. Phase A is a burst of small-candidate-budget queries;
     * phase B, well after phase A drains, doubles the arrival rate and
     * moves the candidate budget two power-of-two buckets up — a genuine
     * traffic shift into a fresh planner bin. Arrivals far outpace
     * service inside each burst, so every batch is cut at `max_batch`
     * and each phase maps to exactly one planner bin (which is what
     * makes the burst/switch schedule below deterministic).
     */
    ArrivalTrace
    driftingTrace() const
    {
        ArrivalTrace t;
        Rng arr(1234);
        double now = 0.0;
        for (size_t i = 0; i < queries_.size(); ++i) {
            const bool phase_b = i >= queries_.size() / 2;
            if (i == queries_.size() / 2)
                now = 5000.0; // let phase A drain completely first
            const double mean_gap = phase_b ? 1.0 : 2.0;
            now += -mean_gap *
                   std::log(1.0 - arr.uniform()); // exponential gap
            Request r;
            r.id = i;
            r.hidden = queries_[i];
            r.candidates = phase_b ? 480 : 96;
            r.arrival_us = now;
            t.requests.push_back(r);
        }
        t.normalize();
        return t;
    }

    /** Batches in dispatch order as (dispatch_us, backend) pairs. */
    static std::vector<std::pair<double, std::string>>
    batchSequence(const ServeReport &report)
    {
        std::map<double, std::string> batches;
        for (const Response &r : report.responses)
            if (r.admission == Admission::Admitted)
                batches[r.dispatch_us] = r.backend;
        return {batches.begin(), batches.end()};
    }

    workloads::SyntheticModel model_;
    Rng rng_;
    std::vector<tensor::Vector> train_;
    std::vector<tensor::Vector> val_;
    std::vector<tensor::Vector> queries_;
};

TEST_F(PlannerSoakTest, FaultBurstNeverRoutesToTheDeadBackend)
{
    // Blacklist the offline winner after 4 planned batches for a 6-batch
    // burst. With full batches of 4, each 24-query phase is 6 plans in
    // one bin: plans 0-2 warm up phase A's bin, plan 3 goes steady on
    // the winner, plan 4 hits the kill and must switch — so the burst
    // window [4, 10) spans the rest of phase A and most of phase B, and
    // every batch inside it must route elsewhere while answers stay
    // perfect throughout.
    auto clf = makeClassifier(4);
    auto reference = makeClassifier(4);

    const std::string victim = offlineWinner(4, 96);
    ServeConfig cfg = autoConfig();
    cfg.max_batch = 4;
    cfg.planner.kill_backend = victim;
    cfg.planner.kill_after = 4;
    cfg.planner.revive_after = 6;

    ServeLoop loop(cfg, job());
    loop.attachClassifier(*clf);
    const ServeReport report = loop.replay(driftingTrace());

    // Zero wrong answers end-to-end: memcmp vs single-query reference.
    ASSERT_EQ(report.responses.size(), queries_.size());
    for (const Response &resp : report.responses) {
        ASSERT_EQ(resp.admission, Admission::Admitted);
        const auto ref = reference->forward({queries_[resp.id]}, 5);
        ASSERT_EQ(resp.probabilities.size(), ref[0].probabilities.size());
        ASSERT_EQ(std::memcmp(resp.probabilities.data(),
                              ref[0].probabilities.data(),
                              ref[0].probabilities.size() * sizeof(float)),
                  0)
            << "planner-era logits differ from reference, request "
            << resp.id;
        ASSERT_EQ(resp.topk, ref[0].topk);
        ASSERT_FALSE(resp.backend.empty());
    }

    // One plan per dispatched batch, in dispatch order: batches inside
    // the burst window never carry the victim's name.
    const auto batches = batchSequence(report);
    ASSERT_GT(batches.size(), cfg.planner.kill_after +
                                  cfg.planner.revive_after);
    for (size_t b = cfg.planner.kill_after;
         b < cfg.planner.kill_after + cfg.planner.revive_after; ++b)
        EXPECT_NE(batches[b].second, victim) << "batch " << b;

    runtime::OffloadPlanner *planner = loop.planner();
    ASSERT_NE(planner, nullptr);
    EXPECT_EQ(planner->planCount(), batches.size());
    EXPECT_EQ(planner->stats().counter("plans").value(), batches.size());
    EXPECT_EQ(planner->stats().counter("deadDispatches").value(), 0u);
    EXPECT_EQ(planner->stats().counter("killEvents").value(), 1u);
    EXPECT_EQ(planner->stats().counter("reviveEvents").value(), 1u);
    EXPECT_GE(planner->stats().counter("switchEvents").value(), 1u);
    // The candidate-budget drift moved traffic into a second bin.
    EXPECT_GE(planner->stats().counter("bins").value(), 2u);
    // Plan-kind accounting closes.
    EXPECT_EQ(planner->stats().counter("plans").value(),
              planner->stats().counter("warmupPlans").value() +
                  planner->stats().counter("explorePlans").value() +
                  planner->stats().counter("steadyPlans").value());
}

TEST_F(PlannerSoakTest, FaultBurstReplayIsReproducible)
{
    // The killed run is still a pure function of (trace, config, seed):
    // two replays agree on every decision, timestamp and bit.
    auto clf = makeClassifier(4);
    const std::string victim = offlineWinner(4, 96);
    ServeConfig cfg = autoConfig();
    cfg.max_batch = 4;
    cfg.planner.kill_backend = victim;
    cfg.planner.kill_after = 4;
    cfg.planner.revive_after = 6;
    const ArrivalTrace arrivals = driftingTrace();

    ServeLoop loop_a(cfg, job());
    ServeLoop loop_b(cfg, job());
    loop_a.attachClassifier(*clf);
    loop_b.attachClassifier(*clf);
    const ServeReport a = loop_a.replay(arrivals);
    const ServeReport b = loop_b.replay(arrivals);
    ASSERT_EQ(a.responses.size(), b.responses.size());
    for (size_t i = 0; i < a.responses.size(); ++i) {
        ASSERT_EQ(a.responses[i].backend, b.responses[i].backend)
            << "request " << a.responses[i].id;
        ASSERT_DOUBLE_EQ(a.responses[i].dispatch_us,
                         b.responses[i].dispatch_us);
        ASSERT_DOUBLE_EQ(a.responses[i].complete_us,
                         b.responses[i].complete_us);
        ASSERT_EQ(a.responses[i].probabilities.size(),
                  b.responses[i].probabilities.size());
        if (!a.responses[i].probabilities.empty()) {
            ASSERT_EQ(
                std::memcmp(a.responses[i].probabilities.data(),
                            b.responses[i].probabilities.data(),
                            a.responses[i].probabilities.size() *
                                sizeof(float)),
                0);
        }
    }
}

TEST_F(PlannerSoakTest, LivePipelineServesCorrectAnswersUnderThePlanner)
{
    // The live dispatcher/executor pipeline routes through the same
    // planner; hammer it with the full query set and check every answer
    // against the single-query reference.
    auto clf = makeClassifier(4);
    auto reference = makeClassifier(4);
    ServeLoop loop(autoConfig(), job());
    loop.attachClassifier(*clf);
    loop.start();

    std::vector<std::future<Response>> futures;
    for (size_t i = 0; i < queries_.size(); ++i) {
        Request r;
        r.id = i;
        r.hidden = queries_[i];
        futures.push_back(loop.submitOrdered(std::move(r)));
    }
    std::vector<Response> responses;
    for (auto &f : futures)
        responses.push_back(f.get());
    const ServeReport report = loop.stop();
    ASSERT_EQ(report.responses.size(), queries_.size());

    for (size_t i = 0; i < queries_.size(); ++i) {
        ASSERT_EQ(responses[i].admission, Admission::Admitted);
        ASSERT_FALSE(responses[i].backend.empty());
        const auto ref = reference->forward({queries_[i]}, 5);
        ASSERT_EQ(std::memcmp(responses[i].probabilities.data(),
                              ref[0].probabilities.data(),
                              ref[0].probabilities.size() * sizeof(float)),
                  0)
            << "live planner logits differ from reference, request " << i;
        ASSERT_EQ(responses[i].topk, ref[0].topk);
    }

    runtime::OffloadPlanner *planner = loop.planner();
    ASSERT_NE(planner, nullptr);
    EXPECT_GT(planner->planCount(), 0u);
    EXPECT_EQ(planner->stats().counter("deadDispatches").value(), 0u);
}

TEST_F(PlannerSoakTest, StandaloneTimingAfterALiveBatchPlansOnce)
{
    // A live batch plans once when it is dispatched. A later standalone
    // timing query of the same shape is a planned dispatch of its own;
    // nothing the live batch did may stand in for it.
    auto clf = makeClassifier(4);
    ServeLoop loop(autoConfig(), job());
    loop.attachClassifier(*clf);
    loop.start();
    Request r;
    r.id = 0;
    r.hidden = queries_[0];
    const Response resp = loop.submitOrdered(std::move(r)).get();
    loop.stop();
    ASSERT_EQ(resp.batch_size, 1u);

    runtime::OffloadPlanner *planner = loop.planner();
    ASSERT_NE(planner, nullptr);
    const uint64_t before = planner->planCount();
    EXPECT_EQ(before, 1u);
    loop.batchServiceUs(1, job().candidates);
    EXPECT_EQ(planner->planCount(), before + 1);
}

} // namespace
} // namespace enmc::serve
