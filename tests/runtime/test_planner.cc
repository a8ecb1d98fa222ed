/**
 * @file
 * Property tests for the adaptive offload planner and the `"auto"`
 * backend.
 *
 * The contract under test, in order of appearance:
 *  - configuration errors (too few candidates, duplicates, nested
 *    meta-backends, bad knobs, unknown kill target) fail loudly;
 *  - planner decisions are a pure function of (trace, config, seed);
 *  - stationary traffic converges to the offline argmin backend;
 *  - a mid-trace latency shift triggers a re-plan within the
 *    exploration window;
 *  - the scripted fault burst never routes to the dead backend;
 *  - under `--backend=auto`, serve replay is bit-identical across
 *    ENMC_THREADS and logits are memcmp-equal to a fixed-backend
 *    reference for every decision sequence.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "runtime/api.h"
#include "runtime/planner.h"
#include "serve/loop.h"
#include "workloads/synthetic.h"

namespace enmc::runtime {
namespace {

// ------------------------------------------------------ config fail-loud

TEST(PlannerConfig, FewerThanTwoCandidatesDies)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    PlannerConfig cfg;
    cfg.candidates = {"cpu"};
    EXPECT_DEATH(validate(cfg), "at least two candidate");
}

TEST(PlannerConfig, DuplicateCandidateDies)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    PlannerConfig cfg;
    cfg.candidates = {"cpu", "enmc", "cpu"};
    EXPECT_DEATH(validate(cfg), "listed twice");
}

TEST(PlannerConfig, NestedMetaBackendDies)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    PlannerConfig cfg;
    cfg.candidates = {"cpu", "auto"};
    EXPECT_DEATH(validate(cfg), "meta-backend");
    cfg.candidates = {"cpu", "cluster"};
    EXPECT_DEATH(validate(cfg), "meta-backend");
}

TEST(PlannerConfig, BadDecayDies)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    PlannerConfig cfg;
    cfg.decay = 1.0;
    EXPECT_DEATH(validate(cfg), "ENMC_PLAN_DECAY");
    cfg.decay = -0.1;
    EXPECT_DEATH(validate(cfg), "ENMC_PLAN_DECAY");
}

TEST(PlannerConfig, ZeroWarmupRoundsDies)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    PlannerConfig cfg;
    cfg.warmup_rounds = 0;
    EXPECT_DEATH(validate(cfg), "WARMUP_ROUNDS");
}

TEST(PlannerConfig, UnknownKillTargetDies)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    PlannerConfig cfg;
    cfg.kill_backend = "not-a-candidate";
    EXPECT_DEATH(validate(cfg), "not a planner candidate");
}

TEST(AutoBackendRegistry, FewerThanTwoRegisteredCandidatesDiesLoudly)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // The registry error path: candidates that validate but do not
    // resolve must not silently degrade into a single-backend planner.
    // The death message must list the candidate set (self-diagnosing,
    // like createBackend's unknown-name path).
    PlannerConfig cfg;
    cfg.candidates = {"cpu", "definitely-not-registered"};
    EXPECT_DEATH((void)AutoBackend(SystemConfig{}, cfg),
                 "at least two registered candidate");
    EXPECT_DEATH((void)AutoBackend(SystemConfig{}, cfg),
                 "definitely-not-registered");
}

TEST(AutoBackendRegistry, AutoResolvesFromTheRegistryByName)
{
    const auto backend = createBackend("auto");
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->name(), "auto");
}

// ---------------------------------------------------------------- purity

PlannerConfig
unitConfig()
{
    PlannerConfig cfg;
    cfg.candidates = {"slow", "fast", "mid"};
    cfg.explore_every = 8;
    cfg.seed = 7;
    return cfg;
}

/** Drive `planner` with a synthetic latency table; returns the decision
 *  sequence. Latencies are a pure function of the chosen backend, so the
 *  whole run is a pure function of (planner config, seed). */
std::vector<size_t>
drive(OffloadPlanner &planner, const PlanBin &bin,
      const std::vector<double> &latency_us, size_t steps)
{
    std::vector<size_t> picks;
    for (size_t i = 0; i < steps; ++i) {
        const auto d = planner.plan(bin);
        planner.observe(bin, d.backend, latency_us[d.backend]);
        picks.push_back(d.backend);
    }
    return picks;
}

TEST(OffloadPlanner, DecisionsArePureInConfigAndSeed)
{
    const PlannerConfig cfg = unitConfig();
    PlanBin bin;
    bin.batch_bucket = 3;
    bin.categories = 1 << 20;
    bin.hidden = 512;
    const std::vector<double> lat = {100.0, 40.0, 70.0};

    OffloadPlanner a(cfg, cfg.candidates);
    OffloadPlanner b(cfg, cfg.candidates);
    EXPECT_EQ(drive(a, bin, lat, 200), drive(b, bin, lat, 200));
}

TEST(OffloadPlanner, WarmupProbesEveryCandidateOnce)
{
    const PlannerConfig cfg = unitConfig();
    OffloadPlanner planner(cfg, cfg.candidates);
    PlanBin bin;
    const std::vector<double> lat = {100.0, 40.0, 70.0};
    const auto picks = drive(planner, bin, lat, 3);
    EXPECT_EQ(picks, (std::vector<size_t>{0, 1, 2}));
    EXPECT_EQ(planner.stats().counter("warmupPlans").value(), 3u);
}

// ----------------------------------------------------------- convergence

TEST(OffloadPlanner, StationaryTrafficConvergesToArgmin)
{
    PlannerConfig cfg = unitConfig();
    cfg.explore_every = 0; // pure exploitation after warm-up
    OffloadPlanner planner(cfg, cfg.candidates);
    PlanBin bin;
    const std::vector<double> lat = {100.0, 40.0, 70.0};
    const auto picks = drive(planner, bin, lat, 50);
    // After the 3 warm-up probes every decision is the argmin (index 1).
    for (size_t i = 3; i < picks.size(); ++i)
        EXPECT_EQ(picks[i], 1u) << "plan " << i;
    EXPECT_EQ(planner.argminEstimate(bin), 1);
    EXPECT_EQ(planner.stats().counter("switchEvents").value(), 0u);
    EXPECT_EQ(planner.stats().counter("dispatch.fast").value(), 48u);
}

TEST(OffloadPlanner, ExplorationProbesNonBestCandidatesOnSchedule)
{
    PlannerConfig cfg = unitConfig();
    cfg.explore_every = 4;
    OffloadPlanner planner(cfg, cfg.candidates);
    PlanBin bin;
    const std::vector<double> lat = {100.0, 40.0, 70.0};
    drive(planner, bin, lat, 100);
    const uint64_t explores =
        planner.stats().counter("explorePlans").value();
    EXPECT_GT(explores, 10u);
    // Exploration never probes the current argmin, so with stationary
    // latencies every explore hit a non-best candidate.
    EXPECT_EQ(planner.stats().counter("dispatch.slow").value() +
                  planner.stats().counter("dispatch.mid").value(),
              explores + 2 /* their warm-up probes */);
}

TEST(OffloadPlanner, AutoBackendConvergesToOfflineArgmin)
{
    // Real backends this time: the steady-state pick must match what an
    // offline profile of every candidate would choose for this job.
    PlannerConfig cfg;
    cfg.candidates = {"cpu", "enmc", "tensordimm"};
    cfg.explore_every = 0;
    const SystemConfig sys;

    JobSpec spec;
    spec.categories = 65536;
    spec.hidden = 256;
    spec.reduced = 64;
    spec.batch = 4;
    spec.candidates = 655;

    double best_seconds = -1.0;
    std::string best_name;
    for (const auto &name : cfg.candidates) {
        const double s = createBackend(name, sys)->runJob(spec).seconds;
        if (best_seconds < 0.0 || s < best_seconds) {
            best_seconds = s;
            best_name = name;
        }
    }

    AutoBackend backend(sys, cfg);
    AutoBackend::PlannedRun last;
    for (int i = 0; i < 8; ++i)
        last = backend.runPlanned(spec);
    EXPECT_EQ(last.kind, OffloadPlanner::Kind::Steady);
    EXPECT_EQ(last.backend, best_name);
    const PlanBin bin = OffloadPlanner::binFor(spec);
    const int argmin = backend.planner().argminEstimate(bin);
    ASSERT_GE(argmin, 0);
    EXPECT_EQ(backend.planner().names()[static_cast<size_t>(argmin)],
              best_name);
}

// ----------------------------------------------------------------- replan

TEST(OffloadPlanner, LatencyShiftTriggersReplanWithinExplorationWindow)
{
    PlannerConfig cfg = unitConfig();
    cfg.explore_every = 8;
    cfg.decay = 0.3;
    OffloadPlanner planner(cfg, cfg.candidates);
    PlanBin bin;

    // Phase 1: "fast" wins.
    std::vector<double> lat = {100.0, 40.0, 70.0};
    drive(planner, bin, lat, 40);
    EXPECT_EQ(planner.argminEstimate(bin), 1);
    const uint64_t switches_before =
        planner.stats().counter("switchEvents").value();

    // Phase 2: "fast" degrades 5x (e.g. a fault-injected rank). The
    // steady path keeps observing it, so its EWMA rises past "mid"
    // within a couple of observations — well inside one exploration
    // window of 8 plans.
    lat[1] = 200.0;
    const auto picks = drive(planner, bin, lat, cfg.explore_every);
    EXPECT_EQ(planner.argminEstimate(bin), 2);
    EXPECT_GT(planner.stats().counter("switchEvents").value(),
              switches_before);
    // And the tail of the window is already routed to the new winner.
    EXPECT_EQ(picks.back(), 2u);
}

// ------------------------------------------------------------ fault burst

TEST(OffloadPlanner, ScriptedKillNeverRoutesToTheDeadBackend)
{
    PlannerConfig cfg = unitConfig();
    cfg.explore_every = 4;
    cfg.kill_backend = "fast";
    cfg.kill_after = 20;
    cfg.revive_after = 40;
    OffloadPlanner planner(cfg, cfg.candidates);
    PlanBin bin;
    const std::vector<double> lat = {100.0, 40.0, 70.0};

    std::vector<size_t> picks;
    for (size_t i = 0; i < 100; ++i) {
        const auto d = planner.plan(bin);
        planner.observe(bin, d.backend, lat[d.backend]);
        picks.push_back(d.backend);
        // During the burst window [kill_after, kill_after+revive_after)
        // the victim must never be routed to.
        if (i >= cfg.kill_after && i < cfg.kill_after + cfg.revive_after) {
            EXPECT_NE(picks.back(), 1u) << "plan " << i;
        }
    }
    EXPECT_EQ(planner.stats().counter("deadDispatches").value(), 0u);
    EXPECT_EQ(planner.stats().counter("killEvents").value(), 1u);
    EXPECT_EQ(planner.stats().counter("reviveEvents").value(), 1u);
    // The kill forces a steady-state switch away from the argmin...
    EXPECT_GE(planner.stats().counter("switchEvents").value(), 1u);
    // ...and after revival, exploration re-probes the victim and steady
    // routing returns to it (its estimate was never poisoned).
    EXPECT_EQ(picks.back(), 1u);
}

TEST(OffloadPlanner, KillingTheLastAvailableBackendPanics)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const PlannerConfig cfg = unitConfig();
    OffloadPlanner planner(cfg, cfg.candidates);
    planner.setAvailable("slow", false);
    planner.setAvailable("fast", false);
    EXPECT_DEATH(planner.setAvailable("mid", false),
                 "no candidate would remain");
}

// ------------------------------------------- serve-level bit-determinism

class PlannerServeTest : public ::testing::Test
{
  protected:
    PlannerServeTest()
        : model_(makeConfig()), rng_(model_.makeRng(1)),
          train_(model_.sampleHiddenBatch(rng_, 160)),
          val_(model_.sampleHiddenBatch(rng_, 48)),
          queries_(model_.sampleHiddenBatch(rng_, 24))
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

    std::unique_ptr<EnmcClassifier>
    makeClassifier(uint64_t threads)
    {
        ClassifierOptions opt;
        opt.candidates = 48;
        SystemConfig sys;
        sys.sim_threads = threads;
        auto clf = std::make_unique<EnmcClassifier>(model_.classifier(),
                                                    opt, sys);
        clf->calibrate(train_, val_);
        return clf;
    }

    static JobSpec
    job()
    {
        JobSpec spec;
        spec.categories = 32768;
        spec.hidden = 128;
        spec.reduced = 32;
        spec.candidates = 512;
        return spec;
    }

    serve::ServeConfig
    config(const std::string &backend) const
    {
        serve::ServeConfig cfg;
        cfg.backend = backend;
        cfg.queue_capacity = 64;
        cfg.max_batch = 8;
        cfg.max_delay_us = 50.0;
        cfg.warmup_requests = 0;
        cfg.topk = 5;
        cfg.planner.candidates = {"cpu", "enmc", "tensordimm"};
        cfg.planner.explore_every = 4;
        return cfg;
    }

    serve::ArrivalTrace
    trace() const
    {
        serve::ArrivalTrace t;
        for (size_t i = 0; i < queries_.size(); ++i) {
            serve::Request r;
            r.id = i;
            r.hidden = queries_[i];
            r.candidates = 32 + 8 * (i % 3);
            r.arrival_us = static_cast<double>(i / 8) * 120.0 +
                           static_cast<double>(i % 2) * 10.0;
            t.requests.push_back(r);
        }
        t.normalize();
        return t;
    }

    workloads::SyntheticModel model_;
    Rng rng_;
    std::vector<tensor::Vector> train_;
    std::vector<tensor::Vector> val_;
    std::vector<tensor::Vector> queries_;
};

TEST_F(PlannerServeTest, AutoReplayBitIdenticalAcrossSimThreads)
{
    const serve::ArrivalTrace arrivals = trace();

    std::vector<serve::ServeReport> reports;
    for (uint64_t threads : {1, 4, 8}) {
        auto clf = makeClassifier(threads);
        serve::ServeLoop loop(config("auto"), job());
        loop.attachClassifier(*clf);
        reports.push_back(loop.replay(arrivals));
    }

    ASSERT_EQ(reports[0].responses.size(), arrivals.requests.size());
    for (size_t v = 1; v < reports.size(); ++v) {
        ASSERT_EQ(reports[v].responses.size(),
                  reports[0].responses.size());
        for (size_t i = 0; i < reports[0].responses.size(); ++i) {
            const serve::Response &a = reports[0].responses[i];
            const serve::Response &b = reports[v].responses[i];
            ASSERT_EQ(a.id, b.id);
            ASSERT_EQ(a.admission, b.admission);
            // The planner's decision sequence itself must replay.
            ASSERT_EQ(a.backend, b.backend) << "request " << a.id;
            ASSERT_DOUBLE_EQ(a.dispatch_us, b.dispatch_us);
            ASSERT_DOUBLE_EQ(a.complete_us, b.complete_us);
            ASSERT_EQ(a.probabilities.size(), b.probabilities.size());
            if (!a.probabilities.empty()) {
                ASSERT_EQ(std::memcmp(a.probabilities.data(),
                                      b.probabilities.data(),
                                      a.probabilities.size() *
                                          sizeof(float)),
                          0);
            }
        }
    }
}

TEST_F(PlannerServeTest, AutoLogitsMemcmpEqualFixedBackendReference)
{
    // Whatever the planner decides, the functional outputs must be the
    // fixed-backend outputs, bit for bit, for every request.
    const serve::ArrivalTrace arrivals = trace();
    auto clf_auto = makeClassifier(4);
    auto clf_ref = makeClassifier(4);

    serve::ServeLoop loop_auto(config("auto"), job());
    loop_auto.attachClassifier(*clf_auto);
    const serve::ServeReport auto_report = loop_auto.replay(arrivals);

    serve::ServeLoop loop_ref(config("enmc"), job());
    loop_ref.attachClassifier(*clf_ref);
    const serve::ServeReport ref_report = loop_ref.replay(arrivals);

    ASSERT_EQ(auto_report.responses.size(), ref_report.responses.size());
    bool saw_decisions = false;
    for (size_t i = 0; i < auto_report.responses.size(); ++i) {
        const serve::Response &a = auto_report.responses[i];
        const serve::Response &r = ref_report.responses[i];
        ASSERT_EQ(a.id, r.id);
        ASSERT_EQ(a.admission, r.admission);
        if (!a.backend.empty() && a.backend != "enmc")
            saw_decisions = true;
        ASSERT_EQ(a.probabilities.size(), r.probabilities.size());
        if (!a.probabilities.empty()) {
            ASSERT_EQ(std::memcmp(a.probabilities.data(),
                                  r.probabilities.data(),
                                  a.probabilities.size() * sizeof(float)),
                      0)
                << "auto logits differ from fixed-backend reference, "
                   "request "
                << a.id;
        }
        ASSERT_EQ(a.topk, r.topk);
        ASSERT_EQ(a.candidates, r.candidates);
    }
    // The planner actually exercised non-reference backends (warm-up
    // probes at minimum), so the equality above is a real property.
    EXPECT_TRUE(saw_decisions);
}

} // namespace
} // namespace enmc::runtime
