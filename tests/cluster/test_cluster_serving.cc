/**
 * @file
 * End-to-end tests of the cluster fabric behind the serving loop.
 *
 * The contracts under test, from ISSUE acceptance criteria:
 *  - a 1-node cluster is bit-identical (logits, admissions, schedule
 *    timestamps) to the plain single-backend ServeLoop, for every
 *    simulation thread count;
 *  - a multi-node cluster changes *where* label rows are computed but
 *    never the answer — every admitted response matches the single-query
 *    reference forward;
 *  - a scripted mid-run node kill is survived with zero wrong answers,
 *    zero dispatches to the dead node, and a still-deterministic replay;
 *  - standalone timing queries never route, so they cannot move the kill;
 *  - a screener hot-swap (scheduled, or a concurrent `refresh()`) serves
 *    every batch under one snapshot whose epoch each response carries.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <future>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "cluster/router.h"
#include "runtime/api.h"
#include "serve/loop.h"
#include "workloads/synthetic.h"

namespace enmc::serve {
namespace {

class ClusterServingTest : public ::testing::Test
{
  protected:
    ClusterServingTest()
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

    /** Serving config targeting an N-node cluster. */
    static ServeConfig
    clusterConfig(uint64_t nodes, uint64_t replication)
    {
        ServeConfig cfg;
        cfg.backend = "cluster";
        cfg.queue_capacity = 64;
        cfg.max_batch = 8;
        cfg.max_delay_us = 50.0;
        cfg.warmup_requests = 0;
        cfg.topk = 5;
        cfg.cluster.nodes = nodes;
        cfg.cluster.replication = replication;
        return cfg;
    }

    ArrivalTrace
    trace() const
    {
        ArrivalTrace t;
        for (size_t i = 0; i < queries_.size(); ++i) {
            Request r;
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

    /** Assert `resp` equals `ref`'s single-query forward bitwise. */
    void
    expectMatches(const Response &resp, runtime::EnmcClassifier &ref,
                  const tensor::Vector &h) const
    {
        const auto expect = ref.forward({h}, 5);
        ASSERT_EQ(resp.probabilities.size(), expect[0].probabilities.size());
        ASSERT_EQ(std::memcmp(resp.probabilities.data(),
                              expect[0].probabilities.data(),
                              expect[0].probabilities.size() * sizeof(float)),
                  0)
            << "request " << resp.id << " (epoch " << resp.snapshot_epoch
            << ") differs from its epoch's reference";
        ASSERT_EQ(resp.topk, expect[0].topk);
    }

    static void
    expectBitIdentical(const Response &a, const Response &b)
    {
        ASSERT_EQ(a.id, b.id);
        ASSERT_EQ(a.admission, b.admission);
        ASSERT_EQ(a.batch_size, b.batch_size);
        ASSERT_EQ(a.probabilities.size(), b.probabilities.size());
        if (!a.probabilities.empty()) {
            ASSERT_EQ(std::memcmp(a.probabilities.data(),
                                  b.probabilities.data(),
                                  a.probabilities.size() * sizeof(float)),
                      0)
                << "logits differ for request " << a.id;
        }
        ASSERT_EQ(a.topk, b.topk);
        ASSERT_EQ(a.candidates, b.candidates);
    }

    workloads::SyntheticModel model_;
    Rng rng_;
    std::vector<tensor::Vector> train_;
    std::vector<tensor::Vector> val_;
    std::vector<tensor::Vector> queries_;
};

TEST_F(ClusterServingTest, OneNodeClusterBitIdenticalToPlainBackend)
{
    // The 1-node cluster degenerates to the existing single-backend
    // path: no scatter/gather, no handoff, one shard covering the whole
    // label space. Logits, admissions, AND the dispatch/completion
    // schedule must be bit-identical — for every ENMC_THREADS setting.
    const ArrivalTrace arrivals = trace();
    for (uint64_t threads : {1, 4, 8}) {
        auto clf = makeClassifier(threads);

        ServeConfig plain_cfg = clusterConfig(1, 1);
        plain_cfg.backend = "enmc";
        ServeLoop plain(plain_cfg, job());
        plain.attachClassifier(*clf);
        const ServeReport a = plain.replay(arrivals);

        ServeLoop clustered(clusterConfig(1, 1), job());
        clustered.attachClassifier(*clf);
        const ServeReport b = clustered.replay(arrivals);

        ASSERT_EQ(a.responses.size(), b.responses.size());
        for (size_t i = 0; i < a.responses.size(); ++i) {
            expectBitIdentical(a.responses[i], b.responses[i]);
            ASSERT_DOUBLE_EQ(a.responses[i].dispatch_us,
                             b.responses[i].dispatch_us)
                << "threads=" << threads << " request " << i;
            ASSERT_DOUBLE_EQ(a.responses[i].complete_us,
                             b.responses[i].complete_us)
                << "threads=" << threads << " request " << i;
        }
    }
}

TEST_F(ClusterServingTest, MultiNodeClusterMatchesSingleQueryReference)
{
    // Sharding 4 ways (with replication) moves label rows onto different
    // simulated nodes; every admitted response must still equal the
    // unsharded single-query forward bit-for-bit.
    auto clf = makeClassifier(4);
    auto reference = makeClassifier(4);
    ServeLoop loop(clusterConfig(4, 2), job());
    loop.attachClassifier(*clf);
    const ServeReport report = loop.replay(trace());

    ASSERT_EQ(report.responses.size(), queries_.size());
    for (const Response &resp : report.responses) {
        ASSERT_EQ(resp.admission, Admission::Admitted);
        const auto ref = reference->forward({queries_[resp.id]}, 5);
        ASSERT_EQ(resp.probabilities.size(), ref[0].probabilities.size());
        ASSERT_EQ(std::memcmp(resp.probabilities.data(),
                              ref[0].probabilities.data(),
                              ref[0].probabilities.size() * sizeof(float)),
                  0)
            << "cluster logits differ from reference, request " << resp.id;
        ASSERT_EQ(resp.topk, ref[0].topk);
    }
}

TEST_F(ClusterServingTest, ClusterReplayBitIdenticalAcrossSimThreads)
{
    const ArrivalTrace arrivals = trace();
    std::vector<ServeReport> reports;
    for (uint64_t threads : {1, 4, 8}) {
        auto clf = makeClassifier(threads);
        ServeLoop loop(clusterConfig(4, 2), job());
        loop.attachClassifier(*clf);
        reports.push_back(loop.replay(arrivals));
    }
    ASSERT_EQ(reports[0].responses.size(), arrivals.requests.size());
    for (size_t v = 1; v < reports.size(); ++v) {
        ASSERT_EQ(reports[v].responses.size(),
                  reports[0].responses.size());
        for (size_t i = 0; i < reports[0].responses.size(); ++i) {
            expectBitIdentical(reports[0].responses[i],
                               reports[v].responses[i]);
            ASSERT_DOUBLE_EQ(reports[v].responses[i].dispatch_us,
                             reports[0].responses[i].dispatch_us);
            ASSERT_DOUBLE_EQ(reports[v].responses[i].complete_us,
                             reports[0].responses[i].complete_us);
        }
    }
}

TEST_F(ClusterServingTest, MidRunKillServesEveryAnswerCorrectly)
{
    // Kill node 1 after two routed batches. The run must finish with
    // zero wrong answers, zero dispatches to the dead node, and the
    // failover visible in the router stats.
    auto clf = makeClassifier(4);
    auto reference = makeClassifier(4);
    ServeConfig cfg = clusterConfig(4, 2);
    cfg.cluster.kill.node = 1;
    cfg.cluster.kill.after_batches = 2;
    ServeLoop loop(cfg, job());
    loop.attachClassifier(*clf);
    const ServeReport report = loop.replay(trace());

    ASSERT_EQ(report.responses.size(), queries_.size());
    for (const Response &resp : report.responses) {
        ASSERT_EQ(resp.admission, Admission::Admitted);
        const auto ref = reference->forward({queries_[resp.id]}, 5);
        ASSERT_EQ(resp.probabilities.size(), ref[0].probabilities.size());
        ASSERT_EQ(std::memcmp(resp.probabilities.data(),
                              ref[0].probabilities.data(),
                              ref[0].probabilities.size() * sizeof(float)),
                  0)
            << "post-kill logits differ from reference, request "
            << resp.id;
        ASSERT_EQ(resp.topk, ref[0].topk);
    }

    cluster::ClusterRouter *router = loop.clusterRouter();
    ASSERT_NE(router, nullptr);
    EXPECT_EQ(router->liveNodeCount(), 3u);
    EXPECT_FALSE(router->node(1).alive());
    EXPECT_EQ(router->stats().counter("nodeKills").value(), 1u);
    EXPECT_EQ(router->stats().counter("deadDispatches").value(), 0u);
    EXPECT_GT(router->stats().counter("reroutes").value(), 0u);
    // Scatter/gather accounting closes: the per-node dispatch tallies
    // sum to the router's fan-out total (the check_metrics invariant).
    uint64_t node_total = 0;
    for (size_t n = 0; n < router->nodeCount(); ++n)
        node_total +=
            router->node(n).stats().counter("dispatchedBatches").value();
    EXPECT_EQ(node_total,
              router->stats().counter("shardDispatches").value());
    EXPECT_GT(router->stats().counter("routedBatches").value(), 2u);
}

TEST_F(ClusterServingTest, KilledRunReplaysReproducibly)
{
    // The failover re-times in-flight batches (health-epoch memo); two
    // replays of the same killed run must still agree on every
    // timestamp and every bit.
    auto clf = makeClassifier(4);
    ServeConfig cfg = clusterConfig(4, 2);
    cfg.cluster.kill.node = 2;
    cfg.cluster.kill.after_batches = 1;
    const ArrivalTrace arrivals = trace();

    ServeLoop loop_a(cfg, job());
    ServeLoop loop_b(cfg, job());
    loop_a.attachClassifier(*clf);
    loop_b.attachClassifier(*clf);
    const ServeReport a = loop_a.replay(arrivals);
    const ServeReport b = loop_b.replay(arrivals);
    ASSERT_EQ(a.responses.size(), b.responses.size());
    for (size_t i = 0; i < a.responses.size(); ++i) {
        expectBitIdentical(a.responses[i], b.responses[i]);
        ASSERT_DOUBLE_EQ(a.responses[i].complete_us,
                         b.responses[i].complete_us);
    }
}

TEST_F(ClusterServingTest, LiveModeClusterMatchesReference)
{
    // The live threaded path shares the router with replay; submit the
    // query set through the real executor thread and check answers.
    auto clf = makeClassifier(4);
    auto reference = makeClassifier(4);
    ServeLoop loop(clusterConfig(4, 2), job());
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
        const auto ref = reference->forward({queries_[i]}, 5);
        ASSERT_EQ(std::memcmp(responses[i].probabilities.data(),
                              ref[0].probabilities.data(),
                              ref[0].probabilities.size() * sizeof(float)),
                  0)
            << "live cluster logits differ from reference, request " << i;
        ASSERT_EQ(responses[i].topk, ref[0].topk);
    }
}

TEST_F(ClusterServingTest, StandaloneTimingNeitherRoutesNorMovesTheKill)
{
    // batchServiceUs is a timing query: K calls before the replay must
    // leave the router untouched, so the scripted kill still fires when
    // the replay routes its batch N. Under least-loaded routing node 1
    // serves exactly one shard per batch until it dies.
    constexpr uint64_t kKillAfter = 2;
    auto clf = makeClassifier(4);
    ServeConfig cfg = clusterConfig(4, 2);
    cfg.cluster.kill.node = 1;
    cfg.cluster.kill.after_batches = kKillAfter;
    ServeLoop loop(cfg, job());
    loop.attachClassifier(*clf);
    cluster::ClusterRouter *router = loop.clusterRouter();
    ASSERT_NE(router, nullptr);

    const double first = loop.batchServiceUs(8, 512);
    for (int k = 0; k < 5; ++k)
        EXPECT_DOUBLE_EQ(loop.batchServiceUs(8, 512), first);
    EXPECT_EQ(router->stats().counter("routedBatches").value(), 0u);
    EXPECT_EQ(router->liveNodeCount(), 4u);

    const ServeReport report = loop.replay(trace());
    std::set<double> batches;
    for (const Response &resp : report.responses)
        batches.insert(resp.dispatch_us);
    ASSERT_GT(batches.size(), kKillAfter);
    EXPECT_EQ(router->stats().counter("routedBatches").value(),
              batches.size());
    EXPECT_FALSE(router->node(1).alive());
    EXPECT_EQ(router->node(1).stats().counter("dispatchedBatches").value(),
              kKillAfter);
}

TEST_F(ClusterServingTest, ReplaySwapStampsTheNewEpochAfterTheSwapPoint)
{
    auto clf = makeClassifier(4);
    ServeLoop loop(clusterConfig(4, 2), job());
    loop.attachClassifier(*clf);
    loop.scheduleSwap(1, [&] { clf->refresh(train_, val_); });
    const ServeReport report = loop.replay(trace());
    ASSERT_EQ(report.responses.size(), queries_.size());

    std::set<double> batches;
    for (const Response &resp : report.responses)
        batches.insert(resp.dispatch_us);
    ASSERT_GE(batches.size(), 2u);
    const double first_batch = *batches.begin();
    for (const Response &resp : report.responses)
        EXPECT_EQ(resp.snapshot_epoch,
                  resp.dispatch_us == first_batch ? 1u : 2u)
            << "request " << resp.id;

    auto twin = makeClassifier(4);
    for (const Response &resp : report.responses)
        if (resp.snapshot_epoch == 1)
            expectMatches(resp, *twin, queries_[resp.id]);
    ASSERT_EQ(twin->refresh(train_, val_), 2u);
    for (const Response &resp : report.responses)
        if (resp.snapshot_epoch == 2)
            expectMatches(resp, *twin, queries_[resp.id]);
}

TEST_F(ClusterServingTest, LiveServingUnderConcurrentRefreshMatchesEpochTwins)
{
    // A control thread refreshes the screener while the live cluster
    // loop serves. Each batch must hold one snapshot for all its shards:
    // every response carries a real epoch (>= 1), epochs never go back
    // in dispatch order, and every answer equals the forward of a twin
    // classifier refreshed to the same epoch.
    constexpr uint64_t kRefreshes = 3;
    auto clf = makeClassifier(4);
    ServeConfig cfg = clusterConfig(4, 2);
    cfg.queue_capacity = 128;
    ServeLoop loop(cfg, job());
    loop.attachClassifier(*clf);
    loop.start();

    std::atomic<bool> refreshed{false};
    std::thread control([&] {
        for (uint64_t i = 0; i < kRefreshes; ++i)
            clf->refresh(train_, val_);
        refreshed.store(true);
    });
    std::vector<Response> responses;
    RequestId next = 0;
    while (!refreshed.load() || responses.size() < queries_.size()) {
        std::vector<std::future<Response>> round;
        for (const tensor::Vector &h : queries_) {
            Request r;
            r.id = next++;
            r.hidden = h;
            round.push_back(loop.submitOrdered(std::move(r)));
        }
        for (auto &f : round)
            responses.push_back(f.get());
    }
    control.join();
    loop.stop();

    std::sort(responses.begin(), responses.end(),
              [](const Response &a, const Response &b) {
                  return a.dispatch_us < b.dispatch_us;
              });
    uint64_t last = 1;
    for (const Response &resp : responses) {
        ASSERT_EQ(resp.admission, Admission::Admitted);
        ASSERT_GE(resp.snapshot_epoch, last) << "request " << resp.id;
        ASSERT_LE(resp.snapshot_epoch, 1 + kRefreshes);
        last = resp.snapshot_epoch;
    }

    auto twin = makeClassifier(4);
    for (uint64_t epoch = 1;; ++epoch) {
        for (const Response &resp : responses)
            if (resp.snapshot_epoch == epoch)
                expectMatches(resp, *twin,
                              queries_[resp.id % queries_.size()]);
        if (epoch == 1 + kRefreshes)
            break;
        ASSERT_EQ(twin->refresh(train_, val_), epoch + 1);
    }
}

} // namespace
} // namespace enmc::serve
