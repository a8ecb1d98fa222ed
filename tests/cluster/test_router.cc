/**
 * @file
 * Tests for the cluster fabric's building blocks: the shard map
 * (RankPartitioner at node granularity, including degenerate shapes),
 * chained-declustering replica placement, node liveness and load,
 * the shared shard-timing memo, least-loaded routing, scripted kills + failover, the
 * health-aware service-time model, the paper's Section 8 scale-out
 * behaviour through that model, and the cluster backend.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>

#include "cluster/backend.h"
#include "cluster/router.h"
#include "screening/trainer.h"
#include "workloads/synthetic.h"

namespace enmc::cluster {
namespace {

runtime::JobSpec
job(uint64_t categories = 32768)
{
    runtime::JobSpec spec;
    spec.categories = categories;
    spec.hidden = 128;
    spec.reduced = 32;
    spec.candidates = 512;
    return spec;
}

ClusterConfig
config(uint64_t nodes = 4, uint64_t replication = 2)
{
    ClusterConfig cfg;
    cfg.nodes = nodes;
    cfg.replication = replication;
    return cfg;
}

// --- shard map (RankPartitioner degenerate shapes) ----------------------

TEST(Partitioner, FewerLabelsThanShardsDropsEmptyShards)
{
    // 3 labels over 8 parts: ceil slicing gives 1-row slices; the five
    // trailing empty slices must be dropped, not emitted as zero-row
    // shards a router would scatter work to.
    const auto slices = runtime::RankPartitioner::partition(0, 3, 8);
    ASSERT_EQ(slices.size(), 3u);
    for (size_t s = 0; s < slices.size(); ++s) {
        EXPECT_EQ(slices[s].begin, s);
        EXPECT_EQ(slices[s].rows, 1u);
    }
}

TEST(Partitioner, ZeroRowsYieldsNoShards)
{
    EXPECT_TRUE(runtime::RankPartitioner::partition(5, 0, 4).empty());
}

TEST(Partitioner, SinglePartTakesEverything)
{
    const auto slices = runtime::RankPartitioner::partition(7, 100, 1);
    ASSERT_EQ(slices.size(), 1u);
    EXPECT_EQ(slices[0].begin, 7u);
    EXPECT_EQ(slices[0].rows, 100u);
}

TEST(Partitioner, NonDividingRemainderCoversExactly)
{
    // 10 rows over 4 parts: 3+3+3+1, contiguous, disjoint, complete.
    const auto slices = runtime::RankPartitioner::partition(0, 10, 4);
    ASSERT_EQ(slices.size(), 4u);
    uint64_t next = 0, total = 0;
    for (const auto &s : slices) {
        EXPECT_EQ(s.begin, next);
        EXPECT_GT(s.rows, 0u);
        next = s.begin + s.rows;
        total += s.rows;
    }
    EXPECT_EQ(total, 10u);
    EXPECT_EQ(slices.back().rows, 1u);
}

// --- nodes --------------------------------------------------------------

TEST(ClusterNode, KillIsImmediate)
{
    ClusterNode node(0, config());
    EXPECT_TRUE(node.alive());
    node.kill();
    EXPECT_FALSE(node.alive());
    node.kill(); // dead nodes stay dead; the kill is counted once
    EXPECT_EQ(node.stats().counter("killed").value(), 1u);
}

TEST(ClusterNode, LoadTracksDispatches)
{
    ClusterNode node(0, config());
    EXPECT_EQ(node.load(), 0u);
    node.recordDispatch(1);
    node.recordDispatch(3);
    // Load counts shard-batches, not the requests inside them.
    EXPECT_EQ(node.load(), 2u);
    EXPECT_EQ(node.stats().counter("dispatchedBatches").value(), 2u);
    EXPECT_EQ(node.stats().counter("servedRequests").value(), 4u);
}

// --- configuration validation -------------------------------------------

TEST(ClusterConfigDeath, RejectsInconsistentShapes)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ClusterConfig bad = config();
    bad.replication = 5; // > nodes
    EXPECT_DEATH(validate(bad), "replication");

    bad = config();
    bad.nodes = 0;
    EXPECT_DEATH(validate(bad), "nodes");

    bad = config();
    bad.kill.node = 4; // not a node id of a 4-node cluster
    EXPECT_DEATH(validate(bad), "kill");
}

// --- router: shard map + replica placement ------------------------------

TEST(Router, ShardsCoverLabelSpaceDisjointly)
{
    ClusterRouter router(config(4, 2), job(10'000));
    ASSERT_EQ(router.shardCount(), 4u);
    uint64_t next = 0, total = 0;
    for (const auto &s : router.shards()) {
        EXPECT_EQ(s.begin, next);
        next = s.begin + s.rows;
        total += s.rows;
    }
    EXPECT_EQ(total, 10'000u);
}

TEST(Router, SmallLabelSpaceDropsEmptyShards)
{
    // 3 labels, 8 nodes: only 3 shards exist; the other nodes are pure
    // replica targets.
    ClusterRouter router(config(8, 2), job(3));
    EXPECT_EQ(router.shardCount(), 3u);
    EXPECT_EQ(router.nodeCount(), 8u);
}

TEST(Router, ChainedDeclusteringPlacesReplicas)
{
    ClusterRouter router(config(4, 3), job());
    EXPECT_EQ(router.replicasOf(0), (std::vector<uint32_t>{0, 1, 2}));
    EXPECT_EQ(router.replicasOf(3), (std::vector<uint32_t>{3, 0, 1}));
    // Distinct replicas per shard (replication <= nodes).
    for (size_t s = 0; s < router.shardCount(); ++s) {
        const auto reps = router.replicasOf(s);
        std::set<uint32_t> uniq(reps.begin(), reps.end());
        EXPECT_EQ(uniq.size(), reps.size());
    }
}

// --- router: routing, kills, failover -----------------------------------

TEST(Router, RouteBalancesAcrossReplicasDeterministically)
{
    ClusterRouter a(config(4, 2), job());
    ClusterRouter b(config(4, 2), job());
    for (int i = 0; i < 16; ++i) {
        const auto ra = a.routeBatch(8, 64, 0.0);
        const auto rb = b.routeBatch(8, 64, 0.0);
        ASSERT_EQ(ra.size(), 4u); // every shard dispatched
        for (size_t s = 0; s < ra.size(); ++s) {
            EXPECT_EQ(ra[s].shard, s);
            EXPECT_EQ(ra[s].node, rb[s].node) << "batch " << i;
        }
    }
    // All nodes carried load (least-loaded spreads over the chain).
    for (size_t n = 0; n < a.nodeCount(); ++n)
        EXPECT_GT(a.node(n).load(), 0u) << "node " << n;
    EXPECT_EQ(a.stats().counter("routedBatches").value(), 16u);
    EXPECT_EQ(a.stats().counter("shardDispatches").value(), 64u);
    EXPECT_EQ(a.stats().counter("deadDispatches").value(), 0u);
}

TEST(Router, FailoverReroutesAroundDeadNode)
{
    ClusterRouter router(config(4, 2), job());
    router.routeBatch(8, 64, 0.0);
    router.killNode(1);
    EXPECT_EQ(router.liveNodeCount(), 3u);

    for (int i = 0; i < 8; ++i) {
        const auto assignments = router.routeBatch(8, 64, 1.0 + i);
        for (const auto &a : assignments)
            EXPECT_NE(a.node, 1u) << "dispatch to a dead node";
    }
    // Shard 1's primary is dead, so each post-kill batch reroutes it.
    EXPECT_GE(router.stats().counter("reroutes").value(), 8u);
    EXPECT_EQ(router.stats().counter("deadDispatches").value(), 0u);
    EXPECT_EQ(router.stats().counter("nodeKills").value(), 1u);
    EXPECT_EQ(router.node(1).stats().counter("killed").value(), 1u);
    // Killing again is a no-op, not a double-count.
    router.killNode(1);
    EXPECT_EQ(router.stats().counter("nodeKills").value(), 1u);
}

TEST(Router, ScriptedKillFiresAtTheConfiguredBatch)
{
    ClusterConfig cfg = config(4, 2);
    cfg.kill.node = 2;
    cfg.kill.after_batches = 3;
    ClusterRouter router(cfg, job());
    for (int i = 0; i < 3; ++i) {
        router.routeBatch(8, 64, static_cast<double>(i));
        EXPECT_EQ(router.liveNodeCount(), 4u) << "kill fired early";
    }
    router.routeBatch(8, 64, 3.0); // fourth batch: kill fires first
    EXPECT_EQ(router.liveNodeCount(), 3u);
    EXPECT_FALSE(router.node(2).alive());
}

TEST(RouterDeath, DiesWhenNoLiveReplicaRemains)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // replication 1: killing any node orphans its shard.
    ClusterConfig cfg = config(2, 1);
    ClusterRouter router(cfg, job());
    router.killNode(0);
    EXPECT_DEATH(router.routeBatch(8, 64, 0.0), "no live replica");
}

// --- router: service-time model -----------------------------------------

TEST(Router, SingleNodeServiceTimeMatchesPlainBackend)
{
    // The degenerate fabric: no scatter/gather/handoff terms, so the
    // 1-node cluster must time bit-identically to the plain backend.
    const runtime::JobSpec spec = job();
    ClusterConfig cfg = config(1, 1);
    ClusterRouter router(cfg, spec);

    auto backend = runtime::createBackend("enmc", cfg.node);
    runtime::JobSpec ref = spec;
    ref.batch = 8;
    ref.candidates = 64;
    const double plain_us = backend->runJob(ref).seconds * 1e6;
    EXPECT_DOUBLE_EQ(router.serviceUs(8, 64), plain_us);
}

TEST(Router, MultiNodeServiceAddsNetworkAndShrinksCompute)
{
    const runtime::JobSpec spec = job(1'000'000);
    ClusterRouter one(config(1, 1), spec);
    ClusterRouter four(config(4, 2), spec);
    const double t1 = one.serviceUs(8, 512);
    const double t4 = four.serviceUs(8, 512);
    EXPECT_GT(t4, 0.0);
    EXPECT_LT(t4, t1); // sharding 1M labels 4-way wins despite network
}

TEST(Router, ServiceTimeRetimesAfterAKill)
{
    ClusterRouter router(config(4, 2), job(1'000'000));
    const double before = router.serviceUs(8, 512);
    router.killNode(0);
    const double after = router.serviceUs(8, 512);
    // Node 0's shard fails over to node 1, which now runs two shards
    // serially: the batch must get slower, not serve a frozen memo.
    EXPECT_GT(after, before);
}

/** CPU-roofline timing that counts its runJob calls. */
class CountingBackend : public runtime::CpuBackend
{
  public:
    CountingBackend(const runtime::SystemConfig &cfg,
                    std::shared_ptr<int> runs)
        : CpuBackend(cfg), runs_(std::move(runs))
    {
    }

    std::string name() const override { return "test-count"; }

    runtime::TimingResult runJob(const runtime::JobSpec &spec) const override
    {
        ++*runs_;
        return CpuBackend::runJob(spec);
    }

  private:
    std::shared_ptr<int> runs_;
};

TEST(Router, SimulatesEachShardShapeOncePerCluster)
{
    // Every node runs the same system, so one memo times the whole
    // cluster: four equal shards on four nodes are one simulation, and
    // a failover onto another node re-uses it.
    auto runs = std::make_shared<int>(0);
    runtime::BackendRegistry::instance().add(
        "test-count", [runs](const runtime::SystemConfig &cfg) {
            return std::make_unique<CountingBackend>(cfg, runs);
        });
    ClusterConfig cfg = config(4, 2);
    cfg.node_backend = "test-count";
    ClusterRouter router(cfg, job());
    ASSERT_EQ(router.shardCount(), 4u);

    const double before = router.serviceUs(8, 64);
    EXPECT_EQ(*runs, 1);
    router.killNode(1);
    EXPECT_GT(router.serviceUs(8, 64), before);
    EXPECT_EQ(*runs, 1);
    router.serviceUs(16, 64); // a new batch size is a new shape
    EXPECT_EQ(*runs, 2);
}

// --- scale-out (paper Section 8) through the router --------------------

/** A global sigmoid problem at 1 item per batch (Section 8's shape). */
runtime::JobSpec
globalJob(uint64_t l)
{
    runtime::JobSpec spec;
    spec.categories = l;
    spec.hidden = 512;
    spec.reduced = 128;
    spec.candidates = l / 2500;
    spec.sigmoid = true;
    return spec;
}

/** Unreplicated, handoff-free fabric: only the network model remains. */
double
scaleOutUs(const runtime::JobSpec &spec, uint64_t nodes,
           const NetworkConfig &net = NetworkConfig{})
{
    ClusterConfig cfg = config(nodes, 1);
    cfg.node_handoff_us = 0.0;
    cfg.network = net;
    return ClusterRouter(cfg, spec).serviceUs(spec.batch, spec.candidates);
}

TEST(ScaleOut, SingleNodeHasNoNetworkCost)
{
    // One node scatters and gathers nothing: even a very slow network
    // must leave its service time untouched.
    NetworkConfig slow;
    slow.bandwidth = 1e6;
    slow.latency = 1e-3;
    const runtime::JobSpec spec = globalJob(10'000'000);
    const double fast_us = scaleOutUs(spec, 1);
    EXPECT_GT(fast_us, 0.0);
    EXPECT_DOUBLE_EQ(scaleOutUs(spec, 1, slow), fast_us);
}

TEST(ScaleOut, SpeedupSaturatesWhenNetworkDominates)
{
    // A small problem: node work shrinks below the fixed network cost.
    const runtime::JobSpec small = globalJob(200'000);
    const double solo = scaleOutUs(small, 1);
    double prev = 1e12;
    for (uint64_t n : {2ull, 8ull, 32ull}) {
        const double us = scaleOutUs(small, n);
        EXPECT_LE(us, prev * 2.0) << n << " nodes"; // never catastrophic
        prev = us;
    }
    // Parallel efficiency decays at this size.
    EXPECT_LT(solo / (scaleOutUs(small, 32) * 32), 0.8);
}

TEST(ScaleOut, SlowNetworkHurtsTotal)
{
    NetworkConfig slow;
    slow.bandwidth = 1e9; // 8 Gb/s
    slow.latency = 100e-6;
    const runtime::JobSpec spec = globalJob(1'000'000);
    EXPECT_GT(scaleOutUs(spec, 8, slow), scaleOutUs(spec, 8));
}

class RouterFunctional : public ::testing::Test
{
  protected:
    RouterFunctional() : model_(makeConfig())
    {
        screening::ScreenerConfig cfg;
        cfg.categories = 2048;
        cfg.hidden = 64;
        cfg.selection = screening::SelectionMode::Threshold;
        Rng rng(3);
        screener_ = std::make_unique<screening::Screener>(cfg, rng);
        Rng data = model_.makeRng(1);
        auto train = model_.sampleHiddenBatch(data, 128);
        screening::Trainer trainer(model_.classifier(), *screener_,
                                   screening::TrainerConfig{});
        trainer.train(train, {});
        screener_->freezeQuantized();
        const float cut = screening::tuneThreshold(*screener_, train, 48);
        screener_->setSelection(screening::SelectionMode::Threshold, 48,
                                cut);
        h_batch_ = model_.sampleHiddenBatch(data, 2);
    }

    static workloads::SyntheticConfig
    makeConfig()
    {
        workloads::SyntheticConfig cfg;
        cfg.categories = 2048;
        cfg.hidden = 64;
        return cfg;
    }

    std::vector<runtime::ClassifierOutput>
    forward(uint64_t nodes)
    {
        ClusterRouter router(config(nodes, 1), job(2048));
        return router.computeBatch(model_.classifier(), *screener_,
                                   h_batch_, 10, 2);
    }

    workloads::SyntheticModel model_;
    std::unique_ptr<screening::Screener> screener_;
    std::vector<tensor::Vector> h_batch_;
};

/** Node partitioning must be numerically transparent. */
class NodeCount : public RouterFunctional,
                  public ::testing::WithParamInterface<uint64_t>
{
};

TEST_P(NodeCount, MergeEqualsSingleNode)
{
    const auto solo = forward(1);
    const auto multi = forward(GetParam());
    ASSERT_EQ(multi.size(), h_batch_.size());
    for (size_t item = 0; item < h_batch_.size(); ++item) {
        ASSERT_EQ(multi[item].probabilities.size(), 2048u);
        EXPECT_EQ(std::memcmp(multi[item].probabilities.data(),
                              solo[item].probabilities.data(),
                              2048 * sizeof(float)),
                  0)
            << "item " << item;
        EXPECT_EQ(multi[item].topk, solo[item].topk);
        EXPECT_EQ(multi[item].candidates, solo[item].candidates);
    }
}

INSTANTIATE_TEST_SUITE_P(Nodes, NodeCount, ::testing::Values(2, 3, 8));

// --- the cluster backend ------------------------------------------------

TEST(ClusterBackend, TimesWithoutRoutingAndRoutesPerBatch)
{
    ClusterBackend backend(config(4, 2), job());
    EXPECT_EQ(backend.name(), "cluster(4xenmc)");
    runtime::JobSpec spec = job();
    spec.batch = 8;
    spec.candidates = 64;
    const runtime::TimingResult r = backend.runJob(spec);
    EXPECT_GT(r.seconds, 0.0);
    EXPECT_GT(r.ranks, 0u);
    EXPECT_EQ(backend.router().stats().counter("routedBatches").value(), 0u)
        << "a timing query must not route";

    const runtime::BatchRun run = backend.runBatch(spec, 0.0);
    EXPECT_EQ(run.route, backend.name());
    EXPECT_DOUBLE_EQ(run.timing.seconds, r.seconds);
    EXPECT_EQ(backend.router().stats().counter("routedBatches").value(), 1u);
}

} // namespace
} // namespace enmc::cluster
