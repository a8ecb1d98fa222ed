/**
 * @file
 * The cluster router: shards the label space across N simulated ENMC
 * nodes and scatter/gathers every batch across the owning shards.
 *
 * **Sharding.** Shard s holds the contiguous label rows
 * `RankPartitioner::partition(0, l, nodes)[s]` — the same ceil-slicing
 * policy the ranks inside one node already use, lifted one level.
 * `replication` copies shard s onto nodes {(s + r) mod nodes} (chained
 * declustering: every node carries one primary and replication-1
 * foreign shards, so losing a node spreads its load over several
 * survivors instead of doubling one).
 *
 * **Routing.** Every dispatched batch fans out to all owning shards;
 * each shard picks its least-loaded *live* replica (ties to the lowest
 * node id). Loads advance deterministically per routed batch, so the
 * whole assignment sequence is a pure function of the batch sequence
 * and the health history — replayable bit-for-bit.
 *
 * **Failover.** A killed node (scripted or operator kill) is never
 * routed to again, its shards fail over to the surviving replicas, and
 * the router dies loudly if a shard has no live replica left. Merging
 * is through `tensor::mergeTopK`, so a failover changes *which node
 * computed* a shard, never the answer.
 *
 * **Timing.** Every node runs the same `cfg.node` system, and the
 * timing path never reads the per-node fault seed, so the router times
 * all shards through one `MemoizedBackend`: each distinct shard shape
 * is simulated once per cluster, not once per node.
 */

#ifndef ENMC_CLUSTER_ROUTER_H
#define ENMC_CLUSTER_ROUTER_H

#include <memory>
#include <mutex>
#include <vector>

#include "cluster/config.h"
#include "cluster/node.h"
#include "common/stats.h"
#include "obs/registry.h"
#include "runtime/api.h"
#include "runtime/backend.h"
#include "runtime/partition.h"

namespace enmc::cluster {

class ClusterRouter
{
  public:
    /**
     * @param cfg Cluster shape (validated fatally).
     * @param job Full-scale job dimensions; `job.categories` is the
     *            global label space being sharded.
     */
    ClusterRouter(const ClusterConfig &cfg, const runtime::JobSpec &job);

    const ClusterConfig &config() const { return cfg_; }
    size_t nodeCount() const { return nodes_.size(); }
    size_t shardCount() const { return shards_.size(); }
    const std::vector<runtime::RowSlice> &shards() const { return shards_; }

    ClusterNode &node(size_t id) { return *nodes_.at(id); }

    /** Replica node ids owning shard s, in chained-declustering order
     *  (the first entry is the shard's primary). */
    std::vector<uint32_t> replicasOf(size_t shard) const;

    /** One shard's dispatch target for one batch. */
    struct ShardAssignment
    {
        size_t shard = 0;
        uint32_t node = 0;
    };

    /**
     * Route one dispatched batch: fire any scripted kill that is due,
     * then pick a live replica per shard (least-loaded, ties to the
     * lowest id) and advance the load accounting. Called exactly once
     * per dispatched batch, in both replay and live serving modes.
     * Fatal when a shard has no live replica left.
     */
    std::vector<ShardAssignment> routeBatch(uint64_t batch,
                                            uint64_t candidates,
                                            double now_us);

    /**
     * Simulated scatter -> compute -> gather time (us) of one batch over
     * the current health state: per-shard feature scatter + per-hop node
     * handoff, the slowest node's summed shard work (shards fail over to
     * the first live replica), and the result gather. All network and
     * handoff terms vanish on a single-node cluster, which therefore
     * times bit-identically to the plain single-backend path. Plain
     * arithmetic over the memoized shard timings, so a kill re-times
     * the very next call. Routes nothing.
     */
    double serviceUs(uint64_t batch, uint64_t candidates) const;

    /**
     * Functional forward of a batch: every shard's owner runs its label
     * rows through its node's simulated ranks (concurrently — shards are
     * disjoint), the router merges logits in shard order, normalizes
     * once at the root, and extracts the global top-k by merging the
     * per-shard top-k lists through `tensor::mergeTopK`. Bit-identical
     * to `EnmcClassifier::forward` on the same classifier/screener for
     * any node count and any health history (partition invariance).
     * @param ranks Ranks per node to slice across; 0 = config default.
     */
    std::vector<runtime::ClassifierOutput>
    computeBatch(const nn::Classifier &classifier,
                 const screening::Screener &screener,
                 const std::vector<tensor::Vector> &h_batch, size_t k,
                 uint64_t ranks = 0);

    /** Operator kill (the scripted kill calls this internally). */
    void killNode(uint32_t id);

    uint64_t liveNodeCount() const;

    StatGroup &stats() { return stats_; }

  private:
    /** Shard -> first live replica (steady-state placement; no load
     *  bookkeeping). Fatal when none is live. Caller holds mutex_. */
    std::vector<uint32_t> primaryLiveAssignment() const;
    void killNodeLocked(uint32_t id, double now_us);
    uint64_t candidateShare(uint64_t candidates) const;

    /** Simulated time (us) of one node running `rows` label rows of the
     *  job at the given batch and candidate share. */
    double shardUs(uint64_t rows, uint64_t batch,
                   uint64_t candidates) const;

    ClusterConfig cfg_;
    runtime::JobSpec job_;
    std::vector<runtime::RowSlice> shards_;
    std::vector<std::unique_ptr<ClusterNode>> nodes_;
    runtime::MemoizedBackend timing_;

    mutable std::mutex mutex_;
    uint64_t batches_routed_ = 0;
    bool scripted_kill_fired_ = false;

    // Router-level stats ("cluster.router").
    StatGroup stats_;
    Counter &stat_batches_;
    Counter &stat_shard_dispatches_;
    Counter &stat_reroutes_;
    Counter &stat_dead_dispatches_;
    Counter &stat_kills_;
    ScalarStat &stat_live_nodes_;
    Histogram &stat_fanout_;
    obs::StatRegistration stats_registration_;
};

} // namespace enmc::cluster

#endif // ENMC_CLUSTER_ROUTER_H
