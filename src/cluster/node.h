/**
 * @file
 * One simulated ENMC node of the cluster fabric: liveness, the node's
 * own `EnmcSystem` for functional shard execution (with its own fault
 * seed), and per-node observability ("cluster.node.<id>" stat groups —
 * the per-node view the router's scatter/gather accounting is checked
 * against). Shard timing is not per node: every node runs the same
 * configuration, so the router times all shards through one memo.
 */

#ifndef ENMC_CLUSTER_NODE_H
#define ENMC_CLUSTER_NODE_H

#include <vector>

#include "cluster/config.h"
#include "common/stats.h"
#include "obs/registry.h"
#include "runtime/system.h"

namespace enmc::cluster {

class ClusterNode
{
  public:
    ClusterNode(uint32_t id, const ClusterConfig &cfg);

    uint32_t id() const { return id_; }
    bool alive() const { return alive_; }

    /** Cumulative dispatched shard-batches (least-loaded routing key). */
    uint64_t load() const { return stat_dispatched_.value(); }

    /** Operator/scripted kill: the node is never routed to again. */
    void kill();

    /** Tally one shard-batch dispatched to this node. */
    void recordDispatch(uint64_t requests);

    /**
     * Functional execution of classifier rows
     * [row_begin, row_begin + rows) on this node's simulated ranks;
     * fills that logit range of `out` and appends global candidate ids
     * (see EnmcSystem::runFunctionalRange).
     */
    void runShard(const nn::Classifier &classifier,
                  const screening::Screener &screener,
                  const std::vector<tensor::Vector> &h_batch,
                  uint64_t ranks, uint64_t row_begin, uint64_t rows,
                  runtime::EnmcSystem::FunctionalResult &out) const;

    StatGroup &stats() { return stats_; }

  private:
    uint32_t id_;
    bool alive_ = true;
    runtime::EnmcSystem system_;

    // Per-node stats ("cluster.node.<id>").
    StatGroup stats_;
    Counter &stat_dispatched_;
    Counter &stat_requests_;
    Counter &stat_killed_;
    obs::StatRegistration stats_registration_;
};

} // namespace enmc::cluster

#endif // ENMC_CLUSTER_NODE_H
