/**
 * @file
 * One simulated ENMC node of the cluster fabric: a `runtime::NodeBackend`
 * (health + load + timing) paired with the node's own `EnmcSystem` for
 * functional shard execution, plus per-node observability
 * ("cluster.node.<id>" stat groups — the per-node view the router's
 * scatter/gather accounting is checked against).
 */

#ifndef ENMC_CLUSTER_NODE_H
#define ENMC_CLUSTER_NODE_H

#include <memory>
#include <vector>

#include "cluster/config.h"
#include "common/stats.h"
#include "obs/registry.h"
#include "runtime/node_backend.h"
#include "runtime/system.h"

namespace enmc::cluster {

class ClusterNode
{
  public:
    ClusterNode(uint32_t id, const ClusterConfig &cfg);

    uint32_t id() const { return backend_.id(); }
    runtime::NodeHealth health() const { return backend_.health(); }
    bool alive() const { return backend_.alive(); }
    uint64_t load() const { return backend_.load(); }
    runtime::NodeBackend &backend() { return backend_; }

    void kill();

    /** Tally one shard-batch dispatched to this node. */
    void recordDispatch(uint64_t requests);

    /**
     * Simulated service time (us) of this node running `rows` label rows
     * of `job` at the given batch/candidate share (memoized by the
     * node's `MemoizedBackend`).
     */
    double shardJobUs(const runtime::JobSpec &job, uint64_t rows,
                      uint64_t batch, uint64_t candidates) const;

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
    static runtime::SystemConfig nodeSystem(uint32_t id,
                                            const ClusterConfig &cfg);

    runtime::NodeBackend backend_;
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
