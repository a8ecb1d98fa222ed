/**
 * @file
 * The cluster fabric behind the uniform `runtime::Backend` interface:
 * one `ClusterRouter` over the job's label space. The serve loop builds
 * it for `ServeConfig::backend == "cluster"` and drives it like any
 * other backend — `runBatch` routes a dispatched batch (firing any
 * scripted kill) and then times it, `runJob` times without routing, and
 * `forward` scatter/gathers the functional batch across the shards.
 */

#ifndef ENMC_CLUSTER_BACKEND_H
#define ENMC_CLUSTER_BACKEND_H

#include "cluster/router.h"
#include "runtime/backend.h"

namespace enmc::cluster {

class ClusterBackend : public runtime::Backend
{
  public:
    /**
     * @param cfg Cluster shape; `cfg.node` is every node's local system.
     * @param job Full-scale job dimensions; `job.categories` is the label
     *            space the router shards.
     */
    ClusterBackend(const ClusterConfig &cfg, const runtime::JobSpec &job);

    /** "cluster(<nodes>x<node backend>)", the route every batch records. */
    std::string name() const override;

    /** Scatter -> compute -> gather time over the current node health. */
    runtime::TimingResult runJob(const runtime::JobSpec &spec) const override;

    /** Route the batch first: a kill it fires re-times this very batch. */
    runtime::BatchRun runBatch(const runtime::JobSpec &spec,
                               double now_us) override;

    /**
     * Sharded functional forward. Holds one screener snapshot across the
     * whole batch (a concurrent `refresh()` cannot free it mid-batch) and
     * stamps its epoch on every output. Bit-identical to `clf.forward`.
     */
    std::vector<runtime::ClassifierOutput>
    forward(runtime::EnmcClassifier &clf,
            const std::vector<tensor::Vector> &h_batch, size_t k) override;

    ClusterRouter &router() { return router_; }

  private:
    ClusterRouter router_;
};

} // namespace enmc::cluster

#endif // ENMC_CLUSTER_BACKEND_H
