#include "cluster/backend.h"

#include "common/logging.h"

namespace enmc::cluster {

ClusterBackend::ClusterBackend(const ClusterConfig &cfg,
                               const runtime::JobSpec &job)
    : Backend(cfg.node), router_(cfg, job)
{
}

std::string
ClusterBackend::name() const
{
    return "cluster(" + std::to_string(router_.nodeCount()) + "x" +
           router_.config().node_backend + ")";
}

runtime::TimingResult
ClusterBackend::runJob(const runtime::JobSpec &spec) const
{
    runtime::TimingResult res;
    res.seconds = router_.serviceUs(spec.batch, spec.candidates) / 1e6;
    res.ranks = router_.nodeCount() * cfg_.totalRanks();
    return res;
}

runtime::BatchRun
ClusterBackend::runBatch(const runtime::JobSpec &spec, double now_us)
{
    router_.routeBatch(spec.batch, spec.candidates, now_us);
    return {name(), runJob(spec)};
}

std::vector<runtime::ClassifierOutput>
ClusterBackend::forward(runtime::EnmcClassifier &clf,
                        const std::vector<tensor::Vector> &h_batch, size_t k)
{
    const auto snap = clf.snapshots().current();
    ENMC_ASSERT(snap != nullptr, "cluster forward before any screener");
    // Same ranks-per-node the classifier itself slices across, so a
    // 1-node cluster is bit-identical to the classifier's own forward.
    std::vector<runtime::ClassifierOutput> outs = router_.computeBatch(
        clf.teacher(), snap->screener(), h_batch, k, clf.options().ranks);
    for (runtime::ClassifierOutput &out : outs)
        out.snapshot_epoch = snap->epoch();
    return outs;
}

} // namespace enmc::cluster
