#include "cluster/router.h"

#include <algorithm>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "tensor/topk.h"

namespace enmc::cluster {

namespace {

const ClusterConfig &
validated(const ClusterConfig &cfg)
{
    validate(cfg);
    return cfg;
}

} // namespace

ClusterRouter::ClusterRouter(const ClusterConfig &cfg,
                             const runtime::JobSpec &job)
    : cfg_(validated(cfg)), job_(job),
      timing_(runtime::createBackend(cfg.node_backend, cfg.node)),
      stats_("cluster.router"),
      stat_batches_(stats_.addCounter("routedBatches",
                                      "batches routed through the cluster")),
      stat_shard_dispatches_(stats_.addCounter(
          "shardDispatches",
          "shard-batches dispatched to nodes (fan-out total)")),
      stat_reroutes_(stats_.addCounter(
          "reroutes", "shard dispatches whose primary replica was dead")),
      stat_dead_dispatches_(stats_.addCounter(
          "deadDispatches", "dispatches sent to a dead node (must be 0)")),
      stat_kills_(stats_.addCounter("nodeKills", "nodes declared dead")),
      stat_live_nodes_(stats_.addScalar(
          "liveNodes", "live nodes observed at each routed batch")),
      stat_fanout_(stats_.addHistogram(
          "fanOut", "owning shards dispatched per routed batch", 0.0, 64.0,
          32)),
      stats_registration_(stats_)
{
    ENMC_ASSERT(job_.categories >= 1,
                "cluster router needs a non-empty label space");
    shards_ = runtime::RankPartitioner::partition(0, job_.categories,
                                                  cfg_.nodes);
    nodes_.reserve(cfg_.nodes);
    for (uint64_t n = 0; n < cfg_.nodes; ++n)
        nodes_.push_back(std::make_unique<ClusterNode>(
            static_cast<uint32_t>(n), cfg_));
}

std::vector<uint32_t>
ClusterRouter::replicasOf(size_t shard) const
{
    ENMC_ASSERT(shard < shards_.size(), "replica query past the shard map");
    // Chained declustering: shard s lives on nodes s, s+1, ... (mod N).
    std::vector<uint32_t> replicas;
    replicas.reserve(cfg_.replication);
    for (uint64_t r = 0; r < cfg_.replication; ++r)
        replicas.push_back(
            static_cast<uint32_t>((shard + r) % nodes_.size()));
    return replicas;
}

uint64_t
ClusterRouter::liveNodeCount() const
{
    uint64_t live = 0;
    for (const auto &node : nodes_)
        live += node->alive() ? 1 : 0;
    return live;
}

uint64_t
ClusterRouter::candidateShare(uint64_t candidates) const
{
    return std::max<uint64_t>(
        1, runtime::RankPartitioner::evenShare(candidates, shards_.size()));
}

double
ClusterRouter::shardUs(uint64_t rows, uint64_t batch,
                       uint64_t candidates) const
{
    runtime::JobSpec spec = job_;
    spec.categories = rows;
    spec.batch = batch;
    spec.candidates = candidates;
    return timing_.runJob(spec).seconds * 1e6;
}

void
ClusterRouter::killNodeLocked(uint32_t id, double now_us)
{
    ENMC_ASSERT(id < nodes_.size(), "kill of an unknown node");
    if (!nodes_[id]->alive())
        return;
    nodes_[id]->kill();
    ++stat_kills_;
    obs::Tracer &tracer = obs::Tracer::instance();
    if (tracer.enabled())
        tracer.instant("node.kill", "cluster", obs::kClusterPid, id, now_us,
                       {{"epoch", static_cast<double>(stat_kills_.value())}});
}

void
ClusterRouter::killNode(uint32_t id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    killNodeLocked(id, obs::Tracer::instance().nowUs());
}

std::vector<ClusterRouter::ShardAssignment>
ClusterRouter::routeBatch(uint64_t batch, uint64_t candidates,
                          double now_us)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (cfg_.kill.scripted() && !scripted_kill_fired_ &&
        batches_routed_ >= cfg_.kill.after_batches) {
        scripted_kill_fired_ = true;
        killNodeLocked(static_cast<uint32_t>(cfg_.kill.node), now_us);
    }

    std::vector<ShardAssignment> assignments;
    assignments.reserve(shards_.size());
    obs::Tracer &tracer = obs::Tracer::instance();
    for (size_t s = 0; s < shards_.size(); ++s) {
        const std::vector<uint32_t> replicas = replicasOf(s);
        const ClusterNode *best = nullptr;
        for (uint32_t id : replicas) {
            const ClusterNode &cand = *nodes_[id];
            if (!cand.alive())
                continue;
            if (best == nullptr || cand.load() < best->load() ||
                (cand.load() == best->load() && cand.id() < best->id()))
                best = &cand;
        }
        if (best == nullptr)
            ENMC_FATAL("no live replica left for shard ", s,
                       " (replication ", cfg_.replication, ")");
        if (!nodes_[replicas.front()]->alive())
            ++stat_reroutes_;
        if (!best->alive())
            ++stat_dead_dispatches_; // FATAL above keeps this at 0
        nodes_[best->id()]->recordDispatch(batch);
        ++stat_shard_dispatches_;
        assignments.push_back({s, best->id()});
        if (tracer.enabled())
            tracer.instant("shard.dispatch", "cluster", obs::kClusterPid,
                           best->id(), now_us,
                           {{"shard", static_cast<double>(s)},
                            {"batch", static_cast<double>(batch)},
                            {"candidates",
                             static_cast<double>(candidates)}});
    }

    ++batches_routed_;
    ++stat_batches_;
    stat_live_nodes_.sample(static_cast<double>(liveNodeCount()));
    stat_fanout_.sample(static_cast<double>(assignments.size()));
    return assignments;
}

std::vector<uint32_t>
ClusterRouter::primaryLiveAssignment() const
{
    std::vector<uint32_t> owners(shards_.size());
    for (size_t s = 0; s < shards_.size(); ++s) {
        const std::vector<uint32_t> replicas = replicasOf(s);
        const uint32_t *owner = nullptr;
        for (const uint32_t &id : replicas) {
            if (nodes_[id]->alive()) {
                owner = &id;
                break;
            }
        }
        if (owner == nullptr)
            ENMC_FATAL("no live replica left for shard ", s,
                       " (replication ", cfg_.replication, ")");
        owners[s] = *owner;
    }
    return owners;
}

double
ClusterRouter::serviceUs(uint64_t batch, uint64_t candidates) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::vector<uint32_t> owners = primaryLiveAssignment();
    const uint64_t cand_share = candidateShare(candidates);

    // A one-node cluster is the degenerate fabric: no scatter, no gather,
    // no handoff — exactly the single-backend service time, so the
    // 1-node cluster stays bit-identical to the non-cluster path.
    if (nodes_.size() == 1)
        return shardUs(shards_[0].rows, batch, candidates);

    // Scatter: the router sends each owning shard's features
    // point-to-point, plus one ingest handoff per shard message.
    const uint64_t feat_bytes =
        batch * (ceilDiv(job_.reduced, 2) + job_.hidden * 4);
    const double scatter_us =
        cfg_.network.latency * 1e6 +
        static_cast<double>(shards_.size() * feat_bytes) /
            cfg_.network.bandwidth * 1e6 +
        static_cast<double>(shards_.size()) * cfg_.node_handoff_us;

    // Compute: shards assigned to the same node serialize on it; the
    // batch finishes when the slowest node does.
    std::vector<double> node_us(nodes_.size(), 0.0);
    for (size_t s = 0; s < shards_.size(); ++s)
        node_us[owners[s]] += shardUs(shards_[s].rows, batch, cand_share);
    const double compute_us =
        *std::max_element(node_us.begin(), node_us.end());

    // Gather: per-shard partial normalizer + accurate candidates.
    const uint64_t result_bytes = batch * 8 + cand_share * batch * 8;
    const double gather_us =
        cfg_.network.latency * 1e6 +
        static_cast<double>(shards_.size() * result_bytes) /
            cfg_.network.bandwidth * 1e6;

    return scatter_us + compute_us + gather_us;
}

std::vector<runtime::ClassifierOutput>
ClusterRouter::computeBatch(const nn::Classifier &classifier,
                            const screening::Screener &screener,
                            const std::vector<tensor::Vector> &h_batch,
                            size_t k, uint64_t ranks)
{
    const uint64_t l = classifier.categories();
    ENMC_ASSERT(l <= job_.categories,
                "classifier larger than the sharded label space");
    const uint64_t batch = h_batch.size();
    const uint64_t use_ranks = ranks == 0 ? cfg_.ranks_per_node : ranks;

    // Functional sharding follows the label rows actually present on the
    // classifier (functional-scale models are smaller than the timing
    // job), under the same partition policy as the timing shard map.
    const std::vector<runtime::RowSlice> fshards =
        runtime::RankPartitioner::partition(
            0, l, std::min<uint64_t>(cfg_.nodes, l));
    std::vector<uint32_t> owners(fshards.size());
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (size_t s = 0; s < fshards.size(); ++s) {
            bool found = false;
            for (uint64_t r = 0; r < cfg_.replication && !found; ++r) {
                const uint32_t id =
                    static_cast<uint32_t>((s + r) % nodes_.size());
                if (nodes_[id]->alive()) {
                    owners[s] = id;
                    found = true;
                }
            }
            if (!found)
                ENMC_FATAL("no live replica left for functional shard ", s,
                           " (replication ", cfg_.replication, ")");
        }
    }

    // Scatter: shards own disjoint label rows, so they execute
    // concurrently; the shard-order merge keeps the result bit-identical
    // to the serial (and the single-node) execution.
    std::vector<runtime::EnmcSystem::FunctionalResult> parts(fshards.size());
    parallelFor(0, fshards.size(), cfg_.node.sim_threads, [&](size_t s) {
        parts[s].logits.assign(batch, tensor::Vector(l, 0.0f));
        parts[s].candidates.assign(batch, {});
        nodes_[owners[s]]->runShard(classifier, screener, h_batch,
                                    use_ranks, fshards[s].begin,
                                    fshards[s].rows, parts[s]);
    });

    // Gather at the root, in shard order.
    std::vector<tensor::Vector> logits(batch, tensor::Vector(l, 0.0f));
    std::vector<std::vector<uint32_t>> candidates(batch);
    for (size_t s = 0; s < fshards.size(); ++s) {
        for (uint64_t item = 0; item < batch; ++item) {
            std::copy(parts[s].logits[item].begin() + fshards[s].begin,
                      parts[s].logits[item].begin() + fshards[s].begin +
                          fshards[s].rows,
                      logits[item].begin() + fshards[s].begin);
            candidates[item].insert(candidates[item].end(),
                                    parts[s].candidates[item].begin(),
                                    parts[s].candidates[item].end());
        }
    }

    // Root normalization (identical to EnmcSystem::runFunctional), then
    // the global top-k as a mergeTopK over per-shard top-k lists — the
    // bounded-heap merge the ranks inside one node already use, lifted
    // to node granularity.
    std::vector<runtime::ClassifierOutput> outputs(batch);
    for (uint64_t item = 0; item < batch; ++item) {
        runtime::ClassifierOutput &out = outputs[item];
        out.probabilities =
            classifier.normalization() == nn::Normalization::Softmax
                ? tensor::softmaxTaylor(logits[item])
                : tensor::sigmoidTaylor(logits[item]);
        std::vector<std::vector<tensor::Scored>> shard_tops(fshards.size());
        for (size_t s = 0; s < fshards.size(); ++s) {
            shard_tops[s] = tensor::topkScored(
                std::span<const float>(
                    out.probabilities.data() + fshards[s].begin,
                    fshards[s].rows),
                k, static_cast<uint32_t>(fshards[s].begin));
        }
        const std::vector<tensor::Scored> merged =
            tensor::mergeTopK(shard_tops, k);
        out.topk.reserve(merged.size());
        for (const tensor::Scored &sc : merged)
            out.topk.push_back(sc.index);
        out.candidates = std::move(candidates[item]);
    }
    return outputs;
}

} // namespace enmc::cluster
