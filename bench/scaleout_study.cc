/**
 * @file
 * Scale-out study (paper Section 8's envisioned extension): distributed
 * ENMC nodes, each holding a screener + classifier partition, for the
 * S100M-class problems that exceed one node's pooled memory.
 *
 * Sweeps node count on three problem sizes through the cluster router's
 * scatter -> slowest node -> gather service time (replication 1, no
 * failover) and reports speedup and parallel efficiency, locating where
 * the network overtakes the benefit. The main columns take the per-shard
 * node handoff as free; the last repeats the efficiency at the router's
 * default 10 us handoff, the host cost every shard message pays.
 *
 * Usage: scaleout_study [--check]
 * `--check` exits 1 unless S100M scales efficiently to 16 nodes while
 * XMLCNN-670K saturates past a few (the EXPERIMENTS.md finding).
 */

#include <cstring>
#include <map>

#include "bench_common.h"
#include "cluster/router.h"

using namespace enmc;
using namespace enmc::bench;

namespace {

/** Router service time (us) of one batch of `spec` over `nodes` nodes. */
double
clusterUs(const runtime::JobSpec &spec, uint64_t nodes, double handoff_us)
{
    cluster::ClusterConfig cfg;
    cfg.nodes = nodes;
    cfg.replication = 1;
    cfg.node_handoff_us = handoff_us;
    const cluster::ClusterRouter router(cfg, spec);
    return router.serviceUs(spec.batch, spec.candidates);
}

} // namespace

int
main(int argc, char **argv)
{
    const bool check = argc > 1 && std::strcmp(argv[1], "--check") == 0;
    const double kHandoffUs = cluster::ClusterConfig{}.node_handoff_us;

    printHeader("Scale-out ENMC: nodes sweep (100 Gb/s network)");
    printRow({"dataset", "nodes", "total-us", "speedup", "efficiency",
              "eff@10us-hop"},
             13);

    // efficiency[dataset][nodes], handoff-free.
    std::map<std::string, std::map<uint64_t, double>> eff;
    std::map<std::string, std::map<uint64_t, double>> speedup;
    for (const char *abbr : {"XMLCNN-670K", "S10M", "S100M"}) {
        const workloads::Workload w = workloads::findWorkload(abbr);
        const runtime::JobSpec spec = jobSpecFor(w, 1, true);
        const double solo_us = clusterUs(spec, 1, 0.0);

        for (uint64_t nodes : {1ull, 2ull, 4ull, 8ull, 16ull, 32ull}) {
            const double us = clusterUs(spec, nodes, 0.0);
            const double hop_us = clusterUs(spec, nodes, kHandoffUs);
            speedup[abbr][nodes] = solo_us / us;
            eff[abbr][nodes] = solo_us / us / nodes;
            printRow({abbr, std::to_string(nodes), fmt(us, "%.1f"),
                      fmt(speedup[abbr][nodes], "%.2f"),
                      fmt(eff[abbr][nodes], "%.2f"),
                      fmt(solo_us / hop_us / nodes, "%.2f")},
                     13);
        }
    }

    std::printf(
        "\nFinding: the 100M-category problems scale near-linearly to 8-16\n"
        "nodes (the per-node classification still dwarfs the fixed network\n"
        "cost), while at 670K categories efficiency collapses past a few\n"
        "nodes — scale-out pays exactly when a single node's pooled memory\n"
        "is the binding constraint, matching the paper's motivation. At a\n"
        "10 us per-shard handoff S100M keeps under half its 32-node\n"
        "efficiency and XMLCNN-670K is slower than one node from 2 nodes\n"
        "on: the scatter's host cost, not the network, bounds scale-out.\n");

    if (!check)
        return 0;
    const bool s100m_scales = eff["S100M"][16] >= 0.85;
    const bool xml_saturates = eff["XMLCNN-670K"][32] <= 0.2 &&
                               speedup["XMLCNN-670K"][32] <=
                                   speedup["XMLCNN-670K"][16];
    std::printf("\ncheck: S100M efficiency %.2f at 16 nodes >= 0.85: %s; "
                "XMLCNN-670K efficiency %.2f at 32 nodes <= 0.20 with "
                "speedup %.2f <= %.2f at 16: %s\n",
                eff["S100M"][16], s100m_scales ? "ok" : "FAIL",
                eff["XMLCNN-670K"][32], speedup["XMLCNN-670K"][32],
                speedup["XMLCNN-670K"][16], xml_saturates ? "ok" : "FAIL");
    return s100m_scales && xml_saturates ? 0 : 1;
}
