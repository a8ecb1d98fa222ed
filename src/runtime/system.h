/**
 * @file
 * System-level ENMC orchestration (paper Fig. 10): partitions a
 * classification job across the ENMC DIMM ranks, runs the rank model, and
 * composes end-to-end timing.
 *
 * Ranks hold disjoint category slices and run identical programs, so the
 * timing of the job is the slowest (== any) rank's time; the simulator
 * runs one representative rank. For very large category counts the
 * steady-state tile rate is measured on a truncated slice and linearly
 * extrapolated (validated against full runs in tests — screening is
 * perfectly tile-homogeneous).
 */

#ifndef ENMC_RUNTIME_SYSTEM_H
#define ENMC_RUNTIME_SYSTEM_H

#include <compare>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/stats.h"
#include "dram/config.h"
#include "dram/timing.h"
#include "enmc/config.h"
#include "enmc/rank.h"
#include "fault/injector.h"
#include "nn/classifier.h"
#include "obs/registry.h"
#include "screening/screener.h"

namespace enmc::runtime {

/** Full-system configuration (paper Table 3). */
struct SystemConfig
{
    dram::Organization org = dram::Organization::paperTable3();
    dram::Timing timing = dram::Timing::ddr4_2400();
    arch::EnmcConfig enmc;
    /** Cap on cycle-simulated screening tiles before extrapolation. */
    uint64_t max_sim_tiles = 16384;
    /**
     * Worker threads simulating functional rank slices concurrently:
     * 0 = the process-wide pool (ENMC_THREADS / hardware concurrency),
     * 1 = serial, N = a dedicated N-worker pool. Slices merge in slice
     * order, so results are bit-identical for every setting.
     */
    uint64_t sim_threads = 0;

    /**
     * Fault model applied to every simulated rank's reads and instruction
     * deliveries. Off by default: all figures stay bit-identical.
     */
    fault::FaultConfig fault;
    /** Retry / blacklist / degrade policy of the resilient backend. */
    fault::ResilienceConfig resilience;
    /**
     * Route functional slices through the resilient backend wrapper
     * (retry-with-backoff on detected-uncorrectable data).
     */
    bool resilient = false;
    /**
     * Physical rank ids backing the functional slices (slice s runs on
     * functional_rank_ids[s]); empty = identity. The resilient backend
     * repartitions around blacklisted ranks by listing only healthy ids.
     */
    std::vector<uint32_t> functional_rank_ids;

    uint64_t totalRanks() const
    {
        return static_cast<uint64_t>(org.channels) * org.ranks;
    }
};

/** A full-scale classification job (timing view). */
struct JobSpec
{
    uint64_t categories = 0;       //!< l (whole system)
    uint64_t hidden = 0;           //!< d
    uint64_t reduced = 0;          //!< k
    tensor::QuantBits quant = tensor::QuantBits::Int4;
    uint64_t batch = 1;
    uint64_t candidates = 0;       //!< total candidate budget (whole l)
    bool sigmoid = false;

    friend auto operator<=>(const JobSpec &, const JobSpec &) = default;
};

/** Timing + traffic outcome of one job. */
struct TimingResult
{
    double seconds = 0.0;              //!< classification latency
    Cycles rank_cycles = 0;            //!< representative rank, DDR clock
    bool extrapolated = false;
    arch::RankResult rank;             //!< stats of the simulated rank
    uint64_t ranks = 0;

    /** Whole-system traffic (all ranks). */
    uint64_t totalScreenBytes() const { return rank.screen_bytes * ranks; }
    uint64_t totalExecBytes() const { return rank.exec_bytes * ranks; }
};

/** The ENMC memory system. */
class EnmcSystem
{
  public:
    explicit EnmcSystem(const SystemConfig &cfg);

    const SystemConfig &config() const { return cfg_; }

    /** Build the representative rank's task for a job (timing view). */
    arch::RankTask makeRankTask(const JobSpec &spec) const;

    /**
     * Build a rank task with an explicit slice size (used by the channel
     * simulator, which does its own partitioning).
     */
    static arch::RankTask makeSliceTask(const JobSpec &spec,
                                        uint64_t slice_categories,
                                        uint64_t slice_candidates);

    /** Timing-only execution of a job (full scale). */
    TimingResult runTiming(const JobSpec &spec) const;

    /**
     * Functional execution: slice `screener`/`classifier` across
     * `ranks_to_use` simulated ranks, run each, and merge. Returns mixed
     * logits + probabilities per batch item plus the slowest rank's
     * timing. Used by examples and correctness tests at functional scale.
     */
    struct FunctionalResult
    {
        std::vector<tensor::Vector> logits;
        std::vector<tensor::Vector> probabilities;
        std::vector<std::vector<uint32_t>> candidates;
        Cycles rank_cycles = 0;
        double seconds = 0.0;
        /** Aggregated fault/ECC activity across slices (zero by default). */
        fault::FaultCounters faults;
        uint64_t uncorrectable_words = 0;
        /** Uncorrectable split by protection class (weak = screener). */
        uint64_t uncorrectable_weak_words = 0;
        uint64_t uncorrectable_strong_words = 0;
        /** Check-bit bursts charged by the ECC overhead model. */
        uint64_t ecc_redundancy_reads = 0;
        /** Syndrome-decode cycles charged by the ECC overhead model. */
        uint64_t ecc_decode_cycles = 0;
        uint64_t degraded_candidates = 0;
        /**
         * Per-slice simulated cycle counts, in slice order (one entry per
         * rank slice). The job finishes at max(slice_cycles); the spread
         * is the load imbalance benches report percentiles over.
         */
        std::vector<Cycles> slice_cycles;
    };
    FunctionalResult runFunctional(
        const nn::Classifier &classifier,
        const screening::Screener &screener,
        const std::vector<tensor::Vector> &h_batch,
        uint64_t ranks_to_use = 4) const;

    /**
     * Functional execution restricted to classifier rows
     * [row_begin, row_begin + row_count): fills that range of
     * `out.logits` and appends global candidate ids. Used by the
     * scale-out layer, which assigns disjoint row ranges to nodes.
     * `out` must be pre-sized (logits/candidates per batch item);
     * probabilities are NOT computed (the caller normalizes once).
     */
    void runFunctionalRange(const nn::Classifier &classifier,
                            const screening::Screener &screener,
                            const std::vector<tensor::Vector> &h_batch,
                            uint64_t ranks_to_use, uint64_t row_begin,
                            uint64_t row_count,
                            FunctionalResult &out) const;

  private:
    TimingResult runRank(const arch::RankTask &task) const;

    /** Tally one merged slice result into the system stat group. */
    void recordSlice(const arch::RankResult &res) const;

    SystemConfig cfg_;

    // Job-level stats ("runtime.system"). A cluster node runs several
    // shards through one system concurrently once a failover has moved
    // a shard onto it, so updates lock stats_mutex_ (the counters are
    // plain uint64s). The fault mirrors let the metrics consumer check
    // the ECC accounting invariant (faultInjectedWords ==
    // faultCorrected + faultDetected + faultEscaped) from the exported
    // JSON alone.
    mutable std::mutex stats_mutex_;
    StatGroup stats_;
    Counter &stat_functional_runs_;
    Counter &stat_timing_runs_;
    Counter &stat_slices_;
    Counter &stat_batch_items_;
    Counter &stat_candidates_;
    Counter &stat_fault_injected_;
    Counter &stat_fault_corrected_;
    Counter &stat_fault_detected_;
    Counter &stat_fault_escaped_;
    Counter &stat_uncorrectable_;
    Counter &stat_uncorrectable_weak_;
    Counter &stat_uncorrectable_strong_;
    Counter &stat_redundancy_reads_;
    Counter &stat_decode_cycles_;
    Counter &stat_degraded_;
    ScalarStat &stat_slice_cycles_;
    Histogram &stat_slice_skew_;
    /** Per-protection-class injected/corrected/detected/escaped mirrors,
     *  indexed [class][0..3]; filled in the constructor body (the group's
     *  map storage keeps the references stable). */
    Counter *stat_class_[fault::kNumProtectionClasses][4] = {};
    // Declared last so the group unregisters before any stat dies.
    obs::StatRegistration stats_registration_;
};

} // namespace enmc::runtime

#endif // ENMC_RUNTIME_SYSTEM_H
