/**
 * @file
 * The programmer-facing ENMC API (paper Fig. 9): wraps screener training,
 * threshold tuning, and hardware execution behind a classifier object —
 * the C++ analogue of the paper's `enmc.Classifier(...)` /
 * `model.forward(...)` Python package.
 *
 * Two serving-oriented extensions (ROADMAP item 4) sit on top of the
 * paper flow, both off by default and bit-identical when enabled with
 * default knobs:
 *  - a hot-label candidate cache (screening::CandidateCache) in front of
 *    screening — repeated feature sketches skip the full screening GEMV
 *    and go straight to exact executor rows for the cached candidate set;
 *  - versioned screener snapshots (runtime::ScreenerSnapshotSlot) so the
 *    screener can be retrained and hot-swapped while forward() keeps
 *    serving; every output records the snapshot epoch that computed it.
 */

#ifndef ENMC_RUNTIME_API_H
#define ENMC_RUNTIME_API_H

#include <atomic>
#include <memory>
#include <vector>

#include "nn/classifier.h"
#include "runtime/snapshot.h"
#include "runtime/system.h"
#include "screening/cache.h"
#include "screening/screener.h"
#include "screening/trainer.h"

namespace enmc::runtime {

/** Construction options for an offloaded classifier. */
struct ClassifierOptions
{
    double reduction_scale = 0.25;          //!< Fig. 12(a) default
    tensor::QuantBits quant = tensor::QuantBits::Int4; //!< Fig. 12(b)
    /** Weight-quantization scheme (symmetric = bit-identical default). */
    tensor::QuantScheme scheme = tensor::QuantScheme::Symmetric;
    /** Target candidate count per inference (threshold is tuned to it). */
    size_t candidates = 64;
    screening::TrainerConfig trainer;
    /** Ranks to slice across in functional runs. */
    uint64_t ranks = 4;
    uint64_t seed = 42;
    /** Candidate-cache knobs (capacity 0 = disabled, the default). */
    screening::CacheConfig cache;
    /** Snapshot grace-list knobs. */
    SnapshotConfig snapshot;
};

/** `base` with the `ENMC_CACHE_*` / `ENMC_SNAPSHOT_*` environment
 *  overrides applied (fail-loud, like every other `ENMC_*` knob). */
ClassifierOptions
classifierOptionsFromEnv(ClassifierOptions base = ClassifierOptions{});

/** One inference's output. */
struct ClassifierOutput
{
    tensor::Vector probabilities;      //!< full-length, mixed accuracy
    std::vector<uint32_t> topk;        //!< top-k category indices
    std::vector<uint32_t> candidates;  //!< rows computed accurately
    /** True when the candidate cache served this item (validated hit). */
    bool cache_hit = false;
    /** Screener snapshot epoch this item was computed under. */
    uint64_t snapshot_epoch = 0;
};

/**
 * An extreme classifier offloaded to ENMC memory.
 *
 * Usage:
 *   EnmcClassifier clf(teacher, options, system);
 *   clf.calibrate(train_h, val_h);             // Algorithm 1 + threshold
 *   auto out = clf.forward(h_batch, k);        // runs on the rank model
 *
 * Threading: forward() may run concurrently with swapScreener()/refresh()
 * (the serve executor thread vs. a control thread) — each forward()
 * acquires one snapshot and uses it for the whole batch. Everything else
 * (calibrate, save/load, the cache) is single-threaded by design.
 */
class EnmcClassifier
{
  public:
    EnmcClassifier(const nn::Classifier &teacher,
                   const ClassifierOptions &options,
                   const SystemConfig &system = SystemConfig{});

    /** Distill the screener and tune the FILTER threshold (offline). */
    screening::TrainReport calibrate(
        const std::vector<tensor::Vector> &train_h,
        const std::vector<tensor::Vector> &val_h);

    /** Candidates-only classification of a batch on the ENMC model. */
    std::vector<ClassifierOutput> forward(
        const std::vector<tensor::Vector> &h_batch, size_t k);

    /** Reference full classification (host-only path). */
    std::vector<ClassifierOutput> forwardFull(
        const std::vector<tensor::Vector> &h_batch, size_t k) const;

    /** Persist the calibrated screener (train once, deploy many). */
    void save(const std::string &path) const;

    /** Restore a previously saved screener; marks the model calibrated. */
    void load(const std::string &path);

    /**
     * Atomically publish a replacement screener (already trained; frozen
     * here if needed). In-flight forward() batches finish on the snapshot
     * they acquired; later batches see the new epoch. `projection_seed`
     * is the Rng seed the replacement's projection was drawn from (kept
     * so save() stays round-trippable). Returns the new epoch.
     */
    uint64_t swapScreener(std::unique_ptr<screening::Screener> screener,
                          uint64_t projection_seed);

    /**
     * Online refresh: distill a fresh screener against the current
     * teacher (seeded from options.seed + the next epoch so retrains
     * differ), tune its threshold, and hot-swap it in. Returns the new
     * epoch. Safe to call while another thread serves forward().
     */
    uint64_t refresh(const std::vector<tensor::Vector> &train_h,
                     const std::vector<tensor::Vector> &val_h);

    const nn::Classifier &teacher() const { return teacher_; }
    const ClassifierOptions &options() const { return options_; }
    /**
     * The current snapshot's screener. Only safe while no concurrent
     * swap can retire it (calibration, tests). Serving paths never use
     * this: forward() and the cluster backend each hold
     * `snapshots().current()` for the whole batch instead.
     */
    const screening::Screener &screener() const;
    const EnmcSystem &system() const { return system_; }
    bool calibrated() const { return calibrated_; }

    /** Epoch of the currently published screener (1 after construction). */
    uint64_t snapshotEpoch() const { return slot_.epoch(); }
    ScreenerSnapshotSlot &snapshots() { return slot_; }
    screening::CandidateCache &cache() { return cache_; }

    /** Cycles spent by the representative rank in the last forward(). */
    Cycles lastRankCycles() const { return last_cycles_; }

  private:
    /** Build an untrained screener from these options (fresh seed). */
    std::unique_ptr<screening::Screener> makeScreener(uint64_t seed) const;

    /** Serve one validated cache hit host-side (exact rows from h). */
    ClassifierOutput serveHit(const screening::CacheEntry &entry,
                              const tensor::Vector &h, size_t k) const;

    const nn::Classifier &teacher_;
    ClassifierOptions options_;
    EnmcSystem system_;
    ScreenerSnapshotSlot slot_;
    /**
     * Mutable alias of the *initial* published screener, used only by
     * the offline calibrate()/load() flow (which runs before serving
     * starts, so the published snapshot is not yet shared). Hot-swapped
     * screeners are trained outside the slot and arrive frozen.
     */
    screening::Screener *calib_screener_ = nullptr;
    /** Rng seed the current screener's projection was drawn from. */
    uint64_t projection_seed_ = 0;
    screening::CandidateCache cache_;
    /** Atomic: swapScreener() sets it while forward() may read it. */
    std::atomic<bool> calibrated_{false};
    Cycles last_cycles_ = 0;
};

} // namespace enmc::runtime

#endif // ENMC_RUNTIME_API_H
