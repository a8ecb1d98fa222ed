/**
 * @file
 * The execution-backend abstraction: one interface in front of the three
 * execution stacks the repo grew — the cycle-level ENMC rank model
 * (`arch::EnmcRank`), the rank-level NMP baselines (`nmp::NmpEngine`:
 * NDA / Chameleon / TensorDIMM / TensorDIMM-Large) and the CPU roofline
 * (`nmp::cpu*Time`).
 *
 * Benches, examples and future serving layers select a backend by name
 * from the string-keyed registry instead of `#include`-level dispatch:
 *
 *   auto backend = runtime::createBackend("tensordimm");
 *   runtime::TimingResult r = backend->runJob(spec);
 *
 * All backends express results in the DDR command-clock domain of the
 * system configuration they were created with, so timings compare
 * directly (the NMPO-style uniform device abstraction the profiling
 * layer needs).
 */

#ifndef ENMC_RUNTIME_BACKEND_H
#define ENMC_RUNTIME_BACKEND_H

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "enmc/task.h"
#include "nmp/cpu.h"
#include "nmp/engine.h"
#include "runtime/api.h"
#include "runtime/system.h"

namespace enmc::runtime {

/** One dispatched batch: the route that served it and its timing. */
struct BatchRun
{
    std::string route;       //!< recorded on every response of the batch
    TimingResult timing;
};

/** One execution target behind the uniform device interface. */
class Backend
{
  public:
    virtual ~Backend() = default;

    /** Registry key ("enmc", "tensordimm", "cpu", ...). */
    virtual std::string name() const = 0;

    /** Full-job timing in the DDR clock of `config()`. */
    virtual TimingResult runJob(const JobSpec &spec) const = 0;

    /**
     * Route and time one dispatched batch. The serve loop calls this
     * exactly once per dispatched batch, in replay and live mode alike,
     * so both modes see the same routing sequence for the same batch
     * sequence. The default serves every batch here: {name(), runJob}.
     * Meta-backends override it to pick the route (the planner) or to
     * route before timing (the cluster, whose routing may kill a node
     * and so re-time this very batch).
     */
    virtual BatchRun runBatch(const JobSpec &spec, double now_us);

    /**
     * Functional forward of a batch served by this backend. The default
     * is `clf.forward`: the classifier computes the logits itself, so
     * every single-system backend — and the planner, which routes timing
     * only — is bit-identical by construction.
     */
    virtual std::vector<ClassifierOutput>
    forward(EnmcClassifier &clf, const std::vector<tensor::Vector> &h_batch,
            size_t k);

    const SystemConfig &config() const { return cfg_; }

  protected:
    explicit Backend(const SystemConfig &cfg) : cfg_(cfg) {}

    SystemConfig cfg_;
};

/**
 * Time one representative rank slice of a job partitioned over `ranks`
 * ranks: slices past 64K rows are truncated and the result scaled
 * linearly (screening is tile-homogeneous). `extra_cycles` is added to
 * the job's cycles after scaling (a host-side penalty).
 */
TimingResult scaledSliceTiming(
    arch::RankTask task, uint64_t ranks, Cycles extra_cycles,
    const SystemConfig &cfg,
    const std::function<arch::RankResult(const arch::RankTask &)> &run);

/** The ENMC rank model (Screener + Executor + FILTER, Fig. 7). */
class EnmcBackend : public Backend
{
  public:
    explicit EnmcBackend(const SystemConfig &cfg);

    std::string name() const override { return "enmc"; }
    TimingResult runJob(const JobSpec &spec) const override;

    /** One rank slice; honours tensor payloads when the task has them. */
    arch::RankResult runSlice(const arch::RankTask &task) const;
};

/** A Table 4 NMP baseline (NDA / Chameleon / TensorDIMM / -Large). */
class NmpBackend : public Backend
{
  public:
    NmpBackend(std::string name, const nmp::EngineConfig &engine,
               const SystemConfig &cfg);

    std::string name() const override { return name_; }
    TimingResult runJob(const JobSpec &spec) const override;
    arch::RankResult runSlice(const arch::RankTask &task) const;

    const nmp::EngineConfig &engineConfig() const { return engine_; }

  private:
    std::string name_;
    nmp::EngineConfig engine_;
};

/** The host CPU roofline (Section 6.2's Xeon 8280). */
class CpuBackend : public Backend
{
  public:
    /**
     * @param screening true = CPU + approximate screening; false = the
     *        full-classification baseline everything normalizes to.
     */
    CpuBackend(const SystemConfig &cfg, bool screening = true,
               const nmp::CpuConfig &cpu = nmp::CpuConfig{});

    std::string name() const override
    {
        return screening_ ? "cpu" : "cpu-full";
    }
    TimingResult runJob(const JobSpec &spec) const override;
    arch::RankResult runSlice(const arch::RankTask &task) const;

  private:
    double sliceSeconds(const arch::RankTask &task) const;

    bool screening_;
    nmp::CpuConfig cpu_;
};

/**
 * Timing memo in front of a deterministic backend: `runJob` runs the
 * inner backend once per distinct `JobSpec` and serves repeats from a
 * map, so replay costs O(distinct shapes) simulations. Wrap leaf
 * backends (the serve loop's fixed backend, a planner candidate, the
 * cluster's per-shard timing), never a meta-backend: memoizing the
 * planner would freeze its first decision per shape, and the cluster's
 * time depends on node health. Everything else delegates.
 */
class MemoizedBackend : public Backend
{
  public:
    explicit MemoizedBackend(std::unique_ptr<Backend> inner);

    std::string name() const override { return inner_->name(); }
    TimingResult runJob(const JobSpec &spec) const override;

  private:
    std::unique_ptr<Backend> inner_;
    mutable std::mutex mutex_;
    mutable std::map<JobSpec, TimingResult> memo_;
};

/** Builds a backend against a system configuration. */
using BackendFactory =
    std::function<std::unique_ptr<Backend>(const SystemConfig &)>;

/**
 * String-keyed backend registry. The built-in backends ("enmc", "nda",
 * "chameleon", "tensordimm", "tensordimm-large", "cpu", "cpu-full") are
 * registered on first use; plugins may add more.
 */
class BackendRegistry
{
  public:
    static BackendRegistry &instance();

    /** Register (or replace) a factory under `name`. */
    void add(const std::string &name, BackendFactory factory);

    bool contains(const std::string &name) const;

    /** All registered names, sorted. */
    std::vector<std::string> names() const;

    /** Instantiate `name`; panics listing the registry on a miss. */
    std::unique_ptr<Backend>
    create(const std::string &name,
           const SystemConfig &cfg = SystemConfig{}) const;

  private:
    BackendRegistry();

    std::map<std::string, BackendFactory> factories_;
};

/** Shorthand for BackendRegistry::instance().create(...). */
std::unique_ptr<Backend>
createBackend(const std::string &name,
              const SystemConfig &cfg = SystemConfig{});

/** Shorthand for BackendRegistry::instance().names(). */
std::vector<std::string> backendNames();

} // namespace enmc::runtime

#endif // ENMC_RUNTIME_BACKEND_H
