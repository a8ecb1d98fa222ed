/**
 * @file
 * Host wall-clock serving benchmark: drives `serve::ServeLoop` in live
 * mode in front of `runtime::EnmcClassifier` from one generator process,
 * checks every response against a reference classifier outside the timed
 * window, and reports end-to-end metrics (untraced) or per-layer metrics
 * (traced) as one JSON object on the last line of stdout.
 *
 * Usage:
 *   enmc_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--model-seed N] [--warmup-seconds W]
 *                  [--trace-json PATH] [--inject-flip]
 *
 * Workloads (see perfbench/README.md for why each exists):
 *   screened            closed loop, 48 outstanding, fresh queries, no cache
 *   zipf_cached         closed loop like `screened`, queries drawn Zipf(1.1)
 *                       from a fixed 1024 pool, candidate cache of 512
 *   refresh_under_load  `screened` plus a control thread looping refresh()
 *                       (run by hand; not listed in BENCHMARK.json)
 *   cluster_failover    `screened` through a 4-node, 2-way replicated
 *                       cluster; node 1 is killed after 50 routed batches
 *
 * Every host number is wall-clock. The one modeled number,
 * `modeled_p50_us`, replays a seeded schedule in ServeLoop virtual time
 * (timing-only) and moves only when the timing model does.
 *
 * `--inject-flip` flips one bit of one served probability before the
 * correctness check, which must then fail (exit code 1): the check's own
 * self-test.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/router.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/json.h"
#include "obs/percentiles.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "runtime/api.h"
#include "serve/loop.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/quantize.h"
#include "tensor/topk.h"
#include "workloads/synthetic.h"

using namespace enmc;

namespace {

// ---------------------------------------------------------------- shape
// Shared set-up of every workload.
constexpr size_t kCategories = 16384;   // l
constexpr size_t kHidden = 128;         // d
constexpr size_t kCandidateTarget = 128; // tuneThreshold provisions ~2x
constexpr uint64_t kRanks = 4;
constexpr size_t kMaxBatch = 16;
constexpr size_t kTopK = 5;
constexpr size_t kTrain = 256;
constexpr size_t kVal = 64;
constexpr size_t kSetupReps = 3;

// Workload knobs.
// Closed-loop requests in flight: one batch executing, one being cut and
// one queued, so every dispatch finds a full batch. With only max_batch
// outstanding the replies trickle back one by one and the dispatcher's
// deadline splits them into sub-batches whose sizes vary from run to run.
constexpr size_t kOutstanding = 3 * kMaxBatch;
constexpr double kZipfAlpha = 1.1;
constexpr size_t kPool = 1024;
constexpr size_t kCacheCapacity = 512;
constexpr double kRefreshPauseS = 0.5;
constexpr uint64_t kClusterNodes = 4;
constexpr uint64_t kClusterReplication = 2;
constexpr int64_t kKillNode = 1;
constexpr uint64_t kKillAfterBatches = 50;

// Measurement knobs.
constexpr size_t kLayerReps = 7;        // timed calls per layer pass
constexpr size_t kRefBatch = 13;        // reference batch (never 16)
constexpr size_t kIdleRefreshReps = 5;
constexpr size_t kModeledRequests = 4000;
constexpr double kModeledLoad = 0.8;    // of modeled batch-16 capacity
// Parts of the measured window whose figures are reported as a median:
// each part still holds >= 1000 latency samples (>= 10 beyond p99) at the
// slowest workload's ~230-280 req/s over a 15 s window.
constexpr size_t kWindowParts = 3;

enum class Kind { Screened, ZipfCached, RefreshUnderLoad, ClusterFailover };

struct Args
{
    std::string workload;
    Kind kind = Kind::Screened;
    uint64_t seed = 1;
    uint64_t model_seed = 42;
    double seconds = 0.0;
    double warmup_seconds = 0.0; //!< 0 = the workload's default
    bool trace = false;
    std::string trace_json;
    bool inject_flip = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "enmc_perfbench: %s\n"
                 "usage: enmc_perfbench --workload "
                 "screened|zipf_cached|refresh_under_load|cluster_failover\n"
                 "                      --seed N --seconds S --trace 0|1\n"
                 "                      [--model-seed N] "
                 "[--warmup-seconds W] [--trace-json PATH] "
                 "[--inject-flip]\n",
                 why);
    std::exit(2);
}

uint64_t
parseU64(const std::string &s, const char *flag)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (s.empty() || *end != '\0' || s[0] == '-')
        usage((std::string("bad value for ") + flag + ": " + s).c_str());
    return v;
}

double
parsePositive(const std::string &s, const char *flag)
{
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (s.empty() || *end != '\0' || !(v > 0.0) || !std::isfinite(v))
        usage((std::string("bad value for ") + flag + ": " + s).c_str());
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--inject-flip") {
            a.inject_flip = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = parseU64(v, "--seed");
            have_seed = true;
        } else if (flag == "--model-seed") {
            a.model_seed = parseU64(v, "--model-seed");
        } else if (flag == "--seconds") {
            a.seconds = parsePositive(v, "--seconds");
            have_seconds = true;
        } else if (flag == "--warmup-seconds") {
            a.warmup_seconds = parsePositive(v, "--warmup-seconds");
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
            have_trace = true;
        } else if (flag == "--trace-json") {
            a.trace_json = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    static const std::map<std::string, Kind> kinds = {
        {"screened", Kind::Screened},
        {"zipf_cached", Kind::ZipfCached},
        {"refresh_under_load", Kind::RefreshUnderLoad},
        {"cluster_failover", Kind::ClusterFailover},
    };
    const auto it = kinds.find(a.workload);
    if (it == kinds.end())
        usage(("unknown workload '" + a.workload + "'").c_str());
    a.kind = it->second;
    if (!have_seed || !have_seconds || !have_trace)
        usage("--seed, --seconds and --trace are required");
    // zipf_cached starts with a cold cache; its throughput settles after
    // about 3000 requests (3-4 s).
    if (a.warmup_seconds == 0.0)
        a.warmup_seconds = a.kind == Kind::ZipfCached ? 4.0 : 1.0;
    return a;
}

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile; 0 for an empty sample set. */
double
pct(std::vector<double> v, double p)
{
    return v.empty() ? 0.0 : obs::percentile(std::move(v), p);
}

/** Bit-identical float vectors (memcmp, not operator==). */
bool
sameBits(const tensor::Vector &a, const tensor::Vector &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

double
peakRssMiB()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// ------------------------------------------------------------- workload

runtime::JobSpec
jobSpec()
{
    runtime::JobSpec job;
    job.categories = kCategories;
    job.hidden = kHidden;
    job.reduced = kHidden / 4;
    job.candidates = 2 * kCandidateTarget;
    return job;
}

serve::ServeConfig
serveConfig(Kind kind)
{
    serve::ServeConfig cfg;
    cfg.backend = kind == Kind::ClusterFailover ? "cluster" : "enmc";
    cfg.queue_capacity = 256;
    cfg.max_batch = kMaxBatch;
    cfg.warmup_requests = 0; // warm-up is a time window, applied below
    cfg.compute_logits = true;
    cfg.topk = kTopK;
    if (kind == Kind::ClusterFailover) {
        cfg.cluster.nodes = kClusterNodes;
        cfg.cluster.replication = kClusterReplication;
        cfg.cluster.kill.node = kKillNode;
        cfg.cluster.kill.after_batches = kKillAfterBatches;
    }
    return cfg;
}

runtime::ClassifierOptions
classifierOptions(Kind kind, bool reference)
{
    runtime::ClassifierOptions opt;
    opt.candidates = kCandidateTarget;
    opt.ranks = kRanks;
    // The reference twin always runs the uncached path.
    if (kind == Kind::ZipfCached && !reference)
        opt.cache.capacity = kCacheCapacity;
    return opt;
}

/** One set-up: a generated model, its calibrated classifier and a
 *  started serve loop (nullptr for the reference twin's loop once
 *  stopped). */
struct Stack
{
    std::unique_ptr<workloads::SyntheticModel> model;
    std::vector<tensor::Vector> train, val;
    std::unique_ptr<runtime::EnmcClassifier> clf;
    std::unique_ptr<serve::ServeLoop> loop;
    Clock::time_point loop_t0; //!< our clock at ServeLoop::start()
    double setup_s = 0.0;
};

/** Model generation + calibrate + ServeLoop::start, timed. */
Stack
setUp(const Args &args, bool reference)
{
    Stack s;
    const Clock::time_point t0 = Clock::now();
    workloads::SyntheticConfig mc;
    mc.categories = kCategories;
    mc.hidden = kHidden;
    mc.seed = args.model_seed;
    s.model = std::make_unique<workloads::SyntheticModel>(mc);
    Rng rng = s.model->makeRng(1);
    s.train = s.model->sampleHiddenBatch(rng, kTrain);
    s.val = s.model->sampleHiddenBatch(rng, kVal);
    s.clf = std::make_unique<runtime::EnmcClassifier>(
        s.model->classifier(), classifierOptions(args.kind, reference));
    s.clf->calibrate(s.train, s.val);
    s.loop = std::make_unique<serve::ServeLoop>(serveConfig(args.kind),
                                                jobSpec());
    s.loop->attachClassifier(*s.clf);
    s.loop_t0 = Clock::now();
    s.loop->start();
    s.setup_s = secondsBetween(t0, Clock::now());
    return s;
}

/** The fixed pool zipf_cached draws from: a function of the model seed
 *  only, so the hot entries stay the same across query seeds. */
std::vector<tensor::Vector>
fixedPool(const workloads::SyntheticModel &model)
{
    Rng rng = model.makeRng(2);
    return model.sampleHiddenBatch(rng, kPool);
}

// ------------------------------------------------------------ the run

struct Sent
{
    tensor::Vector hidden;
    int64_t pool_index = -1;   //!< zipf_cached only
    double submit_s = 0.0;     //!< on the loop's clock
};

struct Window
{
    double begin_s = 0.0, end_s = 0.0;
    bool contains(double t) const { return t >= begin_s && t < end_s; }
};

struct RunLog
{
    std::vector<Sent> sent;
    /**
     * Delivered responses, by request id. A zipf_cached repeat of a pool
     * entry already delivered at the same epoch is memcmp-checked against
     * that first copy on receipt and then drops its probabilities (they
     * would otherwise hold 64 KiB per request); the first copy is what
     * the reference check compares.
     */
    std::vector<serve::Response> responses;
    size_t repeat_mismatches = 0;
    serve::ServeReport report;
    std::vector<double> refresh_s;          //!< refresh_under_load
    Window warmup, untraced, traced;        //!< traced empty unless --trace 1
};

/**
 * Closed loop: one generator thread keeps kOutstanding requests in flight
 * through warm-up and the measured window, then drains. With --trace 1
 * the window splits in two halves: the tracer is on from the start
 * through the first (traced) half, then off for the second (untraced)
 * half — switching it on mid-run would race the tracer's epoch reset.
 */
void
drive(const Args &args, Stack &stack, RunLog &log)
{
    serve::ServeLoop &loop = *stack.loop;
    runtime::EnmcClassifier &clf = *stack.clf;
    auto now_s = [&] { return secondsBetween(stack.loop_t0, Clock::now()); };

    const double w = args.warmup_seconds, s = args.seconds;
    const double start_s = now_s();
    log.warmup = {start_s, start_s + w};
    if (args.trace) {
        log.traced = {log.warmup.end_s, log.warmup.end_s + s / 2};
        log.untraced = {log.traced.end_s, log.warmup.end_s + s};
        obs::Tracer::instance().setEnabled(true);
    } else {
        log.untraced = {log.warmup.end_s, log.warmup.end_s + s};
    }
    const double end_s = log.untraced.end_s;

    // refresh_under_load: one control thread, refresh -> pause -> ...
    std::mutex stop_mutex;
    std::condition_variable stop_cv;
    bool stop_refresh = false;
    std::thread control;
    if (args.kind == Kind::RefreshUnderLoad) {
        control = std::thread([&] {
            for (;;) {
                const Clock::time_point t0 = Clock::now();
                clf.refresh(stack.train, stack.val);
                log.refresh_s.push_back(secondsBetween(t0, Clock::now()));
                std::unique_lock<std::mutex> lock(stop_mutex);
                if (stop_cv.wait_for(
                        lock,
                        std::chrono::duration<double>(kRefreshPauseS),
                        [&] { return stop_refresh; }))
                    return;
            }
        });
    }

    Rng qrng(args.seed);
    const bool zipf = args.kind == Kind::ZipfCached;
    const std::vector<tensor::Vector> pool =
        zipf ? fixedPool(*stack.model) : std::vector<tensor::Vector>{};
    const ZipfSampler zipf_sampler(kPool, kZipfAlpha);
    // (pool index, epoch) -> id of the first delivered response.
    std::map<std::pair<int64_t, uint64_t>, size_t> first_copy;

    std::deque<std::pair<size_t, std::future<serve::Response>>> inflight;
    while (true) {
        while (inflight.size() < kOutstanding) {
            const double t = now_s();
            if (t >= end_s)
                break;
            if (args.trace && t >= log.traced.end_s &&
                obs::Tracer::instance().enabled())
                obs::Tracer::instance().setEnabled(false);
            Sent q;
            if (zipf) {
                q.pool_index = static_cast<int64_t>(zipf_sampler(qrng));
                q.hidden = pool[static_cast<size_t>(q.pool_index)];
            } else {
                q.hidden = stack.model->sampleHidden(qrng);
            }
            q.submit_s = t;
            serve::Request r;
            r.id = log.sent.size();
            r.hidden = q.hidden;
            inflight.emplace_back(log.sent.size(),
                                  loop.submit(std::move(r)));
            log.sent.push_back(std::move(q));
            log.responses.emplace_back();
        }
        if (inflight.empty())
            break;
        // Replies arrive in dispatch order: the oldest is the next one.
        const size_t id = inflight.front().first;
        serve::Response &resp = log.responses[id];
        resp = inflight.front().second.get();
        inflight.pop_front();
        const int64_t p = log.sent[id].pool_index;
        if (p < 0 || resp.admission != serve::Admission::Admitted)
            continue;
        const auto [it, first] =
            first_copy.emplace(std::make_pair(p, resp.snapshot_epoch), id);
        if (first)
            continue;
        const serve::Response &ref = log.responses[it->second];
        if (!sameBits(resp.probabilities, ref.probabilities) ||
            resp.topk != ref.topk)
            ++log.repeat_mismatches;
        tensor::Vector().swap(resp.probabilities);
    }

    if (control.joinable()) {
        {
            std::lock_guard<std::mutex> lock(stop_mutex);
            stop_refresh = true;
        }
        stop_cv.notify_all();
        control.join();
    }
    obs::Tracer::instance().setEnabled(false);
    log.report = loop.stop();
    // The check reads the delivered responses; of the loop's own copies
    // only the ids are needed.
    for (serve::Response &r : log.report.responses)
        tensor::Vector().swap(r.probabilities);
}
// ------------------------------------------------------- correctness

struct CheckResult
{
    size_t attempted = 0;
    size_t rejected = 0;
    size_t wrong = 0;
    size_t missing = 0;
    size_t duplicated = 0;
    size_t agree = 0, agree_of = 0;  //!< top-1 vs forwardFull, measured
    std::vector<std::string> notes;  //!< first few failure descriptions

    size_t failed() const { return rejected + wrong + missing + duplicated; }
};

bool
sameOutput(const serve::Response &r, const runtime::ClassifierOutput &ref)
{
    return sameBits(r.probabilities, ref.probabilities) && r.topk == ref.topk;
}

/**
 * Check every response against `twin` — a classifier set up exactly like
 * the serving one, cache off — advanced (by refresh(), whose seed depends
 * only on (options.seed, epoch)) to the epoch each response records.
 * Cluster responses record epoch 0; the cluster serves the epoch-1
 * screener, so they check against epoch 1 (the unsharded forward).
 * References run in batches of kRefBatch, so they never share the served
 * batch composition: per-request outputs are batch-composition-invariant.
 */
CheckResult
checkResponses(const Args &args, Stack &twin, RunLog &log,
               const std::vector<Window> &measured)
{
    CheckResult c;
    c.attempted = log.sent.size();

    // Exactly one reported response per submitted id.
    std::vector<size_t> seen(log.sent.size(), 0);
    for (const serve::Response &r : log.report.responses) {
        if (r.id >= seen.size()) {
            ++c.duplicated;
            continue;
        }
        ++seen[r.id];
    }
    for (size_t i = 0; i < seen.size(); ++i) {
        if (seen[i] == 0)
            ++c.missing;
        else if (seen[i] > 1)
            c.duplicated += seen[i] - 1;
    }

    if (args.inject_flip) {
        // Flip the lowest mantissa bit of one probability of the middle
        // admitted response: the check below must catch it.
        for (size_t k = log.responses.size() / 2; k < log.responses.size();
             ++k) {
            serve::Response &r = log.responses[k];
            if (r.admission != serve::Admission::Admitted ||
                r.probabilities.empty())
                continue;
            float &p = r.probabilities[r.probabilities.size() / 2];
            uint32_t bits;
            std::memcpy(&bits, &p, sizeof(bits));
            bits ^= 1u;
            std::memcpy(&p, &bits, sizeof(bits));
            break;
        }
    }

    auto in_measured = [&](double t) {
        for (const Window &w : measured)
            if (w.contains(t))
                return true;
        return false;
    };

    // Group admitted responses by the epoch they must be checked at.
    std::map<uint64_t, std::vector<size_t>> by_epoch;
    const bool cluster = args.kind == Kind::ClusterFailover;
    for (size_t i = 0; i < log.responses.size(); ++i) {
        const serve::Response &r = log.responses[i];
        if (r.admission != serve::Admission::Admitted) {
            ++c.rejected;
            continue;
        }
        // The cluster path stamps epoch 0 but serves the epoch-1 screener
        // (it does not support hot-swap).
        const uint64_t epoch =
            cluster && r.snapshot_epoch == 0 ? 1 : r.snapshot_epoch;
        if (epoch == 0) {
            ++c.wrong;
            if (c.notes.size() < 5)
                c.notes.push_back("request " + std::to_string(i) +
                                  " records unexpected epoch " +
                                  std::to_string(r.snapshot_epoch));
            continue;
        }
        by_epoch[epoch].push_back(i);
    }

    c.wrong += log.repeat_mismatches;
    if (log.repeat_mismatches > 0)
        c.notes.push_back(std::to_string(log.repeat_mismatches) +
                          " pool repeats differ from their first copy");

    runtime::EnmcClassifier &ref = *twin.clf;
    for (const auto &[epoch, ids] : by_epoch) {
        while (ref.snapshotEpoch() < epoch)
            ref.refresh(twin.train, twin.val);
        if (ref.snapshotEpoch() != epoch) {
            c.wrong += ids.size();
            c.notes.push_back("no reference for epoch " +
                              std::to_string(epoch));
            continue;
        }
        // zipf_cached repeats pool entries: reference each once.
        std::map<int64_t, size_t> pool_first;
        std::vector<size_t> todo;
        for (size_t i : ids) {
            const int64_t p = log.sent[i].pool_index;
            if (p < 0 || pool_first.emplace(p, i).second)
                todo.push_back(i);
        }
        std::map<size_t, runtime::ClassifierOutput> ref_out;
        std::map<size_t, uint32_t> exact_top1;
        for (size_t b = 0; b < todo.size(); b += kRefBatch) {
            std::vector<tensor::Vector> h;
            for (size_t j = b; j < std::min(todo.size(), b + kRefBatch); ++j)
                h.push_back(log.sent[todo[j]].hidden);
            auto outs = ref.forward(h, kTopK);
            const auto full = ref.forwardFull(h, 1);
            for (size_t j = 0; j < h.size(); ++j) {
                ref_out[todo[b + j]] = std::move(outs[j]);
                exact_top1[todo[b + j]] = full[j].topk.at(0);
            }
        }
        for (size_t i : ids) {
            const int64_t p = log.sent[i].pool_index;
            const size_t key = p < 0 ? i : pool_first.at(p);
            const serve::Response &r = log.responses[i];
            // A pool repeat was memcmp-checked against the first copy on
            // receipt (drive()); the first copy is checked here.
            const bool ok = i != key && r.probabilities.empty()
                                ? r.topk == ref_out.at(key).topk
                                : sameOutput(r, ref_out.at(key));
            if (!ok) {
                ++c.wrong;
                if (c.notes.size() < 5)
                    c.notes.push_back("request " + std::to_string(i) +
                                      " (epoch " + std::to_string(epoch) +
                                      ") differs from the reference");
            }
            if (in_measured(log.sent[i].submit_s)) {
                ++c.agree_of;
                if (!r.topk.empty() && r.topk[0] == exact_top1.at(key))
                    ++c.agree;
            }
        }
    }
    return c;
}

// ------------------------------------------------------- end to end

struct LatencyStats
{
    double qps = 0.0;
    size_t samples = 0;
    double p50_ms = 0.0, p99_ms = 0.0;
};

/** Throughput = completions inside the window after its first one, over
 *  the time from the first to the last; latency (submit -> complete) over
 *  requests submitted inside it. */
LatencyStats
partStats(const RunLog &log, const Window &w)
{
    LatencyStats st;
    size_t completions = 0;
    double first_s = w.end_s, last_s = w.begin_s;
    std::vector<double> lat;
    for (size_t i = 0; i < log.responses.size(); ++i) {
        const serve::Response &r = log.responses[i];
        if (r.admission != serve::Admission::Admitted)
            continue;
        const double done_s = r.complete_us * 1e-6;
        if (w.contains(done_s)) {
            ++completions;
            first_s = std::min(first_s, done_s);
            last_s = std::max(last_s, done_s);
        }
        if (w.contains(log.sent[i].submit_s))
            lat.push_back((done_s - log.sent[i].submit_s) * 1e3);
    }
    if (completions > 1 && last_s > first_s)
        st.qps = static_cast<double>(completions - 1) / (last_s - first_s);
    st.samples = lat.size();
    if (!lat.empty()) {
        const obs::Percentiles p(std::move(lat));
        st.p50_ms = p.at(0.50);
        st.p99_ms = p.at(0.99);
    }
    return st;
}

/**
 * Each figure is the median over kWindowParts equal parts of the window
 * of that part's figure, so a stall of the shared host that covers one
 * part does not move the result. `samples` counts the whole window.
 */
LatencyStats
windowStats(const RunLog &log, const Window &w)
{
    const double part_s = (w.end_s - w.begin_s) / kWindowParts;
    std::vector<double> qps, p50, p99;
    LatencyStats st;
    for (size_t k = 0; k < kWindowParts; ++k) {
        const double b = w.begin_s + static_cast<double>(k) * part_s;
        const LatencyStats part = partStats(log, {b, b + part_s});
        qps.push_back(part.qps);
        p50.push_back(part.p50_ms);
        p99.push_back(part.p99_ms);
        st.samples += part.samples;
    }
    st.qps = median(qps);
    st.p50_ms = median(p50);
    st.p99_ms = median(p99);
    return st;
}

/**
 * The modeled-clock guard: a seeded conditioned-Poisson schedule at 80%
 * of the workload backend's modeled batch-16 capacity, replayed
 * timing-only in virtual time (the cluster with the same scripted kill).
 * The live rates would leave the modeled server idle — every request a
 * singleton batch with one constant latency — so the schedule is scaled
 * to where batching and queueing shape the distribution.
 */
double
modeledP50Us(const Args &args)
{
    serve::ServeConfig cfg = serveConfig(args.kind);
    cfg.compute_logits = false;
    cfg.queue_capacity = kModeledRequests;
    const runtime::JobSpec job = jobSpec();
    serve::ServeLoop loop(cfg, job);
    const double capacity_per_us =
        static_cast<double>(kMaxBatch) /
        loop.batchServiceUs(kMaxBatch, job.candidates);
    // Conditioned Poisson: kModeledRequests arrivals uniform over the
    // span that rate needs for them.
    const double span_us = static_cast<double>(kModeledRequests) /
                           (kModeledLoad * capacity_per_us);
    Rng rng(args.seed ^ 0x6d6f64656c6564ull);
    std::vector<double> t(kModeledRequests);
    for (double &x : t)
        x = rng.uniform(0.0, span_us);
    std::sort(t.begin(), t.end());
    serve::ArrivalTrace trace;
    for (size_t i = 0; i < t.size(); ++i) {
        serve::Request r;
        r.id = i;
        r.arrival_us = t[i];
        trace.requests.push_back(r);
    }
    return loop.replay(trace).measuredLatency().at(0.50);
}

// ------------------------------------------------------- per layer

struct Span
{
    std::string name;
    double ts = 0.0, dur = 0.0;
    double end() const { return ts + dur; }
};

/** Wall-clock spans (pid 1) the tracer recorded. */
std::vector<Span>
wallSpans()
{
    std::vector<Span> out;
    const obs::Json events = obs::Tracer::instance().eventsJson();
    for (const obs::Json &e : events.items()) {
        if (e.at("ph").asString() != "X" ||
            static_cast<int>(e.at("pid").asDouble()) != obs::kWallPid)
            continue;
        out.push_back({e.at("name").asString(), e.at("ts").asDouble(),
                       e.at("dur").asDouble()});
    }
    return out;
}

double
unionLength(std::vector<std::pair<double, double>> iv)
{
    std::sort(iv.begin(), iv.end());
    double total = 0.0, cur_b = 0.0, cur_e = -1.0;
    for (const auto &[b, e] : iv) {
        if (b > cur_e) {
            if (cur_e > cur_b)
                total += cur_e - cur_b;
            cur_b = b;
            cur_e = e;
        } else {
            cur_e = std::max(cur_e, e);
        }
    }
    if (cur_e > cur_b)
        total += cur_e - cur_b;
    return total;
}

/**
 * Self time per span name under one benchmark root span: a span's
 * duration minus the wall time its direct children cover (parallel
 * children — the four slice.sim spans — count once). Same-name spans
 * under the root are combined by covered wall time, in ms.
 */
std::map<std::string, double>
selfTimesMs(const std::vector<Span> &spans, const Span &root)
{
    std::vector<const Span *> inside{&root};
    for (const Span &s : spans)
        if (&s != &root && s.ts >= root.ts && s.end() <= root.end())
            inside.push_back(&s);
    // Parent = the shortest other span containing it.
    std::map<const Span *, std::vector<const Span *>> children;
    for (const Span *s : inside) {
        if (s == &root)
            continue;
        const Span *parent = &root;
        for (const Span *p : inside)
            if (p != s && p->ts <= s->ts && p->end() >= s->end() &&
                p->dur < parent->dur &&
                !(p->ts == s->ts && p->dur == s->dur))
                parent = p;
        children[parent].push_back(s);
    }
    std::map<std::string, std::vector<std::pair<double, double>>> self_iv;
    std::map<std::string, double> out;
    for (const Span *s : inside) {
        std::vector<std::pair<double, double>> kids;
        for (const Span *k : children[s])
            kids.emplace_back(k->ts, k->end());
        const double self = s->dur - unionLength(kids);
        if (s->name == "slice.sim")
            self_iv[s->name].emplace_back(s->ts, s->end());
        else
            out[s->name] += self * 1e-3;
    }
    for (const auto &[name, iv] : self_iv)
        out[name] = unionLength(iv) * 1e-3;
    return out;
}

struct LayerPass
{
    std::vector<double> ms;
    std::vector<std::map<std::string, double>> self; //!< per call
};

/** Time `kLayerReps` calls of `fn` (after one warm-up call), each under
 *  a benchmark-side span named `name`. */
template <typename Fn>
LayerPass
timePass(const char *name, Fn &&fn)
{
    fn();
    LayerPass lp;
    for (size_t r = 0; r < kLayerReps; ++r) {
        obs::Tracer::instance().clear();
        {
            obs::TraceSpan span(name, "perfbench");
            fn();
        }
        const std::vector<Span> spans = wallSpans();
        for (const Span &s : spans) {
            if (s.name != name)
                continue;
            lp.ms.push_back(s.dur * 1e-3);
            lp.self.push_back(selfTimesMs(spans, s));
        }
    }
    return lp;
}

double
medianSelf(const LayerPass &lp, const std::string &name)
{
    std::vector<double> v;
    for (const auto &m : lp.self) {
        const auto it = m.find(name);
        v.push_back(it == m.end() ? 0.0 : it->second);
    }
    return median(v);
}

struct StatTotals
{
    std::map<std::string, StatGroup> groups;

    uint64_t counter(const std::string &g, const std::string &c) const
    {
        const auto it = groups.find(g);
        if (it == groups.end() || !it->second.hasCounter(c))
            return 0;
        return it->second.counter(c).value();
    }
};

StatTotals
statSnapshot()
{
    StatTotals t{obs::StatRegistry::instance().snapshot()};
    // The global pool sits below obs and does not self-register.
    t.groups.erase("common.threadPool");
    t.groups.emplace("common.threadPool",
                     ThreadPool::global().stats());
    return t;
}

// ------------------------------------------------------------- output

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
fingerprintJson()
{
    const char *threads = std::getenv("ENMC_THREADS");
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"microarch\": \"%s\", \"nproc\": %u, "
                  "\"enmc_threads\": \"%s\", \"build_type\": \"%s\", "
                  "\"compiler\": \"%s\"}",
                  tensor::kernels::microarchKey().c_str(),
                  std::thread::hardware_concurrency(),
                  threads ? threads : "", ENMC_PERFBENCH_BUILD_TYPE,
                  ENMC_PERFBENCH_COMPILER);
    return buf;
}

void
printResult(bool correct, size_t attempted, size_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                    metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    std::printf("fingerprint %s\n", fingerprintJson().c_str());
    std::printf("workload %s seed %llu model-seed %llu seconds %.3g "
                "warmup %.3g trace %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(args.model_seed),
                args.seconds, args.warmup_seconds, args.trace ? 1 : 0);

    // ---- set-up, kSetupReps times: the first becomes the reference
    // twin (cache off), the last serves.
    std::vector<Stack> stacks;
    std::vector<double> setup_s;
    double setup_rss_mib = 0.0;
    for (size_t rep = 0; rep < kSetupReps; ++rep) {
        stacks.push_back(setUp(args, /*reference=*/rep == 0));
        setup_s.push_back(stacks.back().setup_s);
        // Memory is read after the first set-up: later, the live loop
        // keeps a copy of every response until stop() (and so does this
        // benchmark, for the check), which grows with requests served
        // and would read a faster server as a memory regression.
        if (rep == 0)
            setup_rss_mib = peakRssMiB();
        if (rep + 1 < kSetupReps)
            (void)stacks.back().loop->stop();
    }
    Stack &twin = stacks.front();
    Stack &serving = stacks.back();
    std::printf("setup_s per rep:");
    for (double s : setup_s)
        std::printf(" %.3f", s);
    std::printf("\n");

    // ---- serve.
    const StatTotals before = statSnapshot();
    const uint64_t publishes_before =
        serving.clf->snapshots().stats().counter("publishes").value();
    RunLog log;
    drive(args, serving, log);
    const StatTotals after = statSnapshot();
    const uint64_t publishes =
        serving.clf->snapshots().stats().counter("publishes").value() -
        publishes_before;

    if (args.trace && !args.trace_json.empty())
        obs::Tracer::instance().writeTraceFile(args.trace_json);
    obs::Tracer::instance().clear();

    // ---- correctness, outside the timed window.
    std::vector<Window> measured{log.untraced};
    if (args.trace)
        measured.push_back(log.traced);
    const Clock::time_point check_t0 = Clock::now();
    const CheckResult check = checkResponses(args, twin, log, measured);
    const double check_s = secondsBetween(check_t0, Clock::now());
    const double failed_frac =
        check.attempted ? static_cast<double>(check.failed()) /
                              static_cast<double>(check.attempted)
                        : 1.0;
    std::printf("check: %zu attempted, %zu rejected, %zu wrong, %zu "
                "missing, %zu duplicated -> failed_frac %.6g (%.2f s)\n",
                check.attempted, check.rejected, check.wrong, check.missing,
                check.duplicated, failed_frac, check_s);
    for (const std::string &n : check.notes)
        std::printf("  %s\n", n.c_str());
    const bool correct = check.failed() == 0 && check.attempted > 0;
    if (!correct)
        std::printf("CORRECTNESS FAILURE: %zu of %zu requests failed the "
                    "check\n",
                    check.failed(), check.attempted);

    const LatencyStats untraced = windowStats(log, log.untraced);
    std::printf("untraced window: %.2f qps, p50 %.3f ms, p99 %.3f ms over "
                "%zu requests\n",
                untraced.qps, untraced.p50_ms, untraced.p99_ms,
                untraced.samples);
    // Served batch sizes (requests per size) over the untraced window.
    std::map<uint32_t, size_t> batch_hist;
    for (size_t i = 0; i < log.responses.size(); ++i)
        if (log.untraced.contains(log.sent[i].submit_s) &&
            log.responses[i].admission == serve::Admission::Admitted)
            ++batch_hist[log.responses[i].batch_size];
    // Completions per whole second of the untraced window.
    std::vector<size_t> per_second(static_cast<size_t>(
        log.untraced.end_s - log.untraced.begin_s));
    for (const serve::Response &r : log.responses) {
        const double t = r.complete_us * 1e-6 - log.untraced.begin_s;
        if (r.admission == serve::Admission::Admitted && t >= 0.0 &&
            t < static_cast<double>(per_second.size()))
            ++per_second[static_cast<size_t>(t)];
    }
    std::printf("completions per second:");
    for (size_t n : per_second)
        std::printf(" %zu", n);
    std::printf("\n");
    std::printf("batch sizes (size:requests):");
    for (const auto &[size, n] : batch_hist)
        std::printf(" %u:%zu", size, n);
    std::printf("\n");

    std::vector<Metric> metrics;
    if (!args.trace) {
        const double top1 = check.agree_of
                                ? static_cast<double>(check.agree) /
                                      static_cast<double>(check.agree_of)
                                : 0.0;
        metrics = {
            {"throughput_qps", untraced.qps, "req/s"},
            {"latency_p50_ms", untraced.p50_ms, "ms"},
            {"latency_p99_ms", untraced.p99_ms, "ms"},
            {"top1_agreement", top1, "ratio"},
            {"setup_s", median(setup_s), "s"},
            {"peak_rss_mb", setup_rss_mib, "MiB"},
            {"modeled_p50_us", modeledP50Us(args), "us"},
        };
        std::printf("latency samples %zu; refresh calls %zu under load; "
                    "failed_frac %.6g; peak RSS %.1f MiB after set-up, "
                    "%.1f MiB at exit\n",
                    untraced.samples, log.refresh_s.size(), failed_frac,
                    setup_rss_mib, peakRssMiB());
    } else {
        const LatencyStats traced = windowStats(log, log.traced);
        std::printf("traced window: %.2f qps, p50 %.3f ms, p99 %.3f ms over "
                    "%zu requests\n",
                    traced.qps, traced.p50_ms, traced.p99_ms,
                    traced.samples);

        // serve: from the traced window's responses.
        std::vector<double> queue_ms, backend_ms;
        double batch_sum = 0.0;
        size_t classified = 0;
        double cand_sum = 0.0;
        for (size_t i = 0; i < log.responses.size(); ++i) {
            const serve::Response &r = log.responses[i];
            if (r.admission != serve::Admission::Admitted)
                continue;
            ++classified;
            cand_sum += static_cast<double>(r.candidates.size());
            if (!log.traced.contains(log.sent[i].submit_s))
                continue;
            queue_ms.push_back(r.queueUs() * 1e-3);
            backend_ms.push_back(r.backendUs() * 1e-3);
            batch_sum += r.batch_size;
        }
        const double n_items = std::max<double>(1.0, classified);

        // Serving-side counters, read before the layer passes add to them.
        const StatGroup &cstats = serving.clf->cache().stats();
        const double lookups =
            static_cast<double>(cstats.counter("lookups").value());
        const double hits =
            static_cast<double>(cstats.counter("hits").value());

        double node_max = 0.0, node_sum = 0.0;
        cluster::ClusterRouter *live_router = serving.loop->clusterRouter();
        if (live_router != nullptr) {
            for (size_t n = 0; n < live_router->nodeCount(); ++n) {
                const double b = static_cast<double>(
                    live_router->node(n)
                        .stats()
                        .counter("dispatchedBatches")
                        .value());
                node_max = std::max(node_max, b);
                node_sum += b;
            }
        }
        const double node_mean =
            live_router ? node_sum / live_router->nodeCount() : 0.0;

        // Layer passes on a fixed batch of the workload's own inputs.
        std::vector<tensor::Vector> fixed;
        for (size_t i = 0; i < kMaxBatch && i < log.sent.size(); ++i)
            fixed.push_back(log.sent[i].hidden);
        runtime::EnmcClassifier &clf = *serving.clf;
        const nn::Classifier &teacher = serving.model->classifier();
        const screening::Screener &scr = clf.screener();
        const runtime::JobSpec job = jobSpec();

        // Untraced forward timings, taken just before the traced ones
        // below, give the per-call tracing overhead.
        std::vector<double> fwd_untraced_ms;
        for (size_t r = 0; r < kLayerReps; ++r) {
            const Clock::time_point t0 = Clock::now();
            (void)clf.forward(fixed, kTopK);
            fwd_untraced_ms.push_back(secondsBetween(t0, Clock::now()) *
                                      1e3);
        }

        obs::Tracer::instance().setEnabled(true);
        const LayerPass forward = timePass("bench.forward", [&] {
            (void)clf.forward(fixed, kTopK);
        });
        const LayerPass forward_full = timePass("bench.forward_full", [&] {
            (void)clf.forwardFull(fixed, kTopK);
        });
        runtime::EnmcSystem::FunctionalResult fr;
        const LayerPass functional = timePass("bench.functional", [&] {
            fr = clf.system().runFunctional(teacher, scr, fixed, kRanks);
        });
        std::vector<tensor::QuantizedVector> yq(fixed.size());
        const LayerPass project = timePass("bench.project", [&] {
            for (size_t i = 0; i < fixed.size(); ++i)
                yq[i] = tensor::quantize(scr.project(fixed[i]),
                                         scr.config().quant);
        });
        const LayerPass screen = timePass("bench.screen", [&] {
            for (const auto &q : yq)
                (void)tensor::gemvQuantized(scr.quantizedWeights(), q,
                                            scr.bias());
        });
        const LayerPass normalize = timePass("bench.normalize", [&] {
            for (const auto &z : fr.logits)
                (void)tensor::topkIndices(tensor::softmaxTaylor(z), kTopK);
        });
        // Off-cluster workloads time a standalone router of the same shape.
        cluster::ClusterRouter *router = live_router;
        std::unique_ptr<cluster::ClusterRouter> own_router;
        if (router == nullptr) {
            own_router = std::make_unique<cluster::ClusterRouter>(
                serveConfig(Kind::ClusterFailover).cluster, job);
            router = own_router.get();
        }
        const LayerPass cluster_pass = timePass("bench.cluster", [&] {
            (void)router->computeBatch(teacher, scr, fixed, kTopK);
        });
        obs::Tracer::instance().setEnabled(false);
        if (!args.trace_json.empty())
            obs::Tracer::instance().writeTraceFile(args.trace_json +
                                                   ".layers.json");

        // Fixed-batch quality and modeled cycles: deterministic per seed.
        const auto fwd_out = clf.forward(fixed, kTopK);
        const auto full_out = clf.forwardFull(fixed, 1);
        size_t fixed_agree = 0;
        for (size_t i = 0; i < fixed.size(); ++i)
            fixed_agree += fwd_out[i].topk.at(0) == full_out[i].topk.at(0);

        // The breakdown comes from the functional pass, which runs the
        // whole pipeline on every workload (zipf_cached's forward serves
        // the fixed batch from the cache). On screened, forward is
        // functional plus top-k selection.
        const double fwd_ms = median(forward.ms);
        const double fn_ms = median(functional.ms);
        const double self_functional =
            medianSelf(functional, "bench.functional");
        const double self_request = medianSelf(functional, "request");
        const double self_project = medianSelf(functional, "screen.project");
        const double self_slices = medianSelf(functional, "slice.sim");
        const double self_merge = medianSelf(functional, "merge");
        const double accounted = self_functional + self_request +
                                 self_project + self_slices + self_merge;
        std::printf("functional breakdown (traced, ms): normalize (self) "
                    "%.3f + request-self %.3f + screen.project %.3f + "
                    "slice.sim %.3f + merge %.3f = %.3f of %.3f; forward "
                    "%.3f traced, %.3f untraced\n",
                    self_functional, self_request, self_project,
                    self_slices, self_merge, accounted, fn_ms, fwd_ms,
                    median(fwd_untraced_ms));

        auto delta = [&](const char *g, const char *c) {
            return static_cast<double>(after.counter(g, c) -
                                       before.counter(g, c));
        };
        const double row_hits = delta("enmc.rank.dram", "rowHits");
        const double row_total = row_hits +
                                 delta("enmc.rank.dram", "rowMisses") +
                                 delta("enmc.rank.dram", "rowConflicts");
        const double cands_per_item = cand_sum / n_items;
        const double l = static_cast<double>(kCategories);
        const double k = static_cast<double>(scr.reducedDim());
        // Bytes the functional path reads and writes per item, computed
        // from tensor sizes: the packed INT4 screener + row scales
        // (streamed once per batch of 16), the exact candidate rows, and
        // the logit and probability vectors.
        const double bytes_per_item =
            (l * k / 2.0 + l * 4.0) / static_cast<double>(kMaxBatch) +
            cands_per_item * static_cast<double>(kHidden) * 4.0 +
            2.0 * l * 4.0;

        // refresh(): under load where the workload runs it, else on the
        // idle system — last, since it retires the screener `scr` names.
        std::vector<double> refresh_s = log.refresh_s;
        if (args.kind != Kind::RefreshUnderLoad) {
            for (size_t r = 0; r < kIdleRefreshReps; ++r) {
                const Clock::time_point t0 = Clock::now();
                clf.refresh(serving.train, serving.val);
                refresh_s.push_back(secondsBetween(t0, Clock::now()));
            }
        }

        metrics = {
            {"serve.queue_wait_ms.p50", pct(queue_ms, 0.50), "ms"},
            {"serve.queue_wait_ms.p99", pct(queue_ms, 0.99), "ms"},
            {"serve.backend_ms.p50", pct(backend_ms, 0.50), "ms"},
            {"serve.batch_size.mean",
             queue_ms.empty() ? 0.0 : batch_sum / queue_ms.size(), "count"},
            {"serve.rejected", static_cast<double>(check.rejected), "count"},
            {"runtime.forward_ms", fwd_ms, "ms"},
            {"runtime.forward_full_ms", median(forward_full.ms), "ms"},
            {"runtime.functional_ms", fn_ms, "ms"},
            {"runtime.functional_runs_per_item",
             delta("runtime.system", "functionalRuns") / n_items, "count"},
            {"runtime.snapshot_publishes", static_cast<double>(publishes),
             "count"},
            {"runtime.refresh_s", median(refresh_s), "s"},
            {"runtime.functional.self_ms", self_functional, "ms"},
            {"runtime.functional.request_self_ms", self_request, "ms"},
            {"runtime.functional.project_span_ms", self_project, "ms"},
            {"runtime.functional.merge_ms", self_merge, "ms"},
            {"runtime.functional_accounted_frac",
             fn_ms > 0.0 ? accounted / fn_ms : 0.0, "ratio"},
            {"runtime.fixed_batch_top1_agreement",
             static_cast<double>(fixed_agree) /
                 static_cast<double>(fixed.size()),
             "ratio"},
            {"enmc.slice_sim_ms", self_slices, "ms"},
            {"enmc.rank_cycles", static_cast<double>(fr.rank_cycles),
             "cycles"},
            {"dram.reads_per_item", delta("enmc.rank.dram", "reads") / n_items,
             "count"},
            {"dram.row_hit_ratio",
             row_total > 0.0 ? row_hits / row_total : 0.0, "ratio"},
            {"screening.project_ms", median(project.ms), "ms"},
            {"screening.screen_ms", median(screen.ms), "ms"},
            {"screening.cache_hit_ratio",
             lookups > 0.0 ? hits / lookups : 0.0, "ratio"},
            {"screening.cache_evictions",
             static_cast<double>(cstats.counter("evictions").value()),
             "count"},
            {"screening.candidates_per_item", cands_per_item, "count"},
            {"tensor.normalize_ms", median(normalize.ms), "ms"},
            {"tensor.bytes_per_item", bytes_per_item, "bytes"},
            {"cluster.compute_ms", median(cluster_pass.ms), "ms"},
            {"cluster.routed_batches",
             delta("cluster.router", "routedBatches"), "count"},
            {"cluster.node_kills", delta("cluster.router", "nodeKills"),
             "count"},
            {"cluster.node_share.max",
             node_mean > 0.0 ? node_max / node_mean : 0.0, "ratio"},
            {"common.pool_iterations_per_item",
             delta("common.threadPool", "iterations") / n_items, "count"},
            {"obs.trace_overhead_frac",
             untraced.qps > 0.0 ? (untraced.qps - traced.qps) / untraced.qps
                                : 0.0,
             "ratio"},
            {"obs.trace_overhead_forward_frac",
             median(fwd_untraced_ms) > 0.0
                 ? fwd_ms / median(fwd_untraced_ms) - 1.0
                 : 0.0,
             "ratio"},
        };
    }

    for (const Metric &m : metrics)
        std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    printResult(correct, check.attempted, check.failed(), metrics);
    return correct ? 0 : 1;
}
