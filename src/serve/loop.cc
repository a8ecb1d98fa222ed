#include "serve/loop.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <queue>
#include <tuple>

#include "cluster/backend.h"
#include "common/logging.h"
#include "obs/trace.h"
#include "runtime/planner.h"
#include "tensor/tune.h"

namespace enmc::serve {

namespace {

const ServeConfig &
validated(const ServeConfig &cfg)
{
    validate(cfg);
    return cfg;
}

/**
 * The backend `cfg.backend` names: `"cluster"` builds the sharded fabric
 * from `cfg.cluster` (with `sys` as every node's local system), `"auto"`
 * the adaptive planner from `cfg.planner`; any other name resolves
 * through the registry, behind the timing memo.
 */
std::unique_ptr<runtime::Backend>
makeBackend(const ServeConfig &cfg, const runtime::JobSpec &job,
            const runtime::SystemConfig &sys)
{
    if (cfg.backend == "cluster") {
        cluster::ClusterConfig cc = cfg.cluster;
        cc.node = sys;
        return std::make_unique<cluster::ClusterBackend>(cc, job);
    }
    if (cfg.backend == "auto")
        return std::make_unique<runtime::AutoBackend>(sys, cfg.planner);
    return std::make_unique<runtime::MemoizedBackend>(
        runtime::createBackend(cfg.backend, sys));
}

} // namespace

/** Per-tenant SLO accounting ("serve.tenant.<name>"). */
struct ServeLoop::TenantStats
{
    explicit TenantStats(const std::string &tenant)
        : group("serve.tenant." + (tenant.empty() ? "default" : tenant)),
          requests(group.addCounter("requests", "requests finalized")),
          admitted(group.addCounter("admitted", "requests admitted")),
          violations(group.addCounter(
              "sloViolations",
              "measured requests whose latency exceeded the SLO")),
          latency(group.addScalar("latencyUs",
                                  "end-to-end latency, measured requests")),
          registration(group)
    {
    }

    StatGroup group;
    Counter &requests;
    Counter &admitted;
    Counter &violations;
    ScalarStat &latency;
    obs::StatRegistration registration;
};

ServeLoop::ServeLoop(const ServeConfig &cfg, const runtime::JobSpec &job,
                     const runtime::SystemConfig &sys)
    : cfg_(validated(cfg)),
      job_(job),
      backend_(makeBackend(cfg_, job, sys)),
      queue_(cfg.queue_capacity),
      batcher_(cfg.max_batch, cfg.max_delay_us),
      stats_("serve.loop"),
      stat_requests_(stats_.addCounter("requests", "requests finalized")),
      stat_warmup_(stats_.addCounter(
          "warmupRequests",
          "admitted requests flagged warm-up (excluded from percentiles)")),
      stat_measured_(stats_.addCounter(
          "measuredRequests", "admitted requests counted in percentiles")),
      stat_rejected_(stats_.addCounter("rejected", "requests rejected")),
      stat_slo_violations_(stats_.addCounter(
          "sloViolations",
          "measured requests whose latency exceeded the SLO")),
      stat_queue_us_(stats_.addScalar(
          "timeInQueueUs", "admission-to-dispatch time per request")),
      stat_backend_us_(stats_.addScalar(
          "timeInBackendUs", "dispatch-to-completion time per request")),
      // Fixed shape regardless of slo_us: the registry merges
      // same-named groups across instances, so shapes must agree.
      stat_latency_hist_(stats_.addHistogram(
          "latencyUs", "end-to-end latency of admitted requests", 0.0, 1e6,
          40)),
      stat_cache_hits_(stats_.addCounter(
          "cacheHits",
          "measured requests served from the candidate cache")),
      stat_cache_misses_(stats_.addCounter(
          "cacheMisses", "measured requests that ran full screening")),
      stat_latency_hit_(stats_.addHistogram(
          "latencyHitUs", "end-to-end latency of measured cache hits", 0.0,
          1e6, 40)),
      stat_latency_miss_(stats_.addHistogram(
          "latencyMissUs", "end-to-end latency of measured cache misses",
          0.0, 1e6, 40)),
      stat_served_epoch_(stats_.addScalar(
          "servedEpoch",
          "screener snapshot epoch of each classified response")),
      stats_registration_(stats_)
{
    // Honour ENMC_TUNE_JSON for serve deployments that construct a loop
    // without going through EnmcSystem first (idempotent).
    tensor::tune::loadFromEnv();
}

ServeLoop::~ServeLoop()
{
    if (live_)
        stop();
}

void
ServeLoop::attachClassifier(runtime::EnmcClassifier &clf)
{
    ENMC_ASSERT(clf.calibrated(),
                "serve: attach a calibrated classifier (call calibrate() "
                "or load() first)");
    classifier_ = &clf;
}

cluster::ClusterRouter *
ServeLoop::clusterRouter()
{
    auto *fabric = dynamic_cast<cluster::ClusterBackend *>(backend_.get());
    return fabric != nullptr ? &fabric->router() : nullptr;
}

runtime::OffloadPlanner *
ServeLoop::planner()
{
    auto *planned = dynamic_cast<runtime::AutoBackend *>(backend_.get());
    return planned != nullptr ? &planned->planner() : nullptr;
}

runtime::JobSpec
ServeLoop::batchJob(uint64_t batch, uint64_t candidates) const
{
    runtime::JobSpec spec = job_;
    spec.batch = batch;
    spec.candidates = candidates;
    return spec;
}

double
ServeLoop::serviceUs(const runtime::TimingResult &t, uint64_t batch,
                     uint64_t screened) const
{
    const double full_us = t.seconds * 1e6;
    // s == batch (the only value with the cache off) returns the full
    // time bitwise: no arithmetic at all.
    if (screened >= batch || batch == 0)
        return cfg_.handoff_us + full_us;
    // Bypasses skip the screener but still read exact executor rows, so
    // only the screener-busy share of the skipped items comes off. It is
    // zero for timings without a screener stage (the CPU roofline, the
    // cluster aggregate): those deduct nothing, conservatively.
    const double freq_hz = backend_->config().timing.freq_hz;
    const double screen_us =
        freq_hz > 0.0
            ? static_cast<double>(t.rank.screener_busy) / freq_hz * 1e6
            : 0.0;
    const double skipped = static_cast<double>(batch - screened) /
                           static_cast<double>(batch);
    const double us = full_us - screen_us * skipped;
    return cfg_.handoff_us + (us > 0.0 ? us : 0.0);
}

double
ServeLoop::batchServiceUs(uint64_t batch, uint64_t candidates)
{
    return batchServiceUs(batch, candidates, batch);
}

double
ServeLoop::batchServiceUs(uint64_t batch, uint64_t candidates,
                          uint64_t screened)
{
    return serviceUs(backend_->runJob(batchJob(batch, candidates)), batch,
                     screened);
}

void
ServeLoop::scheduleSwap(uint64_t after_batches, std::function<void()> fn)
{
    ENMC_ASSERT(fn != nullptr, "scheduleSwap: null swap function");
    std::lock_guard<std::mutex> lock(swap_mutex_);
    swap_after_ = after_batches;
    swap_fn_ = std::move(fn);
    swap_pending_ = true;
}

void
ServeLoop::fireScheduledSwap()
{
    std::function<void()> fn;
    {
        std::lock_guard<std::mutex> lock(swap_mutex_);
        if (swap_pending_ && batches_dispatched_ >= swap_after_) {
            fn = std::move(swap_fn_);
            swap_pending_ = false;
        }
        ++batches_dispatched_;
    }
    // Outside the lock: the swap function may train a screener.
    if (fn)
        fn();
}

uint64_t
ServeLoop::batchCandidates(const std::vector<const Request *> &reqs) const
{
    if (reqs.empty())
        return job_.candidates;
    double sum = 0.0;
    for (const Request *r : reqs)
        sum += static_cast<double>(r->candidates ? r->candidates
                                                 : job_.candidates);
    return static_cast<uint64_t>(
        std::ceil(sum / static_cast<double>(reqs.size())));
}

size_t
ServeLoop::computeBatch(const std::vector<const Request *> &reqs,
                        std::vector<Response *> &resps)
{
    if (classifier_ == nullptr || !cfg_.compute_logits)
        return 0;
    // Timing-only requests (no hidden vector) ride along without logits.
    std::vector<size_t> with_hidden;
    std::vector<tensor::Vector> h_batch;
    for (size_t i = 0; i < reqs.size(); ++i) {
        if (!reqs[i]->hidden.empty()) {
            with_hidden.push_back(i);
            h_batch.push_back(reqs[i]->hidden);
        }
    }
    if (h_batch.empty())
        return 0;
    std::vector<runtime::ClassifierOutput> outs =
        backend_->forward(*classifier_, h_batch, cfg_.topk);
    ENMC_ASSERT(outs.size() == with_hidden.size(),
                "serve: classifier returned a short batch");
    size_t hits = 0;
    for (size_t j = 0; j < with_hidden.size(); ++j) {
        Response *r = resps[with_hidden[j]];
        r->probabilities = std::move(outs[j].probabilities);
        r->topk = std::move(outs[j].topk);
        r->candidates = std::move(outs[j].candidates);
        r->cache_hit = outs[j].cache_hit;
        r->snapshot_epoch = outs[j].snapshot_epoch;
        if (outs[j].cache_hit)
            ++hits;
    }
    return hits;
}

StatGroup &
ServeLoop::tenantStats(const std::string &tenant)
{
    std::lock_guard<std::mutex> lock(tenants_mutex_);
    auto it = tenants_.find(tenant);
    if (it == tenants_.end())
        it = tenants_.emplace(tenant, std::make_unique<TenantStats>(tenant))
                 .first;
    return it->second->group;
}

void
ServeLoop::account(const Response &r)
{
    // Live producers (rejections) and the executor both finalize
    // responses; one lock keeps the loop and tenant stats exact.
    std::lock_guard<std::mutex> lock(tenants_mutex_);
    auto it = tenants_.find(r.tenant);
    if (it == tenants_.end())
        it = tenants_
                 .emplace(r.tenant, std::make_unique<TenantStats>(r.tenant))
                 .first;
    TenantStats *tenant = it->second.get();

    ++stat_requests_;
    ++tenant->requests;
    if (r.admission != Admission::Admitted) {
        ++stat_rejected_;
        return;
    }
    ++tenant->admitted;
    stat_queue_us_.sample(r.queueUs());
    stat_backend_us_.sample(r.backendUs());
    stat_latency_hist_.sample(r.latencyUs());
    if (r.warmup) {
        ++stat_warmup_;
        return;
    }
    ++stat_measured_;
    tenant->latency.sample(r.latencyUs());
    // Epoch 0 marks a timing-only response (no classified output); only
    // classified responses enter the hit/miss split so the two histogram
    // populations partition exactly the classified measured requests.
    if (r.snapshot_epoch > 0) {
        stat_served_epoch_.sample(static_cast<double>(r.snapshot_epoch));
        if (r.cache_hit) {
            ++stat_cache_hits_;
            stat_latency_hit_.sample(r.latencyUs());
        } else {
            ++stat_cache_misses_;
            stat_latency_miss_.sample(r.latencyUs());
        }
    }
    if (r.latencyUs() > cfg_.slo_us) {
        ++stat_slo_violations_;
        ++tenant->violations;
    }
}

// --- deterministic virtual-time serving --------------------------------

ServeReport
ServeLoop::replay(const ArrivalTrace &trace)
{
    return runVirtual(trace.requests, nullptr);
}

ServeReport
ServeLoop::runClosedLoop(
    size_t clients, size_t per_client,
    const std::function<Request(RequestId, size_t)> &make)
{
    ENMC_ASSERT(clients >= 1 && per_client >= 1,
                "closed loop needs >= 1 client and >= 1 request each");
    std::vector<size_t> remaining(clients, per_client - 1);
    std::map<RequestId, size_t> client_of;
    RequestId next_id = 0;

    auto issue = [&](size_t client, double at_us) {
        Request r = make(next_id, client);
        r.id = next_id;
        r.arrival_us = at_us;
        client_of[r.id] = client;
        ++next_id;
        return r;
    };

    std::vector<Request> initial;
    initial.reserve(clients);
    for (size_t c = 0; c < clients; ++c)
        initial.push_back(issue(c, 0.0));

    return runVirtual(
        initial,
        [&](const Response &resp, double now_us, std::vector<Request> &inject) {
            const size_t c = client_of.at(resp.id);
            if (remaining[c] == 0)
                return;
            --remaining[c];
            inject.push_back(issue(c, now_us));
        });
}

ServeReport
ServeLoop::runVirtual(
    std::vector<Request> initial,
    const std::function<void(const Response &, double, std::vector<Request> &)>
        &on_done)
{
    obs::Tracer &tracer = obs::Tracer::instance();

    // Request/response arenas; stable under injection.
    std::deque<Request> store;
    std::deque<Response> rstore;

    // Pending arrivals, ordered by (time, id): ties in time resolve in
    // id order so the schedule is a pure function of the trace.
    using ArrivalEv = std::tuple<double, RequestId, size_t>;
    std::priority_queue<ArrivalEv, std::vector<ArrivalEv>,
                        std::greater<ArrivalEv>>
        arrivals;
    auto inject = [&](Request r, double now_us) {
        ENMC_ASSERT(r.arrival_us >= now_us,
                    "closed loop injected an arrival in the past");
        const size_t idx = store.size();
        store.push_back(std::move(r));
        rstore.emplace_back();
        arrivals.emplace(store[idx].arrival_us, store[idx].id, idx);
    };
    for (Request &r : initial)
        inject(std::move(r), 0.0);

    std::deque<size_t> waiting;     // admitted, not yet dispatched
    std::vector<size_t> inflight;   // members of the busy batch
    bool busy = false;
    double busy_until = 0.0;
    double inflight_dispatch = 0.0;
    uint64_t inflight_cands = 0;
    size_t dispatched = 0;          // warm-up numbering (dispatch order)
    double now = 0.0;

    std::vector<Response> finalized;
    std::vector<Request> injected;
    auto finish = [&](const Response &resp) {
        account(resp);
        finalized.push_back(resp);
        if (on_done) {
            injected.clear();
            on_done(resp, now, injected);
            for (Request &r : injected)
                inject(std::move(r), now);
        }
    };

    auto tryDispatch = [&] {
        if (busy || waiting.empty())
            return;
        const bool draining = arrivals.empty();
        FlushReason reason;
        const double oldest = rstore[waiting.front()].admit_us;
        if (!batcher_.shouldFlush(waiting.size(), oldest, now, draining,
                                  reason))
            return;
        const size_t batch =
            std::min<size_t>(cfg_.max_batch, waiting.size());
        inflight.assign(waiting.begin(),
                        waiting.begin() + static_cast<ptrdiff_t>(batch));
        waiting.erase(waiting.begin(),
                      waiting.begin() + static_cast<ptrdiff_t>(batch));
        batcher_.recordFlush(batch, reason);
        queue_.recordReplayPop(batch);

        std::vector<const Request *> reqs;
        std::vector<Response *> resps;
        reqs.reserve(batch);
        resps.reserve(batch);
        for (size_t idx : inflight) {
            reqs.push_back(&store[idx]);
            resps.push_back(&rstore[idx]);
        }
        inflight_cands = batchCandidates(reqs);
        // One route + timing per dispatched batch (the cluster routes
        // before it times, so a kill this dispatch fires re-times it).
        const runtime::BatchRun run =
            backend_->runBatch(batchJob(batch, inflight_cands), now);
        // A scheduled hot-swap fires here, between batches: the swap
        // point is a deterministic function of the dispatch sequence.
        fireScheduledSwap();
        // Functional compute happens at dispatch (its outputs depend
        // only on the request contents, not on virtual time, so this is
        // observationally equivalent to computing at completion) — the
        // cache hit count then shapes this batch's service time. Flush
        // order is deterministic, so logits stay bit-identical run to
        // run; the slice simulation inside parallelizes (and merges in
        // slice order).
        const size_t hits = computeBatch(reqs, resps);
        const double service = serviceUs(
            run.timing, batch, batch - std::min<size_t>(hits, batch));
        for (size_t idx : inflight) {
            rstore[idx].dispatch_us = now;
            rstore[idx].batch_size = static_cast<uint32_t>(batch);
            rstore[idx].backend = run.route;
            rstore[idx].warmup = dispatched < cfg_.warmup_requests;
            ++dispatched;
        }
        busy = true;
        inflight_dispatch = now;
        busy_until = now + service;
    };

    auto processArrival = [&](size_t idx) {
        const Request &req = store[idx];
        Response &resp = rstore[idx];
        resp.id = req.id;
        resp.tenant = req.tenant;
        resp.admit_us = req.arrival_us;
        Admission a = Admission::Admitted;
        if (classifier_ != nullptr && cfg_.compute_logits &&
            req.hidden.empty())
            a = Admission::RejectedInvalid;
        else
            a = admitDecision(waiting.size(), cfg_.queue_capacity, false);
        resp.admission = a;
        queue_.recordReplayAdmission(a, waiting.size());
        if (a == Admission::Admitted) {
            waiting.push_back(idx);
            return;
        }
        if (tracer.enabled())
            tracer.instant("reject", "serve", obs::kServePid, 0,
                           resp.admit_us,
                           {{"id", static_cast<double>(resp.id)}});
        finish(resp);
    };

    auto completeBatch = [&] {
        busy = false;
        // Logits were computed at dispatch (see tryDispatch); completion
        // only stamps times and finalizes.
        if (tracer.enabled())
            tracer.complete(
                "batch", "serve", obs::kServePid, 1, inflight_dispatch,
                now - inflight_dispatch,
                {{"size", static_cast<double>(inflight.size())},
                 {"candidates", static_cast<double>(inflight_cands)}});
        for (size_t idx : inflight) {
            Response &resp = rstore[idx];
            resp.complete_us = now;
            if (tracer.enabled())
                tracer.complete("queue", "serve", obs::kServePid, 0,
                                resp.admit_us, resp.queueUs(),
                                {{"id", static_cast<double>(resp.id)}});
            finish(resp);
        }
        inflight.clear();
    };

    while (true) {
        // All arrivals due now are admitted before any flush decision —
        // at equal timestamps, completion < arrival < deadline.
        while (!arrivals.empty() && std::get<0>(arrivals.top()) <= now) {
            const size_t idx = std::get<2>(arrivals.top());
            arrivals.pop();
            processArrival(idx);
        }
        tryDispatch();

        double next = 0.0;
        enum class Ev { None, Completion, Arrival, Deadline } kind = Ev::None;
        if (busy) {
            next = busy_until;
            kind = Ev::Completion;
        }
        if (!arrivals.empty()) {
            const double t = std::get<0>(arrivals.top());
            if (kind == Ev::None || t < next) {
                next = t;
                kind = Ev::Arrival;
            }
        }
        if (!busy && !waiting.empty()) {
            const double t =
                batcher_.deadlineUs(rstore[waiting.front()].admit_us);
            if (kind == Ev::None || t < next) {
                next = t;
                kind = Ev::Deadline;
            }
        }
        if (kind == Ev::None)
            break;
        now = std::max(now, next);
        if (kind == Ev::Completion)
            completeBatch();
        // Arrival/Deadline work happens at the top of the loop.
    }

    ENMC_ASSERT(waiting.empty() && !busy,
                "virtual serve loop exited with work pending");

    ServeReport report;
    report.responses = std::move(finalized);
    std::sort(report.responses.begin(), report.responses.end(),
              [](const Response &a, const Response &b) { return a.id < b.id; });
    return report;
}

// --- live threaded serving ---------------------------------------------

double
ServeLoop::wallUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - live_epoch_)
        .count();
}

void
ServeLoop::start()
{
    ENMC_ASSERT(!live_ && !dispatcher_thread_.joinable(),
                "serve loop already started (one start/stop per loop)");
    live_ = true;
    live_epoch_ = std::chrono::steady_clock::now();
    dispatcher_thread_ = std::thread([this] { dispatcherLoop(); });
    executor_ = std::thread([this] { executorLoop(); });
}

std::future<Response>
ServeLoop::submit(Request r)
{
    ENMC_ASSERT(live_, "submit() before start()");
    auto reply = std::make_shared<std::promise<Response>>();
    std::future<Response> fut = reply->get_future();
    r.arrival_us = wallUs();
    const RequestId id = r.id;
    const std::string tenant = r.tenant;
    const double admit_us = r.arrival_us;
    Admission a = Admission::Admitted;
    if (classifier_ != nullptr && cfg_.compute_logits && r.hidden.empty())
        a = Admission::RejectedInvalid;
    else
        a = queue_.tryPush(QueuedRequest{std::move(r), reply});
    if (a != Admission::Admitted) {
        Response resp;
        resp.id = id;
        resp.tenant = tenant;
        resp.admission = a;
        resp.admit_us = admit_us;
        account(resp);
        {
            std::lock_guard<std::mutex> lock(live_mutex_);
            live_responses_.push_back(resp);
        }
        reply->set_value(std::move(resp));
    }
    return fut;
}

std::future<Response>
ServeLoop::submitBlocking(Request r)
{
    ENMC_ASSERT(live_, "submitBlocking() before start()");
    auto reply = std::make_shared<std::promise<Response>>();
    std::future<Response> fut = reply->get_future();
    r.arrival_us = wallUs();
    const RequestId id = r.id;
    const std::string tenant = r.tenant;
    const double admit_us = r.arrival_us;
    const Admission a = queue_.pushBlocking(QueuedRequest{std::move(r), reply});
    if (a != Admission::Admitted) {
        Response resp;
        resp.id = id;
        resp.tenant = tenant;
        resp.admission = a;
        resp.admit_us = admit_us;
        account(resp);
        {
            std::lock_guard<std::mutex> lock(live_mutex_);
            live_responses_.push_back(resp);
        }
        reply->set_value(std::move(resp));
    }
    return fut;
}

std::future<Response>
ServeLoop::submitOrdered(Request r)
{
    ENMC_ASSERT(live_, "submitOrdered() before start()");
    auto reply = std::make_shared<std::promise<Response>>();
    std::future<Response> fut = reply->get_future();
    r.arrival_us = wallUs();
    const RequestId id = r.id;
    const std::string tenant = r.tenant;
    const double admit_us = r.arrival_us;
    const Admission a = queue_.pushOrdered(QueuedRequest{std::move(r), reply});
    if (a != Admission::Admitted) {
        Response resp;
        resp.id = id;
        resp.tenant = tenant;
        resp.admission = a;
        resp.admit_us = admit_us;
        account(resp);
        {
            std::lock_guard<std::mutex> lock(live_mutex_);
            live_responses_.push_back(resp);
        }
        reply->set_value(std::move(resp));
    }
    return fut;
}

void
ServeLoop::dispatcherLoop()
{
    const auto delay = std::chrono::microseconds(
        static_cast<int64_t>(cfg_.max_delay_us));
    while (true) {
        std::vector<QueuedRequest> batch;
        if (queue_.pop(cfg_.max_batch, delay, batch) == 0) {
            if (queue_.closed() && queue_.size() == 0)
                break;
            continue;
        }
        FlushReason reason = FlushReason::Deadline;
        {
            obs::TraceSpan span("batch.prepare", "serve");
            // Top up until the oldest popped request's deadline passes;
            // pop() never waits beyond the first request on its own.
            const double first_us = wallUs();
            while (batch.size() < cfg_.max_batch) {
                const double left = cfg_.max_delay_us - (wallUs() - first_us);
                if (left <= 0.0)
                    break;
                if (queue_.pop(cfg_.max_batch - batch.size(),
                               std::chrono::microseconds(
                                   static_cast<int64_t>(left)),
                               batch) == 0 &&
                    queue_.closed())
                    break;
            }
            if (batch.size() >= cfg_.max_batch)
                reason = FlushReason::Size;
            else if (queue_.closed() && queue_.size() == 0)
                reason = FlushReason::Drain;
            span.arg("size", static_cast<double>(batch.size()));
        }
        batcher_.recordFlush(batch.size(), reason);

        PreparedBatch prepared;
        std::vector<const Request *> reqs;
        reqs.reserve(batch.size());
        for (const QueuedRequest &qr : batch)
            reqs.push_back(&qr.request);
        prepared.candidates = batchCandidates(reqs);
        prepared.items = std::move(batch);
        prepared.reason = reason;

        std::unique_lock<std::mutex> lock(handoff_mutex_);
        handoff_cv_.wait(lock, [&] { return handoff_ == nullptr; });
        handoff_ = std::make_unique<PreparedBatch>(std::move(prepared));
        handoff_cv_.notify_all();
    }
    // Wake the executor for shutdown once the last batch is consumed.
    PreparedBatch sentinel;
    sentinel.stop = true;
    std::unique_lock<std::mutex> lock(handoff_mutex_);
    handoff_cv_.wait(lock, [&] { return handoff_ == nullptr; });
    handoff_ = std::make_unique<PreparedBatch>(std::move(sentinel));
    handoff_cv_.notify_all();
}

void
ServeLoop::executorLoop()
{
    size_t dispatched = 0; // warm-up numbering (dispatch order)
    while (true) {
        std::unique_ptr<PreparedBatch> prepared;
        {
            std::unique_lock<std::mutex> lock(handoff_mutex_);
            handoff_cv_.wait(lock, [&] { return handoff_ != nullptr; });
            prepared = std::move(handoff_);
            handoff_cv_.notify_all();
        }
        if (prepared->stop)
            break;

        const double dispatch_us = wallUs();
        const size_t batch = prepared->items.size();
        std::vector<const Request *> reqs;
        std::vector<Response> resps(batch);
        std::vector<Response *> resp_ptrs;
        reqs.reserve(batch);
        resp_ptrs.reserve(batch);
        for (size_t i = 0; i < batch; ++i) {
            const Request &req = prepared->items[i].request;
            reqs.push_back(&req);
            resps[i].id = req.id;
            resps[i].tenant = req.tenant;
            resps[i].admit_us = req.arrival_us;
            resps[i].dispatch_us = dispatch_us;
            resps[i].batch_size = static_cast<uint32_t>(batch);
            resps[i].warmup = dispatched < cfg_.warmup_requests;
            ++dispatched;
            resp_ptrs.push_back(&resps[i]);
        }
        {
            obs::TraceSpan span("batch.execute", "serve");
            span.arg("size", static_cast<double>(batch));
            span.arg("candidates", static_cast<double>(prepared->candidates));
            // Live serving reports wall-clock times; the batch's modeled
            // timing is computed (memoized) but unused here.
            const runtime::BatchRun run = backend_->runBatch(
                batchJob(batch, prepared->candidates), dispatch_us);
            for (size_t i = 0; i < batch; ++i)
                resps[i].backend = run.route;
            // Scheduled hot-swaps fire between batches on this thread,
            // never mid-batch; cache hits skip screening work for real
            // here, so the speedup is wall-clock, not modeled.
            fireScheduledSwap();
            computeBatch(reqs, resp_ptrs);
        }
        const double complete_us = wallUs();
        for (size_t i = 0; i < batch; ++i) {
            resps[i].complete_us = complete_us;
            account(resps[i]);
            {
                std::lock_guard<std::mutex> lock(live_mutex_);
                live_responses_.push_back(resps[i]);
            }
            prepared->items[i].reply->set_value(std::move(resps[i]));
        }
    }
}

ServeReport
ServeLoop::stop()
{
    ENMC_ASSERT(live_, "stop() before start()");
    queue_.close();
    dispatcher_thread_.join();
    executor_.join();
    live_ = false;

    ServeReport report;
    {
        std::lock_guard<std::mutex> lock(live_mutex_);
        report.responses = std::move(live_responses_);
        live_responses_.clear();
    }
    std::sort(report.responses.begin(), report.responses.end(),
              [](const Response &a, const Response &b) { return a.id < b.id; });
    return report;
}

} // namespace enmc::serve
