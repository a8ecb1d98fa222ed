/**
 * @file
 * ResilientBackend tests: registry wiring, bit-identity with faults off,
 * retry-with-backoff accounting, stuck-rank blacklisting and the
 * degradation-disabled panic path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "fault_test_util.h"
#include "runtime/backend.h"
#include "runtime/resilience.h"
#include "runtime/system.h"
#include "screening/metrics.h"

namespace enmc::runtime {
namespace {

using fault_test::SmallModel;
using fault_test::makeSmallModel;

TEST(ResilientBackend, RegisteredAndAdvertisesFunctional)
{
    ASSERT_TRUE(BackendRegistry::instance().contains("enmc-resilient"));
    const auto names = backendNames();
    EXPECT_NE(std::find(names.begin(), names.end(), "enmc-resilient"),
              names.end());

    const auto backend = createBackend("enmc-resilient");
    EXPECT_EQ(backend->name(), "enmc-resilient");
}

TEST(ResilientBackend, FaultsOffMatchesPlainBackendBitExactly)
{
    const SmallModel m = makeSmallModel();

    SystemConfig plain_cfg;
    const EnmcSystem plain(plain_cfg);
    const auto base =
        plain.runFunctional(m.classifier(), *m.screener, m.h_batch, 4);

    SystemConfig res_cfg;
    res_cfg.resilient = true; // faults stay off: policy must be inert
    const EnmcSystem resilient(res_cfg);
    const auto out =
        resilient.runFunctional(m.classifier(), *m.screener, m.h_batch, 4);

    ASSERT_EQ(out.logits.size(), base.logits.size());
    for (size_t i = 0; i < base.logits.size(); ++i)
        EXPECT_EQ(out.logits[i], base.logits[i]) << "item " << i;
    EXPECT_EQ(out.candidates, base.candidates);
    EXPECT_EQ(out.rank_cycles, base.rank_cycles);
    EXPECT_EQ(out.faults.injected_words, 0u);
}

TEST(ResilientBackend, RetryAddsBackoffCyclesAndClearsErrors)
{
    const SmallModel m = makeSmallModel();

    SystemConfig clean_cfg;
    const auto clean = EnmcSystem(clean_cfg).runFunctional(
        m.classifier(), *m.screener, m.h_batch, 4);

    // At BER 1e-3 with ECC some words come back detected-uncorrectable;
    // the retry path re-reads with fresh fault samples and pays backoff.
    SystemConfig cfg;
    cfg.fault.enabled = true;
    cfg.fault.seed = 1;
    cfg.fault.data_ber = 1e-3;
    cfg.resilient = true;
    const auto out = EnmcSystem(cfg).runFunctional(m.classifier(),
                                                   *m.screener, m.h_batch,
                                                   4);

    EXPECT_GT(out.faults.detected, 0u)
        << "operating point no longer exercises the retry path";
    EXPECT_GT(out.rank_cycles, clean.rank_cycles)
        << "retries must show up as added latency";
    EXPECT_TRUE(out.faults.balanced());

    // Accuracy survives: corrected + retried + (at worst) degraded-to-
    // approximate logits keep P@1 at the fault-free value on this seed.
    const double clean_p1 =
        screening::precisionAt1(m.exact, clean.logits);
    const double fault_p1 = screening::precisionAt1(m.exact, out.logits);
    EXPECT_GE(fault_p1, clean_p1 - 0.25 - 1e-12);
}

TEST(ResilientBackend, StuckRankIsBlacklistedAndAnswersStayExact)
{
    const SmallModel m = makeSmallModel();

    SystemConfig clean_cfg;
    const auto clean = EnmcSystem(clean_cfg).runFunctional(
        m.classifier(), *m.screener, m.h_batch, 4);

    SystemConfig cfg;
    cfg.fault.enabled = true;
    cfg.fault.stuck_ranks = {1}; // data_ber stays 0: only the dead rank
    const ResilientBackend backend(cfg);

    const auto healthy = backend.healthyRanks();
    EXPECT_EQ(healthy.size(), cfg.totalRanks() - 1);
    EXPECT_EQ(std::find(healthy.begin(), healthy.end(), 1u),
              healthy.end());

    // The repartitioned job avoids the stuck rank entirely, so with no
    // other fault source the logits are bit-identical to the clean run
    // (functional results are partition-invariant).
    const auto out = backend.runFunctionalJob(m.classifier(), *m.screener,
                                              m.h_batch, 4);
    for (size_t i = 0; i < clean.logits.size(); ++i)
        EXPECT_EQ(out.logits[i], clean.logits[i]) << "item " << i;
    EXPECT_EQ(out.candidates, clean.candidates);
    EXPECT_EQ(out.faults.stuck_reads, 0u)
        << "a blacklisted rank must never be read";
}

TEST(ResilientBackend, RunJobChargesBlacklistProbesAndRepartitions)
{
    JobSpec spec;
    spec.categories = 100000;
    spec.hidden = 512;
    spec.reduced = 128;
    spec.candidates = 2000;

    SystemConfig cfg;
    cfg.fault.enabled = true;
    cfg.fault.stuck_ranks = {1};
    const ResilientBackend degraded(cfg);
    const TimingResult t_degraded = degraded.runJob(spec);

    const EnmcBackend plain{SystemConfig{}};
    const TimingResult t_all = plain.runJob(spec);

    EXPECT_EQ(t_degraded.ranks, cfg.totalRanks() - 1);
    EXPECT_GT(t_degraded.seconds, t_all.seconds)
        << "losing a rank must cost throughput";
}

TEST(ResilientBackend, DegradationDisabledPanicsOnPersistentErrors)
{
    const SmallModel m = makeSmallModel(/*categories=*/512,
                                        /*hidden=*/32,
                                        /*batch=*/1);

    // BER high enough that every attempt (original + retries) sees
    // detected-uncorrectable words; with degrade off that is fatal.
    SystemConfig cfg;
    cfg.fault.enabled = true;
    cfg.fault.seed = 1;
    cfg.fault.data_ber = 5e-3;
    cfg.resilient = true;
    cfg.resilience.max_retries = 1;
    cfg.resilience.degrade = false;
    const EnmcSystem sys(cfg);
    EXPECT_DEATH(sys.runFunctional(m.classifier(), *m.screener, m.h_batch,
                                   1),
                 "uncorrectable");
}

TEST(ResilientBackend, RetryWeakOffSkipsWeakOnlyErasures)
{
    const SmallModel m = makeSmallModel(/*categories=*/512, /*hidden=*/32,
                                        /*batch=*/1);

    // Route the strong (executor) path around detection entirely so every
    // detected-uncorrectable word is weak-class (screener tiles). With
    // retry_weak off those erasures must neither retry nor panic — the
    // exact recompute of surviving candidates already bounds their damage.
    SystemConfig cfg;
    cfg.fault.enabled = true;
    cfg.fault.seed = 1;
    cfg.fault.data_ber = 5e-3;
    cfg.fault.strong_scheme = fault::EccScheme::None;
    cfg.fault.weak_scheme = fault::EccScheme::Word72;
    cfg.resilient = true;
    cfg.resilience.retry_weak = false;
    cfg.resilience.degrade = false; // would panic if a retry were owed
    const auto out = EnmcSystem(cfg).runFunctional(
        m.classifier(), *m.screener, m.h_batch, 1);

    EXPECT_GT(out.uncorrectable_weak_words, 0u)
        << "operating point no longer produces weak-path erasures";
    EXPECT_EQ(out.uncorrectable_strong_words, 0u);

    // Same scenario with retry_weak on: the erasures now drive retries
    // (visible as added latency), which is exactly the bandwidth the
    // differentiated policy saves.
    SystemConfig eager = cfg;
    eager.resilience.retry_weak = true;
    eager.resilience.degrade = true;
    const auto retried = EnmcSystem(eager).runFunctional(
        m.classifier(), *m.screener, m.h_batch, 1);
    EXPECT_GT(retried.rank_cycles, out.rank_cycles)
        << "retry_weak=true must pay backoff for weak erasures";
}

TEST(ResilientBackend, DifferentiatedProtectionKeepsAccuracy)
{
    const SmallModel m = makeSmallModel();

    // Protect-everything (per-word SECDED on both classes) vs. the
    // differentiated policy (strong Word72, weak unprotected): at BER
    // 1e-3 the weak path's silent INT4 flips only perturb candidate
    // membership, so P@1 holds while the weak class stops consuming
    // redundancy and retries.
    SystemConfig all;
    all.fault.enabled = true;
    all.fault.seed = 3;
    all.fault.data_ber = 1e-3;
    all.resilient = true;
    const auto protect_all = EnmcSystem(all).runFunctional(
        m.classifier(), *m.screener, m.h_batch, 4);

    SystemConfig diff = all;
    diff.fault.weak_scheme = fault::EccScheme::None;
    diff.resilience.retry_weak = false;
    const auto differentiated = EnmcSystem(diff).runFunctional(
        m.classifier(), *m.screener, m.h_batch, 4);

    const double all_p1 =
        screening::precisionAt1(m.exact, protect_all.logits);
    const double diff_p1 =
        screening::precisionAt1(m.exact, differentiated.logits);
    EXPECT_GE(diff_p1, all_p1 - 0.005 - 1e-12)
        << "differentiated protection must hold P@1 within 0.5%";
    EXPECT_TRUE(differentiated.faults.classesBalanced());
    EXPECT_EQ(differentiated.faults.per_class[static_cast<size_t>(
                                                  fault::Protection::Weak)]
                  .detected,
              0u)
        << "an unprotected weak path cannot detect anything";
}

TEST(ResilientBackend, WeakGuardWidensFilterOnlyWhenUnprotected)
{
    const SmallModel m = makeSmallModel();

    const auto countCandidates = [](const auto &out) {
        size_t n = 0;
        for (const auto &c : out.candidates)
            n += c.size();
        return n;
    };

    // Unprotected weak path + BER: the fail-open guard lowers the FILTER
    // cut, so the candidate set can only grow vs. the guard disabled.
    SystemConfig cfg;
    cfg.fault.enabled = true;
    cfg.fault.seed = 1;
    cfg.fault.data_ber = 1e-3;
    cfg.fault.weak_scheme = fault::EccScheme::None;
    cfg.resilient = true;
    cfg.resilience.retry_weak = false;
    const auto guarded = EnmcSystem(cfg).runFunctional(
        m.classifier(), *m.screener, m.h_batch, 4);

    SystemConfig no_guard = cfg;
    no_guard.resilience.weak_guard = 0.0;
    const auto bare = EnmcSystem(no_guard).runFunctional(
        m.classifier(), *m.screener, m.h_batch, 4);
    EXPECT_GT(countCandidates(guarded), countCandidates(bare))
        << "the guard must widen the filter when the screener is "
           "unprotected under a nonzero BER";

    // With the weak path under SECDED the guard must be inert: same
    // fault stream, same candidate count whether the knob is 0 or not.
    SystemConfig protected_cfg = cfg;
    protected_cfg.fault.weak_scheme = fault::EccScheme::Word72;
    const auto prot = EnmcSystem(protected_cfg).runFunctional(
        m.classifier(), *m.screener, m.h_batch, 4);
    SystemConfig protected_bare = protected_cfg;
    protected_bare.resilience.weak_guard = 0.0;
    const auto prot_bare = EnmcSystem(protected_bare).runFunctional(
        m.classifier(), *m.screener, m.h_batch, 4);
    EXPECT_EQ(countCandidates(prot), countCandidates(prot_bare));
}

TEST(ResilientBackend, AllRanksBlacklistedIsFatal)
{
    SystemConfig cfg;
    cfg.fault.enabled = true;
    for (uint32_t r = 0; r < cfg.totalRanks(); ++r)
        cfg.fault.stuck_ranks.push_back(r);
    const ResilientBackend backend(cfg);
    JobSpec spec;
    spec.categories = 4096;
    spec.hidden = 64;
    spec.reduced = 16;
    spec.candidates = 64;
    EXPECT_DEATH(backend.runJob(spec), "blacklisted");
}

} // namespace
} // namespace enmc::runtime
