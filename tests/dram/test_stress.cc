/**
 * @file
 * Stress / property tests for the DRAM simulator: random traffic over a
 * grid of organizations and mappings must drain, conserve requests, and
 * never violate a timing constraint (violations panic inside
 * Channel::issue, so surviving the run *is* the assertion).
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dram/controller.h"

namespace enmc::dram {
namespace {

struct StressParam
{
    uint32_t ranks;
    uint32_t bankgroups;
    uint32_t banks;
    AddrMapping mapping;
    bool refresh;
};

class DramStress : public ::testing::TestWithParam<StressParam>
{
};

TEST_P(DramStress, RandomTrafficConservedUnderAllTimings)
{
    const StressParam p = GetParam();
    Organization org = Organization::paperTable3();
    org.channels = 1;
    org.ranks = p.ranks;
    org.bankgroups = p.bankgroups;
    org.banks = p.banks;
    org.mapping = p.mapping;
    ControllerConfig cfg;
    cfg.refresh_enabled = p.refresh;
    Controller ctrl(org, Timing::ddr4_2400(), cfg, "stress");

    Rng rng(p.ranks * 131 + p.bankgroups * 17 + p.banks);
    uint64_t issued = 0, completed = 0;
    const uint64_t span = org.bytesPerChannel();
    for (int round = 0; round < 12000; ++round) {
        // Mixture: 60% streaming locality, 40% random.
        static Addr stream_addr = 0;
        Addr addr;
        if (rng.uniform() < 0.6) {
            stream_addr += 64;
            addr = stream_addr % span;
        } else {
            addr = (static_cast<Addr>(rng()) % span) & ~Addr{63};
        }
        Request req;
        req.addr = addr;
        req.type = rng.uniform() < 0.3 ? ReqType::Write : ReqType::Read;
        req.on_complete = [&completed](const Request &) { ++completed; };
        if (ctrl.enqueue(std::move(req)))
            ++issued;
        ctrl.tick();
    }
    Cycles guard = 0;
    while (!ctrl.idle()) {
        ctrl.tick();
        ASSERT_LT(++guard, 2'000'000u) << "failed to drain";
    }
    EXPECT_EQ(completed, issued);
    EXPECT_EQ(ctrl.stats().counter("reads").value() +
                  ctrl.stats().counter("writes").value(),
              issued);
    if (p.refresh) {
        EXPECT_GT(ctrl.stats().counter("refreshes").value(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DramStress,
    ::testing::Values(
        StressParam{1, 4, 4, AddrMapping::RoRaBgBaCoCh, true},
        StressParam{1, 4, 4, AddrMapping::RoRaCoBaBgCh, true},
        StressParam{1, 4, 4, AddrMapping::RoCoRaBgBaCh, true},
        StressParam{2, 4, 4, AddrMapping::RoRaBgBaCoCh, true},
        StressParam{4, 4, 4, AddrMapping::RoRaCoBaBgCh, true},
        StressParam{8, 4, 4, AddrMapping::RoRaBgBaCoCh, true},
        StressParam{1, 2, 2, AddrMapping::RoRaCoBaBgCh, true},
        StressParam{2, 2, 8, AddrMapping::RoCoRaBgBaCh, true},
        StressParam{1, 4, 4, AddrMapping::RoRaBgBaCoCh, false},
        StressParam{4, 2, 4, AddrMapping::RoRaCoBaBgCh, false}),
    [](const ::testing::TestParamInfo<StressParam> &info) {
        const auto &p = info.param;
        return "r" + std::to_string(p.ranks) + "bg" +
               std::to_string(p.bankgroups) + "b" +
               std::to_string(p.banks) + "m" +
               std::to_string(static_cast<int>(p.mapping)) +
               (p.refresh ? "ref" : "noref");
    });

/** Fuzz the ISA encode/decode with random-but-valid instructions. */
TEST(DramStress, TimingPresetInternallyConsistent)
{
    const Timing t = Timing::ddr4_2400();
    EXPECT_EQ(t.tras + t.trp, t.trc);
    EXPECT_GE(t.tccd_l, t.tccd_s);
    EXPECT_GE(t.trrd_l, t.trrd_s);
    EXPECT_GE(t.cl, t.cwl);
    EXPECT_GT(t.trefi, t.trfc);
}

} // namespace
} // namespace enmc::dram
