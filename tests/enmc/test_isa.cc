/**
 * @file
 * Tests for the ENMC instruction set encoding (Table 1 / Fig. 8).
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "enmc/isa.h"

namespace enmc::arch {
namespace {

TEST(Isa, InitEncoding)
{
    const Instruction i = makeInit(StatusReg::Categories, 12345);
    const EncodedInstruction e = encode(i);
    // Opcode 9 in bits 12..8, RW bit set, reg id in bits 6..2.
    EXPECT_EQ((e.ca >> 8) & 0x1f, 9u);
    EXPECT_EQ((e.ca >> 7) & 1, 1u);
    EXPECT_EQ((e.ca >> 2) & 0x1f,
              static_cast<uint16_t>(StatusReg::Categories));
    EXPECT_TRUE(e.has_payload);
    EXPECT_EQ(e.payload, 12345u);
}

TEST(Isa, QueryHasNoPayload)
{
    const EncodedInstruction e = encode(makeQuery(StatusReg::InstCount));
    EXPECT_FALSE(e.has_payload);
    EXPECT_EQ((e.ca >> 7) & 1, 0u);
}

TEST(Isa, MulAddFp32MatchesFig8Opcode)
{
    const Instruction i = makeCompute(Opcode::MulAddFp32,
                                      BufferId::ExecFeature,
                                      BufferId::ExecWeight);
    const EncodedInstruction e = encode(i);
    EXPECT_EQ((e.ca >> 8) & 0x1f, 2u); // Fig. 8: Opcode=2
    EXPECT_EQ((e.ca >> 4) & 0xf, static_cast<uint16_t>(BufferId::ExecFeature));
    EXPECT_EQ(e.ca & 0xf, static_cast<uint16_t>(BufferId::ExecWeight));
}

TEST(Isa, ThirteenBitLimit)
{
    for (auto op : {Opcode::Nop, Opcode::MulAddInt4, Opcode::Ldr,
                    Opcode::Reg, Opcode::Filter, Opcode::Clr}) {
        Instruction i;
        i.op = op;
        if (op == Opcode::Ldr)
            i.has_payload = true;
        const EncodedInstruction e = encode(i);
        EXPECT_EQ(e.ca & ~0x1fffu, 0u) << opcodeName(op);
    }
}

/** Round-trip every instruction shape through encode/decode. */
class IsaRoundTrip : public ::testing::TestWithParam<Instruction>
{
};

TEST_P(IsaRoundTrip, EncodeDecodeIdentity)
{
    const Instruction &orig = GetParam();
    const Instruction back = decode(encode(orig));
    EXPECT_EQ(back.op, orig.op);
    EXPECT_EQ(back.toString(), orig.toString());
    if (orig.has_payload) {
        EXPECT_EQ(back.payload, orig.payload);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, IsaRoundTrip,
    ::testing::Values(
        makeInit(StatusReg::Threshold, 0xdeadbeefull),
        makeQuery(StatusReg::CandidateCount),
        makeLdr(BufferId::ScreenWeight, 0x123456789aull),
        makeStr(BufferId::Output, 0x40ull),
        makeMove(BufferId::ScreenPsum, BufferId::Output),
        makeCompute(Opcode::MulAddInt4, BufferId::ScreenFeature,
                    BufferId::ScreenWeight),
        makeCompute(Opcode::AddFp32, BufferId::ExecPsum,
                    BufferId::ExecWeight),
        makeCompute(Opcode::MulInt4, BufferId::ScreenFeature,
                    BufferId::ScreenWeight),
        makeFilter(BufferId::ScreenPsum),
        makeSpecial(Opcode::Softmax),
        makeSpecial(Opcode::Sigmoid),
        makeSpecial(Opcode::Barrier),
        makeSpecial(Opcode::Nop),
        makeSpecial(Opcode::Return),
        makeSpecial(Opcode::Clr)),
    [](const ::testing::TestParamInfo<Instruction> &info) {
        std::string name = opcodeName(info.param.op);
        if (info.param.op == Opcode::Reg)
            name += info.param.reg_write ? "Init" : "Query";
        for (auto &c : name)
            if (c == '_')
                c = 'x';
        return name + std::to_string(info.index);
    });

TEST(Isa, DisassembleListsEveryInstruction)
{
    Program p{makeInit(StatusReg::HiddenDim, 512),
              makeLdr(BufferId::ScreenFeature, 0x1000),
              makeSpecial(Opcode::Return)};
    const std::string text = disassemble(p);
    EXPECT_NE(text.find("INIT hidden_dim, 512"), std::string::npos);
    EXPECT_NE(text.find("LDR sfeat, 0x1000"), std::string::npos);
    EXPECT_NE(text.find("RETURN"), std::string::npos);
}

TEST(Isa, NamesAreStable)
{
    EXPECT_STREQ(opcodeName(Opcode::MulAddInt4), "MUL_ADD_INT4");
    EXPECT_STREQ(bufferName(BufferId::Index), "index");
    EXPECT_STREQ(statusRegName(StatusReg::TileRows), "tile_rows");
}

TEST(IsaDeathTest, MalformedCaWordPanics)
{
    EncodedInstruction e;
    e.ca = 0x2000; // beyond 13 bits
    EXPECT_DEATH((void)decode(e), "malformed");
}

/** Builds a raw 13-bit C/A word (opcode in bits 12..8, operand 7..0). */
EncodedInstruction
rawWord(uint16_t opcode, uint16_t operand, bool payload = false)
{
    EncodedInstruction e;
    e.ca = static_cast<uint16_t>((opcode << 8) | operand);
    e.has_payload = payload;
    return e;
}

TEST(IsaDeathTest, UnknownOpcodesPanic)
{
    // Opcodes 17..31 are unassigned; every one must be rejected.
    for (uint16_t op = 17; op < 32; ++op)
        EXPECT_DEATH((void)decode(rawWord(op, 0)), "malformed") << op;
}

TEST(IsaDeathTest, RegisterIdOutOfRangePanics)
{
    // REG with reg ids NumRegs..31 (valid 5-bit field, no such register).
    for (uint16_t reg = static_cast<uint16_t>(StatusReg::NumRegs); reg < 32;
         ++reg) {
        const auto operand = static_cast<uint16_t>((1u << 7) | (reg << 2));
        EXPECT_DEATH((void)decode(rawWord(9, operand, true)), "malformed")
            << reg;
    }
}

TEST(IsaDeathTest, StrayRegOperandBitsPanic)
{
    // Bits 1..0 of a REG word are reserved and must be zero.
    const auto operand = static_cast<uint16_t>(
        (static_cast<uint16_t>(StatusReg::Categories) << 2) | 0x1);
    EXPECT_DEATH((void)decode(rawWord(9, operand)), "malformed");
}

TEST(IsaDeathTest, BufferIdOutOfRangePanics)
{
    // Only 8 buffers exist; the 4-bit fields must stay below 8.
    EXPECT_DEATH((void)decode(rawWord(7, 0x90, true)), "malformed");  // LDR
    EXPECT_DEATH((void)decode(rawWord(10, 0x0f)), "malformed");  // MOVE buf1
    EXPECT_DEATH((void)decode(rawWord(10, 0xf0)), "malformed");  // MOVE buf0
    EXPECT_DEATH((void)decode(rawWord(1, 0x8f, false)), "malformed");
}

TEST(IsaDeathTest, StrayLoadStoreOperandBitsPanic)
{
    // LDR/STR use only the high operand nibble; low nibble is reserved.
    EXPECT_DEATH((void)decode(rawWord(7, 0x11, true)), "malformed");
    EXPECT_DEATH((void)decode(rawWord(8, 0x63, true)), "malformed");
}

TEST(IsaDeathTest, SpecialsWithOperandBitsPanic)
{
    // NOP/SOFTMAX/SIGMOID/BARRIER/RETURN/CLR carry no operand bits.
    for (uint16_t op : {0, 12, 13, 14, 15, 16})
        EXPECT_DEATH((void)decode(rawWord(op, 0x01)), "malformed") << op;
}

TEST(IsaDeathTest, PayloadPresenceMismatchPanics)
{
    // A LDR without its DQ address burst is undeliverable...
    EXPECT_DEATH((void)decode(rawWord(7, 0x10, false)), "malformed");
    // ...as is a REG QUERY or a BARRIER towing an unexpected payload.
    const auto query = static_cast<uint16_t>(
        static_cast<uint16_t>(StatusReg::Status) << 2);
    EXPECT_DEATH((void)decode(rawWord(9, query, true)), "malformed");
    EXPECT_DEATH((void)decode(rawWord(14, 0, true)), "malformed");
}

TEST(IsaDeathTest, EncodeRejectsInconsistentPayloadFlag)
{
    Instruction ldr = makeLdr(BufferId::ScreenWeight, 0x80);
    ldr.has_payload = false;
    EXPECT_DEATH((void)encode(ldr), "payload");
    Instruction nop = makeSpecial(Opcode::Nop);
    nop.has_payload = true;
    EXPECT_DEATH((void)encode(nop), "payload");
}

} // namespace
} // namespace enmc::arch

namespace enmc::arch {
namespace {

/** Fuzz: random valid instructions must round-trip for 10k draws. */
TEST(IsaFuzz, RandomInstructionsRoundTrip)
{
    Rng rng(2026);
    const Opcode ops[] = {Opcode::Nop, Opcode::MulAddInt4,
                          Opcode::MulAddFp32, Opcode::AddInt4,
                          Opcode::MulInt4, Opcode::AddFp32,
                          Opcode::MulFp32, Opcode::Ldr, Opcode::Str,
                          Opcode::Reg, Opcode::Move, Opcode::Filter,
                          Opcode::Softmax, Opcode::Sigmoid,
                          Opcode::Barrier, Opcode::Return, Opcode::Clr};
    for (int i = 0; i < 10000; ++i) {
        Instruction inst;
        inst.op = ops[rng.uniformInt(0, std::size(ops) - 1)];
        inst.buf0 = static_cast<BufferId>(rng.uniformInt(0, 7));
        inst.buf1 = static_cast<BufferId>(rng.uniformInt(0, 7));
        inst.reg = static_cast<StatusReg>(rng.uniformInt(
            0, static_cast<int>(StatusReg::NumRegs) - 1));
        inst.reg_write = rng.uniformInt(0, 1) != 0;
        if (inst.op == Opcode::Ldr || inst.op == Opcode::Str ||
            (inst.op == Opcode::Reg && inst.reg_write)) {
            inst.has_payload = true;
            inst.payload = rng();
        }
        const Instruction back = decode(encode(inst));
        ASSERT_EQ(back.op, inst.op) << i;
        ASSERT_EQ(back.toString(), inst.toString()) << i;
        if (inst.has_payload) {
            ASSERT_EQ(back.payload, inst.payload) << i;
        }
    }
}

/** Every field of a decoded instruction must survive the round trip. */
void
expectRoundTrips(const Instruction &inst)
{
    const EncodedInstruction enc = encode(inst);
    ASSERT_EQ(enc.ca & ~0x1fffu, 0u) << inst.toString();
    const Instruction back = decode(enc);
    ASSERT_EQ(back.op, inst.op) << inst.toString();
    ASSERT_EQ(back.buf0, inst.buf0) << inst.toString();
    ASSERT_EQ(back.reg_write, inst.reg_write) << inst.toString();
    ASSERT_EQ(back.has_payload, inst.has_payload) << inst.toString();
    if (inst.has_payload) {
        ASSERT_EQ(back.payload, inst.payload) << inst.toString();
    }
    // Two-buffer shapes also preserve the second operand.
    switch (inst.op) {
      case Opcode::Move:
      case Opcode::MulAddInt4:
      case Opcode::MulAddFp32:
      case Opcode::AddInt4:
      case Opcode::MulInt4:
      case Opcode::AddFp32:
      case Opcode::MulFp32:
        ASSERT_EQ(back.buf1, inst.buf1) << inst.toString();
        break;
      case Opcode::Reg:
        ASSERT_EQ(back.reg, inst.reg) << inst.toString();
        break;
      default:
        break;
    }
}

/**
 * Property test over the ENTIRE valid instruction space: every reachable
 * (opcode, operand) combination round-trips encode -> decode exactly,
 * with seeded random 64-bit DQ payloads where the shape tunnels one.
 */
TEST(IsaProperty, ExhaustiveInstructionSpaceRoundTrips)
{
    Rng rng(20260806);
    size_t count = 0;

    for (auto op : {Opcode::Move, Opcode::MulAddInt4, Opcode::MulAddFp32,
                    Opcode::AddInt4, Opcode::MulInt4, Opcode::AddFp32,
                    Opcode::MulFp32}) {
        for (int a = 0; a < 8; ++a)
            for (int b = 0; b < 8; ++b) {
                expectRoundTrips(makeCompute(op, static_cast<BufferId>(a),
                                             static_cast<BufferId>(b)));
                ++count;
            }
    }
    for (int a = 0; a < 8; ++a) {
        expectRoundTrips(makeLdr(static_cast<BufferId>(a), rng()));
        expectRoundTrips(makeStr(static_cast<BufferId>(a), rng()));
        expectRoundTrips(makeFilter(static_cast<BufferId>(a)));
        count += 3;
    }
    for (int r = 0; r < static_cast<int>(StatusReg::NumRegs); ++r) {
        expectRoundTrips(makeInit(static_cast<StatusReg>(r), rng()));
        expectRoundTrips(makeQuery(static_cast<StatusReg>(r)));
        count += 2;
    }
    for (auto op : {Opcode::Nop, Opcode::Softmax, Opcode::Sigmoid,
                    Opcode::Barrier, Opcode::Return, Opcode::Clr}) {
        expectRoundTrips(makeSpecial(op));
        ++count;
    }
    // 7*64 compute + 3*8 buffer ops + 2*15 registers + 6 specials.
    EXPECT_EQ(count, 7u * 64u + 24u + 30u + 6u);
}

/** The DQ payload field must tunnel all 64 bits bit-exactly. */
TEST(IsaProperty, PayloadTunnelsFullDqWidth)
{
    Rng rng(7);
    std::vector<uint64_t> payloads{0ull, 1ull, ~0ull, 1ull << 63,
                                   0x5555555555555555ull};
    for (int i = 0; i < 64; ++i)
        payloads.push_back(1ull << i);
    for (int i = 0; i < 1000; ++i)
        payloads.push_back(rng());
    for (uint64_t p : payloads) {
        EXPECT_EQ(decode(encode(makeLdr(BufferId::ExecWeight, p))).payload,
                  p);
        EXPECT_EQ(decode(encode(makeInit(StatusReg::Threshold, p))).payload,
                  p);
    }
}

} // namespace
} // namespace enmc::arch
