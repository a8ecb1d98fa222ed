/**
 * @file
 * The ENMC instruction set (paper Table 1) and its binary format (Fig. 8).
 *
 * Instructions tunnel through DDR4 PRECHARGE commands: a normal PRECHARGE
 * drives all row-address bits low, so a PRECHARGE with row-address bits
 * set is recognized by the DIMM as an ENMC instruction. The encoding is a
 * 13-bit command word on A0-A12 (5-bit opcode + 8 operand bits) plus an
 * optional 64-bit payload on the DQ bus (addresses, register data).
 */

#ifndef ENMC_ENMC_ISA_H
#define ENMC_ENMC_ISA_H

#include <cstdint>
#include <string>
#include <vector>

namespace enmc::arch {

/** 5-bit opcodes. Values match the format examples in Fig. 8 where given
 *  (MUL_ADD_FP32 = 2, INIT/QUERY share opcode 9). */
enum class Opcode : uint8_t {
    Nop = 0,
    MulAddInt4 = 1,
    MulAddFp32 = 2,
    AddInt4 = 3,
    MulInt4 = 4,
    AddFp32 = 5,
    MulFp32 = 6,
    Ldr = 7,
    Str = 8,
    Reg = 9,        //!< INIT (write) / QUERY (read), RW bit selects
    Move = 10,
    Filter = 11,
    Softmax = 12,
    Sigmoid = 13,
    Barrier = 14,
    Return = 15,
    Clr = 16,
};

const char *opcodeName(Opcode op);

/** 4-bit on-DIMM buffer identifiers. */
enum class BufferId : uint8_t {
    ScreenFeature = 0,   //!< Screener INT4 feature buffer
    ScreenWeight = 1,    //!< Screener INT4 weight buffer
    ScreenPsum = 2,      //!< Screener partial-sum buffer
    ExecFeature = 3,     //!< Executor FP32 feature buffer
    ExecWeight = 4,      //!< Executor FP32 weight buffer
    ExecPsum = 5,        //!< Executor FP32 partial-sum buffer
    Output = 6,          //!< output buffer (results to host)
    Index = 7,           //!< candidate-index buffer (Screener -> ctrl)
};

const char *bufferName(BufferId id);

/** 5-bit status-register indices in the ENMC controller. */
enum class StatusReg : uint8_t {
    FeatureBase = 0,     //!< DRAM base of input features
    ScreenWeightBase = 1,
    ClassWeightBase = 2,
    BiasBase = 3,
    OutputBase = 4,
    Categories = 5,      //!< l (this rank's slice)
    HiddenDim = 6,       //!< d
    ReducedDim = 7,      //!< k
    BatchSize = 8,
    TileRows = 9,        //!< screening rows per tile
    Threshold = 10,      //!< FILTER threshold (raw fp32 bits)
    CandidateCount = 11, //!< candidates found so far (read-only)
    InstCount = 12,      //!< instructions executed (read-only)
    Status = 13,         //!< engine status bits (read-only)
    /**
     * Execution-mode bits. Bit 0: hardware tile sequencer — the ENMC
     * controller's instruction generator expands one MUL_ADD_INT4 into
     * the whole per-tile screening loop locally, so the host C/A bus
     * carries a constant-size program instead of 3 instructions per tile.
     */
    Mode = 14,
    NumRegs = 15,
};

/** Mode-register bits. */
constexpr uint64_t kModeHwTileSequencer = 1ull << 0;

const char *statusRegName(StatusReg reg);

/** A decoded ENMC instruction. */
struct Instruction
{
    Opcode op = Opcode::Nop;
    BufferId buf0 = BufferId::ScreenFeature; //!< first buffer operand
    BufferId buf1 = BufferId::ScreenFeature; //!< second buffer operand
    StatusReg reg = StatusReg::FeatureBase;  //!< register operand
    bool reg_write = false;                  //!< Reg: INIT (true) or QUERY
    bool has_payload = false;                //!< DQ-bus payload follows
    /// Explicit, zeroed alignment bytes before `payload`. Without them the
    /// two padding bytes hold stack/heap leftovers, so byte-wise dumps of an
    /// instruction (e.g. gtest's printing of a test parameter) vary per run.
    uint8_t reserved[2] = {};
    uint64_t payload = 0;                    //!< address or register data

    std::string toString() const;
};

/** The raw wire format: 13 bits of C/A plus an optional DQ burst. */
struct EncodedInstruction
{
    uint16_t ca = 0;         //!< A0-A12 (13 valid bits)
    bool has_payload = false;
    uint64_t payload = 0;
};

/** Encode to the PRECHARGE-tunneled format. Panics on malformed input. */
EncodedInstruction encode(const Instruction &inst);

/** Decode from the wire format. Panics on malformed words. */
Instruction decode(const EncodedInstruction &enc);

/** Convenience constructors. */
Instruction makeInit(StatusReg reg, uint64_t value);
Instruction makeQuery(StatusReg reg);
Instruction makeLdr(BufferId buf, uint64_t addr);
Instruction makeStr(BufferId buf, uint64_t addr);
Instruction makeMove(BufferId from, BufferId to);
Instruction makeCompute(Opcode op, BufferId a, BufferId b);
Instruction makeFilter(BufferId buf);
Instruction makeSpecial(Opcode op); //!< SOFTMAX/SIGMOID/BARRIER/NOP/RETURN/CLR

/** A program is a flat instruction sequence. */
using Program = std::vector<Instruction>;

/** Disassemble a program, one instruction per line. */
std::string disassemble(const Program &prog);

} // namespace enmc::arch

#endif // ENMC_ENMC_ISA_H
