/**
 * @file
 * Functional and cycle-level simulator of the DRX microarchitecture
 * (paper Sec. IV-B, Figure 6).
 *
 * The machine models:
 *  - the Instruction Repeater: a configured loop nest replays the body
 *    with per-instruction pre/post placement (hardware loops, no branch
 *    overhead when cfg.hardware_loops is on);
 *  - the Strided Scratchpad Address Calculator + scratchpad registers:
 *    named tiles of floats, with live-capacity checking against the
 *    64 KB scratchpad;
 *  - the Restructuring Engine lanes: vector ops cost
 *    ceil(len/lanes) * unit_latency cycles;
 *  - the Transposition Engine (TransB / Deint*);
 *  - the Off-chip Data Access Engine: tile loads/stores charged against
 *    DRAM bandwidth, with burst-granularity penalties for short or
 *    non-sequential accesses, and index-coalescing gathers.
 *
 * Timing is decoupled access/execute: with double buffering the total
 * cycle count is max(compute, memory) + pipeline fill, modelling the
 * paper's overlapping of the Off-chip engine with the REs.
 *
 * The interpreter hoists the VFunc/dtype dispatch out of its element
 * loops, so each op is a dense, branch-free loop the compiler can
 * autovectorize across the RE lanes. Element conversions are the
 * shared converters of common/dtype.hh (run forms for Load/Store). No
 * expression is reassociated (reductions stay sequential);
 * tests/test_core_equiv.cc checks the outputs byte-for-byte against
 * restructure::executeOnCpu.
 *
 * Stream addresses are computed with overflow-checked arithmetic (an
 * overflow is fatal, never a wrap), and each Load/Store tile and each
 * Gather is range-checked once over its whole byte span. A Gather
 * validates and converts its index register once, and reuses that
 * decode within a run while the register holds the same bits.
 */

#ifndef DMX_DRX_MACHINE_HH
#define DMX_DRX_MACHINE_HH

#include <cstdint>
#include <vector>

#include "common/units.hh"
#include "drx/program.hh"
#include "fault/hooks.hh"

namespace dmx::drx
{

/** Hardware configuration of one DRX instance. */
struct DrxConfig
{
    unsigned lanes = 128;              ///< Restructuring Engine lanes
    std::uint64_t scratch_bytes = 64 * kib;
    std::uint64_t icache_bytes = 64 * kib;
    double freq_hz = 1e9;              ///< 1 GHz ASIC (250 MHz on FPGA)
    double dram_bytes_per_sec = 25e9;  ///< one DDR4-3200 channel
    std::uint64_t dram_bytes = 256 * mib; ///< modelled DRAM capacity
    bool hardware_loops = true;        ///< Instruction Repeater (ablation)
    bool double_buffer = true;         ///< access/execute overlap (ablation)
    unsigned min_burst_bytes = 64;     ///< DRAM burst granularity

    /** @return DRAM bytes transferred per DRX cycle at full rate. */
    double
    dramBytesPerCycle() const
    {
        return dram_bytes_per_sec / freq_hz;
    }
};

/** Result of executing one program. */
struct RunResult
{
    Cycles total_cycles = 0;
    Cycles compute_cycles = 0;
    Cycles mem_cycles = 0;
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
    std::uint64_t dyn_instructions = 0;
    /// An injected machine fault interrupted execution: cycle counts
    /// cover only the work done before the fault and no output was
    /// produced.
    bool faulted = false;
    /// Single-bit scratchpad ECC events corrected in place during the
    /// run; each charged the scrub-cycle penalty on top of the base
    /// timing.
    std::uint32_t ecc_corrected = 0;
    /// A double-bit scratchpad upset was detected but not correctable:
    /// the run aborted like a machine fault (faulted is set too) so
    /// poisoned data is never committed.
    bool ecc_uncorrectable = false;

    RunResult &
    operator+=(const RunResult &o)
    {
        total_cycles += o.total_cycles;
        compute_cycles += o.compute_cycles;
        mem_cycles += o.mem_cycles;
        bytes_read += o.bytes_read;
        bytes_written += o.bytes_written;
        dyn_instructions += o.dyn_instructions;
        faulted = faulted || o.faulted;
        ecc_corrected += o.ecc_corrected;
        ecc_uncorrectable = ecc_uncorrectable || o.ecc_uncorrectable;
        return *this;
    }

    /** @return wall-clock duration at @p freq_hz, in ticks. */
    Tick
    time(double freq_hz) const
    {
        return ClockDomain{freq_hz}.cyclesToTicks(total_cycles);
    }
};

/**
 * One DRX device: private DRAM plus the execution pipeline.
 *
 * Typical use: alloc() buffers, write() inputs and constants, run()
 * one or more programs, read() outputs.
 *
 * The DRAM's modelled capacity is config().dram_bytes; every range
 * check uses it. Host memory backs it only from address 0 up to the
 * high-water mark of allocations and accesses, zero-filled as it
 * grows, so every access sees the bytes a zero-initialized DRAM of the
 * full capacity would hold.
 */
class DrxMachine
{
  public:
    explicit DrxMachine(DrxConfig cfg = {});

    const DrxConfig &config() const { return _cfg; }

    /**
     * Allocate @p bytes of device DRAM (64-byte aligned bump allocator).
     * @return base address of the allocation
     */
    std::uint64_t alloc(std::uint64_t bytes);

    /** Release every allocation (addresses become invalid). */
    void resetAlloc();

    /** Copy bytes into device DRAM. */
    void write(std::uint64_t addr, const std::uint8_t *src,
               std::size_t len);

    /** Copy bytes out of device DRAM (never-written bytes read 0). */
    std::vector<std::uint8_t> read(std::uint64_t addr,
                                   std::size_t len) const;

    /**
     * @return bytes of device DRAM backed by host memory: the
     * high-water mark of every alloc() and access, at most
     * config().dram_bytes. read() never raises it.
     */
    std::uint64_t backedBytes() const { return _dram.size(); }

    /**
     * Execute @p program functionally and return its timing.
     *
     * The machine is clockless (callers place its runs in simulated
     * time); @p trace_base anchors the run's trace spans at the caller's
     * submission tick. It does not affect timing or results.
     *
     * @throws via fatal on invalid programs or out-of-range accesses
     */
    RunResult run(const Program &program, Tick trace_base = 0);

    /**
     * Install (or clear, with nullptr) the fault-injection hook
     * consulted at the start of every program run. A Fault decision
     * aborts the run after the trap cost, with result.faulted set.
     */
    void setFaultHook(fault::MachineHook hook) { _fault_hook = std::move(hook); }

    /** @return program runs aborted by an injected machine fault. */
    std::uint64_t faultCount() const { return _faults; }

    /**
     * Install (or clear, with nullptr) the scratchpad SEC-DED ECC hook
     * consulted once per program run, right after the fault hook. A
     * CorrectSingle decision adds the scrub penalty to the run's cycle
     * count; a DetectDouble decision aborts the run with
     * ecc_uncorrectable (and faulted) set.
     */
    void setEccHook(fault::EccHook hook) { _ecc_hook = std::move(hook); }

    /** @return single-bit ECC events corrected across all runs. */
    std::uint64_t eccCorrected() const { return _ecc_corrected; }

    /** @return double-bit (uncorrectable) ECC events across all runs. */
    std::uint64_t eccUncorrectable() const { return _ecc_uncorrectable; }

  private:
    struct StreamState
    {
        Instruction cfg;       ///< the CfgStream instruction
        bool configured = false;
        std::uint64_t next_seq_addr = ~0ull; ///< sequential detector
    };

    /**
     * One decoded body instruction: the pre/post placement gate and
     * the stream operand are resolved once per run instead of on every
     * iteration of the Instruction Repeater nest.
     */
    struct MicroOp
    {
        const Instruction *ins = nullptr;
        /// Placement gates for loop dims 1/2: the op runs only when
        /// idx[d] matches (any_index disables the gate for that dim).
        std::uint32_t want1 = ~0u;
        std::uint32_t want2 = ~0u;
        StreamState *stream = nullptr; ///< Load/Store/Gather operand
        std::uint32_t esz = 0;         ///< stream element size (bytes)
        std::uint32_t run_len = 0;     ///< Load/Store run length
        std::uint32_t groups = 0;      ///< Load/Store runs per tile
    };

    /**
     * The last Gather's index register, decoded: every index validated
     * and turned into the byte offset of its run inside the gather's
     * span, plus the span's index bounds and the cost of the coalesced
     * bursts. None of these depend on the stream's base or loop offset,
     * so a Gather reuses them for the rest of the run while its index
     * register holds the same bits and its element size and run length
     * are the same (compared by value, so a rewritten register can
     * never match a stale decode).
     */
    struct GatherDecode
    {
        bool valid = false;
        std::uint64_t esz = 0;           ///< stream element size (bytes)
        std::uint64_t expand = 0;        ///< elements per index
        std::vector<float> key;          ///< the index register decoded
        std::vector<std::uint64_t> at;   ///< run offset in the span, bytes
        std::uint64_t min_index = 0;
        std::uint64_t max_index = 0;
        Cycles mem = 0;                  ///< coalesced DRAM cycles
        std::uint64_t bytes = 0;         ///< bytes read

        /** @return true if this decode is of exactly these operands. */
        bool matches(const std::vector<float> &idx, std::uint64_t esz,
                     std::uint64_t expand) const;
    };

    /**
     * The one accessor for device DRAM: fatal unless [@p addr,
     * @p addr + @p len) lies inside the modelled capacity (@p what and
     * @p program name the access), then grow the backing, zero-filled,
     * to cover the range.
     * @return the range's first byte, valid until the next call
     */
    std::uint8_t *dram(std::uint64_t addr, std::uint64_t len,
                       const char *what, const Program *program = nullptr);

    /** Charge a DRAM access of @p bytes starting at @p addr. */
    Cycles memCost(StreamState &s, std::uint64_t addr,
                   std::uint64_t bytes) const;

    /**
     * Decode index register @p idx of a Gather with @p esz-byte
     * elements and @p expand elements per index into _gather; fatal on
     * an index that addresses no element.
     */
    void decodeGather(const std::vector<float> &idx, std::uint64_t esz,
                      std::uint64_t expand, const Program &program);

    /** @return cycles for a vector op over @p len elements. */
    Cycles vopCost(VFunc fn, std::size_t len) const;

    /** Check live scratchpad usage after a register grows. */
    void checkScratch(const std::vector<std::vector<float>> &regs) const;

    /**
     * Consult the fault hook; on a Fault decision fill @p res with the
     * trap result (cost charged, trace recorded) and return true.
     */
    bool faultTrap(Tick trace_base, RunResult &res);

    /**
     * Consult the ECC hook once for this run. On DetectDouble fill
     * @p res with the abort trap (cost charged, trace recorded) and
     * return true; on CorrectSingle add the scrub penalty to
     * @p penalty and bump @p res.ecc_corrected.
     */
    bool eccConsult(Tick trace_base, RunResult &res, Cycles &penalty);

    /** Emit the per-run trace spans and counters for @p res. */
    void emitRunTrace(const Program &program, const RunResult &res,
                      Tick trace_base) const;

    DrxConfig _cfg;
    fault::MachineHook _fault_hook;
    fault::EccHook _ecc_hook;
    std::uint64_t _faults = 0;
    std::uint64_t _ecc_corrected = 0;
    std::uint64_t _ecc_uncorrectable = 0;
    std::vector<std::uint8_t> _dram; ///< backed DRAM, [0, high-water)
    std::uint64_t _brk = 0;

    // Interpreter scratch arena: the register file, the vector-op
    // temporary, the decoded micro-op buffer and the Gather decode
    // are reused across run() calls so steady-state interpretation
    // never allocates.
    std::vector<std::vector<float>> _regs;
    std::vector<float> _tmp;
    std::vector<MicroOp> _uops;
    GatherDecode _gather;
};

} // namespace dmx::drx

#endif // DMX_DRX_MACHINE_HH
