#include "drx/machine.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/dtype.hh"
#include "common/logging.hh"
#include "trace/trace.hh"

namespace dmx::drx
{

namespace
{

/// Cycles charged when an injected machine fault traps a program run
/// (fault detection, pipeline drain and status report to the driver).
constexpr Cycles machine_fault_trap_cycles = 512;

/// Cycles to scrub-correct a single-bit scratchpad ECC upset: the
/// corrected word is re-written and the pipeline restarts the affected
/// access. Charged on top of the run's base timing.
constexpr Cycles machine_ecc_scrub_cycles = 32;

} // namespace

DrxMachine::DrxMachine(DrxConfig cfg) : _cfg(cfg)
{
    if (_cfg.lanes == 0)
        dmx_fatal("DrxMachine: need at least one RE lane");
    _dram.resize(_cfg.dram_bytes, 0);
}

std::uint64_t
DrxMachine::alloc(std::uint64_t bytes)
{
    const std::uint64_t base = (_brk + 63) & ~63ull;
    if (base + bytes > _dram.size())
        dmx_fatal("DrxMachine::alloc: out of device DRAM "
                  "(%llu requested at %llu of %zu)",
                  static_cast<unsigned long long>(bytes),
                  static_cast<unsigned long long>(base), _dram.size());
    _brk = base + bytes;
    return base;
}

void
DrxMachine::resetAlloc()
{
    _brk = 0;
}

void
DrxMachine::write(std::uint64_t addr, const std::uint8_t *src,
                  std::size_t len)
{
    if (addr + len > _dram.size())
        dmx_fatal("DrxMachine::write: out of range");
    std::memcpy(_dram.data() + addr, src, len);
}

std::vector<std::uint8_t>
DrxMachine::read(std::uint64_t addr, std::size_t len) const
{
    if (addr + len > _dram.size())
        dmx_fatal("DrxMachine::read: out of range");
    return std::vector<std::uint8_t>(_dram.begin() + static_cast<long>(addr),
                                     _dram.begin() +
                                         static_cast<long>(addr + len));
}

Cycles
DrxMachine::memCost(StreamState &s, std::uint64_t addr,
                    std::uint64_t bytes) const
{
    if (bytes == 0)
        return 0;
    // Back-to-back sequential accesses on a stream run at the full
    // DRAM rate; a small forward skip still burns the skipped bytes
    // (the open row / prefetched burst covers them); a real
    // discontinuity pays burst granularity.
    std::uint64_t charged;
    if (addr == s.next_seq_addr) {
        charged = bytes;
    } else if (s.next_seq_addr != ~0ull && addr > s.next_seq_addr &&
               addr - s.next_seq_addr <= _cfg.min_burst_bytes) {
        charged = (addr - s.next_seq_addr) + bytes;
    } else {
        charged = std::max<std::uint64_t>(bytes, _cfg.min_burst_bytes);
    }
    s.next_seq_addr = addr + bytes;
    const double cycles = static_cast<double>(charged) /
                          _cfg.dramBytesPerCycle();
    return static_cast<Cycles>(std::ceil(cycles));
}

Cycles
DrxMachine::vopCost(VFunc fn, std::size_t len) const
{
    const auto issues = static_cast<Cycles>(
        (len + _cfg.lanes - 1) / _cfg.lanes);
    switch (fn) {
      case VFunc::Sqrt:
      case VFunc::Log1p:
      case VFunc::Exp:
        return issues * 4; // multi-cycle functional unit
      case VFunc::RedSum:
      case VFunc::SegSum: {
        // Lane tree reduction after the per-lane partial sums; short
        // vectors only need a tree as deep as their live lanes.
        Cycles tree = 0;
        for (std::size_t l = std::min<std::size_t>(_cfg.lanes, len);
             l > 1; l = (l + 1) >> 1)
            ++tree;
        return issues + tree;
      }
      case VFunc::Reset:
        return 1;
      default:
        return std::max<Cycles>(issues, 1);
    }
}

void
DrxMachine::checkScratch(const std::vector<std::vector<float>> &regs) const
{
    std::uint64_t live = 0;
    for (const auto &r : regs)
        live += r.size() * sizeof(float);
    // The access/execute overlap double-buffers the in-flight stream
    // tiles; persistent (hoisted) tiles are resident once. The model
    // checks total live bytes against the full scratchpad and relies
    // on the compiler keeping stream tiles at <= half of it.
    const std::uint64_t budget = _cfg.scratch_bytes;
    if (live > budget)
        dmx_fatal("DrxMachine: scratchpad overflow (%llu live > %llu)",
                  static_cast<unsigned long long>(live),
                  static_cast<unsigned long long>(budget));
}

bool
DrxMachine::faultTrap(Tick trace_base, RunResult &res)
{
    if (!_fault_hook || _fault_hook() != fault::MachineAction::Fault)
        return false;
    // The machine trapped before committing any output. Charge a
    // small fixed trap-and-report cost; recovery (retry, or CPU
    // fallback once the device is marked unhealthy) is the
    // runtime's responsibility.
    ++_faults;
    res = RunResult{};
    res.faulted = true;
    res.total_cycles = machine_fault_trap_cycles;
    if (auto *tb = trace::active()) {
        const ClockDomain clk{_cfg.freq_hz};
        tb->span(trace::Category::Drx, "trap", "drx", trace_base,
                 trace_base + clk.cyclesToTicks(res.total_cycles),
                 res.total_cycles);
        tb->count("drx.faults", trace_base);
    }
    return true;
}

bool
DrxMachine::eccConsult(Tick trace_base, RunResult &res, Cycles &penalty)
{
    if (!_ecc_hook)
        return false;
    const fault::EccAction action = _ecc_hook();
    if (action == fault::EccAction::None)
        return false;
    const ClockDomain clk{_cfg.freq_hz};
    if (action == fault::EccAction::CorrectSingle) {
        // SEC: the flipped bit is corrected in place; only the scrub
        // penalty is observable outside the scratchpad.
        ++_ecc_corrected;
        ++res.ecc_corrected;
        penalty += machine_ecc_scrub_cycles;
        if (auto *tb = trace::active()) {
            tb->span(trace::Category::Integrity, "ecc_scrub", "drx",
                     trace_base,
                     trace_base +
                         clk.cyclesToTicks(machine_ecc_scrub_cycles),
                     machine_ecc_scrub_cycles);
            tb->count("integrity.ecc_corrected", trace_base);
        }
        return false;
    }
    // DED: detected but uncorrectable. The machine must not commit
    // poisoned data, so the run aborts exactly like a machine fault;
    // recovery (retry, failover) is the caller's responsibility.
    ++_ecc_uncorrectable;
    res = RunResult{};
    res.faulted = true;
    res.ecc_uncorrectable = true;
    res.total_cycles = machine_fault_trap_cycles;
    if (auto *tb = trace::active()) {
        tb->span(trace::Category::Integrity, "ecc_ded_trap", "drx",
                 trace_base,
                 trace_base + clk.cyclesToTicks(res.total_cycles),
                 res.total_cycles);
        tb->count("integrity.ecc_uncorrectable", trace_base);
    }
    return true;
}

void
DrxMachine::emitRunTrace(const Program &program, const RunResult &res,
                         Tick trace_base) const
{
    auto *tb = trace::active();
    if (!tb)
        return;
    const ClockDomain clk{_cfg.freq_hz};
    // Decoupled access/execute: fill, then the Restructuring Engines
    // and the Off-chip engine run (overlapped when double-buffered,
    // back to back otherwise).
    constexpr Cycles startup = 64;
    const Tick fill_end = trace_base + clk.cyclesToTicks(startup);
    const Tick exec_end =
        fill_end + clk.cyclesToTicks(res.compute_cycles);
    const Tick mem_begin = _cfg.double_buffer ? fill_end : exec_end;
    tb->span(trace::Category::Drx, program.name, "drx", trace_base,
             trace_base + clk.cyclesToTicks(res.total_cycles),
             res.dyn_instructions);
    tb->span(trace::Category::Drx, "fill", "drx.pipe", trace_base,
             fill_end, startup);
    tb->span(trace::Category::Drx, "execute", "drx.pipe", fill_end,
             exec_end, res.compute_cycles);
    tb->span(trace::Category::Drx, "dma", "drx.mem", mem_begin,
             mem_begin + clk.cyclesToTicks(res.mem_cycles),
             res.mem_cycles);
    tb->count("drx.instructions", trace_base,
              static_cast<double>(res.dyn_instructions));
    tb->count("drx.bytes_read", trace_base,
              static_cast<double>(res.bytes_read));
    tb->count("drx.bytes_written", trace_base,
              static_cast<double>(res.bytes_written));
}

RunResult
DrxMachine::run(const Program &program, Tick trace_base)
{
    program.validate();

    {
        RunResult trap;
        if (faultTrap(trace_base, trap))
            return trap;
    }
    Cycles ecc_penalty = 0;
    std::uint32_t ecc_corrected = 0;
    {
        RunResult ecc;
        if (eccConsult(trace_base, ecc, ecc_penalty))
            return ecc;
        ecc_corrected = ecc.ecc_corrected;
    }

    // Decode configuration section.
    std::uint32_t iters[max_loop_dims] = {1, 1, 1};
    StreamState streams[max_streams];
    std::size_t body_begin = 0;
    for (std::size_t i = 0; i < program.code.size(); ++i) {
        const Instruction &ins = program.code[i];
        if (ins.op == Opcode::CfgLoop) {
            iters[ins.dim] = ins.iters;
        } else if (ins.op == Opcode::CfgStream) {
            streams[ins.stream].cfg = ins;
            streams[ins.stream].configured = true;
        } else if (ins.op == Opcode::Sync) {
            body_begin = i + 1;
            break;
        }
    }
    std::size_t body_end = body_begin;
    while (program.code[body_end].op != Opcode::Halt)
        ++body_end;

    if (program.bodySize() * 4 > _cfg.icache_bytes)
        dmx_fatal("DrxMachine: program body exceeds the instruction cache");

    // Interpreter arena: reuse the register file across runs (registers
    // start empty, matching a freshly constructed file).
    if (_regs.size() != max_regs)
        _regs.resize(max_regs);
    for (auto &r : _regs)
        r.clear();
    auto &regs = _regs;

    RunResult res;
    // Configuration instructions issue once each.
    res.compute_cycles += body_begin + 1;
    res.dyn_instructions += body_begin + 1;

    auto stream_ref = [&](std::uint8_t id) -> StreamState & {
        StreamState &s = streams[id];
        if (!s.configured)
            dmx_fatal("DrxMachine: stream %u used but not configured", id);
        return s;
    };

    // Decode the body once: resolve each instruction's placement gate
    // and stream operand instead of re-deriving them on every iteration
    // of the Instruction Repeater nest.
    _uops.clear();
    _uops.reserve(body_end - body_begin);
    const bool body_runs = iters[0] && iters[1] && iters[2];
    for (std::size_t pc = body_runs ? body_begin : body_end;
         pc < body_end; ++pc) {
        const Instruction &ins = program.code[pc];
        MicroOp u;
        u.ins = &ins;
        for (unsigned d = ins.depth + 1; d < max_loop_dims; ++d) {
            // A gate of iters[d]-1 (post) or 0 (pre); iters >= 1, so
            // the gate value is always reachable and ~0u stays free as
            // the "no gate" sentinel.
            const std::uint32_t want = ins.post ? iters[d] - 1 : 0;
            (d == 1 ? u.want1 : u.want2) = want;
        }
        switch (ins.op) {
          case Opcode::Load:
          case Opcode::Store:
          case Opcode::Gather: {
            StreamState &s = stream_ref(ins.stream);
            u.stream = &s;
            u.esz = static_cast<std::uint32_t>(dtypeSize(s.cfg.dtype));
            if (ins.op != Opcode::Gather) {
                u.run_len = s.cfg.run_len ? s.cfg.run_len : s.cfg.tile;
                u.groups = s.cfg.tile / u.run_len;
            }
            break;
          }
          case Opcode::Compute:
            break;
          default:
            dmx_panic("DrxMachine: unexpected opcode in body");
        }
        _uops.push_back(u);
    }

    auto elem_offset = [&](const StreamState &s, const std::uint32_t idx[3])
        -> std::int64_t {
        std::int64_t off = 0;
        for (unsigned d = 0; d < max_loop_dims; ++d)
            off += s.cfg.stride[d] * static_cast<std::int64_t>(idx[d]);
        return off;
    };

    std::uint32_t idx[max_loop_dims] = {0, 0, 0};
    for (idx[0] = 0; idx[0] < iters[0]; ++idx[0]) {
        for (idx[1] = 0; idx[1] < iters[1]; ++idx[1]) {
            for (idx[2] = 0; idx[2] < iters[2]; ++idx[2]) {
                if (!_cfg.hardware_loops) {
                    // Software loops: compare/branch/address updates.
                    res.compute_cycles += 8;
                }
                for (const MicroOp &u : _uops) {
                    // Pre/post placement gate (decoded).
                    if ((u.want1 != ~0u && idx[1] != u.want1) ||
                        (u.want2 != ~0u && idx[2] != u.want2))
                        continue;
                    const Instruction &ins = *u.ins;
                    ++res.dyn_instructions;

                    switch (ins.op) {
                      case Opcode::Load: {
                        StreamState &s = *u.stream;
                        const std::size_t esz = u.esz;
                        const std::int64_t off = elem_offset(s, idx);
                        const std::uint32_t run_len = u.run_len;
                        const std::uint32_t groups = u.groups;
                        auto &reg = regs[ins.reg];
                        reg.resize(s.cfg.tile);
                        for (std::uint32_t g = 0; g < groups; ++g) {
                            const std::int64_t goff =
                                off + (s.cfg.run_len
                                           ? s.cfg.run_stride *
                                                 static_cast<std::int64_t>(
                                                     g)
                                           : 0);
                            const std::uint64_t addr =
                                s.cfg.base +
                                static_cast<std::uint64_t>(goff) * esz;
                            const std::uint64_t bytes = run_len * esz;
                            if (goff < 0 || addr + bytes > _dram.size())
                                dmx_fatal("DrxMachine: load out of range "
                                          "(program '%s')",
                                          program.name.c_str());
                            if (s.cfg.dtype == DType::F32) {
                                // loadAsFloat(F32) is a 4-byte memcpy;
                                // the run is contiguous, so one bulk
                                // copy is bit-identical.
                                std::memcpy(reg.data() + g * run_len,
                                            _dram.data() + addr, bytes);
                            } else {
                                // Dtype dispatch hoisted: each case is
                                // the same conversion loadAsFloat
                                // applies per element, as a dense loop.
                                const std::uint8_t *src =
                                    _dram.data() + addr;
                                float *out = reg.data() + g * run_len;
                                switch (s.cfg.dtype) {
                                  case DType::F16:
                                    for (std::uint32_t e = 0;
                                         e < run_len; ++e) {
                                        std::uint16_t h;
                                        std::memcpy(&h, src + e * 2, 2);
                                        out[e] = halfToFloat(h);
                                    }
                                    break;
                                  case DType::I32:
                                    for (std::uint32_t e = 0;
                                         e < run_len; ++e) {
                                        std::int32_t v;
                                        std::memcpy(&v, src + e * 4, 4);
                                        out[e] =
                                            static_cast<float>(v);
                                    }
                                    break;
                                  case DType::I16:
                                    for (std::uint32_t e = 0;
                                         e < run_len; ++e) {
                                        std::int16_t v;
                                        std::memcpy(&v, src + e * 2, 2);
                                        out[e] =
                                            static_cast<float>(v);
                                    }
                                    break;
                                  case DType::I8:
                                    for (std::uint32_t e = 0;
                                         e < run_len; ++e)
                                        out[e] = static_cast<float>(
                                            static_cast<std::int8_t>(
                                                src[e]));
                                    break;
                                  default: // U8
                                    for (std::uint32_t e = 0;
                                         e < run_len; ++e)
                                        out[e] = static_cast<float>(
                                            src[e]);
                                    break;
                                }
                            }
                            res.mem_cycles += memCost(s, addr, bytes);
                            res.bytes_read += bytes;
                        }
                        checkScratch(regs);
                        res.compute_cycles += 1; // issue
                        break;
                      }
                      case Opcode::Store: {
                        StreamState &s = *u.stream;
                        const std::size_t esz = u.esz;
                        const std::int64_t off = elem_offset(s, idx);
                        const auto &reg = regs[ins.reg];
                        if (reg.size() != s.cfg.tile)
                            dmx_fatal("DrxMachine: store size mismatch "
                                      "(reg %zu vs tile %u, program '%s')",
                                      reg.size(), s.cfg.tile,
                                      program.name.c_str());
                        const std::uint32_t run_len = u.run_len;
                        const std::uint32_t groups = u.groups;
                        for (std::uint32_t g = 0; g < groups; ++g) {
                            const std::int64_t goff =
                                off + (s.cfg.run_len
                                           ? s.cfg.run_stride *
                                                 static_cast<std::int64_t>(
                                                     g)
                                           : 0);
                            const std::uint64_t addr =
                                s.cfg.base +
                                static_cast<std::uint64_t>(goff) * esz;
                            const std::uint64_t bytes = run_len * esz;
                            if (goff < 0 || addr + bytes > _dram.size())
                                dmx_fatal("DrxMachine: store out of "
                                          "range (program '%s')",
                                          program.name.c_str());
                            if (s.cfg.dtype == DType::F32) {
                                // storeFromFloat(F32) is a 4-byte
                                // memcpy; bulk-copy the whole run.
                                std::memcpy(_dram.data() + addr,
                                            reg.data() + g * run_len,
                                            bytes);
                            } else {
                                // Dtype dispatch hoisted; identical
                                // rounding and saturation per element
                                // as storeFromFloat.
                                std::uint8_t *out = _dram.data() + addr;
                                const float *in =
                                    reg.data() + g * run_len;
                                switch (s.cfg.dtype) {
                                  case DType::F16:
                                    for (std::uint32_t e = 0;
                                         e < run_len; ++e) {
                                        const std::uint16_t h =
                                            floatToHalf(in[e]);
                                        std::memcpy(out + e * 2, &h, 2);
                                    }
                                    break;
                                  case DType::I32:
                                    for (std::uint32_t e = 0;
                                         e < run_len; ++e) {
                                        const double r = std::nearbyint(
                                            static_cast<double>(in[e]));
                                        const auto clamped =
                                            static_cast<std::int32_t>(
                                                std::clamp(
                                                    r, -2147483648.0,
                                                    2147483647.0));
                                        std::memcpy(out + e * 4,
                                                    &clamped, 4);
                                    }
                                    break;
                                  case DType::I16:
                                    for (std::uint32_t e = 0;
                                         e < run_len; ++e) {
                                        const float r =
                                            std::nearbyintf(in[e]);
                                        const auto clamped =
                                            static_cast<std::int16_t>(
                                                std::clamp(r, -32768.0f,
                                                           32767.0f));
                                        std::memcpy(out + e * 2,
                                                    &clamped, 2);
                                    }
                                    break;
                                  case DType::I8:
                                    for (std::uint32_t e = 0;
                                         e < run_len; ++e) {
                                        const float r =
                                            std::nearbyintf(in[e]);
                                        out[e] = static_cast<
                                            std::uint8_t>(
                                            static_cast<std::int8_t>(
                                                std::clamp(r, -128.0f,
                                                           127.0f)));
                                    }
                                    break;
                                  default: // U8
                                    for (std::uint32_t e = 0;
                                         e < run_len; ++e) {
                                        const float r =
                                            std::nearbyintf(in[e]);
                                        out[e] = static_cast<
                                            std::uint8_t>(
                                            std::clamp(r, 0.0f,
                                                       255.0f));
                                    }
                                    break;
                                }
                            }
                            res.mem_cycles += memCost(s, addr, bytes);
                            res.bytes_written += bytes;
                        }
                        res.compute_cycles += 1;
                        break;
                      }
                      case Opcode::Gather: {
                        StreamState &s = *u.stream;
                        const std::size_t esz = u.esz;
                        const std::int64_t off = elem_offset(s, idx);
                        const auto &idx_reg = regs[ins.src_b];
                        auto &dst = regs[ins.dst];
                        // Run-compressed mode: each index addresses a
                        // run of `count` consecutive elements.
                        const std::size_t expand =
                            ins.count > 1 ? ins.count : 1;
                        dst.resize(idx_reg.size() * expand);
                        // Coalesce runs of consecutive indices: the
                        // Off-chip engine merges them into bursts.
                        std::uint64_t bytes = 0;
                        Cycles mem = 0;
                        std::size_t run_start = 0;
                        std::uint64_t last_end = ~0ull;
                        auto flush_run = [&](std::size_t upto) {
                            if (upto == run_start)
                                return;
                            const std::uint64_t run_bytes =
                                (upto - run_start) * esz;
                            const std::uint64_t start_addr =
                                s.cfg.base +
                                (static_cast<std::uint64_t>(off) +
                                 static_cast<std::uint64_t>(
                                     idx_reg[run_start])) *
                                    esz;
                            std::uint64_t charged;
                            if (start_addr == last_end) {
                                charged = run_bytes;
                            } else if (last_end != ~0ull &&
                                       start_addr > last_end &&
                                       start_addr - last_end <=
                                           _cfg.min_burst_bytes) {
                                charged = (start_addr - last_end) +
                                          run_bytes;
                            } else {
                                charged = std::max<std::uint64_t>(
                                    run_bytes, _cfg.min_burst_bytes);
                            }
                            last_end = start_addr + run_bytes;
                            mem += static_cast<Cycles>(std::ceil(
                                static_cast<double>(charged) /
                                _cfg.dramBytesPerCycle()));
                            bytes += run_bytes;
                        };
                        if (expand > 1) {
                            // One DMA descriptor per index.
                            for (std::size_t e = 0; e < idx_reg.size();
                                 ++e) {
                                const auto index =
                                    static_cast<std::uint64_t>(
                                        idx_reg[e]);
                                const std::uint64_t addr =
                                    s.cfg.base +
                                    (static_cast<std::uint64_t>(off) +
                                     index) *
                                        esz;
                                const std::uint64_t run_bytes =
                                    expand * esz;
                                if (addr + run_bytes > _dram.size())
                                    dmx_fatal("DrxMachine: gather out "
                                              "of range (program '%s')",
                                              program.name.c_str());
                                for (std::size_t k = 0; k < expand; ++k)
                                    dst[e * expand + k] = loadAsFloat(
                                        _dram.data() + addr + k * esz,
                                        s.cfg.dtype);
                                std::uint64_t charged;
                                if (addr == last_end) {
                                    charged = run_bytes;
                                } else if (last_end != ~0ull &&
                                           addr > last_end &&
                                           addr - last_end <=
                                               _cfg.min_burst_bytes) {
                                    charged =
                                        (addr - last_end) + run_bytes;
                                } else {
                                    charged = std::max<std::uint64_t>(
                                        run_bytes,
                                        _cfg.min_burst_bytes);
                                }
                                last_end = addr + run_bytes;
                                mem += static_cast<Cycles>(std::ceil(
                                    static_cast<double>(charged) /
                                    _cfg.dramBytesPerCycle()));
                                bytes += run_bytes;
                            }
                        } else {
                            for (std::size_t e = 0; e < idx_reg.size();
                                 ++e) {
                                const auto index =
                                    static_cast<std::uint64_t>(
                                        idx_reg[e]);
                                const std::uint64_t addr =
                                    s.cfg.base +
                                    (static_cast<std::uint64_t>(off) +
                                     index) *
                                        esz;
                                if (addr + esz > _dram.size())
                                    dmx_fatal("DrxMachine: gather out "
                                              "of range (program '%s')",
                                              program.name.c_str());
                                dst[e] = loadAsFloat(_dram.data() + addr,
                                                     s.cfg.dtype);
                                if (e > run_start &&
                                    static_cast<std::uint64_t>(
                                        idx_reg[e - 1]) + 1 != index) {
                                    flush_run(e);
                                    run_start = e;
                                }
                            }
                            flush_run(idx_reg.size());
                        }
                        checkScratch(regs);
                        res.mem_cycles += mem;
                        res.bytes_read += bytes;
                        res.compute_cycles +=
                            vopCost(VFunc::Copy, dst.size());
                        break;
                      }
                      case Opcode::Compute: {
                        auto &dst = regs[ins.dst];
                        const auto &a = regs[ins.src_a];
                        const auto &b = regs[ins.src_b];
                        const VFunc fn = ins.fn;
                        auto need_ab = [&](bool two) {
                            if (two && a.size() != b.size())
                                dmx_fatal("DrxMachine: operand length "
                                          "mismatch (%zu vs %zu) in '%s'",
                                          a.size(), b.size(),
                                          program.name.c_str());
                        };
                        std::size_t cost_len = a.size();
                        switch (fn) {
                          case VFunc::Add: case VFunc::Sub:
                          case VFunc::Mul: case VFunc::Max:
                          case VFunc::Min: {
                            need_ab(true);
                            _tmp.resize(a.size());
                            const std::size_t n = a.size();
                            // VFunc hoisted out of the element
                            // loop: each case is a dense loop over
                            // the lanes.
                            const float *pa = a.data();
                            const float *pb = b.data();
                            float *pt = _tmp.data();
                            switch (fn) {
                              case VFunc::Add:
                                for (std::size_t e = 0; e < n; ++e)
                                    pt[e] = pa[e] + pb[e];
                                break;
                              case VFunc::Sub:
                                for (std::size_t e = 0; e < n; ++e)
                                    pt[e] = pa[e] - pb[e];
                                break;
                              case VFunc::Mul:
                                for (std::size_t e = 0; e < n; ++e)
                                    pt[e] = pa[e] * pb[e];
                                break;
                              case VFunc::Max:
                                for (std::size_t e = 0; e < n; ++e)
                                    pt[e] = std::max(pa[e], pb[e]);
                                break;
                              default: // Min
                                for (std::size_t e = 0; e < n; ++e)
                                    pt[e] = std::min(pa[e], pb[e]);
                                break;
                            }
                            std::swap(dst, _tmp);
                            break;
                          }
                          case VFunc::Mac: {
                            need_ab(true);
                            if (dst.size() != a.size())
                                dmx_fatal("DrxMachine: mac accumulator "
                                          "length mismatch in '%s'",
                                          program.name.c_str());
                            for (std::size_t e = 0; e < a.size(); ++e)
                                dst[e] += a[e] * b[e];
                            break;
                          }
                          case VFunc::AddS: case VFunc::MulS:
                          case VFunc::MaxS: case VFunc::MinS:
                          case VFunc::Abs: case VFunc::Sqrt:
                          case VFunc::Log1p: case VFunc::Exp:
                          case VFunc::Copy: {
                            _tmp.resize(a.size());
                            const std::size_t n = a.size();
                            // Same hoisting as the binary ops; the
                            // libm cases stay scalar calls (the
                            // compiler will not vectorize them
                            // without fast-math) but still shed
                            // the per-element dispatch.
                            const float *pa = a.data();
                            float *pt = _tmp.data();
                            const float imm = ins.imm;
                            switch (fn) {
                              case VFunc::AddS:
                                for (std::size_t e = 0; e < n; ++e)
                                    pt[e] = pa[e] + imm;
                                break;
                              case VFunc::MulS:
                                for (std::size_t e = 0; e < n; ++e)
                                    pt[e] = pa[e] * imm;
                                break;
                              case VFunc::MaxS:
                                for (std::size_t e = 0; e < n; ++e)
                                    pt[e] = std::max(pa[e], imm);
                                break;
                              case VFunc::MinS:
                                for (std::size_t e = 0; e < n; ++e)
                                    pt[e] = std::min(pa[e], imm);
                                break;
                              case VFunc::Abs:
                                for (std::size_t e = 0; e < n; ++e)
                                    pt[e] = std::fabs(pa[e]);
                                break;
                              case VFunc::Sqrt:
                                for (std::size_t e = 0; e < n; ++e)
                                    pt[e] = std::sqrt(
                                        std::max(pa[e], 0.0f));
                                break;
                              case VFunc::Log1p:
                                for (std::size_t e = 0; e < n; ++e)
                                    pt[e] = std::log1p(
                                        std::max(pa[e], 0.0f));
                                break;
                              case VFunc::Exp:
                                for (std::size_t e = 0; e < n; ++e)
                                    pt[e] = std::exp(pa[e]);
                                break;
                              default: // Copy
                                for (std::size_t e = 0; e < n; ++e)
                                    pt[e] = pa[e];
                                break;
                            }
                            std::swap(dst, _tmp);
                            break;
                          }
                          case VFunc::RedSum: {
                            float acc = 0.0f;
                            for (float v : a)
                                acc += v;
                            dst.assign(1, acc);
                            break;
                          }
                          case VFunc::Fill:
                            dst.assign(ins.count, ins.imm);
                            cost_len = ins.count;
                            break;
                          case VFunc::TransB: {
                            const std::size_t r = ins.count,
                                              c = ins.count2;
                            if (a.size() != r * c)
                                dmx_fatal("DrxMachine: transb shape "
                                          "mismatch in '%s'",
                                          program.name.c_str());
                            _tmp.resize(a.size());
                            for (std::size_t y = 0; y < r; ++y)
                                for (std::size_t x = 0; x < c; ++x)
                                    _tmp[x * r + y] = a[y * c + x];
                            std::swap(dst, _tmp);
                            break;
                          }
                          case VFunc::DeintEven:
                          case VFunc::DeintOdd: {
                            if (a.size() % 2 != 0)
                                dmx_fatal("DrxMachine: deint needs even "
                                          "length in '%s'",
                                          program.name.c_str());
                            const std::size_t half = a.size() / 2;
                            const std::size_t base =
                                fn == VFunc::DeintOdd ? 1 : 0;
                            _tmp.resize(half);
                            for (std::size_t e = 0; e < half; ++e)
                                _tmp[e] = a[2 * e + base];
                            std::swap(dst, _tmp);
                            cost_len = half;
                            break;
                          }
                          case VFunc::SegSum: {
                            const std::size_t seg = ins.count;
                            if (seg == 0 || a.size() % seg != 0)
                                dmx_fatal("DrxMachine: segsum width %u "
                                          "does not divide %zu in '%s'",
                                          ins.count, a.size(),
                                          program.name.c_str());
                            _tmp.resize(a.size() / seg);
                            for (std::size_t s2 = 0; s2 < _tmp.size();
                                 ++s2) {
                                float acc = 0.0f;
                                for (std::size_t e = 0; e < seg; ++e)
                                    acc += a[s2 * seg + e];
                                _tmp[s2] = acc;
                            }
                            std::swap(dst, _tmp);
                            break;
                          }
                          case VFunc::Reset:
                            dst.clear();
                            break;
                          case VFunc::Append:
                            dst.insert(dst.end(), a.begin(), a.end());
                            break;
                        }
                        checkScratch(regs);
                        res.compute_cycles += vopCost(fn, cost_len);
                        break;
                      }
                      default:
                        dmx_panic("DrxMachine: unexpected opcode in body");
                    }
                }
            }
        }
    }

    // Pipeline fill/drain.
    constexpr Cycles startup = 64;
    res.total_cycles =
        (_cfg.double_buffer
             ? std::max(res.compute_cycles, res.mem_cycles)
             : res.compute_cycles + res.mem_cycles) +
        startup;
    res.ecc_corrected = ecc_corrected;
    res.total_cycles += ecc_penalty;

    emitRunTrace(program, res, trace_base);
    return res;
}

} // namespace dmx::drx
