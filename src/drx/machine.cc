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

/**
 * Fatal unless [@p addr, @p addr + @p len) lies inside a DRAM of
 * @p cap bytes. Written so that nothing wraps: addr + len can overflow.
 */
void
checkRange(std::uint64_t addr, std::uint64_t len, std::uint64_t cap,
           const char *what, const Program *program)
{
    if (len > cap || addr > cap - len)
        dmx_fatal("DrxMachine: %s out of range (%llu bytes at %llu of "
                  "%llu)%s%s%s",
                  what, static_cast<unsigned long long>(len),
                  static_cast<unsigned long long>(addr),
                  static_cast<unsigned long long>(cap),
                  program ? " in program '" : "",
                  program ? program->name.c_str() : "", program ? "'" : "");
}

/**
 * @return gather index @p v as an integer. Casting a negative, NaN or
 * too-large float to an integer is undefined behaviour, and an index at
 * or past the capacity @p cap addresses no element, so those are fatal.
 */
std::uint64_t
gatherIndex(float v, std::uint64_t cap, const Program &program)
{
    if (!(v >= 0.0f && v < static_cast<float>(cap))) // NaN fails too
        dmx_fatal("DrxMachine: gather index out of range (%g in program "
                  "'%s')",
                  static_cast<double>(v), program.name.c_str());
    return static_cast<std::uint64_t>(v);
}

/** Fatal: computing a @p what address overflowed 64 bits. */
[[noreturn]] void
addressOverflow(const char *what, const Program &program)
{
    dmx_fatal("DrxMachine: %s address overflows 64 bits (program '%s')",
              what, program.name.c_str());
}

/**
 * @return the element offset sum(stride[d] * idx[d]) of stream @p cfg;
 * fatal if it overflows int64.
 */
std::int64_t
elemOffset(const Instruction &cfg, const std::uint32_t idx[],
           const char *what, const Program &program)
{
    std::int64_t off = 0;
    for (unsigned d = 0; d < max_loop_dims; ++d) {
        std::int64_t term;
        if (__builtin_mul_overflow(cfg.stride[d],
                                   static_cast<std::int64_t>(idx[d]),
                                   &term) ||
            __builtin_add_overflow(off, term, &off))
            addressOverflow(what, program);
    }
    return off;
}

/**
 * @return the DRAM cycles of an access of @p bytes at @p addr when the
 * previous access on the same engine ended at @p next (~0 for none),
 * and advance @p next past this one. Back-to-back sequential accesses
 * run at the full DRAM rate; a small forward skip still burns the
 * skipped bytes (the open row / prefetched burst covers them); a real
 * discontinuity pays burst granularity.
 */
Cycles
burstCycles(std::uint64_t &next, std::uint64_t addr, std::uint64_t bytes,
            const DrxConfig &cfg)
{
    std::uint64_t charged;
    if (addr == next) {
        charged = bytes;
    } else if (next != ~0ull && addr > next &&
               addr - next <= cfg.min_burst_bytes) {
        charged = (addr - next) + bytes;
    } else {
        charged = std::max<std::uint64_t>(bytes, cfg.min_burst_bytes);
    }
    next = addr + bytes;
    const double cycles =
        static_cast<double>(charged) / cfg.dramBytesPerCycle();
    return static_cast<Cycles>(std::ceil(cycles));
}

/** Byte range [addr, addr + len) of a stream access. */
struct ByteSpan
{
    std::uint64_t addr;
    std::uint64_t len;
};

/**
 * @return the bytes of elements [@p first, @p last] of a stream based at
 * @p base with @p esz-byte elements, plus @p tail bytes past element
 * @p last. Fatal if @p first is negative or an address overflows.
 */
ByteSpan
streamSpan(std::uint64_t base, std::int64_t first, std::int64_t last,
           std::uint64_t esz, std::uint64_t tail, const char *what,
           const Program &program)
{
    if (first < 0)
        dmx_fatal("DrxMachine: %s out of range (program '%s')", what,
                  program.name.c_str());
    std::uint64_t lo, hi;
    if (__builtin_mul_overflow(static_cast<std::uint64_t>(first), esz,
                               &lo) ||
        __builtin_add_overflow(lo, base, &lo) ||
        __builtin_mul_overflow(static_cast<std::uint64_t>(last), esz,
                               &hi) ||
        __builtin_add_overflow(hi, base, &hi) ||
        __builtin_add_overflow(hi, tail, &hi))
        addressOverflow(what, program);
    return {lo, hi - lo};
}

} // namespace

DrxMachine::DrxMachine(DrxConfig cfg) : _cfg(cfg)
{
    if (_cfg.lanes == 0)
        dmx_fatal("DrxMachine: need at least one RE lane");
}

std::uint8_t *
DrxMachine::dram(std::uint64_t addr, std::uint64_t len, const char *what,
                 const Program *program)
{
    checkRange(addr, len, _cfg.dram_bytes, what, program);
    if (addr + len > _dram.size())
        _dram.resize(addr + len); // zero-filled, as never-written DRAM
    return _dram.data() + addr;
}

std::uint64_t
DrxMachine::alloc(std::uint64_t bytes)
{
    const std::uint64_t base = (_brk + 63) & ~63ull;
    dram(base, bytes, "alloc");
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
    std::memcpy(dram(addr, len, "write"), src, len);
}

std::vector<std::uint8_t>
DrxMachine::read(std::uint64_t addr, std::size_t len) const
{
    checkRange(addr, len, _cfg.dram_bytes, "read", nullptr);
    // Copy the backed part; bytes past the high-water mark were never
    // written and read as zero.
    const std::uint64_t backed = _dram.size();
    const std::uint64_t from = std::min<std::uint64_t>(addr, backed);
    const std::uint64_t to = std::min<std::uint64_t>(addr + len, backed);
    std::vector<std::uint8_t> out(_dram.data() + from, _dram.data() + to);
    out.resize(len);
    return out;
}

bool
DrxMachine::GatherDecode::matches(const std::vector<float> &idx,
                                  std::uint64_t elem_size,
                                  std::uint64_t per_index) const
{
    // Compare bits, not float values; an empty register has no data
    // pointer to compare.
    return valid && esz == elem_size && expand == per_index &&
           key.size() == idx.size() &&
           (idx.empty() || std::memcmp(key.data(), idx.data(),
                                       idx.size() * sizeof(float)) == 0);
}

Cycles
DrxMachine::memCost(StreamState &s, std::uint64_t addr,
                    std::uint64_t bytes) const
{
    if (bytes == 0)
        return 0;
    return burstCycles(s.next_seq_addr, addr, bytes, _cfg);
}

void
DrxMachine::decodeGather(const std::vector<float> &idx, std::uint64_t esz,
                         std::uint64_t expand, const Program &program)
{
    GatherDecode &g = _gather;
    g.valid = false;
    const std::size_t n = idx.size();
    g.at.resize(n);
    // Validate and convert every index once; the addresses are monotone
    // in the index, so the smallest and largest bound the span.
    std::uint64_t min_index = ~0ull, max_index = 0;
    for (std::size_t e = 0; e < n; ++e) {
        const std::uint64_t index =
            gatherIndex(idx[e], _cfg.dram_bytes, program);
        g.at[e] = index;
        min_index = std::min(min_index, index);
        max_index = std::max(max_index, index);
    }
    for (std::uint64_t &at : g.at)
        at = (at - min_index) * esz;
    g.min_index = min_index;
    g.max_index = max_index;

    // Coalesce runs of consecutive indices: the Off-chip engine merges
    // them into bursts. Only address differences enter the charge, so
    // offsets inside the span give the cost at any span address.
    g.mem = 0;
    g.bytes = 0;
    std::uint64_t last_end = ~0ull;
    auto charge = [&](std::uint64_t addr, std::uint64_t len) {
        g.mem += burstCycles(last_end, addr, len, _cfg);
        g.bytes += len;
    };
    if (expand > 1) {
        // One DMA descriptor per index.
        for (const std::uint64_t at : g.at)
            charge(at, expand * esz);
    } else {
        std::size_t run_start = 0;
        for (std::size_t e = 1; e <= n; ++e) {
            if (e == n || g.at[e - 1] + esz != g.at[e]) {
                charge(g.at[run_start], (e - run_start) * esz);
                run_start = e;
            }
        }
    }
    g.key.assign(idx.begin(), idx.end());
    g.esz = esz;
    g.expand = expand;
    g.valid = true;
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
    // A Gather decode lives for one run.
    _gather.valid = false;

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
                      case Opcode::Load:
                      case Opcode::Store: {
                        const bool load = ins.op == Opcode::Load;
                        const char *what = load ? "load" : "store";
                        StreamState &s = *u.stream;
                        const std::uint64_t esz = u.esz;
                        const std::uint32_t run_len = u.run_len;
                        const std::uint32_t groups = u.groups;
                        auto &reg = regs[ins.reg];
                        if (load) {
                            reg.resize(s.cfg.tile);
                        } else if (reg.size() != s.cfg.tile) {
                            dmx_fatal("DrxMachine: store size mismatch "
                                      "(reg %zu vs tile %u, program '%s')",
                                      reg.size(), s.cfg.tile,
                                      program.name.c_str());
                        }
                        // Group g starts at element off + g * step:
                        // affine in g, so the first and last groups
                        // bound the tile's span, checked once.
                        const std::int64_t off =
                            elemOffset(s.cfg, idx, what, program);
                        const std::int64_t step =
                            s.cfg.run_len ? s.cfg.run_stride : 0;
                        std::int64_t last;
                        if (__builtin_mul_overflow(
                                step, static_cast<std::int64_t>(groups - 1),
                                &last) ||
                            __builtin_add_overflow(off, last, &last))
                            addressOverflow(what, program);
                        const std::int64_t lo = std::min(off, last);
                        const std::uint64_t bytes = run_len * esz;
                        const ByteSpan span =
                            streamSpan(s.cfg.base, lo, std::max(off, last),
                                       esz, bytes, what, program);
                        std::uint8_t *tile =
                            dram(span.addr, span.len, what, &program);
                        for (std::uint32_t g = 0; g < groups; ++g) {
                            const std::uint64_t at =
                                static_cast<std::uint64_t>(
                                    off + step * static_cast<std::int64_t>(
                                                     g) -
                                    lo) *
                                esz;
                            float *elems = reg.data() + g * run_len;
                            if (load)
                                loadRun(tile + at, s.cfg.dtype, elems,
                                        run_len);
                            else
                                storeRun(tile + at, s.cfg.dtype, elems,
                                         run_len);
                            res.mem_cycles +=
                                memCost(s, span.addr + at, bytes);
                            (load ? res.bytes_read : res.bytes_written) +=
                                bytes;
                        }
                        if (load)
                            checkScratch(regs);
                        res.compute_cycles += 1; // issue
                        break;
                      }
                      case Opcode::Gather: {
                        StreamState &s = *u.stream;
                        const std::uint64_t esz = u.esz;
                        const std::int64_t off =
                            elemOffset(s.cfg, idx, "gather", program);
                        // Run-compressed mode: each index addresses a
                        // run of `count` consecutive elements.
                        const std::size_t expand =
                            ins.count > 1 ? ins.count : 1;
                        const GatherDecode &g = _gather;
                        if (!g.matches(regs[ins.src_b], esz, expand))
                            decodeGather(regs[ins.src_b], esz, expand,
                                         program);
                        const std::size_t n = g.at.size();
                        const std::uint8_t *table = nullptr;
                        if (n) {
                            std::int64_t first, last;
                            if (__builtin_add_overflow(off, g.min_index,
                                                       &first) ||
                                __builtin_add_overflow(off, g.max_index,
                                                       &last))
                                addressOverflow("gather", program);
                            const ByteSpan span =
                                streamSpan(s.cfg.base, first, last, esz,
                                           expand * esz, "gather", program);
                            table = dram(span.addr, span.len, "gather",
                                         &program);
                        }
                        // The loads read only the decoded offsets, so
                        // dst may be the index register itself.
                        auto &dst = regs[ins.dst];
                        dst.resize(n * expand);
                        float *out = dst.data();
                        const std::uint64_t *at = g.at.data();
                        visitDType(s.cfg.dtype, [&](auto c) {
                            if (expand == 1) {
                                for (std::size_t e = 0; e < n; ++e)
                                    out[e] = loadAs<c.value>(table + at[e]);
                                return;
                            }
                            for (std::size_t e = 0; e < n; ++e) {
                                const std::uint8_t *src = table + at[e];
                                for (std::size_t k = 0; k < expand; ++k)
                                    out[e * expand + k] =
                                        loadAs<c.value>(src + k * esz);
                            }
                        });
                        checkScratch(regs);
                        res.mem_cycles += g.mem;
                        res.bytes_read += g.bytes;
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
