#include "integrity/chain.hh"

#include <algorithm>
#include <cstddef>
#include <string>

#include "common/logging.hh"
#include "integrity/checksum.hh"
#include "robust/breaker.hh"
#include "runtime/chain.hh"
#include "trace/trace.hh"

namespace dmx::integrity
{

namespace
{

constexpr runtime::DeviceId no_device =
    static_cast<runtime::DeviceId>(-1);

/**
 * Advance simulated time by the modeled checksum cost and trace it.
 * The caller drains the platform before every charge, so the no-op
 * event lands on an empty queue and now() moves by exactly the cost.
 */
void
chargeChecksum(runtime::Platform &plat, std::size_t bytes,
               const char *what, double rate)
{
    if (bytes == 0 || rate <= 0)
        return;
    const Tick begin = plat.now();
    const Tick cost = secondsToTicks(static_cast<double>(bytes) / rate);
    plat.eventQueue().scheduleIn(cost, [] {});
    plat.drain();
    if (auto *tb = trace::active())
        tb->span(trace::Category::Integrity, what, "chain", begin,
                 plat.now(), bytes);
}

/** @return true when @p dev can accept fresh chain work right now. */
bool
usable(const runtime::Platform &plat, runtime::DeviceId dev)
{
    if (!plat.deviceHealthy(dev))
        return false;
    const robust::CircuitBreaker *b = plat.deviceBreaker(dev);
    return !b || b->state() != robust::BreakerState::Open;
}

/** @return the first usable alternate of @p st, or no_device. */
runtime::DeviceId
pickAlternate(const runtime::Platform &plat, const ChainStage &st,
              runtime::DeviceId failed)
{
    for (runtime::DeviceId alt : st.alternates)
        if (alt != failed && usable(plat, alt))
            return alt;
    return no_device;
}

void
markEvent(const char *name, Tick at, std::uint64_t arg = 0)
{
    if (auto *tb = trace::active()) {
        tb->instant(trace::Category::Integrity, name, "chain", at, arg);
        tb->count(std::string("integrity.") + name, at);
    }
}

/**
 * Fail over every stage placed on @p failed to the first usable
 * alternate of @p st. @return false (placement unchanged) when there
 * is none.
 */
bool
failover(const runtime::Platform &plat, const ChainStage &st,
         runtime::DeviceId failed, std::vector<runtime::DeviceId> &devmap,
         ChainReport &report)
{
    const runtime::DeviceId alt = pickAlternate(plat, st, failed);
    if (alt == no_device)
        return false;
    for (runtime::DeviceId &d : devmap)
        if (d == failed)
            d = alt;
    ++report.failovers;
    markEvent("failover", plat.now(), alt);
    return true;
}

} // namespace

const char *
toString(ProtectionMode m)
{
    switch (m) {
      case ProtectionMode::Off:         return "off";
      case ProtectionMode::E2eChecksum: return "e2e-checksum";
    }
    return "?";
}

const char *
toString(MismatchPolicy p)
{
    switch (p) {
      case MismatchPolicy::HopRetransmit:  return "hop-retransmit";
      case MismatchPolicy::RollbackReplay: return "rollback-replay";
    }
    return "?";
}

const char *
toString(ChainMode m)
{
    switch (m) {
      case ChainMode::PerHop:     return "per-hop";
      case ChainMode::Descriptor: return "descriptor";
    }
    return "?";
}

namespace
{

/**
 * Descriptor-mode chain execution: the chain is cut into segments
 * (cfg.segment_stages stages each; 0 = one segment), and every segment
 * is submitted as one runtime::enqueueChain descriptor list - hops
 * verify in-engine under protection, the host pays one round trip per
 * segment, and checkpoints fall on segment (descriptor-chain)
 * boundaries. Recovery reuses the PerHop vocabulary: a failed stage
 * descriptor triggers failover to an alternate placement, a failed hop
 * descriptor (in-engine retransmits exhausted) triggers a rollback,
 * and both replay the segment from the last checkpoint.
 */
ChainReport
runChainDescriptor(runtime::Platform &plat,
                   const std::vector<ChainStage> &stages,
                   const runtime::Bytes &input, const ChainConfig &cfg)
{
    ChainReport report;
    const Tick t0 = plat.now();
    const bool protect = cfg.protection == ProtectionMode::E2eChecksum;

    std::vector<runtime::DeviceId> devmap(stages.size());
    for (std::size_t i = 0; i < stages.size(); ++i)
        devmap[i] = stages[i].device;

    runtime::Bytes cur = input;
    if (protect) {
        chargeChecksum(plat, cur.size(), "checksum",
                       cfg.checksum_bytes_per_sec);
    }
    std::size_t ckpt_stage = 0;
    runtime::Bytes ckpt_data = cur;

    const auto budgetLeft = [&] {
        return report.recoveries() < cfg.max_recoveries;
    };
    const auto finalize = [&](bool ok, runtime::Status status) {
        report.ok = ok;
        report.status = status;
        if (!ok)
            report.output.clear();
        report.makespan = plat.now() - t0;
    };

    std::size_t i = 0;
    while (i < stages.size()) {
        // Proactive failover, exactly as in PerHop mode.
        if (!usable(plat, devmap[i]) &&
            (!budgetLeft() ||
             !failover(plat, stages[i], devmap[i], devmap, report))) {
            finalize(false, runtime::Status::Failed);
            return report;
        }

        const std::size_t seg_end =
            cfg.segment_stages
                ? std::min(stages.size(),
                           i + static_cast<std::size_t>(
                                   cfg.segment_stages))
                : stages.size();

        // Lower [i, seg_end) to a descriptor list: a Copy descriptor
        // per device change, a stage descriptor per stage - with
        // adjacent stages on the same DRX grouped into one Restructure
        // descriptor when fusion is requested.
        auto ctx = plat.createContextPtr();
        std::vector<runtime::ChainOp> ops;
        struct OpSpan
        {
            std::size_t first_stage;
            unsigned span; ///< stages covered; 0 marks a hop
        };
        std::vector<OpSpan> spans;
        runtime::BufferId b_cur = ctx->createBuffer(cur);

        std::size_t j = i;
        while (j < seg_end) {
            const runtime::DeviceId dev = devmap[j];
            if (j > 0 && devmap[j - 1] != dev) {
                runtime::ChainOp hop;
                hop.kind = runtime::ChainOp::Kind::Copy;
                hop.device = devmap[j - 1];
                hop.dst_device = dev;
                hop.in = b_cur;
                hop.out = ctx->createBuffer();
                b_cur = hop.out;
                ops.push_back(std::move(hop));
                spans.push_back({j, 0});
            }
            runtime::ChainOp st;
            st.device = dev;
            st.in = b_cur;
            st.out = ctx->createBuffer();
            b_cur = st.out;
            std::size_t next = j + 1;
            if (plat.deviceIsDrx(dev)) {
                st.kind = runtime::ChainOp::Kind::Restructure;
                st.kernels.push_back(stages[j].kernel);
                while (cfg.fuse && next < seg_end &&
                       devmap[next] == dev) {
                    st.kernels.push_back(stages[next].kernel);
                    ++next;
                }
            } else {
                st.kind = runtime::ChainOp::Kind::Kernel;
            }
            spans.push_back({j, static_cast<unsigned>(next - j)});
            ops.push_back(std::move(st));
            j = next;
        }

        runtime::ChainOptions copts;
        copts.hop_crc = protect;
        copts.crc_bytes_per_sec = cfg.checksum_bytes_per_sec;
        runtime::ChainEvent ev =
            runtime::enqueueChain(*ctx, ops, copts);
        ctx->finish();
        ++report.descriptor_chains;
        ++report.round_trips;

        // Fold the per-descriptor completion records into the report's
        // PerHop vocabulary.
        const auto &recs = ev.records();
        for (std::size_t k = 0; k < recs.size(); ++k) {
            const runtime::DescriptorRecord &r = recs[k];
            if (spans[k].span == 0) {
                report.hops_run += r.attempts;
                report.mismatches_detected += r.crc_mismatches;
                if (r.attempts > 1)
                    report.hop_retransmits += r.attempts - 1;
            } else {
                report.stages_run += r.attempts * spans[k].span;
                if (r.attempts > 0)
                    report.fused_stages += spans[k].span - 1;
            }
        }

        if (ev.ok()) {
            cur = ctx->read(b_cur);
            if (protect) {
                chargeChecksum(plat, cur.size(), "checksum",
                               cfg.checksum_bytes_per_sec);
            }
            if (cfg.checkpoints) {
                ckpt_stage = seg_end;
                ckpt_data = cur;
                ++report.checkpoints_taken;
                markEvent("checkpoint", plat.now(), seg_end - 1);
            }
            i = seg_end;
            continue;
        }

        // The segment failed at descriptor ev.failedIndex().
        if (!budgetLeft()) {
            finalize(false, ev.status());
            return report;
        }
        const int fi = ev.failedIndex();
        const std::size_t failed_stage =
            fi >= 0 ? spans[static_cast<std::size_t>(fi)].first_stage
                    : i;
        const bool stage_failed =
            fi >= 0 && spans[static_cast<std::size_t>(fi)].span > 0;
        if (stage_failed) {
            if (!failover(plat, stages[failed_stage], devmap[failed_stage],
                          devmap, report)) {
                finalize(false, ev.status());
                return report;
            }
        } else {
            // A hop descriptor exhausted its in-engine retransmits
            // (fail-stop transport loss or persistent corruption):
            // replay the segment from the last checkpoint.
            ++report.rollbacks;
            markEvent("rollback", plat.now(), ckpt_stage);
        }
        cur = ckpt_data;
        i = ckpt_stage;
    }

    report.output = cur;
    finalize(true, runtime::Status::Ok);
    return report;
}

} // namespace

ChainReport
runChain(runtime::Platform &plat, const std::vector<ChainStage> &stages,
         const runtime::Bytes &input, const ChainConfig &cfg)
{
    ChainReport report;
    if (stages.empty()) {
        report.output = input;
        report.ok = true;
        report.status = runtime::Status::Ok;
        return report;
    }
    for (const ChainStage &st : stages)
        if (st.device >= plat.deviceCount())
            dmx_fatal("runChain: bad stage device %zu", st.device);

    if (cfg.mode == ChainMode::Descriptor)
        return runChainDescriptor(plat, stages, input, cfg);

    const Tick t0 = plat.now();
    const bool protect = cfg.protection == ProtectionMode::E2eChecksum;
    auto ctx = plat.createContextPtr();

    // The live placement: failover rewrites entries as devices die.
    std::vector<runtime::DeviceId> devmap(stages.size());
    for (std::size_t i = 0; i < stages.size(); ++i)
        devmap[i] = stages[i].device;

    // The chain input is always a valid recovery point; verified stage
    // outputs supersede it while checkpointing is on. A checkpoint is
    // trusted because (a) fail-stop losses never corrupt committed
    // bytes and (b) under e2e protection its payload passed the
    // checksum that was generated before any hop could touch it.
    runtime::Bytes cur = input;
    std::uint32_t cur_crc = 0;
    if (protect) {
        chargeChecksum(plat, cur.size(), "checksum",
                       cfg.checksum_bytes_per_sec);
        cur_crc = crc32(cur);
    }
    std::size_t ckpt_stage = 0;
    runtime::Bytes ckpt_data = cur;
    std::uint32_t ckpt_crc = cur_crc;

    const auto budgetLeft = [&] {
        return report.recoveries() < cfg.max_recoveries;
    };
    const auto finalize = [&](bool ok, runtime::Status status) {
        report.ok = ok;
        report.status = status;
        if (!ok)
            report.output.clear();
        report.makespan = plat.now() - t0;
    };
    const auto rollback = [&](std::size_t &i) {
        cur = ckpt_data;
        cur_crc = ckpt_crc;
        i = ckpt_stage;
    };

    std::size_t i = 0;
    while (i < stages.size()) {
        // Proactive failover: do not hop data onto a device the health
        // tracker or its breaker already condemned - re-route first.
        if (!usable(plat, devmap[i]) &&
            (!budgetLeft() ||
             !failover(plat, stages[i], devmap[i], devmap, report))) {
            finalize(false, runtime::Status::Failed);
            return report;
        }
        const runtime::DeviceId dev = devmap[i];

        // Hop: DMA the current payload from the producer device. The
        // producer-side buffer stays intact, so a detected corruption
        // can always be cured by retransmitting this hop.
        runtime::Bytes stage_in;
        if (i > 0 && devmap[i - 1] != dev) {
            bool delivered = false;
            bool restart = false;
            while (!delivered) {
                const runtime::BufferId srcb = ctx->createBuffer(cur);
                const runtime::BufferId dstb = ctx->createBuffer();
                runtime::Event e = ctx->queue(devmap[i - 1])
                                       .enqueueCopy(srcb, dstb, dev);
                ctx->finish();
                ++report.hops_run;
                ++report.round_trips;
                bool good = e.ok();
                if (good && protect) {
                    chargeChecksum(plat, cur.size(), "verify",
                                   cfg.checksum_bytes_per_sec);
                    if (crc32(ctx->read(dstb)) != cur_crc) {
                        ++report.mismatches_detected;
                        markEvent("checksum_mismatch", plat.now());
                        good = false;
                    }
                }
                if (good) {
                    stage_in = ctx->read(dstb);
                    delivered = true;
                    break;
                }
                if (!budgetLeft()) {
                    finalize(false, e.ok() ? runtime::Status::Failed
                                           : e.status());
                    return report;
                }
                if (!e.ok()) {
                    // A settled error poisons its in-order queue (every
                    // later command cascades), so recovery starts from
                    // a fresh context. Payloads live host-side in cur /
                    // the checkpoint; no buffer state is lost.
                    ctx = plat.createContextPtr();
                }
                if (!e.ok() ||
                    cfg.policy == MismatchPolicy::HopRetransmit) {
                    // Transport failures (fail-stop) and, under the
                    // hop-retransmit policy, checksum mismatches both
                    // re-DMA from the intact producer buffer.
                    ++report.hop_retransmits;
                    markEvent("hop_retransmit", plat.now());
                    continue;
                }
                ++report.rollbacks;
                markEvent("rollback", plat.now(), ckpt_stage);
                rollback(i);
                restart = true;
                break;
            }
            if (restart)
                continue;
        } else {
            stage_in = cur;
        }

        // Execute the stage on its (possibly re-routed) device.
        const ChainStage &st = stages[i];
        const runtime::BufferId inb = ctx->createBuffer(stage_in);
        const runtime::BufferId outb = ctx->createBuffer();
        runtime::Event e =
            plat.deviceIsDrx(dev)
                ? ctx->queue(dev).enqueueRestructure(st.kernel, inb, outb)
                : ctx->queue(dev).enqueueKernel(inb, outb);
        ctx->finish();
        ++report.stages_run;
        ++report.round_trips;
        if (!e.ok()) {
            // Mid-chain device failure (or an uncorrectable ECC error
            // that exhausted the retry budget): re-route the remaining
            // stages and resume from the checkpoint instead of
            // replaying the whole chain.
            if (!budgetLeft() || !failover(plat, st, dev, devmap, report)) {
                finalize(false, e.status());
                return report;
            }
            // The failed command poisoned its queue (error cascade);
            // resume the replay from a fresh context.
            ctx = plat.createContextPtr();
            rollback(i);
            continue;
        }

        cur = ctx->read(outb);
        if (protect) {
            chargeChecksum(plat, cur.size(), "checksum",
                           cfg.checksum_bytes_per_sec);
            cur_crc = crc32(cur);
        }
        if (cfg.checkpoints) {
            ckpt_stage = i + 1;
            ckpt_data = cur;
            ckpt_crc = cur_crc;
            ++report.checkpoints_taken;
            markEvent("checkpoint", plat.now(), i);
        }
        ++i;
    }

    report.output = cur;
    finalize(true, runtime::Status::Ok);
    return report;
}

} // namespace dmx::integrity
