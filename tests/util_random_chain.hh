/**
 * @file
 * Shared random-chain application generator for the property and
 * differential test suites: a well-formed k-kernel / (k-1)-motion chain
 * derived deterministically from a seed, so every suite that sweeps
 * "random chain configs" draws from the same family.
 */

#ifndef DMX_TESTS_UTIL_RANDOM_CHAIN_HH
#define DMX_TESTS_UTIL_RANDOM_CHAIN_HH

#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/units.hh"
#include "integrity/chain.hh"
#include "runtime/runtime.hh"
#include "sys/system.hh"

namespace dmx::testutil
{

/** Random but well-formed chain app: k kernels, k-1 motions. */
inline sys::AppModel
randomChainApp(std::uint64_t seed)
{
    Rng rng(seed * 7919 + 13);
    sys::AppModel app;
    app.name = "rand" + std::to_string(seed);
    app.input_bytes = (1 + rng.below(8)) * mib;

    const unsigned k = 2 + static_cast<unsigned>(rng.below(3));
    std::uint64_t bytes = (2 + rng.below(14)) * mib;
    for (unsigned i = 0; i < k; ++i) {
        sys::KernelTiming kt;
        kt.name = "k" + std::to_string(i);
        kt.cpu_core_seconds = rng.uniform(0.002, 0.02);
        kt.accel_cycles = 100'000 + rng.below(900'000);
        kt.accel_freq_hz = 250e6;
        kt.out_bytes = bytes;
        app.kernels.push_back(kt);

        if (i + 1 < k) {
            sys::MotionTiming m;
            m.name = "m" + std::to_string(i);
            m.cpu_core_seconds = rng.uniform(0.005, 0.04);
            m.drx_cycles = 200'000 + rng.below(1'500'000);
            m.in_bytes = bytes;
            bytes = (1 + rng.below(10)) * mib;
            m.out_bytes = bytes;
            app.motions.push_back(m);
        }
    }
    return app;
}

/** Deterministic accelerator kernel: increments every byte. */
inline runtime::Bytes
chainBumpKernel(const runtime::Bytes &in, kernels::OpCount &ops)
{
    runtime::Bytes out = in;
    for (auto &b : out)
        ++b;
    ops.int_ops += out.size();
    ops.bytes_read += in.size();
    ops.bytes_written += out.size();
    return out;
}

/** A random functional chain bound to one runtime::Platform. */
struct RuntimeChainSpec
{
    runtime::Bytes input;
    std::vector<integrity::ChainStage> stages;
};

/**
 * Build a random but well-formed functional chain on @p plat for the
 * differential chain-equivalence harness: the platform gets two
 * interchangeable accelerators and two DRX cards (each stage lists the
 * same-type sibling as its failover alternate), and 3-6 stages mix
 * accelerator kernels with single-stage DRX restructure kernels whose
 * shapes line up along the chain. Adjacent stages sometimes share a
 * device (so descriptor-mode fusion groups DRX stages into one
 * Restructure descriptor), and an occasional random-permutation Gather
 * stage adds index-table addressing, grouped like any other stage.
 *
 * Deterministic in @p seed: building the same seed on two fresh
 * platforms yields identical device ids, stages and input bytes.
 */
inline RuntimeChainSpec
randomRuntimeChain(runtime::Platform &plat, std::uint64_t seed)
{
    Rng rng(seed * 9176 + 101);
    const runtime::DeviceId a0 =
        plat.addAccelerator("a0", accel::Domain::FFT, chainBumpKernel);
    const runtime::DeviceId a1 =
        plat.addAccelerator("a1", accel::Domain::SVM, chainBumpKernel);
    const runtime::DeviceId d0 = plat.addDrx("drx0", {});
    const runtime::DeviceId d1 = plat.addDrx("drx1", {});
    const auto sibling = [&](runtime::DeviceId dev) {
        if (dev == a0)
            return a1;
        if (dev == a1)
            return a0;
        return dev == d0 ? d1 : d0;
    };

    RuntimeChainSpec spec;
    restructure::BufferDesc desc;
    desc.dtype = DType::F32;
    desc.shape = {4 + rng.below(4), 8 + rng.below(8)};

    // Finite-float input pattern (decodes cleanly for DRX math).
    std::vector<float> vals(desc.elems());
    for (std::size_t i = 0; i < vals.size(); ++i)
        vals[i] = 0.25f + 0.125f * static_cast<float>((seed + i) % 31);
    spec.input.resize(desc.bytes());
    std::memcpy(spec.input.data(), vals.data(), spec.input.size());

    const runtime::DeviceId devices[4] = {a0, a1, d0, d1};
    runtime::DeviceId prev = devices[rng.below(4)];
    const unsigned k = 3 + static_cast<unsigned>(rng.below(4));
    for (unsigned s = 0; s < k; ++s) {
        // Half the time stay on the previous device: adjacent
        // same-device DRX stages are what fusion groups.
        const runtime::DeviceId dev =
            rng.below(2) ? prev : devices[rng.below(4)];
        prev = dev;

        integrity::ChainStage st;
        st.device = dev;
        st.alternates = {sibling(dev)};
        if (dev == d0 || dev == d1) {
            restructure::Kernel kern;
            kern.name = "rk" + std::to_string(seed) + "_" +
                        std::to_string(s);
            kern.input = desc;
            switch (rng.below(6)) {
              case 0:
                kern.stages.push_back(restructure::mapStage(
                    {{restructure::MapFn::Scale,
                      static_cast<float>(rng.uniform(0.5, 2.0))}}));
                break;
              case 1:
                kern.stages.push_back(restructure::mapStage(
                    {{restructure::MapFn::Offset,
                      static_cast<float>(rng.uniform(-1.0, 1.0))}}));
                break;
              case 2:
                kern.stages.push_back(restructure::transposeStage());
                break;
              case 3:
                kern.stages.push_back(restructure::padStage(
                    desc.inner() + 1 + rng.below(8), 0.5f));
                break;
              case 4:
                kern.stages.push_back(restructure::reduceStage());
                break;
              default: {
                // Random permutation gather: data-dependent
                // addressing through an index table.
                auto idx = std::make_shared<std::vector<std::uint32_t>>(
                    desc.elems());
                for (std::size_t i = 0; i < idx->size(); ++i)
                    (*idx)[i] = static_cast<std::uint32_t>(i);
                for (std::size_t i = idx->size(); i > 1; --i) {
                    const std::size_t j = rng.below(i);
                    std::swap((*idx)[i - 1], (*idx)[j]);
                }
                kern.stages.push_back(restructure::gatherStage(
                    std::move(idx), desc.shape));
                break;
              }
            }
            desc = kern.output();
            st.kernel = std::move(kern);
        }
        // Accelerator stages preserve the byte count (and therefore
        // the running descriptor) exactly.
        spec.stages.push_back(std::move(st));
    }
    return spec;
}

/**
 * Random but well-formed SystemConfig drawn from @p rng: an
 * accelerator-backed placement, 1-4 app instances, 1-3 requests each.
 */
inline sys::SystemConfig
randomSystemConfig(Rng &rng)
{
    static constexpr sys::Placement placements[] = {
        sys::Placement::MultiAxl,       sys::Placement::IntegratedDrx,
        sys::Placement::StandaloneDrx,  sys::Placement::BumpInTheWire,
        sys::Placement::PcieIntegrated,
    };
    sys::SystemConfig cfg;
    cfg.placement = placements[rng.below(std::size(placements))];
    cfg.n_apps = 1 + static_cast<unsigned>(rng.below(4));
    cfg.requests_per_app = 1 + static_cast<unsigned>(rng.below(3));
    return cfg;
}

} // namespace dmx::testutil

#endif // DMX_TESTS_UTIL_RANDOM_CHAIN_HH
