/**
 * @file
 * sys-sweep: the system-level engines, one engine call per operation.
 * It mixes two fixed designs: closed-loop figure-harness points, one
 * sys::simulateSystem call each (closed_loop.cc), and open-loop overload
 * and serving engine runs (open_loop.cc). Neither interprets a DRX
 * program in the timed phase.
 *
 * Operations come in blocks of 53: 24 closed-loop pairs, then 5
 * open-loop runs. Twenty blocks make one round: two rounds of the
 * closed-loop design and one of the open-loop design, which take about
 * the same host time.
 */

#include "workloads.hh"

namespace perfbench
{

namespace
{

constexpr std::uint64_t closed_per_block = 48; ///< even: pairs stay whole
constexpr std::uint64_t open_per_block = 5;
constexpr std::uint64_t block_ops = closed_per_block + open_per_block;

class SysSweep final : public Workload
{
  public:
    explicit SysSweep(const WorkloadParams &p)
        : _closed(makeClosedLoopSweep(p)), _open(makeOpenLoopServing(p))
    {
    }

    void
    setup() override
    {
        _closed->setup();
        _open->setup();
    }

    bool
    run(std::uint64_t i, const OpContext &ctx) override
    {
        const std::uint64_t block = i / block_ops;
        const std::uint64_t k = i % block_ops;
        if (k < closed_per_block)
            return _closed->run(block * closed_per_block + k, ctx);
        return _open->run(block * open_per_block + (k - closed_per_block),
                          ctx);
    }

    void
    layerMetrics(const std::map<std::string, LayerTime> &layers,
                 std::uint64_t ops, unsigned setups,
                 std::map<std::string, double> &out) const override
    {
        _closed->layerMetrics(layers, ops, setups, out);
        _open->layerMetrics(layers, ops, setups, out);
    }

  private:
    std::unique_ptr<Workload> _closed;
    std::unique_ptr<Workload> _open;
};

} // namespace

std::unique_ptr<Workload>
makeSysSweep(const WorkloadParams &p)
{
    return std::make_unique<SysSweep>(p);
}

} // namespace perfbench
