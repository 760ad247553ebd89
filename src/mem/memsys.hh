/**
 * @file
 * The full memory hierarchy: per-SM L1Ds, a shared bandwidth-capped
 * interconnect, a unified L2, and FR-FCFS DRAM (Table III configuration).
 */

#ifndef HSU_MEM_MEMSYS_HH
#define HSU_MEM_MEMSYS_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "mem/cache.hh"
#include "mem/channel.hh"
#include "mem/dram.hh"

namespace hsu
{

/** Parameters for the whole hierarchy. */
struct MemSysParams
{
    unsigned numL1 = 4;
    CacheParams l1{.name = "l1d", .sizeBytes = 128 * 1024, .assoc = 8,
                   .lineBytes = 128, .hitLatency = 28, .mshrEntries = 32,
                   .mshrMergesPerEntry = 8, .missQueueCapacity = 32};
    // L2 hitLatency is the array access alone; interconnect and DRAM
    // time are modeled by the channels/device, not folded in here.
    CacheParams l2{.name = "l2", .sizeBytes = 6 * 1024 * 1024, .assoc = 24,
                   .lineBytes = 128, .hitLatency = 30, .mshrEntries = 128,
                   .mshrMergesPerEntry = 16, .missQueueCapacity = 128};
    unsigned icntLatency = 30;
    unsigned icntLinesPerCycle = 1; //!< roofline memory bound (Fig 8)
    unsigned icntCapacity = 256;
    DramParams dram{};
};

/**
 * Owns and wires every level. SMs talk to their L1 via l1(i); everything
 * below is internal. Call tick() once per cycle.
 *
 * Thread model: an SM may call l1(i).access() concurrently with other
 * SMs (each L1 is touched by exactly one SM), but everything shared —
 * channels, L2, DRAM — moves only inside tick(), which runs on one
 * thread and drains the staged L1 miss queues in SM-index order. That
 * fixed commit order is what makes the parallel SM phase bit-identical
 * to ticking the SMs one after another.
 */
class MemorySystem
{
  public:
    MemorySystem(MemSysParams params, StatGroup &stats);

    /** The i-th SM's L1 data cache. */
    Cache &l1(unsigned i) { return *l1s_[i]; }

    unsigned numL1() const { return static_cast<unsigned>(l1s_.size()); }

    Cache &l2() { return *l2_; }
    Dram &dram() { return *dram_; }

    /** Advance the hierarchy one cycle. */
    void tick(std::uint64_t now);

    /** True when no request is in flight anywhere below the SMs. */
    bool idle() const;

    /**
     * Earliest future cycle at which any level of the hierarchy could
     * act on its own (channel delivery, scheduled completion, bank
     * service, queue drain); kNeverCycle when everything is idle.
     */
    Cycle nextEventCycle(Cycle now) const;

  private:
    struct DownPacket
    {
        std::uint64_t lineAddr;
        bool write;
        unsigned src;
    };

    struct UpPacket
    {
        std::uint64_t lineAddr;
        unsigned src;
    };

    struct DramPacket
    {
        std::uint64_t lineAddr;
        bool write;
    };

    void l2Access(const DownPacket &pkt, std::uint64_t now);

    MemSysParams params_;
    std::vector<std::unique_ptr<Cache>> l1s_;
    std::unique_ptr<Cache> l2_;
    std::unique_ptr<Dram> dram_;
    Channel<DownPacket> down_;
    Channel<UpPacket> up_;
    Channel<DramPacket> toDram_;
    std::deque<DownPacket> l2Retry_;
    std::deque<UpPacket> upPending_;
    std::uint64_t now_ = 0;

    Stat &statL2Lines_;
};

} // namespace hsu

#endif // HSU_MEM_MEMSYS_HH
