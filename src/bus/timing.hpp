/**
 * @file
 * Bus timing specifications (paper Table 2).
 *
 * All values are in 200 MHz processor cycles, exactly as the paper reports
 * them. The I/O-bus values include the corresponding memory-bus occupancy
 * (the paper's footnote to Table 2): a transaction that crosses the I/O
 * bridge holds the I/O bus for the listed time, and the memory bus for
 * either the whole time (blocking reads) or just its memory-bus portion
 * (posted writes and invalidations).
 *
 * Table 2 does not list the occupancy of an address-only invalidation
 * (upgrade) transaction; we use the uncached-store cost as the closest
 * address-only bus transaction (MBus coherent invalidate is a short
 * address-phase-only transaction). No bench sweeps this choice.
 */

#ifndef CNI_BUS_TIMING_HPP
#define CNI_BUS_TIMING_HPP

#include "sim/types.hpp"

namespace cni
{

/** Where a bus sits in the node hierarchy. */
enum class BusKind
{
    CacheBus,  //!< processor-local bus (NI2w upper-bound configuration)
    MemoryBus, //!< 100 MHz coherent memory bus (MBus level-2 style)
    IoBus,     //!< 50 MHz coherent I/O bus (coherent-PCI style)
};

const char *toString(BusKind k);

/**
 * Occupancy, in processor cycles, of each transaction class on one bus.
 * Taken from Table 2 of the paper.
 */
struct BusTimingSpec
{
    Tick uncachedRead;    //!< uncached 8-byte load from an NI register
    Tick uncachedWrite;   //!< uncached 8-byte store to an NI register
    Tick blockToProc;     //!< 64-byte cache-to-cache transfer, NI -> CPU
    Tick blockFromProc;   //!< 64-byte cache-to-cache transfer, CPU -> NI
    Tick blockFromMemory; //!< 64-byte memory-to-cache transfer
    Tick addressOnly;     //!< invalidation / upgrade (see file comment)

    /** Memory bus: Table 2 column 2. */
    static constexpr BusTimingSpec
    memoryBus()
    {
        return {28, 12, 42, 42, 42, 12};
    }

    /**
     * I/O bus: Table 2 column 3. blockFromMemory is not reachable across
     * the bridge in this system (CNI16Qm is memory-bus only, Section 2.3);
     * it is set to the CPU->NI transfer cost for completeness.
     */
    static constexpr BusTimingSpec
    ioBus()
    {
        return {48, 32, 76, 62, 62, 32};
    }

    /**
     * Cache bus: Table 2 column 1 (only uncached NI accesses are defined;
     * the paper does not simulate coherent NIs there).
     */
    static constexpr BusTimingSpec
    cacheBus()
    {
        return {4, 4, 4, 4, 4, 4};
    }

    static constexpr BusTimingSpec
    forKind(BusKind k)
    {
        switch (k) {
          case BusKind::CacheBus:
            return cacheBus();
          case BusKind::MemoryBus:
            return memoryBus();
          case BusKind::IoBus:
            return ioBus();
        }
        return memoryBus();
    }
};

} // namespace cni

#endif // CNI_BUS_TIMING_HPP
