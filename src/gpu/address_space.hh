/**
 * @file
 * The simulated global address space.
 *
 * All GPU-resident data -- BVH node arrays, vertex buffers, instance
 * tables, textures, the framebuffer, per-thread locals -- is laid out
 * in one flat 64-bit space. Allocations are tagged with a DataKind so
 * any address can be classified when it reaches the caches.
 */

#ifndef LUMI_GPU_ADDRESS_SPACE_HH
#define LUMI_GPU_ADDRESS_SPACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "gpu/data_kind.hh"

namespace lumi
{

/** A tagged allocation in the simulated address space. */
struct AddressRange
{
    uint64_t base = 0;
    uint64_t size = 0;
    DataKind kind = DataKind::Compute;
    std::string label;

    bool
    contains(uint64_t addr) const
    {
        return addr >= base && addr < base + size;
    }
};

/** Allocates and classifies simulated memory. */
class AddressSpace
{
  public:
    /** Allocations start above the null page. */
    static constexpr uint64_t baseAddress = 0x10000;

    /**
     * Allocate @p size bytes tagged @p kind; 128-byte aligned.
     *
     * @return the base address of the new range
     */
    uint64_t allocate(DataKind kind, uint64_t size,
                      const std::string &label = "");

    /**
     * Register an externally laid-out range (e.g. the acceleration
     * structure, which assigns its own internal offsets).
     */
    void registerRange(uint64_t base, uint64_t size, DataKind kind,
                       const std::string &label = "");

    /** Reserve address space without registering (for sub-layouts). */
    uint64_t reserve(uint64_t size);

    /** Classify an address; unknown addresses report Compute. */
    DataKind kindOf(uint64_t addr) const;

    /** One past the highest address handed out so far. */
    uint64_t limit() const { return cursor_; }

    /** True when [addr, addr+size) lies inside allocated space. */
    bool
    contains(uint64_t addr, uint64_t size) const
    {
        return addr >= baseAddress && addr < cursor_ &&
               size <= cursor_ - addr;
    }

    const std::vector<AddressRange> &ranges() const { return ranges_; }

  private:
    uint64_t cursor_ = baseAddress;
    /** Kept sorted by base for binary-search classification. */
    std::vector<AddressRange> ranges_;
};

} // namespace lumi

#endif // LUMI_GPU_ADDRESS_SPACE_HH
