#include "gpu/cache.hh"

#include <algorithm>

#include "check/check.hh"

namespace lumi
{

Cache::Cache(uint32_t size_bytes, uint32_t line_bytes, uint32_t ways,
             int latency)
    : lineBytes_(line_bytes), latency_(latency)
{
    uint32_t num_lines = size_bytes / line_bytes;
    if (ways == 0 || ways > num_lines)
        ways = num_lines; // fully associative
    ways_ = ways;
    numSets_ = num_lines / ways;
    if (numSets_ == 0)
        numSets_ = 1;
    lines_.resize(static_cast<size_t>(numSets_) * ways_);
    lookup_ = FlatMap<uint32_t>(num_lines);
    lruKey_.resize(lines_.size(), 0);
    // Blocks of 16 ways, or the largest power of two dividing the
    // associativity, so block boundaries fall on set boundaries.
    while (blockShift_ < 4 && ways_ % (2u << blockShift_) == 0)
        blockShift_++;
    blockMin_.resize(lines_.size() >> blockShift_, 0);
    setFill_.resize(numSets_, 0);
}

void
Cache::setKey(uint32_t index, uint64_t key)
{
    uint64_t old = lruKey_[index];
    lruKey_[index] = key;
    uint64_t &block_min = blockMin_[index >> blockShift_];
    if (key <= block_min) {
        block_min = key;
    } else if (old == block_min) {
        // The line may have held the block's only minimum.
        const uint64_t *keys =
            lruKey_.data() + ((index >> blockShift_) << blockShift_);
        block_min = *std::min_element(keys, keys + (1u << blockShift_));
    }
}

uint32_t
Cache::setIndex(uint64_t line_addr) const
{
    return static_cast<uint32_t>((line_addr / lineBytes_) % numSets_);
}

Cache::Line *
Cache::findLine(uint64_t line_addr)
{
    const uint32_t *index = lookup_.find(line_addr);
    return index ? &lines_[*index] : nullptr;
}

const Cache::Line *
Cache::findLine(uint64_t line_addr) const
{
    const uint32_t *index = lookup_.find(line_addr);
    return index ? &lines_[*index] : nullptr;
}

CacheProbe
Cache::peek(uint64_t line_addr, uint64_t cycle) const
{
    CacheProbe result;
    const Line *line = findLine(line_addr);
    if (!line)
        return result; // Miss
    if (line->validAt > cycle) {
        result.outcome = CacheProbe::Outcome::PendingHit;
        result.validAt = line->validAt;
    } else {
        result.outcome = CacheProbe::Outcome::Hit;
    }
    return result;
}

CacheProbe
Cache::probe(uint64_t line_addr, uint64_t cycle)
{
    stats.reads++;
    CacheProbe result;
    const uint32_t *index = lookup_.find(line_addr);
    Line *line = index ? &lines_[*index] : nullptr;
    if (!line) {
        stats.readMisses++;
    } else {
        setKey(*index, cycle + 1);
        if (line->validAt > cycle) {
            stats.readPendingHits++;
            result.outcome = CacheProbe::Outcome::PendingHit;
            result.validAt = line->validAt;
        } else {
            stats.readHits++;
            result.outcome = CacheProbe::Outcome::Hit;
        }
    }
    // Every probe lands in exactly one outcome bucket; drift here
    // means a stat was bumped outside this function or lost.
    LUMI_CHECK(Cache,
               stats.reads == stats.readHits + stats.readPendingHits +
                                  stats.readMisses,
               "read counter drift: reads=%llu != hits=%llu + "
               "pending=%llu + misses=%llu",
               static_cast<unsigned long long>(stats.reads),
               static_cast<unsigned long long>(stats.readHits),
               static_cast<unsigned long long>(stats.readPendingHits),
               static_cast<unsigned long long>(stats.readMisses));
    return result;
}

void
Cache::fill(uint64_t line_addr, uint64_t cycle, uint64_t valid_at)
{
    // A fill's data cannot land before the access that requested it.
    LUMI_CHECK(Cache, valid_at >= cycle,
               "fill of line 0x%llx completes in the past: "
               "validAt=%llu < cycle=%llu",
               static_cast<unsigned long long>(line_addr),
               static_cast<unsigned long long>(valid_at),
               static_cast<unsigned long long>(cycle));
    uint32_t set = setIndex(line_addr);
    if (lookup_.contains(line_addr))
        return; // already present (raced fill)

    // Find an invalid way or evict the LRU line of the set: the
    // lowest-index argmin over the replacement keys (0 = invalid
    // beats any timestamp; ties keep the lowest way). Strict < over
    // the block minima picks the first block holding the minimum,
    // and its first way holding it is the victim.
    uint32_t base = set * ways_;
    uint32_t block = base >> blockShift_;
    const uint32_t blocks_end = block + (ways_ >> blockShift_);
    for (uint32_t b = block + 1; b < blocks_end && blockMin_[block] != 0;
         b++) {
        if (blockMin_[b] < blockMin_[block])
            block = b;
    }
    uint32_t victim = block << blockShift_;
    while (lruKey_[victim] != blockMin_[block])
        victim++;
#if LUMI_CHECKS_ENABLED
    // Replacement legality: the victim must be an invalid way or the
    // true LRU of the set (no valid line older than it).
    const uint64_t *keys = lruKey_.data() + base;
    if (lruKey_[victim] != 0) {
        for (uint32_t w = 0; w < ways_; w++) {
            LUMI_CHECK(Cache, keys[w] >= lruKey_[victim],
                       "LRU violation in set %u: victim lastUsed=%llu "
                       "but way %u has lastUsed=%llu",
                       set,
                       static_cast<unsigned long long>(
                           lruKey_[victim] - 1),
                       w,
                       static_cast<unsigned long long>(
                           keys[w] ? keys[w] - 1 : 0));
        }
    }
#endif
    Line &line = lines_[victim];
    if (line.valid) {
        lookup_.erase(line.tag);
        setFill_[set]--;
    }
    line.tag = line_addr;
    line.validAt = valid_at;
    line.valid = true;
    setKey(victim, cycle + 1);
    lookup_.insert(line_addr, victim);
    setFill_[set]++;
    // The tag index and the line array must stay in lockstep: a set
    // can never track more lines than it has ways.
    LUMI_CHECK(Cache, setFill_[set] <= ways_,
               "set %u tracks %u lines with only %u ways", set,
               setFill_[set], ways_);
}

bool
Cache::writeProbe(uint64_t line_addr, uint64_t cycle)
{
    stats.writes++;
    const uint32_t *index = lookup_.find(line_addr);
    Line *line = index ? &lines_[*index] : nullptr;
    bool hit = line && line->validAt <= cycle;
    if (hit) {
        setKey(*index, cycle + 1);
        stats.writeHits++;
    } else {
        stats.writeMisses++;
    }
    LUMI_CHECK(Cache,
               stats.writes == stats.writeHits + stats.writeMisses,
               "write counter drift: writes=%llu != hits=%llu + "
               "misses=%llu",
               static_cast<unsigned long long>(stats.writes),
               static_cast<unsigned long long>(stats.writeHits),
               static_cast<unsigned long long>(stats.writeMisses));
    return hit;
}

} // namespace lumi
