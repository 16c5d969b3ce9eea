// Fixture for the bvh-order rule: standard-library algorithms whose
// output order (ties, or the permutation of a partition) is left to
// the implementation. std::stable_partition and std::stable_sort fix
// their order and are not flagged; neither are mentions in comments
// such as this one: std::sort, std::partition.

#include <algorithm>
#include <cstdint>
#include <queue>
#include <vector>

void
order(std::vector<uint32_t> &ids, uint32_t split)
{
    std::partition(ids.begin(), ids.end(),             // expect(bvh-order)
                   [&](uint32_t id) { return id < split; });
    std::sort(ids.begin(), ids.end());                 // expect(bvh-order)
    std::nth_element(ids.begin(), ids.begin() + 1,     // expect(bvh-order)
                     ids.end());
    std::priority_queue<uint32_t> heap;                // expect(bvh-order)
    std::stable_partition(ids.begin(), ids.end(),
                          [&](uint32_t id) { return id < split; });
    std::stable_sort(ids.begin(), ids.end());
}
