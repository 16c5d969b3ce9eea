#include "bvh/builder.hh"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

namespace lumi
{

namespace
{

/**
 * A box with a fourth lane kept at zero, so min/max run four wide.
 * The primitives are an array of these records, 32 bytes each; the
 * records move with each partition, and the original index moves
 * alongside in Bvh::primIndices.
 */
struct alignas(16) Box4
{
    float lo[4] = {std::numeric_limits<float>::max(),
                   std::numeric_limits<float>::max(),
                   std::numeric_limits<float>::max(), 0.0f};
    float hi[4] = {std::numeric_limits<float>::lowest(),
                   std::numeric_limits<float>::lowest(),
                   std::numeric_limits<float>::lowest(), 0.0f};

    Box4() = default;
    explicit Box4(const Aabb &b)
        : lo{b.lo.x, b.lo.y, b.lo.z, 0.0f}, hi{b.hi.x, b.hi.y, b.hi.z, 0.0f}
    {
    }

    /**
     * Same operands, same order as Aabb::extend. Every load comes
     * before the first store, so the lanes vectorize even where
     * @p plo might alias this box.
     */
    void
    add(const float *plo, const float *phi)
    {
        float l[4];
        float h[4];
        for (int k = 0; k < 4; k++) {
            l[k] = std::min(lo[k], plo[k]);
            h[k] = std::max(hi[k], phi[k]);
        }
        std::copy_n(l, 4, lo);
        std::copy_n(h, 4, hi);
    }

    void add(const Box4 &b) { add(b.lo, b.hi); }

    /** Aabb::center(), one axis. */
    float centroid(int axis) const { return (lo[axis] + hi[axis]) * 0.5f; }

    Aabb
    aabb() const
    {
        Aabb out;
        out.lo = {lo[0], lo[1], lo[2]};
        out.hi = {hi[0], hi[1], hi[2]};
        return out;
    }
};

/** A primitive range's box and the box of its centroids. */
struct RangeBounds
{
    Box4 bounds;
    Box4 centroids;

    void
    add(const Box4 &prim)
    {
        float c[4];
        for (int k = 0; k < 4; k++)
            c[k] = (prim.lo[k] + prim.hi[k]) * 0.5f;
        bounds.add(prim);
        centroids.add(c, c);
    }

    void
    add(const RangeBounds &other)
    {
        bounds.add(other.bounds);
        centroids.add(other.centroids);
    }
};

/** A range still to be turned into a node. */
struct Task
{
    uint32_t begin;
    uint32_t end;
    /** Parent node whose child pointer this node fills, or -1. */
    int32_t parent;
    bool isRight;
    RangeBounds boxes;
};

/**
 * The state of one build. Nodes are made in depth-first order from
 * an explicit stack. A child's boxes are the union of its side's bins
 * (min/max is exact, so these are the floats a pass over the child's
 * range would give, up to the sign of a zero); only the root and the
 * halves of a median split take a pass of their own.
 */
class TreeBuild
{
  public:
    TreeBuild(const BuilderConfig &config,
              const std::vector<Aabb> &bounds, Bvh &bvh);

    void run();

  private:
    struct Bin
    {
        RangeBounds boxes;
        uint32_t count = 0;
    };

    RangeBounds measure(uint32_t begin, uint32_t end) const;
    /** Turn @p task into a node, queueing its children. */
    void node(const Task &task);
    /**
     * Bin [begin, end) along @p axis of @p centroids into bins_ and
     * list the occupied bins, in order, in used_.
     */
    void binPrims(uint32_t begin, uint32_t end, const Aabb &centroids,
                  int axis);
    /**
     * Sweep the occupied bins for the cheapest SAH split. An empty bin
     * leaves both sides' boxes as they were, so its cost would only
     * tie the bin before it and never win.
     *
     * @param[out] best_cost the split's cost
     * @return the position in used_ of the left side's last bin, or
     *         -1 if no split leaves both sides non-empty
     */
    int sweep(float &best_cost) const;
    /** Reorder [begin, end) so bins <= @p split come first. */
    void partition(uint32_t begin, uint32_t mid, uint32_t end,
                   int split);
    void pushChildren(int32_t parent, uint32_t begin, uint32_t mid,
                      uint32_t end, const RangeBounds &left,
                      const RangeBounds &right);

    const BuilderConfig &config_;
    Bvh &bvh_;
    std::vector<Box4> prims_;
    /** Each primitive's bin in the last binning over its range. */
    std::vector<uint8_t> binIds_;
    std::vector<Task> stack_;
    /** The bins of the last node binned; all others are empty. */
    Bin bins_[BvhBuilder::maxBins];
    /** Occupied bins of bins_, ascending. */
    int used_[BvhBuilder::maxBins];
    int usedCount_ = 0;
};

TreeBuild::TreeBuild(const BuilderConfig &config,
                     const std::vector<Aabb> &bounds, Bvh &bvh)
    : config_(config), bvh_(bvh), prims_(bounds.begin(), bounds.end()),
      binIds_(bounds.size())
{
    bvh_.primIndices.resize(bounds.size());
    std::iota(bvh_.primIndices.begin(), bvh_.primIndices.end(), 0u);
    bvh_.nodes.reserve(bounds.size() * 2);
}

void
TreeBuild::run()
{
    uint32_t count = static_cast<uint32_t>(prims_.size());
    stack_.push_back({0, count, -1, false, measure(0, count)});
    while (!stack_.empty()) {
        Task task = stack_.back();
        stack_.pop_back();
        node(task);
    }
}

RangeBounds
TreeBuild::measure(uint32_t begin, uint32_t end) const
{
    RangeBounds out;
    for (uint32_t i = begin; i < end; i++)
        out.add(prims_[i]);
    return out;
}

void
TreeBuild::node(const Task &task)
{
    int32_t index = static_cast<int32_t>(bvh_.nodes.size());
    const Aabb bounds = task.boxes.bounds.aabb();
    bvh_.nodes.emplace_back().bounds = bounds;
    if (task.parent >= 0) {
        BvhNode &parent = bvh_.nodes[task.parent];
        (task.isRight ? parent.right : parent.left) = index;
    }

    const uint32_t begin = task.begin;
    const uint32_t end = task.end;
    const uint32_t count = end - begin;
    auto make_leaf = [&]() {
        BvhNode &leaf = bvh_.nodes[index];
        leaf.firstPrim = begin;
        leaf.primCount = count;
    };
    auto median_split = [&]() {
        uint32_t mid = begin + count / 2;
        pushChildren(index, begin, mid, end, measure(begin, mid),
                     measure(mid, end));
    };

    if (count <= config_.maxLeafPrims)
        return make_leaf();

    const Aabb centroids = task.boxes.centroids.aabb();
    int axis = centroids.longestAxis();
    if (centroids.extent()[axis] < 1e-12f) {
        // All centroids coincide: median split to bound the depth.
        return median_split();
    }
    binPrims(begin, end, centroids, axis);
    float best_cost = 0.0f;
    int split = sweep(best_cost);

    // Compare the best split against the leaf cost. SAH may stop
    // early with a fat leaf, but never beyond maxLeafPrims when the
    // caller requires exact leaf sizes (the TLAS uses 1).
    float parent_area = bounds.surfaceArea();
    float leaf_cost = static_cast<float>(count) * parent_area;
    float split_cost = config_.traversalCost * parent_area + best_cost;
    bool sah_leaf_ok = config_.maxLeafPrims > 1 && count <= 16;
    if (sah_leaf_ok && (split < 0 || split_cost >= leaf_cost))
        return make_leaf();
    if (split < 0) {
        // No usable SAH split (all prims in one bin): median split.
        return median_split();
    }

    RangeBounds left;
    RangeBounds right;
    uint32_t mid = begin;
    for (int k = 0; k < usedCount_; k++) {
        const Bin &bin = bins_[used_[k]];
        if (k <= split) {
            left.add(bin.boxes);
            mid += bin.count;
        } else {
            right.add(bin.boxes);
        }
    }
    partition(begin, mid, end, used_[split]);
    pushChildren(index, begin, mid, end, left, right);
}

void
TreeBuild::binPrims(uint32_t begin, uint32_t end, const Aabb &centroids,
                    int axis)
{
    const int bins = config_.binCount;
    const float axis_lo = centroids.lo[axis];
    const float inv_extent =
        static_cast<float>(bins) / centroids.extent()[axis];
    // Empty the bins the last node used; the rest are still empty.
    Bin *bin = bins_;
    for (int k = 0; k < usedCount_; k++)
        bin[used_[k]] = Bin{};
    const Box4 *prims = prims_.data();
    uint8_t *ids = binIds_.data();
    uint32_t occupied = 0;
    for (uint32_t i = begin; i < end; i++) {
        const Box4 &p = prims[i];
        int b = static_cast<int>((p.centroid(axis) - axis_lo) *
                                 inv_extent);
        b = std::clamp(b, 0, bins - 1);
        bin[b].boxes.add(p);
        bin[b].count++;
        ids[i] = static_cast<uint8_t>(b);
        occupied |= 1u << b;
    }
    usedCount_ = 0;
    for (; occupied != 0; occupied &= occupied - 1)
        used_[usedCount_++] = std::countr_zero(occupied);
}

int
TreeBuild::sweep(float &best_cost) const
{
    // Sweep from the right to get suffix areas, then from the left.
    const int used = usedCount_;
    float right_area[BvhBuilder::maxBins];
    uint32_t right_count[BvhBuilder::maxBins];
    Box4 acc;
    uint32_t acc_count = 0;
    for (int k = used - 1; k > 0; k--) {
        const Bin &bin = bins_[used_[k]];
        acc.add(bin.boxes.bounds);
        acc_count += bin.count;
        right_area[k] = acc.aabb().surfaceArea();
        right_count[k] = acc_count;
    }
    best_cost = std::numeric_limits<float>::max();
    int best_split = -1;
    Box4 left_acc;
    uint32_t left_count = 0;
    for (int k = 0; k + 1 < used; k++) {
        const Bin &bin = bins_[used_[k]];
        left_acc.add(bin.boxes.bounds);
        left_count += bin.count;
        float cost = left_acc.aabb().surfaceArea() * left_count +
                     right_area[k + 1] * right_count[k + 1];
        if (cost < best_cost) {
            best_cost = cost;
            best_split = k;
        }
    }
    return best_split;
}

void
TreeBuild::partition(uint32_t begin, uint32_t mid, uint32_t end,
                     int split)
{
    // The k-th primitive left of mid that belongs right swaps with
    // the k-th primitive right of mid, counted from the end, that
    // belongs left: Hoare's scheme, the order libstdc++'s partition
    // gave the trees pinned in tests/test_bvh.cc. Each pair is read
    // once, so the bin ids need no swap.
    const uint8_t *ids = binIds_.data();
    Box4 *prims = prims_.data();
    uint32_t *indices = bvh_.primIndices.data();
    uint32_t i = begin;
    uint32_t j = end;
    for (;;) {
        while (i < mid && ids[i] <= split)
            i++;
        if (i == mid)
            return;
        do {
            j--;
        } while (ids[j] > split);
        std::swap(prims[i], prims[j]);
        std::swap(indices[i], indices[j]);
        i++;
    }
}

void
TreeBuild::pushChildren(int32_t parent, uint32_t begin, uint32_t mid,
                        uint32_t end, const RangeBounds &left,
                        const RangeBounds &right)
{
    // Right first, so the left subtree is numbered first.
    stack_.push_back({mid, end, parent, true, right});
    stack_.push_back({begin, mid, parent, false, left});
}

} // namespace

BvhBuilder::BvhBuilder(const BuilderConfig &config) : config_(config)
{
    if (config_.binCount < 1 || config_.binCount > maxBins) {
        throw std::invalid_argument(
            "BuilderConfig::binCount must be in [1, " +
            std::to_string(maxBins) + "], got " +
            std::to_string(config_.binCount));
    }
}

Bvh
BvhBuilder::build(const std::vector<Aabb> &bounds) const
{
    Bvh bvh;
    if (bounds.empty())
        return bvh;
    TreeBuild(config_, bounds, bvh).run();
    return bvh;
}

} // namespace lumi
