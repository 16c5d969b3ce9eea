/**
 * @file
 * Tests for the analysis toolchain: PCA, hierarchical clustering and
 * dendrogram, GA metric selection, linear regression, the Hong-Kim
 * analytical model and Kiviat normalization.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "analysis/analytical.hh"
#include "analysis/cluster.hh"
#include "analysis/genetic.hh"
#include "analysis/kiviat.hh"
#include "analysis/pca.hh"
#include "analysis/regression.hh"
#include "math/rng.hh"

namespace lumi
{
namespace
{

/** Two well-separated Gaussian blobs in high dimension. */
std::vector<std::vector<double>>
twoBlobs(int per_blob, int dims, uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<double>> rows;
    for (int blob = 0; blob < 2; blob++) {
        for (int i = 0; i < per_blob; i++) {
            std::vector<double> row(dims);
            for (int d = 0; d < dims; d++) {
                double center = blob == 0 ? -5.0 : 5.0;
                row[d] = center + rng.nextRange(-1.0f, 1.0f);
            }
            rows.push_back(std::move(row));
        }
    }
    return rows;
}

TEST(Pca, EigenvaluesDescendAndCoverVariance)
{
    auto data = twoBlobs(10, 6, 1);
    PcaResult result = pca(data, 0.9);
    ASSERT_GT(result.kept, 0);
    for (size_t i = 1; i < result.eigenvalues.size(); i++)
        EXPECT_LE(result.eigenvalues[i], result.eigenvalues[i - 1]);
    EXPECT_GE(result.coveredVariance, 0.9);
    EXPECT_EQ(result.scores.size(), data.size());
}

TEST(Pca, FirstComponentSeparatesBlobs)
{
    auto data = twoBlobs(12, 8, 2);
    PcaResult result = pca(data, 0.8);
    // The first PC score must separate the two blobs by sign.
    double first_mean = 0.0, second_mean = 0.0;
    for (int i = 0; i < 12; i++)
        first_mean += result.scores[i][0];
    for (int i = 12; i < 24; i++)
        second_mean += result.scores[i][0];
    EXPECT_LT(first_mean * second_mean, 0.0);
    EXPECT_GT(std::fabs(first_mean - second_mean) / 12.0, 2.0);
}

TEST(Pca, ComponentsAreUnitVectors)
{
    auto data = twoBlobs(10, 5, 3);
    PcaResult result = pca(data, 0.95);
    for (const auto &component : result.components) {
        double norm = 0.0;
        for (double v : component)
            norm += v * v;
        EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-6);
    }
}

TEST(Pca, TiedEigenvaluesKeepColumnOrder)
{
    // 20 mutually orthogonal +-1 Walsh columns over 32 rows: zero
    // mean, unit variance, so the covariance is exactly I and every
    // eigenvalue ties at 1.
    std::vector<std::vector<double>> data(32, std::vector<double>(20));
    for (int r = 0; r < 32; r++) {
        for (int c = 0; c < 20; c++)
            data[r][c] = __builtin_parity(r & (c + 1)) ? -1.0 : 1.0;
    }
    PcaResult result = pca(data, 1.0);
    ASSERT_EQ(result.kept, 20);
    for (int k = 0; k < 20; k++) {
        EXPECT_EQ(result.eigenvalues[k], 1.0) << k;
        for (int c = 0; c < 20; c++)
            EXPECT_EQ(result.components[k][c], c == k ? 1.0 : 0.0)
                << k << "," << c;
    }
}

TEST(Pca, DenseColumnsDropsNanColumns)
{
    std::vector<std::vector<double>> rows = {
        {1.0, std::nan(""), 3.0},
        {2.0, 5.0, 6.0},
    };
    std::vector<int> kept;
    auto dense = denseColumns(rows, kept);
    ASSERT_EQ(kept.size(), 2u);
    EXPECT_EQ(kept[0], 0);
    EXPECT_EQ(kept[1], 2);
    EXPECT_EQ(dense[0].size(), 2u);
    EXPECT_EQ(dense[1][1], 6.0);
}

TEST(Pca, StandardizeMakesZeroMeanUnitVar)
{
    auto data = twoBlobs(20, 4, 4);
    standardizeColumns(data);
    for (size_t c = 0; c < data[0].size(); c++) {
        double mean = 0.0, var = 0.0;
        for (const auto &row : data)
            mean += row[c];
        mean /= data.size();
        for (const auto &row : data)
            var += (row[c] - mean) * (row[c] - mean);
        var /= data.size();
        EXPECT_NEAR(mean, 0.0, 1e-9);
        EXPECT_NEAR(var, 1.0, 1e-9);
    }
}

TEST(Cluster, TwoBlobsYieldTwoClusters)
{
    auto data = twoBlobs(8, 4, 5);
    Dendrogram tree = agglomerate(data);
    EXPECT_EQ(tree.leafCount, 16);
    EXPECT_EQ(tree.merges.size(), 15u);
    std::vector<int> labels = cutTree(tree, 2);
    // All of blob 0 shares a label, all of blob 1 shares the other.
    for (int i = 1; i < 8; i++)
        EXPECT_EQ(labels[i], labels[0]);
    for (int i = 9; i < 16; i++)
        EXPECT_EQ(labels[i], labels[8]);
    EXPECT_NE(labels[0], labels[8]);
}

TEST(Cluster, MergeHeightsNondecreasing)
{
    auto data = twoBlobs(6, 3, 6);
    Dendrogram tree = agglomerate(data);
    for (size_t i = 1; i < tree.merges.size(); i++)
        EXPECT_GE(tree.merges[i].height + 1e-9,
                  tree.merges[i - 1].height);
}

TEST(Cluster, CutToNClustersGivesNLabels)
{
    auto data = twoBlobs(8, 4, 7);
    Dendrogram tree = agglomerate(data);
    for (int k : {1, 2, 4, 8}) {
        std::vector<int> labels = cutTree(tree, k);
        int max_label = 0;
        for (int label : labels)
            max_label = std::max(max_label, label);
        EXPECT_EQ(max_label + 1, k);
    }
}

TEST(Cluster, DendrogramRendersAllLeaves)
{
    auto data = twoBlobs(3, 2, 8);
    Dendrogram tree = agglomerate(data);
    std::vector<std::string> names = {"A", "B", "C", "D", "E", "F"};
    std::string text = renderDendrogram(tree, names);
    for (const std::string &name : names)
        EXPECT_NE(text.find(name), std::string::npos) << name;
    EXPECT_NE(text.find("[h="), std::string::npos);
}

TEST(Genetic, RecoversInformativeColumns)
{
    // 4 informative columns (blob separation) + 12 noise columns.
    Rng rng(9);
    std::vector<std::vector<double>> data;
    for (int blob = 0; blob < 2; blob++) {
        for (int i = 0; i < 10; i++) {
            std::vector<double> row(16);
            for (int d = 0; d < 4; d++)
                row[d] = (blob == 0 ? -4.0 : 4.0) +
                         rng.nextRange(-1.0f, 1.0f);
            for (int d = 4; d < 16; d++)
                row[d] = rng.nextRange(-1.0f, 1.0f);
            data.push_back(std::move(row));
        }
    }
    PcaResult reference = pca(data, 0.9);
    GeneticParams params;
    params.subsetSize = 4;
    params.generations = 40;
    GeneticResult result = selectMetrics(data, reference.scores,
                                         params);
    ASSERT_EQ(result.selected.size(), 4u);
    EXPECT_GT(result.fitness, 0.65);
    // At least half of the picks are the informative columns.
    int informative = 0;
    for (int c : result.selected) {
        if (c < 4)
            informative++;
    }
    EXPECT_GE(informative, 2);
}

TEST(Genetic, Deterministic)
{
    auto data = twoBlobs(8, 10, 10);
    PcaResult reference = pca(data, 0.9);
    GeneticParams params;
    params.subsetSize = 3;
    params.generations = 20;
    GeneticResult a = selectMetrics(data, reference.scores, params);
    GeneticResult b = selectMetrics(data, reference.scores, params);
    EXPECT_EQ(a.selected, b.selected);
    EXPECT_DOUBLE_EQ(a.fitness, b.fitness);
}

TEST(Regression, ExactLinearFit)
{
    std::vector<double> x = {1, 2, 3, 4, 5};
    std::vector<double> y = {3, 5, 7, 9, 11}; // y = 2x + 1
    LinearFit fit = linearRegression(x, y);
    EXPECT_NEAR(fit.slope, 2.0, 1e-9);
    EXPECT_NEAR(fit.intercept, 1.0, 1e-9);
    EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(Regression, NoisyFitLowerR2)
{
    Rng rng(11);
    std::vector<double> x, y;
    for (int i = 0; i < 100; i++) {
        x.push_back(i);
        y.push_back(0.5 * i + rng.nextRange(-30.0f, 30.0f));
    }
    LinearFit fit = linearRegression(x, y);
    EXPECT_GT(fit.r2, 0.2);
    EXPECT_LT(fit.r2, 0.99);
}

TEST(Analytical, ComputeKernelPredictionIsReasonable)
{
    // A regular streaming kernel is the analytical model's home
    // turf: prediction within ~5x of measurement.
    Gpu gpu(GpuConfig::mobile());
    uint64_t buf = gpu.addressSpace().allocate(DataKind::Compute,
                                               1 << 22, "buf");
    KernelLaunch launch;
    launch.warpCount = 256;
    launch.program = [buf](WarpContext &ctx) {
        for (int i = 0; i < 4; i++) {
            ctx.load(4, [&](int lane) {
                return buf +
                       (static_cast<uint64_t>(ctx.threadIndex(lane)) +
                        i * 8192u) * 4;
            });
            ctx.alu(8);
        }
        ctx.store(4, [&](int lane) {
            return buf + ctx.threadIndex(lane) * 4ull;
        });
    };
    gpu.run(launch);
    AnalyticalModel model = evaluateHongKim(gpu);
    EXPECT_GT(model.predictedIpc, 0.0);
    EXPECT_GT(model.measuredIpc, 0.0);
    double ratio = model.predictedIpc / model.measuredIpc;
    EXPECT_GT(ratio, 0.2);
    EXPECT_LT(ratio, 5.0);
    EXPECT_GE(model.mwp, 1.0);
    EXPECT_GE(model.cwp, 1.0);
}

TEST(Kiviat, NormalizesToUnitRange)
{
    std::vector<std::string> workloads = {"A", "B", "C"};
    std::vector<std::string> axes = {"m1", "m2"};
    std::vector<std::vector<double>> data = {
        {0.0, 100.0}, {5.0, 100.0}, {10.0, 100.0}};
    KiviatChart chart = makeKiviat(workloads, axes, data);
    EXPECT_DOUBLE_EQ(chart.values[0][0], 0.0);
    EXPECT_DOUBLE_EQ(chart.values[1][0], 0.5);
    EXPECT_DOUBLE_EQ(chart.values[2][0], 1.0);
    // Constant column normalizes to 0.5.
    EXPECT_DOUBLE_EQ(chart.values[0][1], 0.5);
    std::string text = renderKiviat(chart);
    EXPECT_NE(text.find("m1"), std::string::npos);
    EXPECT_NE(text.find("A,"), std::string::npos);
}

} // namespace
} // namespace lumi
