#include "analysis/pca.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace lumi
{

void
standardizeColumns(std::vector<std::vector<double>> &data)
{
    if (data.empty())
        return;
    size_t rows = data.size();
    size_t cols = data[0].size();
    for (size_t c = 0; c < cols; c++) {
        double mean = 0.0;
        for (size_t r = 0; r < rows; r++)
            mean += data[r][c];
        mean /= rows;
        double var = 0.0;
        for (size_t r = 0; r < rows; r++) {
            double d = data[r][c] - mean;
            var += d * d;
        }
        var /= rows;
        double stddev = std::sqrt(var);
        for (size_t r = 0; r < rows; r++) {
            data[r][c] = stddev > 1e-12
                             ? (data[r][c] - mean) / stddev
                             : 0.0;
        }
    }
}

std::vector<std::vector<double>>
denseColumns(const std::vector<std::vector<double>> &rows,
             std::vector<int> &kept_columns)
{
    kept_columns.clear();
    if (rows.empty())
        return {};
    size_t cols = rows[0].size();
    for (size_t c = 0; c < cols; c++) {
        bool ok = true;
        for (const auto &row : rows) {
            if (!std::isfinite(row[c])) {
                ok = false;
                break;
            }
        }
        if (ok)
            kept_columns.push_back(static_cast<int>(c));
    }
    std::vector<std::vector<double>> out(rows.size());
    for (size_t r = 0; r < rows.size(); r++) {
        out[r].reserve(kept_columns.size());
        for (int c : kept_columns)
            out[r].push_back(rows[r][c]);
    }
    return out;
}

double
euclidean(const std::vector<double> &a, const std::vector<double> &b)
{
    double sum = 0.0;
    for (size_t i = 0; i < a.size(); i++) {
        double d = a[i] - b[i];
        sum += d * d;
    }
    return std::sqrt(sum);
}

namespace
{

/**
 * Cyclic Jacobi eigendecomposition of a symmetric matrix.
 * @p a is destroyed; eigenvectors land in the columns of @p v.
 */
void
jacobiEigen(std::vector<std::vector<double>> &a,
            std::vector<double> &eigenvalues,
            std::vector<std::vector<double>> &v)
{
    size_t n = a.size();
    v.assign(n, std::vector<double>(n, 0.0));
    for (size_t i = 0; i < n; i++)
        v[i][i] = 1.0;

    for (int sweep = 0; sweep < 100; sweep++) {
        double off = 0.0;
        for (size_t p = 0; p < n; p++)
            for (size_t q = p + 1; q < n; q++)
                off += a[p][q] * a[p][q];
        if (off < 1e-18)
            break;
        for (size_t p = 0; p < n; p++) {
            for (size_t q = p + 1; q < n; q++) {
                if (std::fabs(a[p][q]) < 1e-15)
                    continue;
                double theta = (a[q][q] - a[p][p]) /
                               (2.0 * a[p][q]);
                double t = (theta >= 0 ? 1.0 : -1.0) /
                           (std::fabs(theta) +
                            std::sqrt(theta * theta + 1.0));
                double c = 1.0 / std::sqrt(t * t + 1.0);
                double s = t * c;
                for (size_t k = 0; k < n; k++) {
                    double akp = a[k][p], akq = a[k][q];
                    a[k][p] = c * akp - s * akq;
                    a[k][q] = s * akp + c * akq;
                }
                for (size_t k = 0; k < n; k++) {
                    double apk = a[p][k], aqk = a[q][k];
                    a[p][k] = c * apk - s * aqk;
                    a[q][k] = s * apk + c * aqk;
                }
                for (size_t k = 0; k < n; k++) {
                    double vkp = v[k][p], vkq = v[k][q];
                    v[k][p] = c * vkp - s * vkq;
                    v[k][q] = s * vkp + c * vkq;
                }
            }
        }
    }
    eigenvalues.resize(n);
    for (size_t i = 0; i < n; i++)
        eigenvalues[i] = a[i][i];
}

} // namespace

PcaResult
pca(const std::vector<std::vector<double>> &data,
    double variance_target)
{
    PcaResult result;
    if (data.empty() || data[0].empty())
        return result;
    size_t rows = data.size();
    size_t cols = data[0].size();

    std::vector<std::vector<double>> z = data;
    standardizeColumns(z);

    // Covariance of standardized data (the correlation matrix).
    std::vector<std::vector<double>> cov(
        cols, std::vector<double>(cols, 0.0));
    for (size_t i = 0; i < cols; i++) {
        for (size_t j = i; j < cols; j++) {
            double sum = 0.0;
            for (size_t r = 0; r < rows; r++)
                sum += z[r][i] * z[r][j];
            cov[i][j] = cov[j][i] = sum / rows;
        }
    }

    std::vector<double> eigenvalues;
    std::vector<std::vector<double>> vectors;
    jacobiEigen(cov, eigenvalues, vectors);

    // Order components by eigenvalue, descending; tied eigenvalues
    // keep column order, so the result never depends on how the
    // standard library's sort permutes equal keys.
    std::vector<size_t> order(cols);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        if (eigenvalues[a] != eigenvalues[b])
            return eigenvalues[a] > eigenvalues[b];
        return a < b;
    });

    double total = 0.0;
    for (double e : eigenvalues)
        total += std::max(0.0, e);
    result.eigenvalues.reserve(cols);
    for (size_t i = 0; i < cols; i++)
        result.eigenvalues.push_back(eigenvalues[order[i]]);

    double covered = 0.0;
    int kept = 0;
    for (size_t i = 0; i < cols; i++) {
        covered += std::max(0.0, result.eigenvalues[i]);
        kept++;
        if (total > 0 && covered / total >= variance_target)
            break;
    }
    result.kept = kept;
    result.coveredVariance = total > 0 ? covered / total : 0.0;

    result.components.assign(kept, std::vector<double>(cols, 0.0));
    for (int k = 0; k < kept; k++)
        for (size_t c = 0; c < cols; c++)
            result.components[k][c] = vectors[c][order[k]];

    result.scores.assign(rows, std::vector<double>(kept, 0.0));
    for (size_t r = 0; r < rows; r++) {
        for (int k = 0; k < kept; k++) {
            double dotp = 0.0;
            for (size_t c = 0; c < cols; c++)
                dotp += z[r][c] * result.components[k][c];
            result.scores[r][k] = dotp;
        }
    }
    return result;
}

} // namespace lumi
