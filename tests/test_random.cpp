/**
 * @file
 * Unit tests for the deterministic RNG and distributions.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/logging.hpp"
#include "common/random.hpp"

using dhl::BinomialSampler;
using dhl::Rng;
using dhl::ZipfTable;

TEST(Rng, DeterministicFromSeed)
{
    Rng a(42), b(42), c(43);
    bool all_equal = true;
    bool any_diff_seed = false;
    for (int i = 0; i < 100; ++i) {
        const auto va = a.next();
        if (va != b.next())
            all_equal = false;
        if (va != c.next())
            any_diff_seed = true;
    }
    EXPECT_TRUE(all_equal);
    EXPECT_TRUE(any_diff_seed);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(1);
    double mean = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        mean += u;
    }
    mean /= 10000.0;
    EXPECT_NEAR(mean, 0.5, 0.02);
}

TEST(Rng, UniformRange)
{
    Rng r(2);
    for (int i = 0; i < 1000; ++i) {
        const double v = r.uniform(5.0, 9.0);
        ASSERT_GE(v, 5.0);
        ASSERT_LT(v, 9.0);
    }
    EXPECT_THROW(r.uniform(9.0, 5.0), dhl::FatalError);
}

TEST(Rng, UniformIntInclusive)
{
    Rng r(3);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const auto v = r.uniformInt(1, 6);
        ASSERT_GE(v, 1);
        ASSERT_LE(v, 6);
        saw_lo |= (v == 1);
        saw_hi |= (v == 6);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
    EXPECT_THROW(r.uniformInt(6, 1), dhl::FatalError);
}

TEST(Rng, ExponentialMean)
{
    Rng r(4);
    const double mean = 3.0;
    double acc = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = r.exponential(mean);
        ASSERT_GT(v, 0.0);
        acc += v;
    }
    EXPECT_NEAR(acc / n, mean, 0.1);
    EXPECT_THROW(r.exponential(0.0), dhl::FatalError);
    EXPECT_THROW(r.exponential(-1.0), dhl::FatalError);
}

TEST(Rng, NormalMoments)
{
    Rng r(5);
    const int n = 20000;
    double acc = 0.0, acc2 = 0.0;
    for (int i = 0; i < n; ++i) {
        const double v = r.normal(10.0, 2.0);
        acc += v;
        acc2 += v * v;
    }
    const double mean = acc / n;
    const double var = acc2 / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.1);
    EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, LognormalPositive)
{
    Rng r(6);
    for (int i = 0; i < 1000; ++i)
        ASSERT_GT(r.lognormal(0.0, 1.0), 0.0);
}

TEST(Zipf, RankZeroMostPopular)
{
    Rng r(7);
    ZipfTable table(100, 1.0);
    EXPECT_EQ(table.size(), 100u);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 20000; ++i)
        ++counts[table.sample(r)];
    // Rank 0 should dominate rank 10 by roughly 11x under s=1.
    EXPECT_GT(counts[0], counts[10] * 5);
    EXPECT_GT(counts[0], counts[50] * 10);
}

TEST(Zipf, ZeroExponentIsUniform)
{
    Rng r(8);
    ZipfTable table(10, 0.0);
    std::vector<int> counts(10, 0);
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        ++counts[table.sample(r)];
    for (int c : counts)
        EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.02);
}

TEST(Zipf, RejectsBadParameters)
{
    EXPECT_THROW(ZipfTable(0, 1.0), dhl::FatalError);
    EXPECT_THROW(ZipfTable(10, -0.5), dhl::FatalError);
}

//===========================================================================
// Binomial sampler against a reference pmf
//===========================================================================

namespace {

const std::uint64_t kBinomialN[] = {0, 1, 7, 2048, 1000000};
const double kBinomialP[] = {0.0, 1e-9, 0.1, 0.5, 0.9, 1.0 - 1e-9, 1.0};

/** The exact Binomial(n, p) pmf over [first, first + size()), for
 *  0 < p < 1, from long-double lgamma term by term — independent of
 *  the sampler's saddle-point pmf(mode) and ratio walk — and
 *  normalised over the window, outside which it is below 1e-300. */
struct ReferencePmf
{
    std::uint64_t first = 0;
    std::vector<double> pmf;

    ReferencePmf(std::uint64_t n, double p)
    {
        const long double nl = static_cast<long double>(n);
        const long double log_p = std::log(static_cast<long double>(p));
        const long double log_q =
            std::log1p(-static_cast<long double>(p));
        const auto logPmf = [&](std::uint64_t k) {
            const long double kl = static_cast<long double>(k);
            return std::lgamma(nl + 1) - std::lgamma(kl + 1) -
                   std::lgamma(nl - kl + 1) + kl * log_p +
                   (nl - kl) * log_q;
        };
        const auto mode = static_cast<std::uint64_t>(std::min(
            std::floor((static_cast<double>(n) + 1.0) * p),
            static_cast<double>(n)));
        const long double floor_log = std::log(1e-300L);
        first = mode;
        while (first > 0 && logPmf(first - 1) > floor_log)
            --first;
        std::uint64_t last = mode;
        while (last < n && logPmf(last + 1) > floor_log)
            ++last;
        long double total = 0;
        std::vector<long double> w;
        for (std::uint64_t k = first; k <= last; ++k) {
            w.push_back(std::exp(logPmf(k)));
            total += w.back();
        }
        for (long double x : w)
            pmf.push_back(static_cast<double>(x / total));
    }
};

/** Upper 1e-6 tail point of chi-square with @p df degrees of freedom
 *  (Wilson-Hilferty). */
double
chiSquareCritical(double df)
{
    const double z = 4.753; // standard normal upper 1e-6 point
    const double a = 2.0 / (9.0 * df);
    return df * std::pow(1.0 - a + z * std::sqrt(a), 3.0);
}

} // namespace

TEST(Binomial, DrawsStayInSupportAndDegenerateCasesArePinned)
{
    Rng r(31);
    for (const std::uint64_t n : kBinomialN) {
        for (const double p : kBinomialP) {
            const BinomialSampler b(n, p);
            for (int i = 0; i < 200; ++i) {
                const std::uint64_t k = b.sample(r);
                ASSERT_LE(k, n) << "n=" << n << " p=" << p;
                if (p == 0.0 || n == 0) {
                    ASSERT_EQ(k, 0u);
                } else if (p == 1.0) {
                    ASSERT_EQ(k, n);
                }
            }
        }
    }
    // Degenerate draws leave the stream where it was.
    Rng a(5), b(5);
    EXPECT_EQ(BinomialSampler(2048, 0.0).sample(a), 0u);
    EXPECT_EQ(BinomialSampler(2048, 1.0).sample(a), 2048u);
    EXPECT_EQ(BinomialSampler(0, 0.5).sample(a), 0u);
    EXPECT_EQ(a.next(), b.next());
}

TEST(Binomial, ChiSquareAgainstTheExactPmf)
{
    // Includes (2048, 0.5), where the pmf at k = 0 is 2^-2048 and a
    // naive inversion starting there underflows to nothing.
    const int draws = 20000;
    std::uint64_t seed = 100;
    for (const std::uint64_t n : kBinomialN) {
        for (const double p : kBinomialP) {
            if (n == 0 || p == 0.0 || p == 1.0)
                continue;
            const ReferencePmf ref(n, p);
            const std::uint64_t last = ref.first + ref.pmf.size() - 1;

            // Contiguous bins holding >= 5 expected draws each; the
            // edge bins absorb the underflowed tails.
            std::vector<std::size_t> bin_of(ref.pmf.size());
            std::vector<double> expected{0.0};
            for (std::size_t j = 0; j < ref.pmf.size(); ++j) {
                if (expected.back() >= 5.0)
                    expected.push_back(0.0);
                bin_of[j] = expected.size() - 1;
                expected.back() += draws * ref.pmf[j];
            }
            if (expected.size() > 1 && expected.back() < 5.0) {
                expected[expected.size() - 2] += expected.back();
                expected.pop_back();
                for (auto &b : bin_of)
                    b = std::min(b, expected.size() - 1);
            }

            std::vector<double> observed(expected.size(), 0.0);
            Rng r(++seed);
            const BinomialSampler b(n, p);
            for (int i = 0; i < draws; ++i) {
                const std::uint64_t k =
                    std::min(std::max(b.sample(r), ref.first), last);
                observed[bin_of[k - ref.first]] += 1.0;
            }
            if (expected.size() < 2) {
                EXPECT_EQ(observed[0], draws);
                continue;
            }
            double chi2 = 0.0;
            for (std::size_t j = 0; j < expected.size(); ++j) {
                const double d = observed[j] - expected[j];
                chi2 += d * d / expected[j];
            }
            const double df = static_cast<double>(expected.size() - 1);
            EXPECT_LT(chi2, chiSquareCritical(df))
                << "n=" << n << " p=" << p << " bins=" << expected.size();
        }
    }
}

TEST(Binomial, MomentsMatchNpAndNpq)
{
    // Bounds pinned at six standard errors of the sample mean and of
    // the sample variance (from the binomial fourth central moment,
    // plus the O(npq / draws) the estimated mean adds).
    const int draws = 20000;
    std::uint64_t seed = 200;
    for (const std::uint64_t n : kBinomialN) {
        for (const double p : kBinomialP) {
            Rng r(++seed);
            const BinomialSampler b(n, p);
            double sum = 0.0, sum2 = 0.0;
            for (int i = 0; i < draws; ++i) {
                const auto k = static_cast<double>(b.sample(r));
                sum += k;
                sum2 += k * k;
            }
            const double nd = static_cast<double>(n);
            const double npq = nd * p * (1.0 - p);
            const double mu4 =
                npq * (1.0 + 3.0 * (nd - 2.0) * p * (1.0 - p));
            const double mean = sum / draws;
            const double var = sum2 / draws - mean * mean;
            const double mean_se = std::sqrt(npq / draws);
            const double var_se =
                std::sqrt(std::max(mu4 - npq * npq, 0.0) / draws);
            EXPECT_NEAR(mean, nd * p, 6.0 * mean_se + 1e-9 * nd)
                << "n=" << n << " p=" << p;
            EXPECT_NEAR(var, npq,
                        6.0 * (var_se + npq / draws) + 1e-9 * nd)
                << "n=" << n << " p=" << p;
        }
    }
}

TEST(Binomial, SameSeedSameSequence)
{
    Rng a(77), b(77);
    const BinomialSampler s(2048, 0.9);
    const BinomialSampler t(2048, 0.9);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(s.sample(a), t.sample(b));
}

TEST(Binomial, RejectsProbabilitiesOutsideTheUnitInterval)
{
    EXPECT_THROW(BinomialSampler(10, -0.1), dhl::FatalError);
    EXPECT_THROW(BinomialSampler(10, 1.5), dhl::FatalError);
    EXPECT_THROW(
        BinomialSampler(10, std::numeric_limits<double>::quiet_NaN()),
        dhl::FatalError);
}

TEST(Binomial, LargeTrialCountsStayAccurate)
{
    // At n = 1e12 a difference of lgammas would lose ~25 bits of
    // pmf(mode); the draws must still centre on np with spread sqrt(npq).
    const double n = 1e12, p = 1e-6;
    const BinomialSampler b(static_cast<std::uint64_t>(n), p);
    Rng r(3);
    const int draws = 400;
    double sum = 0.0;
    for (int i = 0; i < draws; ++i)
        sum += static_cast<double>(b.sample(r));
    const double sd = std::sqrt(n * p * (1.0 - p));
    EXPECT_NEAR(sum / draws, n * p, 6.0 * sd / std::sqrt(draws));

    // Beyond 2^53 trials a count no longer fits a double exactly.
    EXPECT_THROW(BinomialSampler((std::uint64_t{1} << 53) + 1, 0.5),
                 dhl::FatalError);
    EXPECT_EQ(BinomialSampler(std::uint64_t{1} << 53, 1.0).sample(r),
              std::uint64_t{1} << 53);
}
