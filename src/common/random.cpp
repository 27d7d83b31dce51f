/**
 * @file
 * Implementation of the deterministic RNG and distributions.
 */

#include "common/random.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"

namespace dhl {

namespace {

/** splitmix64 step used to expand the seed into the xoshiro state. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

std::uint64_t
deriveSeed(std::uint64_t base, std::uint64_t stream)
{
    // Advance a splitmix64 stream keyed by the base, then fold in the
    // stream index and mix once more; two unequal (base, stream) pairs
    // land on unrelated points of the generator's orbit.
    std::uint64_t x = base;
    std::uint64_t mixed = splitmix64(x);
    x = mixed ^ stream;
    return splitmix64(x);
}

Rng::Rng(std::uint64_t seed)
    : has_spare_(false), spare_(0.0)
{
    std::uint64_t sm = seed;
    for (auto &s : state_)
        s = splitmix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 random bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    fatal_if(!(hi >= lo), "uniform(lo, hi) requires hi >= lo");
    return lo + (hi - lo) * uniform();
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    fatal_if(hi < lo, "uniformInt(lo, hi) requires hi >= lo");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) // full 64-bit range
        return static_cast<std::int64_t>(next());
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % span);
    std::uint64_t v;
    do {
        v = next();
    } while (v >= limit);
    return lo + static_cast<std::int64_t>(v % span);
}

double
Rng::exponential(double mean)
{
    fatal_if(!(mean > 0.0), "exponential mean must be positive");
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

double
Rng::normal(double mean, double stddev)
{
    if (has_spare_) {
        has_spare_ = false;
        return mean + stddev * spare_;
    }
    double u1;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    spare_ = r * std::sin(theta);
    has_spare_ = true;
    return mean + stddev * r * std::cos(theta);
}

double
Rng::lognormal(double mu, double sigma)
{
    return std::exp(normal(mu, sigma));
}

std::size_t
Rng::zipf(std::size_t n, double s)
{
    ZipfTable table(n, s);
    return table.sample(*this);
}

RngState
Rng::saveState() const
{
    RngState s{};
    for (std::size_t i = 0; i < 4; ++i)
        s.state[i] = state_[i];
    s.has_spare = has_spare_;
    s.spare = spare_;
    return s;
}

void
Rng::restoreState(const RngState &s)
{
    for (std::size_t i = 0; i < 4; ++i)
        state_[i] = s.state[i];
    has_spare_ = s.has_spare;
    spare_ = s.spare;
}

ZipfTable::ZipfTable(std::size_t n, double s)
{
    fatal_if(n == 0, "ZipfTable needs at least one rank");
    fatal_if(s < 0.0, "Zipf exponent must be non-negative");
    cdf_.resize(n);
    double acc = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
        cdf_[k] = acc;
    }
    for (auto &v : cdf_)
        v /= acc;
}

std::size_t
ZipfTable::sample(Rng &rng) const
{
    const double u = rng.uniform();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end())
        return cdf_.size() - 1;
    return static_cast<std::size_t>(it - cdf_.begin());
}

namespace {

/** log(n!) - log(sqrt(2 pi n) (n / e)^n), the error of Stirling's
 *  formula, for integer n >= 1: direct below 16 (n! is exact in a
 *  double there; no lgamma, whose signgam write races across
 *  threads), the asymptotic series above (Loader, "Fast and accurate
 *  computation of binomial probabilities", 2000). */
double
stirlingError(double n)
{
    constexpr double kLogSqrt2Pi = 0.918938533204672741780329736406;
    if (n < 16.0) {
        double factorial = 1.0;
        for (double i = 2.0; i <= n; i += 1.0)
            factorial *= i;
        return std::log(factorial) - (n + 0.5) * std::log(n) + n -
               kLogSqrt2Pi;
    }
    constexpr double s0 = 1.0 / 12.0, s1 = 1.0 / 360.0,
                     s2 = 1.0 / 1260.0, s3 = 1.0 / 1680.0,
                     s4 = 1.0 / 1188.0;
    const double nn = n * n;
    if (n > 500.0)
        return (s0 - s1 / nn) / n;
    if (n > 80.0)
        return (s0 - (s1 - s2 / nn) / nn) / n;
    if (n > 35.0)
        return (s0 - (s1 - (s2 - s3 / nn) / nn) / nn) / n;
    return (s0 - (s1 - (s2 - (s3 - s4 / nn) / nn) / nn) / nn) / n;
}

/** The deviance term x log(x / m) + m - x, summed as a series when x
 *  is near m, where the closed form cancels (Loader 2000). */
double
devianceTerm(double x, double m)
{
    if (std::fabs(x - m) < 0.1 * (x + m)) {
        double v = (x - m) / (x + m);
        double sum = (x - m) * v;
        double term = 2.0 * x * v;
        v *= v;
        for (int j = 1;; ++j) {
            term *= v;
            const double next = sum + term / (2 * j + 1);
            if (next == sum)
                return sum;
            sum = next;
        }
    }
    return x * std::log(x / m) + m - x;
}

} // namespace

BinomialSampler::BinomialSampler(std::uint64_t n, double p)
    : n_(n), p_(p)
{
    fatal_if(!(p >= 0.0 && p <= 1.0),
             "binomial probability must be in [0, 1]");
    // Counts are walked in double, which is exact up to 2^53.
    fatal_if(n > (std::uint64_t{1} << 53), "binomial trials exceed 2^53");
    if (n == 0 || p == 0.0 || p == 1.0)
        return; // sample() never searches
    const double q = 1.0 - p;
    const double nd = static_cast<double>(n);
    // floor((n + 1) p) is a mode; it can round past n when p is within
    // an ulp of 1, so clamp in double before converting.
    const double mode = std::floor((nd + 1.0) * p);
    mode_ = mode >= nd ? n : static_cast<std::uint64_t>(mode);
    const double k = static_cast<double>(mode_);
    // pmf(mode) in Loader's saddle-point form, accurate to a few ulps
    // at any n, where lgamma(n + 1) - lgamma(k + 1) - ... would cancel
    // away ~log2(n log n) bits.  The support's ends are plain powers.
    if (mode_ == 0) {
        pmf_mode_ = std::exp(nd * std::log1p(-p));
    } else if (mode_ == n) {
        pmf_mode_ = std::exp(nd * std::log(p));
    } else {
        pmf_mode_ = std::exp(stirlingError(nd) - stirlingError(k) -
                             stirlingError(nd - k) -
                             devianceTerm(k, nd * p) -
                             devianceTerm(nd - k, nd * q)) *
                    std::sqrt(nd / (2.0 * M_PI * k * (nd - k)));
    }
    // pmf(mode) >= 1 / (n + 1); zero here would make sample() redraw
    // forever.
    panic_if(!(pmf_mode_ > 0.0), "binomial pmf(mode) underflowed");
    odds_ = p / q;
}

std::uint64_t
BinomialSampler::sample(Rng &rng) const
{
    if (n_ == 0 || p_ == 0.0)
        return 0;
    if (p_ == 1.0)
        return n_;
    const double nd = static_cast<double>(n_);
    for (;;) {
        // Invert u over the support taken in decreasing-pmf order:
        // the mode, then whichever unvisited neighbour (lo - 1 below,
        // hi + 1 above) is more probable.  A side's pmf reads 0 once
        // it passes the support or underflows, and stays 0.
        double u = rng.uniform();
        if (u < pmf_mode_)
            return mode_;
        u -= pmf_mode_;
        std::uint64_t lo = mode_;
        std::uint64_t hi = mode_;
        auto below = [&](double pmf_lo) {
            const double k = static_cast<double>(lo);
            return lo > 0 ? pmf_lo * k / (nd - k + 1.0) / odds_ : 0.0;
        };
        auto above = [&](double pmf_hi) {
            const double k = static_cast<double>(hi);
            return hi < n_ ? pmf_hi * (nd - k) / (k + 1.0) * odds_ : 0.0;
        };
        double down = below(pmf_mode_);
        double up = above(pmf_mode_);
        while (up > 0.0 || down > 0.0) {
            if (up >= down) {
                ++hi;
                if (u < up)
                    return hi;
                u -= up;
                up = above(up);
            } else {
                --lo;
                if (u < down)
                    return lo;
                u -= down;
                down = below(down);
            }
        }
        // u fell past the mass the rounded pmf covers (it sums to 1
        // only to within rounding): redraw, which keeps the draw exact
        // for the normalised pmf.
    }
}

} // namespace dhl
