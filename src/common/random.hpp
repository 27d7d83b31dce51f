/**
 * @file
 * Deterministic random number generation for workload synthesis.
 *
 * A thin, explicit wrapper over xoshiro256** so that every simulation run
 * is reproducible from its seed and independent of the C++ standard
 * library's unspecified distribution implementations.  All distributions
 * used by the workload generators (uniform, exponential inter-arrival
 * times, log-normal transfer sizes, Zipf popularity, binomial counts) are
 * implemented here so results are bit-stable across platforms.
 */

#ifndef DHL_COMMON_RANDOM_HPP
#define DHL_COMMON_RANDOM_HPP

#include <cstdint>
#include <vector>

namespace dhl {

/**
 * Derive a decorrelated child seed from a base seed and a stream index
 * (splitmix64 mixing).  Used by the experiment runner to hand every
 * scenario its own deterministic seed: the result depends only on
 * (base, stream), never on which thread evaluates the scenario.
 */
std::uint64_t deriveSeed(std::uint64_t base, std::uint64_t stream);

/**
 * The complete stream position of an Rng: the four xoshiro256** state
 * words plus the Box-Muller spare cache.  Checkpoint/restore captures
 * this so a restored run consumes exactly the same variate sequence as
 * the uninterrupted one (sim/snapshot.hpp).
 */
struct RngState
{
    std::uint64_t state[4];
    bool has_spare;
    double spare;
};

/** xoshiro256** PRNG with explicit, copyable state. */
class Rng
{
  public:
    /** Seed via splitmix64 expansion of a single 64-bit seed. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] (inclusive). */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Exponentially distributed value with the given mean (> 0). */
    double exponential(double mean);

    /** Standard normal via Box-Muller (caches the spare variate). */
    double normal(double mean = 0.0, double stddev = 1.0);

    /** Log-normal with the given parameters of the underlying normal. */
    double lognormal(double mu, double sigma);

    /**
     * Zipf-distributed rank in [0, n) with exponent @p s, via inverse-CDF
     * table lookup.  Use ZipfTable for repeated draws over the same (n, s).
     */
    std::size_t zipf(std::size_t n, double s);

    /** Capture the exact stream position. */
    RngState saveState() const;

    /** Resume from a captured stream position. */
    void restoreState(const RngState &s);

  private:
    std::uint64_t state_[4];
    bool has_spare_;
    double spare_;
};

/** Precomputed inverse-CDF table for repeated Zipf draws. */
class ZipfTable
{
  public:
    /**
     * @param n  Number of ranks (> 0).
     * @param s  Zipf exponent (>= 0; 0 degenerates to uniform).
     */
    ZipfTable(std::size_t n, double s);

    /** Draw a rank in [0, n). */
    std::size_t sample(Rng &rng) const;

    std::size_t size() const { return cdf_.size(); }

  private:
    std::vector<double> cdf_;
};

/**
 * Exact Binomial(n, p) sampler — distributed as the hit count of n
 * Bernoulli(p) trials — by inversion searched outward from the mode.
 * One uniform is walked down the support in decreasing-pmf
 * order (the pmf is unimodal, so that order merges the two sides of
 * the mode), which costs O(1 + sqrt(n p (1 - p))) steps per draw and
 * never evaluates the tails where (1 - p)^n underflows.  pmf(mode) is
 * computed once per (n, p) in Loader's saddle-point form (accurate at
 * any n, unlike a difference of lgammas, and thread-safe); the
 * neighbours follow by the pmf ratio recurrence.
 */
class BinomialSampler
{
  public:
    /**
     * @param n  Trials (<= 2^53).
     * @param p  Per-trial success probability in [0, 1].
     */
    BinomialSampler(std::uint64_t n, double p);

    /** Draw a count in [0, n].  Degenerate cases (n = 0, p = 0 or
     *  p = 1) return 0 or n without consuming the stream. */
    std::uint64_t sample(Rng &rng) const;

  private:
    std::uint64_t n_;
    double p_;
    std::uint64_t mode_ = 0;
    double pmf_mode_ = 1.0;
    double odds_ = 0.0; ///< p / (1 - p).
};

} // namespace dhl

#endif // DHL_COMMON_RANDOM_HPP
