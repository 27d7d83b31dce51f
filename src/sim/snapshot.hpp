/**
 * @file
 * Checkpoint/restore support for the DES: a line-oriented snapshot
 * format plus the field vocabulary every checkpointed class's visit()
 * is written in.
 *
 * A snapshot is a flat text document of `key = value` lines.  Writers
 * push hierarchical scopes ("track0", "faults") so composed objects
 * serialise without coordinating key names; readers push the same
 * scopes back.  Doubles are serialised as IEEE-754 bit patterns (hex),
 * so a restored value is the *identical* double, not a decimal
 * round-trip approximation — the byte-identity oracle for
 * restore(checkpoint) + run(delta) == uninterrupted run depends on it.
 * A vector of doubles is one packed line (`key = <n> <hex> ...`), so
 * a document has O(state) lines however many samples the state holds.
 *
 * The snapshot contract (DESIGN.md §11): a checkpointed class has one
 *
 *   template <class Self, class Ar> static void visit(Self &self, Ar &ar);
 *
 * that names each field once.  SnapshotWriter instantiates it with
 * `Self = const T` (the save side cannot change state) and
 * SnapshotReader with `Self = T`, so the two sides cannot drift.
 * `if constexpr (Ar::loading)` is for three things only: preconditions,
 * re-scheduling saved events at their absolute times, and validating
 * input.  State is captured only at a *drained epoch boundary* — no
 * in-flight request work — where every pending event belongs to a
 * process that records its absolute event times and re-schedules them
 * on restore.  The event queue itself (arbitrary closures) is never
 * serialised.
 *
 * The vocabulary, identical on both sides:
 *   io(key, v)        one value: bool, integers, double, string,
 *                     packed std::vector<double>, Rng, or an object
 *                     with its own visit() (in the scope `key`);
 *   count(key, n)     a fixed size the reader requires to match;
 *   expect(key, v)    a configuration value the reader requires to
 *                     match (the config fingerprint);
 *   each(prefix, r[, fn])
 *                     every element of a fixed-size range: with fn in
 *                     the scope `prefix<i>`, without it as the value
 *                     of key `prefix<i>`;
 *   seq(key, prefix, c, fn)
 *                     a variable-length container: its size under
 *                     `key`, then each element in the scope
 *                     `prefix<i>`.  The reader never sizes anything
 *                     from the stored count: it appends elements until
 *                     the count is reached or a key is missing, so fn
 *                     must read at least one key.
 */

#ifndef DHL_SIM_SNAPSHOT_HPP
#define DHL_SIM_SNAPSHOT_HPP

#include <cstdint>
#include <istream>
#include <ostream>
#include <ranges>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.hpp"

namespace dhl {
namespace sim {

/** The key of element @p i of a list: `prefix` then the decimal index. */
std::string indexedKey(std::string_view prefix, std::size_t i);

/** 0 .. n-1, for each() over parallel arrays. */
inline auto
indices(std::size_t n)
{
    return std::views::iota(std::size_t{0}, n);
}

namespace detail {

/** The element a list reader fills before inserting it: a map's
 *  `pair<const K, V>` is read as a `pair<K, V>`. */
template <class T>
struct Loaded
{
    using type = T;
};
template <class K, class V>
struct Loaded<std::pair<const K, V>>
{
    using type = std::pair<K, V>;
};

template <class T>
inline constexpr bool kIsText =
    std::is_convertible_v<const T &, std::string_view>;

} // namespace detail

/** RAII scope guard usable with either side of the snapshot. */
template <typename Snapshot>
class SnapshotScope
{
  public:
    SnapshotScope(Snapshot &snap, std::string_view scope) : snap_(snap)
    {
        snap_.push(scope);
    }
    ~SnapshotScope() { snap_.pop(); }

    SnapshotScope(const SnapshotScope &) = delete;
    SnapshotScope &operator=(const SnapshotScope &) = delete;

  private:
    Snapshot &snap_;
};

/** Serialises state as scoped `key = value` lines. */
class SnapshotWriter
{
  public:
    /** @param os Destination stream (text mode). */
    explicit SnapshotWriter(std::ostream &os);

    SnapshotWriter(const SnapshotWriter &) = delete;
    SnapshotWriter &operator=(const SnapshotWriter &) = delete;

    /** visit() bodies test this to tell the two sides apart. */
    static constexpr bool loading = false;

    //------------------------------------------------------------------
    // The field vocabulary (see the file comment).
    //------------------------------------------------------------------

    template <class T>
    void
    io(std::string_view key, const T &value)
    {
        if constexpr (std::is_same_v<T, bool>)
            putBool(key, value);
        else if constexpr (std::is_floating_point_v<T>)
            putDouble(key, value);
        else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>)
            putI64(key, value);
        else if constexpr (std::is_integral_v<T>)
            putU64(key, value);
        else if constexpr (std::is_same_v<T, std::vector<double>>)
            putDoubles(key, value);
        else if constexpr (detail::kIsText<T>)
            putString(key, value);
        else if constexpr (std::is_same_v<T, Rng>)
            putRng(key, value);
        else {
            SnapshotScope scope(*this, key);
            T::visit(value, *this);
        }
    }

    void count(std::string_view key, std::size_t n) { putU64(key, n); }

    template <class T>
    void
    expect(std::string_view key, const T &value)
    {
        io(key, value);
    }

    template <class Range, class Fn>
    void
    each(std::string_view prefix, const Range &range, Fn fn)
    {
        std::size_t i = 0;
        for (const auto &e : range) {
            SnapshotScope scope(*this, indexedKey(prefix, i++));
            fn(e);
        }
    }

    template <class Range>
    void
    each(std::string_view prefix, const Range &range)
    {
        std::size_t i = 0;
        for (const auto &e : range)
            io(indexedKey(prefix, i++), e);
    }

    template <class C, class Fn>
    void
    seq(std::string_view key, std::string_view prefix, const C &c, Fn fn)
    {
        putU64(key, c.size());
        each(prefix, c, fn);
    }

    /** Enter a nested scope: keys gain a "scope." prefix. */
    void push(std::string_view scope);

    /** Leave the innermost scope. */
    void pop();

    /** Write one value.  Strings must not contain newlines. */
    void putString(std::string_view key, std::string_view value);
    void putU64(std::string_view key, std::uint64_t value);
    void putI64(std::string_view key, std::int64_t value);
    void putBool(std::string_view key, bool value);

    /** Bit-exact double serialisation (IEEE-754 pattern as hex). */
    void putDouble(std::string_view key, double value);

    /** A whole vector on one line: the count, then each element's
     *  IEEE-754 pattern as 16 lowercase hex digits. */
    void putDoubles(std::string_view key, std::span<const double> values);

    /** Full RNG stream position (state words + Box-Muller spare). */
    void putRng(std::string_view key, const Rng &rng);

  private:
    std::string fullKey(std::string_view key) const;

    std::ostream &os_;
    std::vector<std::size_t> scope_lens_;
    std::string prefix_;
};

/** Parses a snapshot document and serves scoped lookups. */
class SnapshotReader
{
  public:
    /** Parse @p is fully; fatal() on a malformed document. */
    explicit SnapshotReader(std::istream &is);

    SnapshotReader(const SnapshotReader &) = delete;
    SnapshotReader &operator=(const SnapshotReader &) = delete;

    /** visit() bodies test this to tell the two sides apart. */
    static constexpr bool loading = true;

    //------------------------------------------------------------------
    // The field vocabulary (see the file comment).  Every lookup
    // fatal()s on a missing key or a value out of the field's range.
    //------------------------------------------------------------------

    template <class T>
    void
    io(std::string_view key, T &value)
    {
        if constexpr (std::is_same_v<T, bool>)
            value = getBool(key);
        else if constexpr (std::is_floating_point_v<T>)
            value = getDouble(key);
        else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>)
            value = narrowed<T>(key, getI64(key));
        else if constexpr (std::is_integral_v<T>)
            value = narrowed<T>(key, getU64(key));
        else if constexpr (std::is_same_v<T, std::vector<double>>)
            value = getDoubles(key);
        else if constexpr (std::is_same_v<T, std::string>)
            value = getString(key);
        else if constexpr (std::is_same_v<T, Rng>)
            getRng(key, value);
        else {
            SnapshotScope scope(*this, key);
            T::visit(value, *this);
        }
    }

    /** One element of a std::vector<bool>. */
    void
    io(std::string_view key, std::vector<bool>::reference value)
    {
        value = getBool(key);
    }

    void
    count(std::string_view key, std::size_t n)
    {
        expect(key, n);
    }

    template <class T>
    void
    expect(std::string_view key, const T &want)
    {
        bool same;
        if constexpr (detail::kIsText<T>) {
            same = getString(key) == std::string_view(want);
        } else {
            T got{};
            io(key, got);
            same = got == want;
        }
        if (!same)
            mismatch(key);
    }

    template <class Range, class Fn>
    void
    each(std::string_view prefix, Range &&range, Fn fn)
    {
        std::size_t i = 0;
        for (auto &&e : range) {
            SnapshotScope scope(*this, indexedKey(prefix, i++));
            fn(e);
        }
    }

    template <class Range>
    void
    each(std::string_view prefix, Range &&range)
    {
        std::size_t i = 0;
        for (auto &&e : range)
            io(indexedKey(prefix, i++), e);
    }

    template <class C, class Fn>
    void
    seq(std::string_view key, std::string_view prefix, C &c, Fn fn)
    {
        const std::uint64_t n = getU64(key);
        c.clear();
        for (std::uint64_t i = 0; i < n; ++i) {
            typename detail::Loaded<typename C::value_type>::type e{};
            {
                SnapshotScope scope(*this, indexedKey(prefix, i));
                fn(e);
            }
            c.insert(c.end(), std::move(e));
        }
    }

    void push(std::string_view scope);
    void pop();

    /** True if the (scoped) key exists. */
    bool has(std::string_view key) const;

    /** Typed lookups; fatal() on a missing key or unparsable value. */
    std::string getString(std::string_view key) const;
    std::uint64_t getU64(std::string_view key) const;
    std::int64_t getI64(std::string_view key) const;
    bool getBool(std::string_view key) const;
    double getDouble(std::string_view key) const;
    std::vector<double> getDoubles(std::string_view key) const;
    void getRng(std::string_view key, Rng &rng) const;

  private:
    std::string fullKey(std::string_view key) const;
    std::string_view rawValue(std::string_view key) const;
    [[noreturn]] void badValue(std::string_view what, std::string_view key,
                               std::string_view text) const;
    [[noreturn]] void mismatch(std::string_view key) const;

    template <class T, class V>
    T
    narrowed(std::string_view key, V v) const
    {
        if (!std::in_range<T>(v))
            badValue("integer", key, rawValue(key));
        return static_cast<T>(v);
    }

    /** The whole document; every key and value views into it. */
    std::string text_;
    std::unordered_map<std::string_view, std::string_view> values_;
    std::vector<std::size_t> scope_lens_;
    std::string prefix_;
};

} // namespace sim
} // namespace dhl

/** Instantiate `T::visit` for both sides; place it after the definition
 *  in T's source file. */
#define DHL_SNAPSHOT_VISIT(T)                                              \
    template void T::visit(const T &, ::dhl::sim::SnapshotWriter &);       \
    template void T::visit(T &, ::dhl::sim::SnapshotReader &)

#endif // DHL_SIM_SNAPSHOT_HPP
