/**
 * @file
 * Error-handling and logging primitives in the gem5 idiom.
 *
 * Two error categories, matching the gem5 coding style's guidance:
 *
 *  - panic():  an internal invariant of the library is broken (a bug in
 *              *this* code).  Throws PanicError, which is never meant to
 *              be caught in production use.
 *  - fatal():  the *user's* configuration is invalid (negative track
 *              length, zero-capacity cart, ...).  Throws FatalError so
 *              callers and tests can catch and report it.
 *
 * Plus non-terminating status channels: warn() / inform(), routed through
 * a process-wide Logger whose sink and verbosity are configurable (tests
 * capture them; benches silence inform()).
 *
 * The Logger is the one piece of mutable global state reachable from
 * concurrently-running experiment scenarios, so it is internally
 * synchronised: log() / setLevel() / setSink() may be called from any
 * thread.  A replaced sink must itself tolerate concurrent calls (the
 * default stderr sink does; per-message output is emitted under the
 * logger's lock so lines never interleave).
 */

#ifndef DHL_COMMON_LOGGING_HPP
#define DHL_COMMON_LOGGING_HPP

#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>

namespace dhl {

/** Thrown by fatal(): invalid user input/configuration. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** Thrown by panic(): a broken internal invariant (a library bug). */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error(msg)
    {}
};

/** Severity levels for the non-terminating log channels. */
enum class LogLevel
{
    Silent = 0, ///< Suppress everything.
    Warn = 1,   ///< Only warnings.
    Inform = 2, ///< Warnings and informational messages.
    Debug = 3,  ///< Everything, including debug traces.
};

/**
 * Process-wide logger.  Deliberately minimal: a level filter and a
 * replaceable sink.  The default sink writes to stderr.  Thread-safe
 * (see the file comment).
 */
class Logger
{
  public:
    using Sink = std::function<void(LogLevel, const std::string &)>;

    /** The global logger instance. */
    static Logger &global();

    /** Current verbosity. */
    LogLevel level() const;

    /** Set verbosity; returns the previous level. */
    LogLevel setLevel(LogLevel lvl);

    /** Replace the sink; returns the previous sink. */
    Sink setSink(Sink sink);

    /** Emit a message if @p lvl passes the filter. */
    void log(LogLevel lvl, const std::string &msg);

  private:
    Logger();

    mutable std::mutex mutex_;
    LogLevel level_;
    Sink sink_;
};

/** Report an unrecoverable user/configuration error.  Throws FatalError. */
[[noreturn]] void fatal(const std::string &msg);

/** Report a broken internal invariant.  Throws PanicError. */
[[noreturn]] void panic(const std::string &msg);

/** Emit a warning (something may be modelled imperfectly but continues). */
void warn(const std::string &msg);

/** Emit an informational status message. */
void inform(const std::string &msg);

/** Emit a debug trace message. */
void debugLog(const std::string &msg);

/**
 * Guard helpers: fatal()/panic() if @p condition holds.  They take only
 * a `const char *` message, so a guard costs a branch and never builds a
 * std::string on the success path (a per-call heap allocation that the
 * DES kernel microbenchmarks showed dominating schedule()).  A message
 * that must be formatted (ids, names, values) goes in an explicit
 * branch instead, so it is built only on failure:
 *
 *   if (bytes > free) [[unlikely]]
 *       fatal("load overflows cart " + std::to_string(id));
 */
[[noreturn]] void fatalCold(const char *msg);
[[noreturn]] void panicCold(const char *msg);

inline void
fatal_if(bool condition, const char *msg)
{
    if (condition) [[unlikely]]
        fatalCold(msg);
}

inline void
panic_if(bool condition, const char *msg)
{
    if (condition) [[unlikely]]
        panicCold(msg);
}

/**
 * Retired built-message guards.  Nothing in src/, tools/, bench/,
 * tests/ or examples/ calls them, and the warnings-as-errors build
 * rejects any new caller (tests/negative_compile/nc_built_guard_message
 * pins that).  They remain only because the e2ebench harness still has
 * two such calls; delete both overloads together with those calls.
 */
[[deprecated("build the message in an explicit if-branch: "
             "if (cond) [[unlikely]] fatal(msg);")]]
inline void
fatal_if(bool condition, const std::string &msg)
{
    if (condition) [[unlikely]]
        fatal(msg);
}

[[deprecated("build the message in an explicit if-branch: "
             "if (cond) [[unlikely]] panic(msg);")]]
inline void
panic_if(bool condition, const std::string &msg)
{
    if (condition) [[unlikely]]
        panic(msg);
}

} // namespace dhl

#endif // DHL_COMMON_LOGGING_HPP
