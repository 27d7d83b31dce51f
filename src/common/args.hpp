/**
 * @file
 * A small command-line argument parser for the CLI tool and examples.
 *
 * Supports long flags with values ("--speed 200" or "--speed=200"),
 * boolean switches ("--pipelined"), typed accessors with defaults,
 * strict validation (unknown flags and missing values are fatal), and
 * generated --help text.
 */

#ifndef DHL_COMMON_ARGS_HPP
#define DHL_COMMON_ARGS_HPP

#include <cstddef>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace dhl {

/** The parser / registry of known flags. */
class ArgParser
{
  public:
    /**
     * @param program     Program name for the usage line.
     * @param description One-line description for --help.
     */
    ArgParser(std::string program, std::string description);

    /** Register a value flag ("--name <value>"). */
    void addOption(const std::string &name, const std::string &help,
                   const std::string &default_value = "");

    /** Register a boolean switch ("--name"). */
    void addSwitch(const std::string &name, const std::string &help);

    /** Register a positional argument (in order). */
    void addPositional(const std::string &name, const std::string &help,
                       bool required = true);

    /**
     * Parse argv.  fatal() on unknown flags, missing values, or
     * missing required positionals.
     *
     * @return false if --help was requested (help text already
     *         written to @p out), true otherwise.
     */
    bool parse(int argc, const char *const *argv, std::ostream &out);

    /** Value of an option (its default when unset); fatal() if the
     *  name was never registered. */
    std::string get(const std::string &name) const;

    /** Typed accessors with the same semantics. */
    double getDouble(const std::string &name) const;
    long getInt(const std::string &name) const;

    /** A non-negative integer such as a count or size; fatal() on a
     *  negative or out-of-range value, so it can never wrap into a
     *  huge std::size_t. */
    std::size_t getCount(const std::string &name) const;

    bool getSwitch(const std::string &name) const;

    /** True if the user supplied the flag explicitly. */
    bool provided(const std::string &name) const;

    /** Positional value by name; fatal() if absent and required. */
    std::string positional(const std::string &name) const;

    /** Write the help text. */
    void printHelp(std::ostream &os) const;

  private:
    struct Option
    {
        std::string help;
        std::string default_value;
        bool is_switch;
        bool provided = false;
        std::string value;
    };

    struct Positional
    {
        std::string name;
        std::string help;
        bool required;
        bool provided = false;
        std::string value;
    };

    const Option &find(const std::string &name) const;

    std::string program_;
    std::string description_;
    std::map<std::string, Option> options_;
    std::vector<Positional> positionals_;
};

} // namespace dhl

#endif // DHL_COMMON_ARGS_HPP
