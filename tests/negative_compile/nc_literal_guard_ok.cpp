/**
 * @file
 * Positive control for nc_built_guard_message.cpp: a literal guard
 * message and a message built inside an explicit failure branch both
 * compile under the same flags.
 */

#include <string>

#include "common/logging.hpp"

int
main(int argc, char **)
{
    dhl::fatal_if(argc > 8, "too many arguments");
    dhl::panic_if(argc < 0, "negative argument count");
    if (argc > 9) [[unlikely]]
        dhl::fatal(std::string("x") + "y");
    return 0;
}
