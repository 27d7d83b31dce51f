/**
 * @file
 * Negative-compilation proof: a guard's message is a literal, never a
 * std::string built before the condition is checked (that would format
 * and allocate on every passing check).  A message that needs
 * formatting goes in an explicit `if (cond) [[unlikely]] fatal(msg);`.
 * The CMake harness asserts this translation unit fails to build.
 */

#include <string>

#include "common/logging.hpp"

int
main(int argc, char **)
{
    dhl::fatal_if(argc > 8, std::string("x") + "y"); // must not compile
    return 0;
}
