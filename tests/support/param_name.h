// Stable names for value-parameterized gtest suites.
//
// gtest prints a parameter without a PrintTo overload as raw bytes,
// and gtest_discover_tests copies the printed parameter into the ctest
// name. A struct holding a pointer then gets a ctest name that changes
// on every build. Parameter structs therefore define PrintTo, and
// their suites name cases with PrintedParamName, so names read like
// `Grid_qGDP`.
#pragma once

#include <gtest/gtest.h>

#include <cctype>
#include <string>

namespace qgdp::test_support {

/// Name generator for INSTANTIATE_TEST_SUITE_P: the parameter as its
/// PrintTo prints it, with every character gtest rejects in a test
/// name (anything but letters, digits and '_') replaced by '_'.
struct PrintedParamName {
  template <typename Param>
  std::string operator()(const ::testing::TestParamInfo<Param>& info) const {
    std::string name = ::testing::PrintToString(info.param);
    for (char& c : name) {
      if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
    }
    return name;
  }
};

}  // namespace qgdp::test_support
