#ifndef FAST_UTIL_BUILD_INFO_H_
#define FAST_UTIL_BUILD_INFO_H_

// Build/version stamp. The git sha is read at build time into a generated
// header (cmake/build_sha.cmake), so a reused build directory always reports
// the commit it built; build type and compiler come from configure-time
// compile definitions on build_info.cc. Only that one translation unit
// recompiles when the stamp changes. Surfaced in
// the admin plane's /varz endpoint, the fast_serve startup log line, and
// every bench JSON, so a perf number or a flight-recorder dump can always be
// traced back to the exact build that produced it.

#include <string>

namespace fast {

struct BuildInfo {
  const char* git_sha;     // short commit hash, "unknown" outside a checkout
  const char* build_type;  // CMAKE_BUILD_TYPE, e.g. "RelWithDebInfo"
  const char* compiler;    // "<id> <version>", e.g. "GNU 13.2.0"
};

const BuildInfo& GetBuildInfo();

// One-line form for logs: "sha=<sha> build=<type> compiler=<compiler>".
std::string BuildInfoSummary();

}  // namespace fast

#endif  // FAST_UTIL_BUILD_INFO_H_
