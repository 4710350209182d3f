#include "util/build_info.h"

// Generated at build time (cmake/build_sha.cmake); absent outside a CMake
// build, where the sha falls back to "unknown".
#if __has_include("fast_build_sha.h")
#include "fast_build_sha.h"
#endif

#ifndef FAST_BUILD_GIT_SHA
#define FAST_BUILD_GIT_SHA "unknown"
#endif
#ifndef FAST_BUILD_TYPE
#define FAST_BUILD_TYPE "unknown"
#endif
#ifndef FAST_BUILD_COMPILER
#define FAST_BUILD_COMPILER "unknown"
#endif

namespace fast {

const BuildInfo& GetBuildInfo() {
  static const BuildInfo info{FAST_BUILD_GIT_SHA, FAST_BUILD_TYPE,
                              FAST_BUILD_COMPILER};
  return info;
}

std::string BuildInfoSummary() {
  const BuildInfo& b = GetBuildInfo();
  return std::string("sha=") + b.git_sha + " build=" + b.build_type +
         " compiler=" + b.compiler;
}

}  // namespace fast
