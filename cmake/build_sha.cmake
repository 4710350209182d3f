# Writes OUT, a one-line header defining FAST_BUILD_GIT_SHA, from the HEAD
# of the checkout at SOURCE_DIR ("unknown" outside a git checkout). OUT is
# rewritten only when the sha changed, so an unchanged HEAD recompiles
# nothing. Run at build time by the fast_build_sha target:
#
#   cmake -DGIT=git -DSOURCE_DIR=<repo> -DOUT=<header> -P build_sha.cmake
set(sha "unknown")
if(GIT)
  execute_process(
    COMMAND ${GIT} rev-parse --short=12 HEAD
    WORKING_DIRECTORY ${SOURCE_DIR}
    OUTPUT_VARIABLE head
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET
    RESULT_VARIABLE rc)
  if(rc EQUAL 0 AND NOT head STREQUAL "")
    set(sha ${head})
  endif()
endif()
file(WRITE ${OUT}.tmp "#define FAST_BUILD_GIT_SHA \"${sha}\"\n")
file(COPY_FILE ${OUT}.tmp ${OUT} ONLY_IF_DIFFERENT)
file(REMOVE ${OUT}.tmp)
