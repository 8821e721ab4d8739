# Attaches the benchmark to the repository's own CMake project without
# editing it.  run.py configures the repository root with
#   -DCMAKE_PROJECT_mpcnn_INCLUDE=<this file>
# which CMake includes right after `project(mpcnn)`; the benchmark target
# links mpcnn_core by name, which resolves once src/ has defined it, so it
# builds exactly what the repository builds.
add_subdirectory(${CMAKE_CURRENT_LIST_DIR} ${CMAKE_BINARY_DIR}/cascade_bench)
