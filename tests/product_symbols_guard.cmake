# The product_symbols_guard ctest: every function libcsrlmrm defines must be
# kept by at least one product binary, or be on the allowlist with a reason.
# The products are the programs under examples/ (one per .cpp) and the
# perfbench driver; tests, benches and the oracle library do not count, so a
# function only they call belongs in csrlmrm_oracle (tests/oracle/), not in
# src/.
#
# It builds the library and the products at -O0 with -ffunction-sections and
# -fdata-sections and links them with --gc-sections, in BINARY_DIR, then
# compares symbols:
#   1. the csrlmrm:: functions (T/W) libcsrlmrm.a defines,
#   2. minus those any product binary still defines after section GC,
#   3. minus the allowlist,
# and fails if anything is left. -O0, because at -O3 a callee inlined into
# every caller leaves no symbol behind and would look unused. Symbols rather
# than --print-gc-sections, because an archive member no product references
# is never linked, so its sections are never reported as collected. Data
# sections too, because a switch's jump table in an object's shared .rodata
# refers to its function and keeps it whenever anything else there is kept.
#
# perfbench is configured from its own perfbench/CMakeLists.txt, which
# compiles src/ by itself, into BINARY_DIR/perfbench.
#
# The allowlist holds one entry per line: a demangled qualified function name
# without its parameter list (it covers every overload of that name), then
# the reason it stays in the library. '#' starts a comment. An entry that no
# longer matches an unused function fails the guard too, so the list cannot
# outlive its reasons. Run as
#   cmake -DSOURCE_DIR=<src> -DBINARY_DIR=<dir> -DCXX_COMPILER=<c++>
#         -DNM=<nm> -DALLOWLIST=<file> -P product_symbols_guard.cmake
cmake_minimum_required(VERSION 3.16)
# c++filt ships with nm (binutils).
get_filename_component(nm_dir "${NM}" DIRECTORY)
find_program(CXXFILT NAMES c++filt HINTS "${nm_dir}")
if(NOT CXXFILT)
  message(FATAL_ERROR "c++filt not found next to ${NM}")
endif()
include(ProcessorCount)
ProcessorCount(jobs)
if(jobs EQUAL 0 OR jobs GREATER 4)
  set(jobs 4)  # bounded: each GCC job can take several hundred MB
endif()

set(guard_flags
  -DCMAKE_BUILD_TYPE=Debug
  "-DCMAKE_CXX_COMPILER=${CXX_COMPILER}"
  -DCMAKE_CXX_FLAGS_DEBUG=-O0
  "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
  -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)

function(configure_and_build source_dir binary_dir)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -S "${source_dir}" -B "${binary_dir}" ${guard_flags}
    OUTPUT_VARIABLE log ERROR_VARIABLE log RESULT_VARIABLE configured)
  if(NOT configured EQUAL 0)
    message(FATAL_ERROR "${log}\nconfiguring ${source_dir} into ${binary_dir} failed")
  endif()
  # The build log is printed only on failure: the warning-free build is the
  # werror guard's business, not this one's.
  execute_process(
    COMMAND "${CMAKE_COMMAND}" --build "${binary_dir}" --parallel ${jobs} --target ${ARGN}
    OUTPUT_VARIABLE log ERROR_VARIABLE log RESULT_VARIABLE built)
  if(NOT built EQUAL 0)
    message(FATAL_ERROR "${log}\nbuilding ${ARGN} in ${binary_dir} failed")
  endif()
endfunction()

file(GLOB example_sources RELATIVE "${SOURCE_DIR}/examples" "${SOURCE_DIR}/examples/*.cpp")
set(examples "")
foreach(source IN LISTS example_sources)
  get_filename_component(name "${source}" NAME_WE)
  list(APPEND examples "${name}")
endforeach()

configure_and_build("${SOURCE_DIR}" "${BINARY_DIR}/tree" csrlmrm ${examples})
configure_and_build("${SOURCE_DIR}/perfbench" "${BINARY_DIR}/perfbench" perfbench)

# The csrlmrm:: functions an object defines, as mangled names: these carry no
# spaces, brackets or semicolons, so they are safe as CMake list items and
# variable names. Nested names in namespace csrlmrm mangle as
# _ZN [cv-qualifiers] [ref-qualifier] 7csrlmrm ...
function(defined_functions file out)
  execute_process(COMMAND "${NM}" --defined-only "${file}"
                  OUTPUT_VARIABLE listing RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${NM} failed on ${file}")
  endif()
  string(REGEX MATCHALL "[ \t][TW] _ZN[rVK]*[RO]?7csrlmrm[^\n]*" lines "${listing}")
  set(names "")
  foreach(line IN LISTS lines)
    string(REGEX REPLACE "^[ \t][TW] " "" name "${line}")
    list(APPEND names "${name}")
  endforeach()
  list(REMOVE_DUPLICATES names)
  set(${out} "${names}" PARENT_SCOPE)
endfunction()

set(products "")
foreach(name IN LISTS examples)
  list(APPEND products "${BINARY_DIR}/tree/examples/${name}")
endforeach()
list(APPEND products "${BINARY_DIR}/perfbench/perfbench")

foreach(product IN LISTS products)
  defined_functions("${product}" kept)
  foreach(name IN LISTS kept)
    set("kept:${name}" TRUE)
  endforeach()
endforeach()

defined_functions("${BINARY_DIR}/tree/src/libcsrlmrm.a" library)
set(unused_mangled "")
foreach(name IN LISTS library)
  if(NOT DEFINED "kept:${name}")
    list(APPEND unused_mangled "${name}")
  endif()
endforeach()

# Demangle what is left (one name per line, in and out) and drop the
# parameter lists: a constructor's or destructor's variants share one name.
set(unused "")
if(unused_mangled)
  string(REPLACE ";" "\n" mangled_lines "${unused_mangled}")
  file(WRITE "${BINARY_DIR}/unused.mangled" "${mangled_lines}\n")
  execute_process(COMMAND "${CXXFILT}" INPUT_FILE "${BINARY_DIR}/unused.mangled"
                  OUTPUT_VARIABLE demangled RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${CXXFILT} failed")
  endif()
  string(REGEX MATCHALL "[^\n]+" demangled_lines "${demangled}")
  foreach(line IN LISTS demangled_lines)
    list(APPEND unused "${line}")
  endforeach()
endif()

file(STRINGS "${ALLOWLIST}" allow_lines)
set(problems "")
set(allowed "")
foreach(line IN LISTS allow_lines)
  string(REGEX REPLACE "#.*" "" line "${line}")
  string(STRIP "${line}" line)
  if(line STREQUAL "")
    continue()
  endif()
  if(NOT line MATCHES "^([^ \t]+)[ \t]+(.+)$")
    list(APPEND problems "allowlist entry without a reason: ${line}")
    continue()
  endif()
  list(APPEND allowed "${CMAKE_MATCH_1}")
endforeach()

set(reported "")
set(matched_entries "")
foreach(signature IN LISTS unused)
  string(FIND "${signature}" "(" paren)
  string(SUBSTRING "${signature}" 0 ${paren} name)
  if(name IN_LIST allowed)
    list(APPEND matched_entries "${name}")
  else()
    list(APPEND reported "${signature}")
  endif()
endforeach()
foreach(entry IN LISTS allowed)
  if(NOT entry IN_LIST matched_entries)
    list(APPEND problems "stale allowlist entry (no unused function has this name): ${entry}")
  endif()
endforeach()

list(REMOVE_DUPLICATES reported)
list(SORT reported)
list(LENGTH reported count)
foreach(signature IN LISTS reported)
  list(APPEND problems "kept by no product binary: ${signature}")
endforeach()

list(LENGTH examples example_count)
math(EXPR product_count "${example_count} + 1")
if(problems)
  string(REPLACE ";" "\n  " text "${problems}")
  message(FATAL_ERROR
    "${count} libcsrlmrm function(s) kept by none of the ${product_count} product "
    "binaries (${examples};perfbench) and not allowlisted in ${ALLOWLIST}:\n  ${text}\n"
    "Delete each one, move it to csrlmrm_oracle (tests/oracle/) if only tests or "
    "benches call it, or allowlist it as public API with a reason.")
endif()
message(STATUS "every libcsrlmrm function is kept by one of ${product_count} product binaries "
               "or allowlisted")
