# The werror_guard_build ctest: configures SOURCE_DIR in BINARY_DIR with
# CSRLMRM_WERROR=ON and builds every target (library, examples, tools,
# tests, benches), failing on the first warning. Release, because GCC's
# flow-sensitive warnings (-Wrestrict on a string concatenation, say) fire
# only at -O3. Run as
#   cmake -DSOURCE_DIR=<src> -DBINARY_DIR=<dir> -DCXX_COMPILER=<c++>
#         -P werror_guard.cmake
include(ProcessorCount)
ProcessorCount(jobs)
if(jobs EQUAL 0 OR jobs GREATER 4)
  set(jobs 4)  # bounded: each GCC job can take several hundred MB
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -S "${SOURCE_DIR}" -B "${BINARY_DIR}" -DCSRLMRM_WERROR=ON
          -DCMAKE_BUILD_TYPE=Release "-DCMAKE_CXX_COMPILER=${CXX_COMPILER}"
  RESULT_VARIABLE configured)
if(NOT configured EQUAL 0)
  message(FATAL_ERROR "configuring with CSRLMRM_WERROR=ON failed")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" --build "${BINARY_DIR}" --parallel ${jobs}
                RESULT_VARIABLE built)
if(NOT built EQUAL 0)
  message(FATAL_ERROR "the CSRLMRM_WERROR=ON build failed")
endif()
