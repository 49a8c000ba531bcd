#!/usr/bin/env bash
# Repo verify flow:
#   1. tier-1: configure, build, run the full ctest suite;
#   1b. tuner:  run the full suite again with LISI_TUNE=on (probing forced
#              for every structure) and once with LISI_TUNE=off (tuner
#              compiled in but bypassed) — tuning decisions may change
#              kernels and schedules, never results;
#   2. checker: rebuild with -DLISI_COMM_CHECK=ON and run the full suite
#              again — the MiniMPI verifier (lockstep collective signatures,
#              wait-for-graph deadlock detection, tag-space lint) must stay
#              silent on correct code, and the comm_check_test seeded
#              violations must each die with their diagnostic;
#   3. TSan:   rebuild with -DLISI_SANITIZE=thread and run the comm, dist,
#              and pksp binaries — MiniMPI is thread-backed, so this proves
#              the overlapped halo exchange, both collective schedule
#              families, and the multi-rank Krylov loops (single-lane and
#              the blocked lanes the service runs) race-free;
#   4. ASan+UBSan: rebuild with -DLISI_SANITIZE=address+undefined (which
#              also defines _GLIBCXX_ASSERTIONS, so std::vector indexing is
#              bounds-checked) and run the comm binary — the typed
#              receives copy raw message bytes, empty messages included —
#              and the sparse, slu, and operator-reuse binaries — the
#              value-only update paths write positionally into frozen
#              factor / halo-plan storage, which is exactly the bug class
#              these sanitizers catch — plus the aztec, pksp, hymg and
#              port suites, since the aztec port views storage the port owns and the
#              block-local preconditioners view their operator's storage
#              (a use-after-free there is what ASan catches), plus the
#              plugin suite, so dlopen-loaded
#              backends and the host callback bridge run under the
#              allocator checks;
#   4b. plugin: compile the reference plugin OUT-OF-TREE — a scratch dir
#              holding nothing but a copy of src/abi/lisi_abi.h, a plain C99
#              compiler, -Werror — proving the ABI header is genuinely
#              self-contained, then run the hot-swap demo
#              (examples/plugin_swap: solve, replace the .so at run time,
#              re-solve bitwise-identically) at 1 and 4 ranks against that
#              out-of-tree build;
#   5. obs:    rebuild with -DLISI_OBS=ON and run the full suite — the
#              observability spans/counters on the comm and solver hot
#              paths must not change any result, and the allocation-free
#              guarantees must survive the instrumentation;
#   5b. service: the session-pool service (src/service) under both hostile
#              configurations — the TSan build runs the full service suite
#              (concurrent client submitters racing two solving sessions
#              over the shared queue, tune cache, and schedule fallback)
#              and the obs build runs it again so the per-session
#              span/counter attribution path is exercised for real
#              (Service.PerSessionObsAttribution skips everywhere else);
#   1c. precision: run the full suite with LISI_PRECISION=mixed (float32
#              speed paths forced wherever a backend has one) and with
#              LISI_PRECISION=double (pure-float64 paths pinned) — the
#              precision policy may change speed, never correctness;
#   1d. lisi-lint: run the project-specific static-analysis pass
#              (tools/lisi_lint, built as part of the tier-1 tree) over
#              src/ tests/ bench/ examples/ — raw tags, collectives inside
#              rank branches, dropped obs spans, allocations in zero-alloc
#              regions, undocumented env knobs; any unsuppressed finding
#              fails the flow (scripts/lint.sh is the fast dev loop for
#              the same pass);
#   6. docs:   every -DLISI_* CMake option named in README/DESIGN/docs must
#              actually exist in CMakeLists.txt (no doc drift), the
#              rule catalog in docs/STATIC_ANALYSIS.md must match the rules
#              registered in tools/lisi_lint/rules.def both ways, and the
#              plugin ABI spec (docs/PLUGIN_ABI.md) must cover every
#              identifier src/abi/lisi_abi.h exports — and name none it
#              doesn't — in both directions;
#   7. lint:   when clang-tidy is on PATH the -DLISI_LINT=ON rebuild is
#              MANDATORY (the tidy gate plus, under Clang, the
#              -Werror=thread-safety annotation check); skipped loudly
#              (not silently) on toolchains without clang-tidy.
#
# Sanitizer availability is probed loudly up front: a toolchain without
# libtsan/libasan would otherwise fail mid-flow with an obscure linker error,
# or worse, tempt a silent skip that reports a verification that never ran.
set -euo pipefail
cd "$(dirname "$0")/.."

# ---- sanitizer availability probes ------------------------------------
# Compile-and-link a one-liner against each sanitizer runtime.  Each probe
# prints its verdict; a missing runtime fails the flow here, by name, not
# three stages later inside a CMake error log.
probe_sanitizer() {
  local flag="$1"
  local name="$2"
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN
  echo 'int main(){return 0;}' > "${tmp}/probe.cpp"
  if c++ "-fsanitize=${flag}" -o "${tmp}/probe" "${tmp}/probe.cpp" 2> "${tmp}/err"; then
    echo "verify: sanitizer probe: ${name} available"
  else
    echo "verify: FATAL: ${name} (-fsanitize=${flag}) is not usable with this toolchain:" >&2
    sed 's/^/verify:   /' "${tmp}/err" >&2
    echo "verify: install the ${name} runtime or run the stages manually." >&2
    return 1
  fi
}
probe_sanitizer thread            "ThreadSanitizer"
probe_sanitizer address,undefined "AddressSanitizer+UBSan"

# ---- 1. tier-1 ---------------------------------------------------------
cmake -B build -S .
cmake --build build -j
(cd build && ctest --output-on-failure -j)

# ---- 1b. autotuner forced on / forced off ------------------------------
# Every test must hold under both extremes of the tuning policy: probes on
# every assembled structure (on), and the exact pre-tuner code path (off).
(cd build && LISI_TUNE=on ctest --output-on-failure -j)
(cd build && LISI_TUNE=off ctest --output-on-failure -j)

# ---- 1c. mixed precision forced on / forced off ------------------------
# Same contract as 1b for the precision policy: the whole suite must hold
# with float32 speed paths forced on everywhere a backend has one (mixed)
# and with the policy pinned to the pure-float64 paths (double).  The env
# knob loses to explicit "precision" parameters; tests whose semantics
# need a clean environment clear the variable for their own scope.
(cd build && LISI_PRECISION=mixed ctest --output-on-failure -j)
(cd build && LISI_PRECISION=double ctest --output-on-failure -j)

# ---- 1d. lisi_lint -----------------------------------------------------
# The project-specific pass: zero unsuppressed findings across the whole
# scanned surface, using the binary the tier-1 build just produced.  Any
# suppression in the tree is an inline `// lisi-lint: allow(<rule>) <reason>`
# — blanket or reasonless suppressions are themselves findings.
./build/tools/lisi_lint/lisi_lint --root . src tests bench examples

# ---- 2. LISI_COMM_CHECK ------------------------------------------------
# The checked library must pass the *entire* suite (no false positives on
# correct code) and the seeded-violation tests flip from SKIPPED to active.
cmake -B build-check -S . -DLISI_COMM_CHECK=ON
cmake --build build-check -j
(cd build-check && ctest --output-on-failure -j)

# ---- 3. TSan -----------------------------------------------------------
# lisi_lint is in the target list deliberately: the tool must keep building
# under every toolchain/flag combination verify exercises, GCC and Clang
# alike, so a Clang-only construct can never sneak into it.
cmake -B build-tsan -S . -DLISI_SANITIZE=thread
cmake --build build-tsan -j --target comm_test sparse_dist_test pksp_test \
  service_test lisi_lint
./build-tsan/tests/comm_test
./build-tsan/tests/sparse_dist_test
./build-tsan/tests/pksp_test --gtest_filter='*PkspMulti*:*PkspGmres*:*PkspParallel*'

# ---- 5b. service under TSan --------------------------------------------
# The service layer is the one place where *client* threads race the rank
# threads (bounded queue, promise resolution, batch slot handoff) and
# where two sessions hit the process-wide tune cache and the global
# schedule fallback concurrently.  The whole service suite must be
# TSan-clean, ConcurrentSubmittersStress included.
./build-tsan/tests/service_test

# ---- 4. ASan+UBSan -----------------------------------------------------
# comm_test is here because the typed receive and collective helpers copy
# raw message bytes: an empty message must not reach memcpy with null
# pointers, which UBSan reports and the other builds run silently.
# aztec_test, lisi_solver_test and lisi_crossbackend_test are here because
# the aztec port holds a view of the operator the port owns: a view that
# outlived its storage would be a use-after-free.  pksp_test and hymg_test
# are here for the same reason: pksp SOR/ILU(0), aztec ILU/SGS and HyMG's
# hybrid Gauss-Seidel read their operator through its owned-block view.
# failure_injection_test and service_test are here because HyMG now holds
# the port's operator as its fine level, and the service re-feeds its
# operators every batch: a fine level outliving the port's operator, or a
# rejected (non-finite) set-up leaving a dangling view, would be a
# use-after-free.
# plugin_test is here deliberately: it dlopens the refsolver and the four
# broken-on-purpose fixture plugins (all built with the same sanitizer
# flags by this tree), so the host↔plugin callback bridge, the option
# forwarding, and the keep-alive registry all run under ASan+UBSan.  The
# SLU kernels index their run arrays through std::vector, which the
# _GLIBCXX_ASSERTIONS this configuration defines bounds-checks.
cmake -B build-asan -S . -DLISI_SANITIZE=address+undefined
cmake --build build-asan -j --target comm_test sparse_dist_test slu_test \
  lisi_reuse_test plugin_test aztec_test lisi_solver_test \
  lisi_crossbackend_test pksp_test hymg_test failure_injection_test \
  service_test
./build-asan/tests/comm_test
./build-asan/tests/sparse_dist_test
./build-asan/tests/slu_test
./build-asan/tests/lisi_reuse_test
./build-asan/tests/plugin_test
./build-asan/tests/aztec_test
./build-asan/tests/lisi_solver_test
./build-asan/tests/lisi_crossbackend_test
./build-asan/tests/pksp_test
./build-asan/tests/hymg_test
./build-asan/tests/failure_injection_test
./build-asan/tests/service_test

# ---- 4b. plugin boundary -----------------------------------------------
# The ABI header must be self-contained: copy it ALONE into a scratch dir
# and build the reference plugin there with a plain C99 compiler and
# -Werror — no repo include paths, no C++ toolchain.  Then run the
# hot-swap demo (solve -> replace the .so at run time -> re-solve, bitwise
# equality demanded) at 1 and 4 ranks against that out-of-tree build.
plugin_tmp="$(mktemp -d)"
cp src/abi/lisi_abi.h "${plugin_tmp}/"
cc -std=c99 -Wall -Wextra -Werror -shared -fPIC -I"${plugin_tmp}" \
  plugins/refsolver/refsolver.c -o "${plugin_tmp}/librefsolver.so"
echo "verify: plugin: refsolver built out-of-tree against lisi_abi.h alone"
LISI_PLUGIN_PATH="${plugin_tmp}" ./build/examples/plugin_swap 48 1
LISI_PLUGIN_PATH="${plugin_tmp}" ./build/examples/plugin_swap 48 4
rm -rf "${plugin_tmp}"

# ---- 5. LISI_OBS=ON ----------------------------------------------------
# The instrumented build must pass the entire suite: spans/counters on the
# hot paths may not perturb results, break the allocation-free guarantees
# (the streams preallocate), or deadlock the checker-free collectives.
# This is also where the service suite's per-session attribution test
# (Service.PerSessionObsAttribution) goes live — it skips in OBS=OFF
# builds, so the full-suite run here is its only gate.
cmake -B build-obs -S . -DLISI_OBS=ON
cmake --build build-obs -j
(cd build-obs && ctest --output-on-failure -j)

# ---- 6. doc sanity -----------------------------------------------------
# Any -DLISI_FOO a reader can copy out of the docs must be a real CMake
# option: stale flags in README/DESIGN/docs are worse than none.
doc_sanity() {
  local fail=0
  local flags
  flags=$(grep -rhoE '\-DLISI_[A-Z_]+' README.md DESIGN.md EXPERIMENTS.md docs/*.md 2>/dev/null \
    | sed 's/^-D//' | sort -u)
  for flag in $flags; do
    if grep -qE "(option|set)\(${flag}([^A-Z_]|\$)" CMakeLists.txt; then
      echo "verify: doc sanity: ${flag} exists in CMakeLists.txt"
    else
      echo "verify: FATAL: docs name -D${flag} but CMakeLists.txt defines no such option" >&2
      fail=1
    fi
  done
  # Environment knobs (LISI_FOO=..., not -D flags) named in the docs must
  # be read somewhere via getenv: a documented knob nothing reads is the
  # same drift in another spelling.
  local knobs
  knobs=$(grep -rhoE '\bLISI_[A-Z_]+=' README.md DESIGN.md EXPERIMENTS.md docs/*.md 2>/dev/null \
    | sed 's/=$//' | sort -u)
  for knob in $knobs; do
    if grep -qE "(option|set)\(${knob}([^A-Z_]|\$)" CMakeLists.txt; then
      continue  # a CMake cache variable spelled without -D; checked above
    fi
    if grep -rqE "(getenv|envInt)\(\"${knob}\"[,)]" src bench tests tools; then
      echo "verify: doc sanity: env knob ${knob} is read in the sources"
    else
      echo "verify: FATAL: docs name env knob ${knob} but no source reads it" >&2
      fail=1
    fi
  done
  # The lisi_lint rule catalog must not drift: every rule registered in
  # tools/lisi_lint/rules.def appears (as `rule-id`) in the catalog of
  # docs/STATIC_ANALYSIS.md, and every backticked rule id the doc catalog
  # table names is actually registered.  rules.def keeps one rule per line
  # precisely so this grep stays honest.
  local def_ids doc_ids
  def_ids=$(grep -hoE '^LISI_LINT_RULE\([A-Za-z]+, "[a-z-]+"' tools/lisi_lint/rules.def \
    | sed 's/.*"\([a-z-]*\)"/\1/' | sort -u)
  doc_ids=$(grep -hoE '^\| `[a-z-]+`' docs/STATIC_ANALYSIS.md 2>/dev/null \
    | sed 's/^| `\([a-z-]*\)`/\1/' | sort -u)
  for id in $def_ids; do
    if printf '%s\n' "${doc_ids}" | grep -qx "${id}"; then
      echo "verify: doc sanity: lint rule ${id} is documented in docs/STATIC_ANALYSIS.md"
    else
      echo "verify: FATAL: rules.def registers lint rule '${id}' but the" \
           "docs/STATIC_ANALYSIS.md catalog table does not list it" >&2
      fail=1
    fi
  done
  for id in $doc_ids; do
    if printf '%s\n' "${def_ids}" | grep -qx "${id}"; then
      :
    else
      echo "verify: FATAL: docs/STATIC_ANALYSIS.md catalogs lint rule" \
           "'${id}' but tools/lisi_lint/rules.def does not register it" >&2
      fail=1
    fi
  done
  # The plugin ABI spec must cover the header, symbol for symbol.  Forward:
  # every macro/type/entry-point identifier and every struct member in
  # src/abi/lisi_abi.h appears in docs/PLUGIN_ABI.md.  Reverse: every ABI
  # identifier the doc names exists in the header (LISI_PLUGIN_PATH is the
  # one deliberate exception — it is the loader's env knob, read via
  # getenv in src/plugin, not an ABI symbol).
  local abi_header=src/abi/lisi_abi.h abi_doc=docs/PLUGIN_ABI.md
  local sym_re='LISI_ABI_[A-Z0-9_]+|LISI_PLUGIN_[A-Z0-9_]+|lisi_abi_[a-z0-9_]+|lisi_plugin_query(_fn)?'
  local hdr_syms hdr_members hdr_fields doc_syms
  hdr_syms=$(grep -hoE "${sym_re}" "${abi_header}" | sort -u)
  hdr_members=$(grep -hoE '\(\*[a-z_]+\)' "${abi_header}" | tr -d '(*)' | sort -u)
  hdr_fields=$(grep -hoE '^\s*(uint32_t|int32_t|double|void\*|const char\*) [a-z_]+;' \
    "${abi_header}" | grep -oE '[a-z_]+;' | tr -d ';' | sort -u)
  for sym in $(printf '%s\n%s\n%s\n' "${hdr_syms}" "${hdr_members}" "${hdr_fields}" | sort -u); do
    if grep -qw "${sym}" "${abi_doc}"; then
      echo "verify: doc sanity: ABI symbol ${sym} is specified in ${abi_doc}"
    else
      echo "verify: FATAL: ${abi_header} exports '${sym}' but ${abi_doc}" \
           "never mentions it" >&2
      fail=1
    fi
  done
  doc_syms=$(grep -hoE "${sym_re}" "${abi_doc}" | sort -u)
  for sym in ${doc_syms}; do
    if grep -qw "${sym}" "${abi_header}"; then
      :
    elif grep -rqE "getenv\(\"${sym}\"\)" src/plugin; then
      :
    else
      echo "verify: FATAL: ${abi_doc} names ABI symbol '${sym}' but" \
           "${abi_header} does not define it" >&2
      fail=1
    fi
  done
  return "${fail}"
}
doc_sanity

# ---- 7. lint (clang-tidy, when available) ------------------------------
# The LISI_LINT gate (CMake + .clang-tidy) is wired but dormant on
# toolchains without clang-tidy.  Probe for the binary the same way the
# sanitizer probes work: run the gate when it can run, and say so by name
# when it cannot — a skip must never look like a pass.
if command -v clang-tidy >/dev/null 2>&1; then
  echo "verify: lint probe: clang-tidy available ($(command -v clang-tidy))"
  cmake -B build-lint -S . -DLISI_LINT=ON
  cmake --build build-lint -j
  echo "verify: lint: clang-tidy gate passed"
else
  echo "verify: lint: SKIPPED — clang-tidy not on PATH; the LISI_LINT" \
       "gate did not run (install clang-tidy to enable it)"
fi

echo "verify: OK"
