#!/usr/bin/env bash
# Sanitized check of a test-label subset, plus a `lint` mode for the static
# gate. Sanitizer modes build the tree with GENDT_SANITIZE=<sanitizer> into a
# per-sanitizer build dir and run the matching ctest labels under it.
# Defaults to the runtime + nn + serialize + serve + gen-parity subset (code
# that shares state across threads, the checkpoint fault-injection corpus,
# the serving engine's chaos sweep plus the registry/router, trace-replay,
# and streaming-daemon suites ("serve" also matches the hyphenated
# serve-replay and serve-stream labels, so the GDTSTRM1 frame fuzz corpus
# and the resume/drain chaos tests run under every sanitizer here), and the
# inference fast path's bitwise-parity suite — these run multi-worker
# batches whose determinism claim is only credible with TSan watching) —
# pass a label regex to vet anything else, e.g.:
#
#   tools/check.sh lint                   # unified static analysis
#                                         # (gendt_lint.py self-test + all
#                                         # rule packs + clang-tidy gate when
#                                         # clang-tidy is installed)
#   tools/check.sh thread                 # TSan over the default subset
#   tools/check.sh undefined              # UBSan (+float-cast-overflow)
#   tools/check.sh address 'serialize'    # ASan over the corruption corpus
#   tools/check.sh leak 'runtime|nn|core' # LSan over a wider subset
#   tools/check.sh hog 'runtime|serve'    # repeat under a CPU hog
#
# `hog` mode builds the plain (unsanitized) tree in build/ and reruns the
# label subset with `ctest --repeat until-fail:10` while one busy-loop
# process per CPU (nproc) competes for every core. Starved workers reorder
# and stretch every interleaving, which shakes out tests that lean on
# timing instead of synchronization. A trap kills the hog processes on
# every exit path, including failures and Ctrl-C.
#
# A label regex that matches zero tests is an error (a typo'd label must not
# pass vacuously).
#
# Usage: tools/check.sh [lint|thread|address|undefined|leak|hog] [label-regex] [build-dir]
set -euo pipefail

SANITIZER="${1:-thread}"
LABEL="${2:-runtime|nn|serialize|serve|gen-parity}"
if [ "$SANITIZER" = "hog" ]; then
  BUILD_DIR="${3:-build}"
else
  BUILD_DIR="${3:-build-${SANITIZER}san}"
fi
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 2)"

if [ "$SANITIZER" = "lint" ]; then
  # Static gate: fixture corpus, then all source rule packs over the tree,
  # then the clang-tidy gate (skipped with a notice when the tool is
  # absent). The tidy build dir defaults to build/ so local runs share the
  # compile_commands.json a plain configure already exported.
  python3 "$ROOT/tools/gendt_lint.py" --self-test
  python3 "$ROOT/tools/gendt_lint.py"
  python3 "$ROOT/tools/gendt_lint.py" --tidy --build-dir "${3:-$ROOT/build}"
  echo "check.sh: lint gate passed"
  exit 0
fi

case "$SANITIZER" in
  thread|address|undefined|leak)
    cmake -B "$ROOT/$BUILD_DIR" -S "$ROOT" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DGENDT_SANITIZE="$SANITIZER" ;;
  hog) cmake -B "$ROOT/$BUILD_DIR" -S "$ROOT" ;;
  *) echo "usage: tools/check.sh [lint|thread|address|undefined|leak|hog] [label-regex] [build-dir]" >&2
     exit 2 ;;
esac
cmake --build "$ROOT/$BUILD_DIR" -j "$JOBS"

# Refuse to "pass" when the label matches nothing.
MATCHED="$(ctest --test-dir "$ROOT/$BUILD_DIR" -N -L "$LABEL" | sed -n 's/^Total Tests: //p')"
if [ -z "$MATCHED" ] || [ "$MATCHED" -eq 0 ]; then
  echo "check.sh: label regex '$LABEL' matches no tests — refusing to pass vacuously" >&2
  exit 3
fi

if [ "$SANITIZER" = "hog" ]; then
  REPEAT=10
  HOGS=()
  stop_hogs() { [ "${#HOGS[@]}" -eq 0 ] || kill "${HOGS[@]}" 2>/dev/null || true; }
  trap stop_hogs EXIT
  trap 'exit 130' INT
  trap 'exit 143' TERM
  for _ in $(seq "$JOBS"); do
    ( while :; do :; done ) &
    HOGS+=("$!")
  done
  ctest --test-dir "$ROOT/$BUILD_DIR" -L "$LABEL" --output-on-failure -j "$JOBS" \
    --repeat "until-fail:$REPEAT"
  echo "check.sh: suite '$LABEL' passed $REPEAT times under a $JOBS-process CPU hog ($MATCHED tests)"
  exit 0
fi

# Fail on any sanitizer report, not just on test assertion failures.
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
ctest --test-dir "$ROOT/$BUILD_DIR" -L "$LABEL" --output-on-failure -j "$JOBS"

echo "check.sh: ${SANITIZER}-sanitized suite '$LABEL' passed ($MATCHED tests)"
