#!/usr/bin/env python3
"""Unified static-analysis driver for the GenDT tree.

One entry point, three source-level rule packs plus the clang-tidy gate:

  determinism   The rules that protect the bitwise-reproducibility contract:
                rand, random-device, wallclock, unseeded-mt19937,
                unordered-iteration, intrinsics. See each rule's message for
                the rationale; the short version is that training,
                generation, and serving are pinned bitwise-identical across
                runs and thread counts, and these are the source patterns
                that silently break that.

  layering      Architecture-layering linter over the `#include` graph of
                src/. Each module under src/<module>/ declares its direct
                dependencies in LAYER_DEPS (mirroring the CMake link graph);
                a module may include headers from any module *beneath* it in
                the transitive closure of that DAG. Rules:
                  layering-undeclared-edge   include of a module that is not
                                             reachable through the declared
                                             DAG (a sideways include)
                  layering-cycle             include that closes a module
                                             cycle (an upward include, e.g.
                                             `#include <gendt/serve/...>`
                                             from an nn TU)
                  layering-undeclared-module a src/<dir> (or gendt/<dir>
                                             include target) missing from
                                             LAYER_DEPS entirely
                  include-path               `..` path segments in an
                                             include — cross-module headers
                                             must use the canonical
                                             gendt/<module>/... form so the
                                             graph stays parseable
                Tests, tools, bench, and examples are exempt: they sit on
                top of every module by design.

  rawmutex      Forbids raw std synchronization primitives (std::mutex,
                std::lock_guard, std::condition_variable, ...) outside
                src/runtime/include/gendt/runtime/mutex.h. libstdc++'s
                std::mutex is not a Clang thread-safety capability, so a raw
                mutex silently escapes -Wthread-safety: GUARDED_BY on state
                it protects is vacuous and lock-order/requires analysis sees
                nothing. All locking goes through the annotated
                runtime::Mutex / MutexLock / CondVar wrappers, which keep
                the whole tree inside the analysis at zero runtime cost.

  rawio         Forbids raw POSIX I/O syscalls (::read, ::write, ::recv,
                ::send and friends) outside src/net/. The net module's
                wrappers retry EINTR, suppress SIGPIPE, and surface partial
                transfers explicitly; a stray raw syscall elsewhere silently
                reintroduces the exact failure modes (signal-interrupted
                reads, SIGPIPE process death, short writes) the streaming
                service is hardened against.

  --tidy        The clang-tidy gate: resolves compile_commands.json from the
                build dir (configuring with CMAKE_EXPORT_COMPILE_COMMANDS=ON
                if needed), runs clang-tidy over every first-party TU in the
                database (src/ + tools/gendt_cli.cpp), and fails on any
                finding (.clang-tidy sets WarningsAsErrors). When clang-tidy
                is not installed the gate is skipped with a notice unless
                --require-tidy is passed; CI treats presence of the tool as
                the opt-in. CLANG_TIDY=<path> overrides the binary.

Scope of the source packs: src/ plus tools/gendt_cli.cpp (the CLI owns the
train-resume path and obeys the same ordering rules as the gradient-reduction
code). Suppress any source-pack finding with a same-line comment:

    // gendt-lint: allow(<rule>[, <rule>...]) <reason>

Usage:
  tools/gendt_lint.py [paths...]                 # all source packs over the
                                                 # default scope
  tools/gendt_lint.py --packs layering,rawmutex  # subset of packs
  tools/gendt_lint.py --json findings.json       # machine-readable findings
  tools/gendt_lint.py --tidy [--build-dir DIR]   # clang-tidy gate
  tools/gendt_lint.py --self-test                # fixture corpus; every rule
                                                 # must fire and every
                                                 # exemption must hold
Exit code 0 = clean, 1 = findings, 2 = usage/self-test/config failure.
"""

import json
import os
import re
import shutil
import subprocess
import sys

# --------------------------------------------------------------------------
# Shared scanning machinery
# --------------------------------------------------------------------------

SOURCE_EXTS = (".cpp", ".cc", ".h", ".hpp")

# Suppression marker: `// gendt-lint: allow(<rule>[, ...]) <reason>`.
ALLOW = re.compile(r"//\s*gendt-lint:\s*allow\((?P<rules>[\w,\s-]+)\)")

SOURCE_PACKS = ("determinism", "layering", "rawmutex", "rawio")


def strip_strings(line):
    """Blank out string/char literals so their contents can't match rules."""
    return re.sub(r'"(?:[^"\\]|\\.)*"|\'(?:[^\'\\]|\\.)*\'', '""', line)


def allowed_rules(line):
    """Rules suppressed on this line."""
    m = ALLOW.search(line)
    return {r.strip() for r in m.group("rules").split(",")} if m else set()


class Finding:
    __slots__ = ("file", "line", "pack", "rule", "message")

    def __init__(self, file, line, pack, rule, message):
        self.file = file
        self.line = line
        self.pack = pack
        self.rule = rule
        self.message = message

    def text(self):
        return f"{self.file}:{self.line}: [{self.rule}] {self.message}"

    def as_dict(self):
        return {"file": self.file, "line": self.line, "pack": self.pack,
                "rule": self.rule, "message": self.message}


# --------------------------------------------------------------------------
# Pack: determinism
# --------------------------------------------------------------------------

DETERMINISM_RULES = [
    (
        "rand",
        re.compile(r"(?<![\w:.])s?rand\s*\("),
        "C rand()/srand() uses hidden global state; derive a stream with "
        "runtime::derive_stream_seed and use std::mt19937_64 instead",
    ),
    (
        "random-device",
        re.compile(r"std::random_device"),
        "std::random_device is a nondeterministic entropy source; seeds must "
        "come from the config",
    ),
    (
        "wallclock",
        re.compile(r"std::chrono::(?:steady_clock|system_clock|high_resolution_clock)::now"),
        "wall-clock reads make model/runtime behavior time-dependent; pass "
        "timestamps in explicitly",
    ),
    (
        # Trailing-underscore identifiers are class members (repo naming
        # convention): those are seeded in constructor init lists, so only
        # default-constructed locals/globals are flagged.
        "unseeded-mt19937",
        re.compile(r"std::mt19937(?:_64)?\s+\w*[^_\W]\s*(?:;|\{\s*\})"),
        "default-constructed mt19937 silently ignores the configured seed; "
        "construct it from a derive_stream_seed value",
    ),
]

# Paths (directories or single files) whose code must keep a stable iteration
# order: gradient-reduction paths (src/nn, src/core — including the tape-free
# fast path, whose bitwise parity with the Tensor graph needs the same stable
# accumulation and RNG-draw order), the serving layer (fault-plan lookups and
# outcome digests must not depend on hash-table iteration order), and the
# CLI's checkpoint writer (record order decides the file bytes/CRC).
ORDER_SENSITIVE_PATHS = ("src/nn", "src/core", "src/serve", "tools/gendt_cli.cpp")

# The only files allowed to use x86 intrinsics: the AVX2 and AVX-512 kernel
# TUs behind the gendt::nn::simd dispatch table (each built with file-local
# ISA flags).
INTRINSICS_EXEMPT = ("src/nn/kernels_avx2.cpp", "src/nn/kernels_avx512.cpp")
INTRINSICS = re.compile(
    r"(?<![\w])_mm(?:\d{3})?_\w+\s*\("      # _mm_*, _mm256_*, _mm512_* calls
    r"|(?<![\w])__m\d{3}[di]?(?![\w])"      # __m128/__m256d/__m512i vector types
    r"|(?<![\w])__mmask\d{1,2}(?![\w])"     # AVX-512 lane masks
    r"|#\s*include\s*[<\"](?:imm|x86)intrin\.h[>\"]")
INTRINSICS_MSG = (
    "x86 intrinsics outside src/nn/kernels_avx{2,512}.cpp; vector code must "
    "sit behind the gendt::nn::simd kernel table so the scalar route stays "
    "the bitwise determinism anchor")

UNORDERED_DECL = re.compile(r"std::unordered_(?:map|set)\s*<[^;{}()]*?>\s+(\w+)")
RANGE_FOR = re.compile(r"for\s*\([^;)]*?:\s*&?(\w+)\s*\)")


# --------------------------------------------------------------------------
# Pack: layering
# --------------------------------------------------------------------------

# Declared direct dependencies of every src/<module>, mirroring the CMake
# target_link_libraries graph (docs/ARCHITECTURE.md "Module layering" renders
# the same DAG). A module may #include headers of any module in the
# *transitive closure* of its declared deps — public headers leak their own
# includes, so direct use of an indirect dependency is layering-clean. What
# the linter rejects is a sideways edge (not reachable) or an upward edge
# (one that closes a cycle). Editing this table is an architecture decision:
# update the ARCHITECTURE.md diagram in the same change.
LAYER_DEPS = {
    "runtime": (),
    "geo": (),
    "metrics": (),
    "nn": ("runtime",),
    "radio": ("geo",),
    "sim": ("geo", "radio"),
    "context": ("nn", "sim"),
    "core": ("nn", "context", "metrics"),
    "io": ("core",),
    "baselines": ("core",),
    "downstream": ("nn", "sim", "metrics", "core", "context"),
    # net is the portable socket/poll I/O layer under the streaming service;
    # it sits just above runtime (CancelToken-aware transfer loops).
    "net": ("runtime",),
    # serve -> sim is the trace-replay harness generating load from simulated
    # user trajectories; serve -> net carries the GDTSTRM1 streaming daemon
    # (both mirror src/serve/CMakeLists.txt).
    "serve": ("core", "sim", "net"),
}

GENDT_INCLUDE = re.compile(r'#\s*include\s*[<"]gendt/([A-Za-z0-9_]+)/')
DOTDOT_INCLUDE = re.compile(r'#\s*include\s*[<"][^">]*(?:^|/)?\.\./')


def layer_closure(deps):
    """module -> set of modules reachable through declared direct deps."""
    closure = {}

    def reach(mod, stack):
        if mod in closure:
            return closure[mod]
        if mod in stack:  # declared cycle: reported by validate_layer_deps
            return set()
        stack = stack | {mod}
        out = set()
        for d in deps.get(mod, ()):
            out.add(d)
            out |= reach(d, stack)
        closure[mod] = out
        return out

    for m in deps:
        reach(m, frozenset())
    return closure


def validate_layer_deps(deps):
    """The declared graph itself must be a DAG over known modules."""
    errors = []
    for mod, ds in deps.items():
        for d in ds:
            if d not in deps:
                errors.append(f"LAYER_DEPS[{mod!r}] names unknown module {d!r}")
    # Cycle check via DFS coloring.
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {m: WHITE for m in deps}

    def dfs(mod, path):
        color[mod] = GRAY
        for d in deps.get(mod, ()):
            if d not in color:
                continue
            if color[d] == GRAY:
                cyc = path[path.index(d):] + [d] if d in path else [mod, d]
                errors.append("declared layer DAG has a cycle: " + " -> ".join(cyc + [cyc[0]] if cyc[-1] != cyc[0] else cyc))
            elif color[d] == WHITE:
                dfs(d, path + [d])
        color[mod] = BLACK

    for m in deps:
        if color[m] == WHITE:
            dfs(m, [m])
    return errors


def module_of(rel_posix):
    """src/<module>/... -> module name, else None (tools/tests are exempt)."""
    parts = rel_posix.split("/")
    if len(parts) >= 3 and parts[0] == "src":
        return parts[1]
    return None


def find_cycle_path(edges, start, end):
    """Shortest module path start -> ... -> end through `edges` (BFS)."""
    frontier = [[start]]
    seen = {start}
    while frontier:
        nxt = []
        for path in frontier:
            for d in sorted(edges.get(path[-1], ())):
                if d == end:
                    return path + [d]
                if d not in seen:
                    seen.add(d)
                    nxt.append(path + [d])
        frontier = nxt
    return [start, "...", end]


def layering_postprocess(include_records):
    """Turn collected include records into layering findings.

    include_records: list of (rel, lineno, from_mod, to_mod, allow_set).
    Only called for in-scope (src/<module>/) files.
    """
    findings = []
    closure = layer_closure(LAYER_DEPS)

    # Observed module graph (for cycle/reachability): declared edges plus
    # every edge seen in the tree, so a single bad include is judged against
    # the graph it would create.
    observed = {m: set(ds) for m, ds in LAYER_DEPS.items()}
    for _rel, _ln, frm, to, _allow in include_records:
        if frm in observed and to in LAYER_DEPS:
            observed.setdefault(frm, set()).add(to)

    reach_cache = {}

    def reaches(src, dst):
        """True if dst is reachable from src in the observed graph."""
        key = src
        if key not in reach_cache:
            seen = set()
            stack = [src]
            while stack:
                m = stack.pop()
                for d in observed.get(m, ()):
                    if d not in seen:
                        seen.add(d)
                        stack.append(d)
            reach_cache[key] = seen
        return dst in reach_cache[key]

    for rel, lineno, frm, to, allow in include_records:
        if frm == to:
            continue
        if frm not in LAYER_DEPS:
            if "layering-undeclared-module" not in allow:
                findings.append(Finding(
                    rel, lineno, "layering", "layering-undeclared-module",
                    f"src module '{frm}' is not declared in the layer DAG; "
                    "add it to LAYER_DEPS in tools/gendt_lint.py and to the "
                    "ARCHITECTURE.md module-layering diagram"))
            continue
        if to not in LAYER_DEPS:
            if "layering-undeclared-module" not in allow:
                findings.append(Finding(
                    rel, lineno, "layering", "layering-undeclared-module",
                    f"include of unknown module 'gendt/{to}/...'; declare it "
                    "in LAYER_DEPS in tools/gendt_lint.py and in the "
                    "ARCHITECTURE.md module-layering diagram"))
            continue
        if to in closure[frm]:
            continue  # declared (possibly transitive) downward edge
        # The edge is undeclared. If the *target* can already reach us, this
        # include closes a module cycle — an upward edge through the DAG.
        if reaches(to, frm):
            if "layering-cycle" in allow:
                continue
            back = find_cycle_path(observed, to, frm)
            cyc = " -> ".join([frm] + back)
            findings.append(Finding(
                rel, lineno, "layering", "layering-cycle",
                f"include of gendt/{to}/ from module '{frm}' closes the "
                f"module cycle {cyc}; '{to}' sits above '{frm}' in the "
                "declared layer DAG — invert the dependency or move the "
                "shared code below both"))
        else:
            if "layering-undeclared-edge" in allow:
                continue
            findings.append(Finding(
                rel, lineno, "layering", "layering-undeclared-edge",
                f"module '{frm}' does not declare a dependency on '{to}' "
                "(directly or transitively); if the edge is intended, add it "
                "to LAYER_DEPS in tools/gendt_lint.py, the CMake "
                "target_link_libraries, and the ARCHITECTURE.md diagram"))
    return findings


# --------------------------------------------------------------------------
# Pack: rawmutex
# --------------------------------------------------------------------------

# The single file allowed to name the std synchronization types: the
# annotated wrapper that puts them behind Clang thread-safety capabilities.
RAWMUTEX_EXEMPT = "src/runtime/include/gendt/runtime/mutex.h"
RAW_MUTEX = re.compile(
    r"std::(?:recursive_|timed_|recursive_timed_|shared_|shared_timed_)?mutex\b"
    r"|std::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|std::condition_variable(?:_any)?\b"
    r"|#\s*include\s*[<\"](?:mutex|shared_mutex|condition_variable)[>\"]")
RAW_MUTEX_MSG = (
    "raw std synchronization primitive outside runtime/mutex.h; use the "
    "annotated runtime::Mutex / MutexLock / CondVar wrappers so GUARDED_BY/"
    "REQUIRES keep the state inside Clang's -Wthread-safety analysis")


# --------------------------------------------------------------------------
# Pack: rawio
# --------------------------------------------------------------------------

# The module allowed to issue raw POSIX I/O syscalls: src/net, whose wrappers
# (read_some/write_some/write_all/read_exact) own the EINTR/SIGPIPE/partial-
# transfer discipline for the whole tree.
RAWIO_EXEMPT_PREFIX = "src/net/"
RAW_IO = re.compile(
    r"::\s*(?:read|write|recv|send|recvfrom|sendto|recvmsg|sendmsg|readv|writev)\s*\(")
RAW_IO_MSG = (
    "raw POSIX I/O syscall outside src/net/; use the gendt::net wrappers "
    "(read_some/write_some/write_all/read_exact), which retry EINTR, "
    "suppress SIGPIPE, and surface partial transfers explicitly")


# --------------------------------------------------------------------------
# File scanning (single pass shared by all source packs)
# --------------------------------------------------------------------------

def scan_file(path, rel, packs):
    """Scan one file. Returns (findings, include_records).

    include_records feed the layering pack's whole-graph pass; they are only
    collected for files under src/<module>/.
    """
    findings = []
    include_records = []
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
    except OSError as e:
        return [Finding(rel, 0, "driver", "io", f"cannot read file: {e}")], []

    rel_posix = rel.replace("\\", "/")
    mod = module_of(rel_posix)
    order_sensitive = any(
        rel_posix == p or rel_posix.startswith(p + "/")
        for p in ORDER_SENSITIVE_PATHS
    )

    unordered_vars = set()
    if "determinism" in packs and order_sensitive:
        for line in lines:
            for m in UNORDERED_DECL.finditer(strip_strings(line)):
                unordered_vars.add(m.group(1))

    in_block_comment = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2:]
            in_block_comment = False
        start = line.find("/*")
        if start >= 0 and line.find("*/", start) < 0:
            in_block_comment = True
            line = line[:start]
        allow = allowed_rules(raw)
        code = strip_strings(line)
        # Line comments can mention the patterns freely.
        code = code.split("//")[0]
        # Include paths are string literals, so the layering pack matches
        # against the comment-stripped (not string-stripped) text.
        inc_code = line.split("//")[0]

        if "determinism" in packs:
            for rule, rx, msg in DETERMINISM_RULES:
                if rx.search(code) and rule not in allow:
                    findings.append(Finding(rel, lineno, "determinism", rule, msg))
            if (rel_posix not in INTRINSICS_EXEMPT and "intrinsics" not in allow
                    and INTRINSICS.search(code)):
                findings.append(
                    Finding(rel, lineno, "determinism", "intrinsics", INTRINSICS_MSG))
            if order_sensitive and "unordered-iteration" not in allow:
                m = RANGE_FOR.search(code)
                if m and m.group(1) in unordered_vars:
                    findings.append(Finding(
                        rel, lineno, "determinism", "unordered-iteration",
                        f"range-for over unordered container '{m.group(1)}' in a "
                        "gradient-reduction path; iterate a sorted/indexed view "
                        "so float accumulation order is stable"))

        if "rawmutex" in packs:
            if (rel_posix != RAWMUTEX_EXEMPT and "raw-mutex" not in allow
                    and RAW_MUTEX.search(code)):
                findings.append(
                    Finding(rel, lineno, "rawmutex", "raw-mutex", RAW_MUTEX_MSG))

        if "rawio" in packs:
            if (not rel_posix.startswith(RAWIO_EXEMPT_PREFIX)
                    and "raw-io" not in allow and RAW_IO.search(code)):
                findings.append(
                    Finding(rel, lineno, "rawio", "raw-io", RAW_IO_MSG))

        if "layering" in packs and mod is not None:
            if DOTDOT_INCLUDE.search(inc_code) and "include-path" not in allow:
                findings.append(Finding(
                    rel, lineno, "layering", "include-path",
                    "'..' path segment in an include; cross-module headers "
                    "must use the canonical gendt/<module>/... form so the "
                    "layer graph stays parseable"))
            m = GENDT_INCLUDE.search(inc_code)
            if m:
                include_records.append((rel, lineno, mod, m.group(1), allow))

    return findings, include_records


def scan_paths(root, paths, packs):
    findings = []
    include_records = []
    scanned = 0
    for base in paths:
        if os.path.isfile(base):
            f, inc = scan_file(base, os.path.relpath(base, root), packs)
            findings.extend(f)
            include_records.extend(inc)
            scanned += 1
            continue
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if not name.endswith(SOURCE_EXTS):
                    continue
                full = os.path.join(dirpath, name)
                rel = os.path.relpath(full, root)
                f, inc = scan_file(full, rel, packs)
                findings.extend(f)
                include_records.extend(inc)
                scanned += 1
    if "layering" in packs:
        findings.extend(layering_postprocess(include_records))
    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return findings, scanned


# --------------------------------------------------------------------------
# clang-tidy gate
# --------------------------------------------------------------------------

def first_party_tus(root, build_dir):
    """First-party TUs present in the build dir's compile_commands.json."""
    db_path = os.path.join(build_dir, "compile_commands.json")
    with open(db_path, encoding="utf-8") as f:
        db = json.load(f)
    src_prefix = os.path.join(root, "src") + os.sep
    cli = os.path.join(root, "tools", "gendt_cli.cpp")
    files = set()
    for entry in db:
        path = os.path.normpath(os.path.join(entry.get("directory", ""), entry["file"]))
        if path.startswith(src_prefix) or path == cli:
            files.add(path)
    return sorted(files)


def run_tidy(root, build_dir, require, jobs):
    """Run the clang-tidy gate. Returns a process exit code."""
    tidy = shutil.which(os.environ.get("CLANG_TIDY", "clang-tidy"))
    if tidy is None:
        if require:
            print("gendt_lint --tidy: clang-tidy not found and --require-tidy "
                  "set", file=sys.stderr)
            return 2
        print("gendt_lint --tidy: clang-tidy not installed — skipping the "
              "tidy gate (install clang-tidy to enforce .clang-tidy; CI "
              "treats tool presence as the opt-in)")
        return 0

    db_path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.exists(db_path):
        # The toplevel CMakeLists sets CMAKE_EXPORT_COMPILE_COMMANDS, but an
        # older build dir may predate it; (re)configure with the flag forced.
        print(f"gendt_lint --tidy: exporting compile commands into {build_dir}")
        cfg = subprocess.run(
            ["cmake", "-B", build_dir, "-S", root,
             "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON"],
            stdout=subprocess.DEVNULL)
        if cfg.returncode != 0 or not os.path.exists(db_path):
            print(f"gendt_lint --tidy: cannot produce {db_path}", file=sys.stderr)
            return 2

    files = first_party_tus(root, build_dir)
    if not files:
        print("gendt_lint --tidy: no first-party TUs in compile_commands.json",
              file=sys.stderr)
        return 2

    # run-clang-tidy parallelizes across TUs; fall back to plain clang-tidy.
    runner = shutil.which("run-clang-tidy")
    if runner is not None:
        cmd = [runner, "-p", build_dir, "-quiet", "-j", str(jobs),
               "-clang-tidy-binary", tidy]
        cmd += [re.escape(f) + "$" for f in files]
    else:
        cmd = [tidy, "-p", build_dir, "--quiet"] + files
    print(f"gendt_lint --tidy: {len(files)} TUs via "
          f"{os.path.basename(cmd[0])} (.clang-tidy WarningsAsErrors gate)")
    proc = subprocess.run(cmd)
    if proc.returncode != 0:
        print("gendt_lint --tidy: clang-tidy gate FAILED", file=sys.stderr)
        return 1
    print("gendt_lint --tidy: clean")
    return 0


# --------------------------------------------------------------------------
# Self-test fixtures
# --------------------------------------------------------------------------

def _write(root, rel, content):
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(content)
    return path


def _expect(label, findings, rule, want, errors):
    hits = [f for f in findings if f.rule == rule]
    if want and not hits:
        errors.append(f"{label}: rule '{rule}' did not fire")
    if not want and hits:
        errors.append(f"{label}: rule '{rule}' fired unexpectedly: "
                      + "; ".join(h.text() for h in hits))


def self_test(packs):
    import tempfile

    errors = []

    if "determinism" in packs:
        cases = {
            "rand": "int x = rand();\n",
            "random-device": "std::random_device rd;\n",
            "wallclock": "auto t = std::chrono::steady_clock::now();\n",
            "unseeded-mt19937": "std::mt19937_64 rng;\n",
            "unordered-iteration":
                "std::unordered_map<const void*, Mat> grads;\n"
                "void reduce() { for (const auto& kv : grads) use(kv); }\n",
            "intrinsics":
                "#include <immintrin.h>\n"
                "__m256d v = _mm256_mul_pd(a, b);\n",
        }
        clean = (
            "std::mt19937_64 rng(derive_stream_seed(seed, w));\n"
            "std::mt19937_64 rng_;  // member decl, seeded in the ctor init list\n"
            "std::unordered_map<const void*, Mat> grads;\n"
            "for (const auto& p : params) apply(grads.at(p.id()));\n"
            "int y = rand();  // gendt-lint: allow(rand) unified marker\n"
        )
        with tempfile.TemporaryDirectory() as tmp:
            for rule, snippet in cases.items():
                rel = f"src/nn/case_{rule.replace('-', '_')}.cpp"
                path = _write(tmp, rel, snippet)
                found, _ = scan_paths(tmp, [os.path.join(tmp, "src")],
                                      {"determinism"})
                _expect(f"determinism[{rule}]", found, rule, True, errors)
                os.remove(path)
            _write(tmp, "src/nn/clean.cpp", clean)
            # The sanctioned intrinsics TUs must NOT fire the rule.
            _write(tmp, "src/nn/kernels_avx2.cpp",
                   "#include <immintrin.h>\n__m256d v = _mm256_setzero_pd();\n")
            _write(tmp, "src/nn/kernels_avx512.cpp",
                   "#include <immintrin.h>\n__m512d v = _mm512_setzero_pd();\n"
                   "__mmask8 m = 0x0f;\n")
            found, _ = scan_paths(tmp, [os.path.join(tmp, "src")], {"determinism"})
            for f in found:
                errors.append(f"determinism[clean]: false positive {f.text()}")

    if "layering" in packs:
        # Fixture groups scan in isolated trees: a seeded bad edge changes
        # the observed graph, so mixing groups would reclassify each other's
        # edges (exactly what the observed-graph design is for).
        with tempfile.TemporaryDirectory() as tmp:
            # Seeded upward include (the CI acceptance fixture): an nn TU
            # pulling in serve closes serve -> core -> nn -> serve.
            _write(tmp, "src/nn/bad_upward.cpp",
                   "#include <gendt/serve/engine.h>\n")
            # Legitimate downward + transitive edges: never flagged.
            _write(tmp, "src/serve/good.cpp",
                   '#include "gendt/core/model.h"\n'
                   '#include "gendt/runtime/mutex.h"\n')
            found, _ = scan_paths(tmp, [os.path.join(tmp, "src")], {"layering"})
            _expect("layering", found, "layering-cycle", True, errors)
            for f in found:
                if f.file.endswith("good.cpp"):
                    errors.append(f"layering[clean]: false positive {f.text()}")
                # The upward fixture is blamed on the nn TU, not on serve.
                if f.rule == "layering-cycle" and "bad_upward" not in f.file:
                    errors.append(f"layering[cycle]: blamed wrong file {f.text()}")
        with tempfile.TemporaryDirectory() as tmp:
            # Sideways include: sim does not (and must not) depend on nn.
            _write(tmp, "src/sim/bad_sideways.cpp",
                   '#include "gendt/nn/mat.h"\n')
            # Suppressed line: no finding.
            _write(tmp, "src/sim/suppressed.cpp",
                   '#include "gendt/nn/mat.h"  '
                   "// gendt-lint: allow(layering-undeclared-edge) fixture\n")
            found, _ = scan_paths(tmp, [os.path.join(tmp, "src")], {"layering"})
            _expect("layering", found, "layering-undeclared-edge", True, errors)
            for f in found:
                if f.file.endswith("suppressed.cpp"):
                    errors.append(f"layering[clean]: false positive {f.text()}")
        with tempfile.TemporaryDirectory() as tmp:
            # Undeclared module on both ends; relative-path include.
            _write(tmp, "src/mystery/new_module.cpp",
                   '#include "gendt/geo/geo.h"\n')
            _write(tmp, "src/geo/bad_unknown.cpp",
                   '#include "gendt/mystery/thing.h"\n')
            _write(tmp, "src/radio/bad_path.cpp",
                   '#include "../geo/include/gendt/geo/geo.h"\n')
            found, _ = scan_paths(tmp, [os.path.join(tmp, "src")], {"layering"})
            _expect("layering", found, "layering-undeclared-module", True, errors)
            _expect("layering", found, "include-path", True, errors)
            unknown = [f for f in found if f.rule == "layering-undeclared-module"]
            if len(unknown) != 2:
                errors.append("layering: expected undeclared-module findings on "
                              f"both ends, got {[f.text() for f in unknown]}")

    if "rawmutex" in packs:
        with tempfile.TemporaryDirectory() as tmp:
            _write(tmp, "src/core/bad_mutex.cpp",
                   "#include <mutex>\n"
                   "std::mutex mu;\n"
                   "void f() { std::lock_guard<std::mutex> g(mu); }\n"
                   "std::condition_variable cv;\n")
            # The annotated wrapper itself is the one sanctioned user.
            _write(tmp, RAWMUTEX_EXEMPT,
                   "#include <mutex>\n#include <condition_variable>\n"
                   "class Mutex { std::mutex mu_; };\n")
            _write(tmp, "src/serve/suppressed.cpp",
                   "std::mutex special_;  "
                   "// gendt-lint: allow(raw-mutex) fixture\n")
            _write(tmp, "src/serve/clean.cpp",
                   '#include "gendt/runtime/mutex.h"\n'
                   "void f(runtime::Mutex& mu) { runtime::MutexLock lock(mu); }\n")
            found, _ = scan_paths(tmp, [os.path.join(tmp, "src")], {"rawmutex"})
            _expect("rawmutex", found, "raw-mutex", True, errors)
            bad_lines = {f.line for f in found if f.file.endswith("bad_mutex.cpp")}
            if bad_lines != {1, 2, 3, 4}:
                errors.append(f"rawmutex: expected findings on lines 1-4 of "
                              f"bad_mutex.cpp, got {sorted(bad_lines)}")
            for f in found:
                if RAWMUTEX_EXEMPT.replace("/", os.sep) in f.file or \
                        f.file.endswith("suppressed.cpp") or f.file.endswith("clean.cpp"):
                    errors.append(f"rawmutex[clean]: false positive {f.text()}")

    if "rawio" in packs:
        with tempfile.TemporaryDirectory() as tmp:
            _write(tmp, "src/serve/bad_io.cpp",
                   "void f(int fd) { char b[8]; ::read(fd, b, 8); }\n"
                   "void g(int fd) { ::send(fd, nullptr, 0, 0); }\n")
            # src/net owns the raw syscalls; wrappers there are sanctioned.
            _write(tmp, "src/net/io.cpp",
                   "long rs(int fd, void* b, unsigned long n) "
                   "{ return ::read(fd, b, n); }\n")
            _write(tmp, "src/serve/suppressed_io.cpp",
                   "void h(int fd) { ::write(fd, nullptr, 0); }  "
                   "// gendt-lint: allow(raw-io) fixture\n")
            _write(tmp, "src/serve/clean_io.cpp",
                   '#include "gendt/net/io.h"\n'
                   "bool ok(int fd) { return net::write_all(fd, nullptr, 0); }\n")
            found, _ = scan_paths(tmp, [os.path.join(tmp, "src")], {"rawio"})
            _expect("rawio", found, "raw-io", True, errors)
            bad_lines = {f.line for f in found if f.file.endswith("bad_io.cpp")}
            if bad_lines != {1, 2}:
                errors.append(f"rawio: expected findings on lines 1-2 of "
                              f"bad_io.cpp, got {sorted(bad_lines)}")
            for f in found:
                if (os.sep + "net" + os.sep in f.file
                        or f.file.endswith("suppressed_io.cpp")
                        or f.file.endswith("clean_io.cpp")):
                    errors.append(f"rawio[clean]: false positive {f.text()}")

    # Config sanity: the declared DAG itself must validate.
    dag_errors = validate_layer_deps(LAYER_DEPS)
    errors.extend(f"LAYER_DEPS: {e}" for e in dag_errors)

    # JSON output round-trips.
    f = Finding("src/x.cpp", 3, "rawmutex", "raw-mutex", "msg")
    if json.loads(json.dumps(f.as_dict()))["rule"] != "raw-mutex":
        errors.append("json: finding did not round-trip")

    for e in errors:
        print(f"self-test FAILED: {e}", file=sys.stderr)
    print("gendt_lint self-test:", "ok" if not errors else "FAILED",
          f"(packs: {', '.join(sorted(packs))})")
    return 0 if not errors else 2


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def usage(err=None):
    if err:
        print(f"gendt_lint: {err}", file=sys.stderr)
    print(__doc__.split("Usage:")[1].strip(), file=sys.stderr)
    return 2


def main(argv):
    packs = set(SOURCE_PACKS)
    json_out = None
    tidy = False
    require_tidy = False
    self_test_mode = False
    build_dir = None
    jobs = os.cpu_count() or 2
    paths = []

    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--self-test":
            self_test_mode = True
        elif arg == "--tidy":
            tidy = True
        elif arg == "--require-tidy":
            require_tidy = True
        elif arg == "--packs":
            i += 1
            if i >= len(argv):
                return usage("--packs needs a comma-separated list")
            packs = {p.strip() for p in argv[i].split(",") if p.strip()}
            bad = packs - set(SOURCE_PACKS)
            if bad:
                return usage(f"unknown pack(s): {', '.join(sorted(bad))} "
                             f"(known: {', '.join(SOURCE_PACKS)})")
        elif arg == "--json":
            i += 1
            if i >= len(argv):
                return usage("--json needs a file path")
            json_out = argv[i]
        elif arg == "--build-dir":
            i += 1
            if i >= len(argv):
                return usage("--build-dir needs a directory")
            build_dir = argv[i]
        elif arg.startswith("-"):
            return usage(f"unknown option {arg}")
        else:
            paths.append(arg)
        i += 1

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    if self_test_mode:
        return self_test(packs)

    if tidy:
        return run_tidy(root, build_dir or os.path.join(root, "build"),
                        require_tidy, jobs)

    paths = [os.path.abspath(p) for p in paths] or [
        os.path.join(root, "src"),
        os.path.join(root, "tools", "gendt_cli.cpp"),
    ]
    for p in paths:
        if not os.path.exists(p):
            print(f"gendt_lint: no such file or directory: {p}", file=sys.stderr)
            return 2

    findings, scanned = scan_paths(root, paths, packs)
    for f in findings:
        print(f.text())
    if json_out:
        payload = {
            "packs": sorted(packs),
            "scanned_files": scanned,
            "findings": [f.as_dict() for f in findings],
        }
        with open(json_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    label = "+".join(sorted(packs))
    if findings:
        print(f"gendt_lint[{label}]: {len(findings)} finding(s) in "
              f"{scanned} files")
        return 1
    print(f"gendt_lint[{label}]: clean ({scanned} files scanned)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
