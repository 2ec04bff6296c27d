#!/usr/bin/env python3
"""Throw-graph lint: machine-checked error-path discipline for src/.

The single source of truth is src/common/error_policy.h — the declared
exception taxonomy (which types exist, which module owns each, which
modules may throw it) and the declared catch boundaries (the only places
a taxonomy-wide catch or `catch (...)` is legal). This lint parses that
header plus all of src/ into a function-level throw/catch/noexcept graph
and enforces:

  untyped-throw       every `throw <Type>(...)` constructs a declared
                      taxonomy type; ad-hoc `throw std::runtime_error`
                      escapes are findings (`throw;` rethrow is exempt —
                      it only forwards an already-typed exception)
  cross-module-throw  a type may only be thrown from the modules its
                      declaration allows ("*" = anywhere): WireError
                      stays in src/service, MetricsParseError in
                      src/obs, and so on
  throwing-dtor       destructors and move constructors/assignments are
                      TRANSITIVELY throw-free: a conservative call-graph
                      fixpoint over every function in src/, where the
                      DEFRAG_CHECK fatal path (check_failed, the
                      lock-order validator's note_acquire) is exempt —
                      an invariant failure in a destructor is a bug
                      report, not an error path
  noexcept-required   every user-written destructor and move operation
                      is declared noexcept (or = default / = delete), so
                      the compiler enforces at runtime what the graph
                      proves statically
  thread-boundary     every thread spawn site (std::thread construction,
                      emplace into a std::vector<std::thread> member)
                      carries a `// throw-graph: boundary=<Name>`
                      annotation naming a declared CatchBoundary; each
                      "catch"-kind boundary function really catches the
                      full taxonomy (CheckFailure + std::exception, or a
                      bare catch-all); declared boundaries that nothing
                      references are stale
  catch-all           `catch (...)` appears only with a declared-boundary
                      annotation — the blanket handler ban, turned from a
                      per-site waiver into policy
  failpoint           DEFRAG_FAILPOINT names are well-formed
                      ("module.site"), unique, EXERCISED by at least one
                      test (tests/ or tools/*.sh) — an uninjected
                      failpoint is an unproven error path — and no test
                      arms a name that no site registers (stale)
  stale-waiver        every `// throw-graph: allow=<check>` comment must
                      have suppressed a finding this run

Waivers: `// throw-graph: allow=<check> — justification` on the finding
line or the line above. Spawn-site annotations use
`// throw-graph: boundary=<Name>` on the spawn line or up to two lines
above. tools/defrag_lint.py cross-validates both comment forms' names.

The call-graph analysis is deliberately conservative-but-pragmatic (this
is a lint, not a compiler): callees are resolved same-class first, then
by unique global name; unresolvable calls (libc via `::`, ambiguous
names, std:: machinery) are assumed non-throwing. The seeded --self-test
fixtures pin every rule's reject behavior, and ctest runs both the
fixtures (`throw_graph_selftest`) and the full-tree scan
(`throw_graph_lint`).

Exit codes: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import re
import sys
from pathlib import Path

from cpp_scan import strip_comments_and_strings as strip_comments

REPO = Path(__file__).resolve().parent.parent

CHECK_NAMES = ("untyped-throw", "cross-module-throw", "throwing-dtor",
               "noexcept-required", "thread-boundary", "catch-all",
               "failpoint", "stale-waiver")

# Files implementing the fatal-path / fault-injection machinery itself:
# their throws ARE the mechanism the rest of the tree is checked against.
EXCLUDED = {
    "common/check.h",
    "common/sync.h",
    "common/sync.cpp",
    "common/lock_order.h",
    "common/error_policy.h",
    "common/failpoint.h",
    "common/failpoint.cpp",
}

# Calls on the approved fatal path: they throw CheckFailure by design and
# are legal anywhere, including destructors (terminate-on-invariant is the
# intended behavior there).
FATAL_PATH_CALLS = {
    "DEFRAG_CHECK", "DEFRAG_CHECK_MSG", "DEFRAG_DCHECK", "check_failed",
    "note_acquire", "note_release",
}

CPP_KEYWORDS = {
    "if", "for", "while", "switch", "do", "else", "try", "catch", "return",
    "sizeof", "alignof", "decltype", "new", "delete", "throw", "assert",
    "defined", "static_assert", "alignas", "typeid", "co_await", "co_yield",
    "co_return", "noexcept", "requires",
}

ERROR_DECL_RE = re.compile(
    r'inline\s+constexpr\s+ErrorClass\s+k\w+\s*\{\s*"(\w+)"\s*,'
    r'\s*"(\w+)"\s*,\s*"([\w,*]+)"')
BOUNDARY_DECL_RE = re.compile(
    r'inline\s+constexpr\s+CatchBoundary\s+k\w+\s*\{\s*"([\w:]+)"\s*,'
    r'\s*"([\w.]+)"\s*,\s*"(\w+)"')
BOUNDARY_ANNOT_RE = re.compile(r"throw-graph:\s*boundary=([\w:]+)")
WAIVER_RE = re.compile(r"throw-graph:\s*allow=([a-z-]+)")
THROW_RE = re.compile(r"\bthrow\s+([A-Za-z_][\w:]*)\s*[({]")
FAILPOINT_RE = re.compile(r'DEFRAG_FAILPOINT\s*\(\s*"([^"]*)"\s*\)')
FAILPOINT_NAME_RE = re.compile(r"^[a-z0-9_]+\.[a-z0-9_]+$")
CATCH_ALL_RE = re.compile(r"catch\s*\(\s*\.\.\.\s*\)")
CALL_RE = re.compile(r"((?:\w+::)*~?[A-Za-z_]\w*)\s*\(")
THREAD_CTOR_RE = re.compile(r"\bstd::thread\s*\(\s*\[")
THREAD_VEC_RE = re.compile(r"std::vector<\s*std::thread\s*>\s+(\w+)")


class Function:
    """One function definition: qualified name, body text, start line."""

    def __init__(self, name, body, line):
        self.name = name        # as written, e.g. "ContainerStore::flush"
        self.body = body
        self.line = line
        self.last = name.rsplit("::", 1)[-1]
        self.cls = name.rsplit("::", 1)[0] if "::" in name else ""


# Tail after the parameter list that still reads as a definition header:
# cv/ref/noexcept/override, thread-safety macros, trailing return, ctor
# init list.
_TAIL_RE = re.compile(
    r"^(?:\s|const\b|noexcept(?:\([^()]*\))?|override\b|final\b|try\b|"
    r"mutable\b|&&?|DEFRAG_\w+(?:\((?:[^()]|\([^()]*\))*\))?|"
    r"->\s*[\w:<>,\s*&]+|:.*)*$", re.DOTALL)
_CONTROL_RE = re.compile(r"^\s*(?:if|for|while|switch|do|else|try|catch)\b")


def _header_function_name(header):
    """Function name if `header` (text before a `{`) is a definition."""
    if _CONTROL_RE.match(header) or ";" in header:
        return None
    for m in CALL_RE.finditer(header):
        name = m.group(1)
        if name.rsplit("::", 1)[-1] in CPP_KEYWORDS:
            continue
        # Find the matching close paren of the parameter list.
        depth = 0
        j = m.end() - 1
        while j < len(header):
            if header[j] == "(":
                depth += 1
            elif header[j] == ")":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        if depth != 0:
            return None
        tail = header[j + 1:]
        if _TAIL_RE.match(tail):
            return name
        return None
    return None


def extract_functions(stripped):
    """Parse comment/string-stripped C++ into Function records.

    Brace-matching heuristic: at every `{`, the accumulated header (text
    since the last `;`/`{`/`}`) is tested for a definition signature; a
    match captures the full balanced body (member functions inside class
    bodies are found because class headers don't match and we descend)."""
    funcs = []
    header_start = 0
    i, n = 0, len(stripped)
    while i < n:
        c = stripped[i]
        if c in ";}":
            header_start = i + 1
            i += 1
            continue
        if c != "{":
            i += 1
            continue
        header = stripped[header_start:i]
        name = _header_function_name(header)
        if name is None:
            header_start = i + 1
            i += 1
            continue
        depth = 0
        j = i
        while j < n:
            if stripped[j] == "{":
                depth += 1
            elif stripped[j] == "}":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        body = stripped[i + 1:j]
        line = stripped.count("\n", 0, i) + 1
        funcs.append(Function(name, body, line))
        header_start = j + 1
        i = j + 1
    return funcs


def src_files(root):
    src = root / "src"
    if not src.is_dir():
        return
    for path in sorted(src.rglob("*")):
        if path.suffix in (".h", ".cpp") and \
                str(path.relative_to(src)) not in EXCLUDED:
            yield path


def test_files(root):
    for sub in ("tests", "tools"):
        d = root / sub
        if not d.is_dir():
            continue
        for path in sorted(d.rglob("*")):
            if path.suffix in (".cpp", ".h", ".sh"):
                yield path


class Linter:
    def __init__(self, root=REPO):
        self.root = root
        self.findings = []
        self.used_waivers = set()
        self.errors = {}       # type name -> allowed modules set or {"*"}
        self.boundaries = {}   # boundary name -> (file, kind)
        self._load_policy()

    def _load_policy(self):
        policy = self.root / "src" / "common" / "error_policy.h"
        if not policy.is_file():
            self.findings.append(
                "src/common/error_policy.h: [untyped-throw] error taxonomy "
                "header is missing — nothing to check against")
            return
        text = policy.read_text(encoding="utf-8")
        for name, _owner, modules in ERROR_DECL_RE.findall(text):
            self.errors[name] = set(modules.split(","))
        for name, fname, kind in BOUNDARY_DECL_RE.findall(text):
            self.boundaries[name] = (fname, kind)

    def report(self, check, path, lineno, message, lines=None):
        """Record a finding unless waived on this or the previous line."""
        if lines is not None and lineno >= 1:
            window = lines[max(0, lineno - 2):lineno]
            base = max(0, lineno - 2)
            for off, ln in enumerate(window):
                if f"throw-graph: allow={check}" in ln:
                    self.used_waivers.add((str(path), base + off + 1))
                    return
        rel = path.relative_to(self.root) if isinstance(path, Path) else path
        self.findings.append(f"{rel}:{lineno}: [{check}] {message}")

    # ---- throw-site taxonomy ---------------------------------------------

    def check_throw_sites(self):
        for path in src_files(self.root):
            text = path.read_text(encoding="utf-8")
            lines = text.splitlines()
            stripped = strip_comments(text, keep_strings=True)
            module = path.relative_to(self.root / "src").parts[0]
            for i, ln in enumerate(stripped.splitlines(), start=1):
                for m in THROW_RE.finditer(ln):
                    type_name = m.group(1).rsplit("::", 1)[-1]
                    if type_name not in self.errors:
                        self.report(
                            "untyped-throw", path, i,
                            f"throw of '{m.group(1)}' — not a declared "
                            "taxonomy type (src/common/error_policy.h); "
                            "add it to the taxonomy or throw a declared "
                            "type", lines)
                        continue
                    allowed = self.errors[type_name]
                    if "*" not in allowed and module not in allowed:
                        self.report(
                            "cross-module-throw", path, i,
                            f"'{type_name}' thrown from module "
                            f"'{module}' but declared throwable only "
                            f"from {{{','.join(sorted(allowed))}}}", lines)

    # ---- destructor / move-op analysis -----------------------------------

    def _collect_functions(self):
        self._funcs = []
        self._file_of = {}
        for path in src_files(self.root):
            stripped = strip_comments(path.read_text(encoding="utf-8"))
            for fn in extract_functions(stripped):
                self._file_of[id(fn)] = path
                self._funcs.append(fn)
        self._by_last = {}
        self._by_qual = {}
        for fn in self._funcs:
            self._by_last.setdefault(fn.last, []).append(fn)
            self._by_qual.setdefault(fn.name, []).append(fn)

    def _resolve(self, caller, callee):
        """Resolve a call name to a unique Function, or None (assumed
        non-throwing: libc, std::, ambiguous overloads)."""
        if "::" in callee:
            cands = [f for f in self._funcs
                     if f.name == callee or f.name.endswith("::" + callee)]
            return cands[0] if len(cands) == 1 else None
        if caller.cls:
            qual = caller.cls + "::" + callee
            cands = self._by_qual.get(qual, [])
            if len(cands) == 1:
                return cands[0]
        cands = self._by_last.get(callee, [])
        return cands[0] if len(cands) == 1 else None

    def _calls(self, fn):
        for m in CALL_RE.finditer(fn.body):
            name = m.group(1)
            if name.rsplit("::", 1)[-1] in CPP_KEYWORDS:
                continue
            if name in FATAL_PATH_CALLS or \
                    name.rsplit("::", 1)[-1] in FATAL_PATH_CALLS:
                continue
            # A leading `::` is an explicit global-namespace (libc) call.
            if m.start() >= 1 and fn.body[m.start() - 1] == ":":
                continue
            yield name

    def _may_throw(self, fn, seen):
        """Return a human-readable throw path, or None if throw-free."""
        if id(fn) in self._throw_memo:
            return self._throw_memo[id(fn)]
        if id(fn) in seen:
            return None  # recursion: resolved by the other path
        seen.add(id(fn))
        result = None
        if re.search(r"\bthrow\b", fn.body):
            result = f"{fn.name} throws directly"
        elif "DEFRAG_FAILPOINT" in fn.body:
            result = f"{fn.name} contains a DEFRAG_FAILPOINT (throws when armed)"
        else:
            for callee in self._calls(fn):
                target = self._resolve(fn, callee)
                if target is None or target is fn:
                    continue
                sub = self._may_throw(target, seen)
                if sub is not None:
                    result = f"{fn.name} -> {sub}"
                    break
        self._throw_memo[id(fn)] = result
        return result

    def _is_move_op(self, fn):
        if fn.last == "operator=":
            # Definition headers aren't kept, so re-check via declaration
            # scan instead; here detect by class-named ctor with &&.
            return False
        return False

    def check_dtors(self):
        self._collect_functions()
        self._throw_memo = {}
        for fn in self._funcs:
            if not fn.last.startswith("~"):
                continue
            path = self._file_of[id(fn)]
            trace = self._may_throw(fn, set())
            if trace is not None:
                lines = path.read_text(encoding="utf-8").splitlines()
                self.report(
                    "throwing-dtor", path, fn.line,
                    f"destructor {fn.name} is not transitively throw-free: "
                    f"{trace}", lines)

    # ---- noexcept declarations -------------------------------------------

    def check_noexcept(self):
        dtor_re = re.compile(r"~(\w+)\s*\(\s*\)")
        move_ctor_re = re.compile(r"\b(\w+)\s*\(\s*(?:\w+\s*::\s*)*(\w+)\s*&&")
        move_assign_re = re.compile(r"operator=\s*\(\s*(?:\w+\s*::\s*)*(\w+)\s*&&")
        for path in src_files(self.root):
            text = path.read_text(encoding="utf-8")
            lines = text.splitlines()
            slines = strip_comments(text).splitlines()
            for i, ln in enumerate(slines, start=1):
                hits = []
                m = dtor_re.search(ln)
                if m and not re.search(r"[.>]\s*~", ln):  # skip x.~T() calls
                    hits.append(f"destructor ~{m.group(1)}")
                mc = move_ctor_re.search(ln)
                if mc and mc.group(1) == mc.group(2):
                    hits.append(f"move constructor {mc.group(1)}")
                ma = move_assign_re.search(ln)
                if ma:
                    hits.append(f"move assignment operator=({ma.group(1)}&&)")
                if not hits:
                    continue
                # The full declaration may wrap; scan to the statement end.
                stmt = ln
                j = i
                while ";" not in stmt and "{" not in stmt and j < len(slines):
                    stmt += " " + slines[j]
                    j += 1
                if re.search(r"=\s*(default|delete)", stmt):
                    continue
                if "noexcept" in stmt:
                    continue
                for what in hits:
                    self.report(
                        "noexcept-required", path, i,
                        f"{what} must be declared noexcept (or = default "
                        "/ = delete) — error-path discipline, see "
                        "docs/STATIC_ANALYSIS.md", lines)

    # ---- thread boundaries and catch-all ---------------------------------

    def _thread_vector_names(self):
        names = set()
        for path in src_files(self.root):
            stripped = strip_comments(path.read_text(encoding="utf-8"))
            names.update(THREAD_VEC_RE.findall(stripped))
        return names

    def check_thread_boundaries(self):
        vec_names = self._thread_vector_names()
        spawn_member_re = re.compile(
            r"\b(" + "|".join(re.escape(n) for n in sorted(vec_names)) +
            r")\.(?:emplace_back|push_back)\s*\(\s*\[") if vec_names else None
        referenced = set()
        for path in src_files(self.root):
            text = path.read_text(encoding="utf-8")
            lines = text.splitlines()
            slines = strip_comments(text).splitlines()
            for i, ln in enumerate(slines, start=1):
                spawned = bool(THREAD_CTOR_RE.search(ln)) or \
                    bool(spawn_member_re and spawn_member_re.search(ln))
                if not spawned:
                    continue
                window = "\n".join(lines[max(0, i - 3):i])
                m = BOUNDARY_ANNOT_RE.search(window)
                if not m:
                    self.report(
                        "thread-boundary", path, i,
                        "thread spawn without a declared catch boundary: "
                        "annotate with `// throw-graph: boundary=<Name>` "
                        "(declared in src/common/error_policy.h) within "
                        "two lines above", lines)
                    continue
                name = m.group(1)
                referenced.add(name)
                if name not in self.boundaries:
                    self.report(
                        "thread-boundary", path, i,
                        f"spawn names boundary '{name}' which is not "
                        "declared in src/common/error_policy.h", lines)
            # catch-all sites must sit inside a declared boundary.
            for i, ln in enumerate(slines, start=1):
                if not CATCH_ALL_RE.search(ln):
                    continue
                window = "\n".join(lines[max(0, i - 2):i + 1])
                m = BOUNDARY_ANNOT_RE.search(window)
                if not m:
                    self.report(
                        "catch-all", path, i,
                        "catch (...) outside a declared boundary: annotate "
                        "with `// throw-graph: boundary=<Name>` or catch "
                        "concrete taxonomy types", lines)
                elif m.group(1) not in self.boundaries:
                    self.report(
                        "catch-all", path, i,
                        f"catch (...) names undeclared boundary "
                        f"'{m.group(1)}'", lines)
                else:
                    referenced.add(m.group(1))
        # Each declared "catch"-kind boundary must exist and cover the
        # taxonomy. ("future"-kind boundaries transport exceptions through
        # std::packaged_task futures; existence is checked, transport
        # semantics are the library's contract, pinned by runtime tests.)
        for name, (fname, kind) in sorted(self.boundaries.items()):
            matches = [p for p in src_files(self.root) if p.name == fname]
            if not matches:
                self.report("thread-boundary", "src/common/error_policy.h", 1,
                            f"boundary '{name}' declared in missing file "
                            f"'{fname}'")
                continue
            found = None
            for p in matches:
                stripped = strip_comments(p.read_text(encoding="utf-8"))
                for fn in extract_functions(stripped):
                    if fn.name == name or fn.name.endswith("::" + name):
                        found = fn
                        break
                if found:
                    break
            if found is None:
                self.report("thread-boundary", "src/common/error_policy.h", 1,
                            f"boundary function '{name}' not found in "
                            f"{fname}")
                continue
            if kind == "catch":
                body = found.body
                has_all = CATCH_ALL_RE.search(body) is not None
                has_check = re.search(r"catch\s*\(\s*(?:const\s+)?"
                                      r"(?:\w+::)*CheckFailure\b", body)
                has_std = re.search(r"catch\s*\(\s*(?:const\s+)?"
                                    r"std::exception\b", body)
                if not (has_all or (has_check and has_std)):
                    self.report(
                        "thread-boundary", matches[0], found.line,
                        f"boundary '{name}' does not cover the full "
                        "taxonomy: needs catch(CheckFailure) + "
                        "catch(std::exception), or catch(...)")
            if name not in referenced:
                self.report(
                    "thread-boundary", "src/common/error_policy.h", 1,
                    f"boundary '{name}' is declared but no spawn site or "
                    "catch-all references it; delete the declaration")

    # ---- failpoint registry <-> tests cross-check ------------------------

    def check_failpoints(self):
        sites = {}  # name -> (path, line)
        for path in src_files(self.root):
            text = path.read_text(encoding="utf-8")
            lines = text.splitlines()
            stripped = strip_comments(text, keep_strings=True)
            for i, ln in enumerate(stripped.splitlines(), start=1):
                for m in FAILPOINT_RE.finditer(ln):
                    name = m.group(1)
                    if not FAILPOINT_NAME_RE.match(name):
                        self.report(
                            "failpoint", path, i,
                            f"failpoint name '{name}' is not of the form "
                            "'module.site' (lowercase)", lines)
                        continue
                    if name in sites:
                        prev = sites[name]
                        self.report(
                            "failpoint", path, i,
                            f"duplicate failpoint name '{name}' (also at "
                            f"{prev[0].relative_to(self.root)}:{prev[1]})",
                            lines)
                        continue
                    sites[name] = (path, i)
        # Exercise scan, two directions with different strictness:
        #  - a REGISTERED site counts as exercised when its name appears as
        #    a quoted failpoint-shaped literal anywhere in tests/ or in a
        #    tools/ shell script spec (tests route names through helpers,
        #    so requiring a literal arm("...") call would miss them);
        #  - only explicit ARM-style references (arm("name"...) or a
        #    name:action spec) are cross-checked the other way for names no
        #    site registers — a quoted metric name is not an arming.
        mentioned = set()
        armed = {}  # name -> (path, line) of arm-style references
        quoted_re = re.compile(r'"([a-z0-9_]+\.[a-z0-9_]+)[":]')
        arm_ref_re = re.compile(
            r'(?:arm\w*\s*\(\s*"([a-z0-9_.]+)[":]|'
            r'\b([a-z0-9_]+\.[a-z0-9_]+):(?:throw|check|off)\b)')
        for path in test_files(self.root):
            text = strip_comments(path.read_text(encoding="utf-8"),
                                  keep_strings=True) \
                if path.suffix != ".sh" else path.read_text(encoding="utf-8")
            mentioned.update(quoted_re.findall(text))
            for i, ln in enumerate(text.splitlines(), start=1):
                for m in arm_ref_re.finditer(ln):
                    name = m.group(1) or m.group(2)
                    if FAILPOINT_NAME_RE.match(name):
                        armed.setdefault(name, (path, i))
        for name, (path, lineno) in sorted(sites.items()):
            if name not in mentioned and name not in armed:
                lines = path.read_text(encoding="utf-8").splitlines()
                self.report(
                    "failpoint", path, lineno,
                    f"failpoint '{name}' is registered but never exercised "
                    "by a test (tests/ or tools/*.sh must arm it): an "
                    "uninjected failpoint is an unproven error path", lines)
        for name, (path, lineno) in sorted(armed.items()):
            # Names under "test." are scratch sites the failpoint substrate's
            # own unit tests define locally; they have no src/ registration.
            if name.startswith("test."):
                continue
            if name not in sites:
                lines = path.read_text(encoding="utf-8").splitlines()
                self.report(
                    "failpoint", path, lineno,
                    f"test arms failpoint '{name}' but no DEFRAG_FAILPOINT "
                    "site registers it (stale name?)", lines)

    # ---- waiver hygiene ---------------------------------------------------

    def check_stale_waivers(self):
        known = set(CHECK_NAMES) - {"stale-waiver"}
        for path in list(src_files(self.root)) + list(test_files(self.root)):
            text = path.read_text(encoding="utf-8")
            for i, ln in enumerate(text.splitlines(), start=1):
                m = WAIVER_RE.search(ln)
                if not m:
                    continue
                check = m.group(1)
                if check not in known:
                    self.findings.append(
                        f"{path.relative_to(self.root)}:{i}: [stale-waiver] "
                        f"waiver names unknown check '{check}'")
                elif (str(path), i) not in self.used_waivers:
                    self.findings.append(
                        f"{path.relative_to(self.root)}:{i}: [stale-waiver] "
                        f"waiver for '{check}' no longer suppresses any "
                        "finding; delete it")

    def run(self):
        self.check_throw_sites()
        self.check_dtors()
        self.check_noexcept()
        self.check_thread_boundaries()
        self.check_failpoints()
        self.check_stale_waivers()
        return self.findings


# ---- self-test fixtures ---------------------------------------------------

CLEAN_POLICY = '''\
#pragma once
namespace defrag::error_policy {
struct ErrorClass { const char* name; const char* owner; const char* modules; };
struct CatchBoundary { const char* name; const char* file; const char* kind; };
inline constexpr ErrorClass kMyError{"MyError", "common", "*"};
inline constexpr ErrorClass kAppError{"AppError", "service", "service"};
inline constexpr CatchBoundary kWorkerRun{"Worker::run", "worker.cpp", "catch"};
}
'''

CLEAN_WORKER = '''\
#include <thread>
void Worker::run() {
  try {
    step();
  } catch (const CheckFailure& e) {
    note(e);
  } catch (const std::exception& e) {
    note(e);
  }
}
void Worker::step() { throw AppError("boom"); }
void spawn_worker() {
  // throw-graph: boundary=Worker::run
  std::thread([] { Worker().run(); }).detach();
}
struct Guard {
  ~Guard() noexcept { release(); }
  Guard(Guard&& other) noexcept;
  Guard& operator=(Guard&& other) noexcept;
  void release() {}
};
'''

CLEAN_STORE = '''\
#include "common/failpoint.h"
void store_seal() {
  DEFRAG_FAILPOINT("store.seal");
}
'''

CLEAN_TEST = '''\
#include <gtest/gtest.h>
TEST(Failpoint, StoreSeal) {
  defrag::failpoint::arm("store.seal", defrag::failpoint::Action::kThrow);
}
'''


def _write(root, rel, content):
    p = root / rel
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(content, encoding="utf-8")


def _build_clean(root):
    _write(root, "src/common/error_policy.h", CLEAN_POLICY)
    _write(root, "src/service/worker.cpp", CLEAN_WORKER)
    _write(root, "src/storage/store.cpp", CLEAN_STORE)
    _write(root, "tests/common/test_failpoint.cpp", CLEAN_TEST)


def self_test():
    """Prove every rule rejects its seeded violation and passes clean."""
    import tempfile
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)

    def scan(mutate=None):
        with tempfile.TemporaryDirectory() as td:
            root = Path(td)
            _build_clean(root)
            if mutate:
                mutate(root)
            return Linter(root).run()

    clean = scan()
    expect(clean == [], f"clean fixture tree produced findings: {clean}")

    # untyped-throw: an ad-hoc std::runtime_error escape.
    found = scan(lambda r: _write(
        r, "src/service/bad_throw.cpp",
        'void f() { throw std::runtime_error("x"); }\n'))
    expect(any("[untyped-throw]" in f for f in found),
           f"seeded untyped throw not caught: {found}")

    # cross-module-throw: service-only AppError thrown from src/core.
    found = scan(lambda r: _write(
        r, "src/core/bad_module.cpp",
        'void f() { throw AppError("x"); }\n'))
    expect(any("[cross-module-throw]" in f for f in found),
           f"seeded off-taxonomy cross-module throw not caught: {found}")

    # throwing-dtor: destructor reaching a throw through a callee.
    found = scan(lambda r: _write(
        r, "src/service/bad_dtor.cpp",
        'void cleanup_step() { throw MyError("x"); }\n'
        "struct D {\n"
        "  ~D() noexcept { cleanup_step(); }\n"
        "};\n"))
    expect(any("[throwing-dtor]" in f and "cleanup_step" in f for f in found),
           f"seeded throwing destructor not caught: {found}")

    # noexcept-required: destructor and move op without noexcept.
    found = scan(lambda r: _write(
        r, "src/service/bad_noexcept.cpp",
        "struct E {\n"
        "  ~E() {}\n"
        "  E(E&& other) : x_(other.x_) {}\n"
        "  int x_;\n"
        "};\n"))
    expect(sum("[noexcept-required]" in f for f in found) == 2,
           f"seeded missing-noexcept dtor+move not caught: {found}")

    # thread-boundary: spawn without an annotation...
    found = scan(lambda r: _write(
        r, "src/service/bad_spawn.cpp",
        "#include <thread>\n"
        "void f() { std::thread([] {}).detach(); }\n"))
    expect(any("[thread-boundary]" in f and "bad_spawn" in f for f in found),
           f"seeded unannotated spawn not caught: {found}")

    # ...and an annotation naming an undeclared boundary.
    found = scan(lambda r: _write(
        r, "src/service/bad_spawn2.cpp",
        "#include <thread>\n"
        "void f() {\n"
        "  // throw-graph: boundary=No::Such\n"
        "  std::thread([] {}).detach();\n"
        "}\n"))
    expect(any("[thread-boundary]" in f and "No::Such" in f for f in found),
           f"seeded undeclared-boundary spawn not caught: {found}")

    # thread-boundary: a "catch"-kind boundary that stops covering the
    # taxonomy (loses its std::exception handler).
    def weaken_boundary(r):
        p = r / "src/service/worker.cpp"
        p.write_text(p.read_text(encoding="utf-8").replace(
            "} catch (const std::exception& e) {\n    note(e);\n  }\n",
            "}\n"), encoding="utf-8")
    found = scan(weaken_boundary)
    expect(any("[thread-boundary]" in f and "full" in f for f in found),
           f"seeded uncovered boundary not caught: {found}")

    # catch-all outside a declared boundary.
    found = scan(lambda r: _write(
        r, "src/service/bad_catch.cpp",
        "void f() { try { g(); } catch (...) { } }\n"))
    expect(any("[catch-all]" in f for f in found),
           f"seeded blanket catch not caught: {found}")

    # failpoint: registered but never exercised by any test.
    found = scan(lambda r: _write(
        r, "src/storage/bad_fp.cpp",
        '#include "common/failpoint.h"\n'
        'void g() { DEFRAG_FAILPOINT("store.orphan"); }\n'))
    expect(any("[failpoint]" in f and "store.orphan" in f for f in found),
           f"seeded unexercised failpoint not caught: {found}")

    # failpoint: test arms a name no site registers.
    found = scan(lambda r: _write(
        r, "tests/common/test_stale_fp.cpp",
        'TEST(X, Y) { defrag::failpoint::arm("no.site",\n'
        "  defrag::failpoint::Action::kThrow); }\n"))
    expect(any("[failpoint]" in f and "no.site" in f for f in found),
           f"seeded stale failpoint arming not caught: {found}")

    # stale-waiver: a waiver that suppresses nothing.
    found = scan(lambda r: _write(
        r, "src/service/stale.cpp",
        "// throw-graph: allow=untyped-throw — nothing here throws\n"
        "void f() {}\n"))
    expect(any("[stale-waiver]" in f for f in found),
           f"seeded stale waiver not caught: {found}")

    # ...while a waiver that DOES suppress stays silent.
    found = scan(lambda r: _write(
        r, "src/service/waived.cpp",
        "// throw-graph: allow=untyped-throw — exercising the waiver path\n"
        'void f() { throw std::runtime_error("x"); }\n'))
    expect(found == [],
           f"used waiver still produced findings: {found}")

    for f in failures:
        print(f"throw_graph_lint --self-test: FAIL: {f}")
    if not failures:
        print("throw_graph_lint --self-test: ok")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(
        description="Throw-graph / error-path lint (see module docstring)",
        epilog="exit codes: 0 clean, 1 findings, 2 usage/internal error")
    ap.add_argument("--root", type=Path, default=REPO,
                    help="repo root to scan (default: this repo)")
    ap.add_argument("--list-checks", action="store_true",
                    help="print check names and exit")
    ap.add_argument("--self-test", action="store_true",
                    help="run the lint's own fixture tests and exit")
    args = ap.parse_args()
    if args.list_checks:
        print(" ".join(CHECK_NAMES))
        return 0
    if args.self_test:
        return self_test()
    findings = Linter(args.root.resolve()).run()
    for f in findings:
        print(f)
    print(f"throw_graph_lint: {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as exc:  # noqa: BLE001 — lint must not die silently
        print(f"throw_graph_lint: internal error: {exc}", file=sys.stderr)
        sys.exit(2)
