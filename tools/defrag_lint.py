#!/usr/bin/env python3
"""Repo-specific invariant checker for the DeFrag codebase.

Enforces conventions clang-tidy cannot express:

  metric-docs     every metric dot-name registered in C++ appears in
                  docs/OBSERVABILITY.md, and every concrete metric name the
                  doc claims exists is actually registered in code
  header-pragma   every header under src/ starts its include guard with
                  `#pragma once`
  header-iwyu     include-what-you-use spot check: a header whose own text
                  names a common std:: type must include the matching
                  standard header itself (no transitive freeloading)
  raw-new         no raw `new` / `delete` outside storage arenas; owning
                  allocations go through unique_ptr/vector
  rand            no libc rand()/srand(); use common/rng.h (deterministic,
                  seedable — reproductions must replay bit-identically)
  cout            no std::cout/std::cerr inside src/ (library code reports
                  through return values, obs metrics, or exceptions; the
                  CLI/bench/example binaries may print)
  printf          no raw printf/fprintf/puts/fputs inside src/ — library
                  and service code logs through obs/log.h (structured,
                  leveled, rid-correlated); the logger's own stderr sink
                  carries the one waiver
  catch-all       no `catch (...)` that swallows without rethrowing
  cmake-naming    library targets in src/ are named defrag_<dir>, and
                  ctest names registered via add_test() are [a-z0-9_]+

  parse-safety    wire-facing parse code (src/service/, src/obs/): an
                  integer read from untrusted bytes (WireReader u8/u32/u64,
                  or assembled with |= from a header buffer) must pass a
                  cap check (a line naming the variable together with a
                  kMax* constant, remaining(), or a throw) BEFORE it sizes
                  a resize/reserve/new[]/container constructor or bounds a
                  loop. Catches the classic attacker-controlled-allocation
                  bug at review time; the fuzz harnesses under tests/fuzz/
                  catch what this heuristic misses at run time
  wire-enum-switch  a switch over a wire-decoded enum (FrameType) must have
                  a `default:` that throws — unknown enum values arrive
                  from the network and must be rejected, never silently
                  accepted or fallen through (pure formatters carry a
                  justified waiver)
  stale-corpus    tests/fuzz/ bookkeeping: every corpus/<name>/ dir matches
                  a harness registered in tests/fuzz/CMakeLists.txt, and
                  every registered harness has a source file, a non-empty
                  seed corpus and a dict/<name>.dict — a renamed harness
                  cannot leave its corpus orphaned (the replay driver fails
                  on empty corpora, guarding the inverse direction)

  stale-waiver    every `defrag-lint: allow=` comment must still suppress
                  a live finding; waivers that no longer fire are dead
                  weight and must be deleted (prevents silent rot)

Waivers: a finding on line N is suppressed when line N or N-1 contains
`defrag-lint: allow=<check-name>` with a justification in the comment.
Stale-waiver findings themselves cannot be waived.

`--self-test` builds throwaway fixture trees (a seeded unguarded resize, a
silently-accepting switch, an orphaned corpus dir) and asserts the checks
above catch them — proving the lint still lints before CI trusts it.

Exit codes: 0 clean, 1 findings, 2 usage/internal error.

Only the Python 3 standard library is used; runs from any cwd.
"""

import argparse
import re
import sys
from pathlib import Path

from cpp_scan import strip_comments_and_strings

REPO = Path(__file__).resolve().parent.parent
SRC_EXTS = {".cpp", ".h"}

# Directories scanned for C++ sources (build trees excluded by construction).
CPP_DIRS = ("src", "tests", "tools", "bench", "examples")

# Metric-name roots the registry actually uses; doc tokens outside these
# roots (file names, schema ids) are not metric claims.
METRIC_ROOTS = ("engine.", "storage.", "index.", "dedup.", "stage.",
                "system.", "service.")

IWYU_SPOT = {
    "std::string": "<string>",
    "std::string_view": "<string_view>",
    "std::vector": "<vector>",
    "std::optional": "<optional>",
    "std::unordered_map": "<unordered_map>",
    "std::map": "<map>",
    "std::deque": "<deque>",
    "std::atomic": "<atomic>",
    "std::function": "<functional>",
    "std::unique_ptr": "<memory>",
    "std::shared_ptr": "<memory>",
    "std::uint64_t": "<cstdint>",
    "std::uint32_t": "<cstdint>",
    "std::int64_t": "<cstdint>",
    "std::thread": "<thread>",
    "std::future": "<future>",
}


def cpp_files(repo=REPO):
    for d in CPP_DIRS:
        root = repo / d
        if root.is_dir():
            yield from (p for p in sorted(root.rglob("*"))
                        if p.suffix in SRC_EXTS)


CHECK_NAMES = ("metric-docs", "header-pragma", "header-iwyu", "raw-new",
               "rand", "cout", "printf", "catch-all", "cmake-naming",
               "parse-safety", "wire-enum-switch", "stale-corpus",
               "stale-waiver")

WAIVER_RE = re.compile(r"defrag-lint:\s*allow=([a-z-]+)")

# The throw-graph lint's companion comments (tools/throw_graph_lint.py):
# waivers and declared-boundary annotations. defrag_lint validates their
# names so a typo'd comment cannot silently waive nothing.
THROW_WAIVER_RE = re.compile(r"throw-graph:\s*allow=([a-z-]+)")
BOUNDARY_DECL_RE = re.compile(
    r'inline\s+constexpr\s+CatchBoundary\s+k\w+\s*\{\s*"([\w:]+)"')


class Linter:
    def __init__(self, repo=REPO):
        self.repo = repo
        self.findings = []
        # (resolved path, 1-based line) of waiver comments that suppressed
        # at least one finding this run; everything else is stale.
        self.used_waivers = set()

    def declared_boundaries(self):
        """Catch-boundary names from src/common/error_policy.h (cached)."""
        if not hasattr(self, "_boundaries"):
            policy = self.repo / "src" / "common" / "error_policy.h"
            self._boundaries = (
                set(BOUNDARY_DECL_RE.findall(
                    policy.read_text(encoding="utf-8")))
                if policy.is_file() else set())
        return self._boundaries

    def report(self, check, path, lineno, message, lines=None):
        """Record a finding unless waived on this or the previous line."""
        if lines is not None and lineno >= 1:
            window = lines[max(0, lineno - 2):lineno]  # lines N-1 and N
            base = max(0, lineno - 2)
            for off, ln in enumerate(window):
                if f"defrag-lint: allow={check}" in ln:
                    self.used_waivers.add((str(path), base + off + 1))
                    return
        rel = path.relative_to(self.repo) if isinstance(path, Path) else path
        self.findings.append(f"{rel}:{lineno}: [{check}] {message}")

    # ---- metric-name <-> docs cross-check --------------------------------

    def check_metric_docs(self):
        doc_path = self.repo / "docs" / "OBSERVABILITY.md"
        if not doc_path.is_file():
            self.report("metric-docs", doc_path, 0,
                        "docs/OBSERVABILITY.md is missing")
            return
        doc = doc_path.read_text(encoding="utf-8")
        doc_tokens = set(re.findall(r"`([a-z0-9_.<>*-]+)`", doc))
        doc_full = {t for t in doc_tokens
                    if "." in t and "*" not in t and "<" not in t}
        # Doc->code claims come only from the "Naming scheme" section: that
        # section is the metric contract. Elsewhere backticks also quote
        # trace span names and examples, which are not registrations.
        scheme = doc.split("## Naming scheme", 1)[-1].split("\n## ", 1)[0]
        doc_claims = {t for t in re.findall(r"`([a-z0-9_.-]+)`", scheme)
                      if "." in t and t.startswith(METRIC_ROOTS)}
        doc_bare = {t for t in doc_tokens if "." not in t}
        doc_wild = [t for t in doc_tokens if "*" in t or "<" in t]
        wild_res = [re.compile(
            "^" + re.escape(t).replace(r"\*", r"[a-z0-9_.]+")
                              .replace(r"<slug>", r"[a-z0-9_]+") + "$")
            for t in doc_wild]

        # Code side: literal full names, and `<expr> + "suffix"` names that
        # acquire an engine.<slug>. prefix at runtime.
        call_re = re.compile(
            r"\b(?:counter|gauge|histogram)\s*\(\s*\"([a-z0-9_.-]+)\"")
        suffix_re = re.compile(
            r"\b(?:counter|gauge|histogram)\s*\(\s*[A-Za-z_][\w().:]*\s*\+\s*"
            r"\"([a-z0-9_.-]+)\"")
        code_full, code_suffix = {}, {}
        for path in cpp_files(self.repo):
            if self.repo / "src" not in path.parents:
                continue  # tests/bench register scratch names freely
            text = path.read_text(encoding="utf-8")
            for m in call_re.finditer(text):
                code_full.setdefault(m.group(1), (path, text))
            for m in suffix_re.finditer(text):
                code_suffix.setdefault(m.group(1), (path, text))

        def lineno_of(text, needle):
            pos = text.find(needle)
            return text.count("\n", 0, pos) + 1 if pos >= 0 else 0

        for name, (path, text) in sorted(code_full.items()):
            documented = (name in doc_full
                          or (name.rsplit(".", 1)[-1] in doc_bare
                              and any(r.match(name) for r in wild_res)))
            if not documented:
                self.report("metric-docs", path, lineno_of(text, f'"{name}"'),
                            f"metric '{name}' is registered in code but not "
                            "documented in docs/OBSERVABILITY.md")
        for suffix, (path, text) in sorted(code_suffix.items()):
            last = suffix.rsplit(".", 1)[-1]
            if last not in doc_bare and not any(
                    t.endswith("." + last) for t in doc_full):
                self.report("metric-docs", path,
                            lineno_of(text, f'"{suffix}"'),
                            f"prefixed metric suffix '{suffix}' is not "
                            "documented in docs/OBSERVABILITY.md")
        for name in sorted(doc_claims):
            known = (name in code_full
                     or name.rsplit(".", 1)[-1] in code_suffix)
            if not known:
                self.report("metric-docs", doc_path,
                            lineno_of(doc, name),
                            f"doc claims metric '{name}' but no code "
                            "registers it")

    # ---- header checks ----------------------------------------------------

    def check_headers(self):
        for path in cpp_files(self.repo):
            if path.suffix != ".h" or self.repo / "src" not in path.parents:
                continue
            text = path.read_text(encoding="utf-8")
            lines = text.splitlines()
            if "#pragma once" not in text:
                self.report("header-pragma", path, 1,
                            "header lacks `#pragma once`", lines)
            stripped = strip_comments_and_strings(text)
            includes = set(re.findall(r"#include\s+([<\"][^>\"]+[>\"])",
                                      stripped))
            std_includes = {inc for inc in includes if inc.startswith("<")}
            for token, header in IWYU_SPOT.items():
                if re.search(re.escape(token) + r"\b", stripped) and \
                        header not in std_includes:
                    lineno = next((i + 1 for i, ln in enumerate(lines)
                                   if token in ln), 1)
                    self.report("header-iwyu", path, lineno,
                                f"uses {token} but does not include {header}",
                                lines)

    # ---- banned patterns --------------------------------------------------

    def check_banned(self):
        raw_new_re = re.compile(r"\bnew\s+[A-Za-z_][\w:]*")
        raw_delete_re = re.compile(r"\bdelete(\[\])?\s+[A-Za-z_]")
        rand_re = re.compile(r"\b(?:s?rand)\s*\(")
        cout_re = re.compile(r"\bstd::c(?:out|err)\b")
        # \b keeps snprintf/vsnprintf (string formatting, no I/O) legal.
        printf_re = re.compile(r"\b(?:std::)?(?:v?f?printf|puts|fputs)\s*\(")
        catch_all_re = re.compile(r"catch\s*\(\s*\.\.\.\s*\)")
        for path in cpp_files(self.repo):
            text = path.read_text(encoding="utf-8")
            stripped = strip_comments_and_strings(text)
            lines = text.splitlines()
            in_src = self.repo / "src" in path.parents
            for i, ln in enumerate(stripped.splitlines(), start=1):
                if rand_re.search(ln):
                    self.report("rand", path, i,
                                "libc rand()/srand() is banned; use "
                                "common/rng.h (seedable, reproducible)",
                                lines)
                if in_src:
                    if raw_new_re.search(ln) or raw_delete_re.search(ln):
                        self.report("raw-new", path, i,
                                    "raw new/delete outside storage arenas; "
                                    "use unique_ptr/vector or waive with a "
                                    "justification", lines)
                    if cout_re.search(ln):
                        self.report("cout", path, i,
                                    "std::cout/std::cerr in library code; "
                                    "report via obs metrics, return values "
                                    "or exceptions", lines)
                    if printf_re.search(ln):
                        self.report("printf", path, i,
                                    "raw printf-family I/O in library code; "
                                    "log through obs/log.h (structured, "
                                    "rid-correlated) instead", lines)
                m = catch_all_re.search(ln)
                if m:
                    # A declared catch boundary (annotated with
                    # `throw-graph: boundary=<Name>`, validated against
                    # src/common/error_policy.h) may keep a catch-all; the
                    # throw-graph lint owns the deeper analysis. Otherwise
                    # the handler must rethrow: look for `throw;` within
                    # the next few lines (brace-matching is overkill here).
                    raw_tail = "\n".join(lines[i - 1:i + 9])
                    bm = re.search(r"throw-graph:\s*boundary=([\w:]+)",
                                   raw_tail)
                    if bm:
                        if bm.group(1) not in self.declared_boundaries():
                            self.report(
                                "catch-all", path, i,
                                f"catch (...) names boundary "
                                f"'{bm.group(1)}' not declared in "
                                "src/common/error_policy.h", lines)
                        continue
                    tail = "\n".join(stripped.splitlines()[i - 1:i + 9])
                    if not re.search(r"\bthrow\s*;", tail):
                        self.report("catch-all", path, i,
                                    "catch (...) without rethrow swallows "
                                    "errors; rethrow or catch a concrete "
                                    "type", lines)

    # ---- CMake conventions ------------------------------------------------

    def check_cmake(self):
        lib_re = re.compile(r"add_library\s*\(\s*([A-Za-z0-9_-]+)")
        test_re = re.compile(r"add_test\s*\(\s*NAME\s+([^\s)]+)")
        for path in sorted(self.repo.rglob("CMakeLists.txt")):
            if "build" in path.parts or self.repo / "related" in path.parents:
                continue
            text = path.read_text(encoding="utf-8")
            lines = text.splitlines()
            in_src = self.repo / "src" in path.parents
            for i, ln in enumerate(lines, start=1):
                m = lib_re.search(ln)
                if m and in_src:
                    name = m.group(1)
                    expected = f"defrag_{path.parent.name}"
                    if name != expected:
                        self.report("cmake-naming", path, i,
                                    f"library '{name}' should be named "
                                    f"'{expected}' (defrag_<dir>)", lines)
                m = test_re.search(ln)
                if m and not re.fullmatch(r"[a-z0-9_]+", m.group(1)):
                    self.report("cmake-naming", path, i,
                                f"test name '{m.group(1)}' must be "
                                "[a-z0-9_]+", lines)

    # ---- parse safety on the wire path ------------------------------------

    # A declaration initialized from a WireReader-style read...
    TAINT_DECL_RE = re.compile(
        r"\b(?:const\s+)?(?:auto|std::uint(?:8|16|32|64)_t|std::size_t)\s+"
        r"(\w+)\s*=\s*[\w.\->]*\bu(?:8|16|32|64)\s*\(\s*\)")
    # ...or assembled byte-by-byte from a raw header buffer.
    TAINT_ASSEMBLE_RE = re.compile(r"\b(\w+)\s*\|=")

    # Allocation/loop sites sized by a tainted variable `{v}`.
    PARSE_SINK_TEMPLATES = (
        (r"\.\s*resize\s*\(\s*{v}\b", "resize"),
        (r"\.\s*reserve\s*\(\s*{v}\b", "reserve"),
        (r"\bnew\b[^;(]*\[\s*{v}\b", "new[]"),
        (r"\b(?:Bytes|std::string|std::vector<[^;=]*>)\s+\w+\s*\(\s*{v}\b",
         "container constructor"),
        (r"for\s*\([^;]*;\s*\w+\s*<\s*{v}\b", "loop bound"),
    )

    def check_parse_safety(self):
        """Wire-read integers must be cap-checked before sizing anything.

        Heuristic dataflow, per function (delimited by a column-0 `}`): a
        variable is tainted if initialized from a u8/u32/u64 read or |=
        assembly; a sink (resize/reserve/new[]/container ctor/loop bound)
        using it is safe only if a guard line — naming the variable next to
        a kMax* constant, remaining(), or a throw — appears between taint
        and sink. False negatives are the fuzzers' job; false positives
        carry a `defrag-lint: allow=parse-safety` waiver with the reason.
        """
        roots = (self.repo / "src" / "service", self.repo / "src" / "obs")
        for path in cpp_files(self.repo):
            if not any(root in path.parents for root in roots):
                continue
            text = path.read_text(encoding="utf-8")
            lines = text.splitlines()
            slines = strip_comments_and_strings(text).splitlines()
            taints = []  # (lineno 1-based, varname)
            for i, ln in enumerate(slines, start=1):
                m = self.TAINT_DECL_RE.search(ln)
                if m:
                    taints.append((i, m.group(1)))
                    continue
                m = self.TAINT_ASSEMBLE_RE.search(ln)
                if m:
                    taints.append((i, m.group(1)))
            for start, var in taints:
                # Scope ends at the function's closing brace (column 0).
                end = next((j for j in range(start, len(slines))
                            if slines[j].startswith("}")), len(slines))
                guard_re = re.compile(
                    rf"\b{re.escape(var)}\b.*(?:kMax|remaining\s*\(|throw)"
                    rf"|(?:kMax\w*|remaining\s*\(\s*\))\s*[/<>=!].*"
                    rf"\b{re.escape(var)}\b")
                guarded_at = None
                for j in range(start, end):
                    if guard_re.search(slines[j]):
                        guarded_at = j + 1
                        break
                for j in range(start, end):
                    ln = slines[j]
                    for template, what in self.PARSE_SINK_TEMPLATES:
                        if re.search(template.format(v=re.escape(var)), ln):
                            if guarded_at is None or guarded_at > j + 1:
                                self.report(
                                    "parse-safety", path, j + 1,
                                    f"{what} sized by '{var}' (read from "
                                    "untrusted bytes at line "
                                    f"{start}) with no preceding cap check "
                                    "— cap against kMax*/remaining() "
                                    "before allocating", lines)

    # ---- wire-enum switch exhaustiveness -----------------------------------

    # Enums whose values arrive off the wire; switches over them must
    # actively reject unknown values.
    WIRE_ENUMS = ("FrameType",)

    def check_wire_enum_switch(self):
        """A switch over a wire-decoded enum needs a default that throws.

        GCC's -Wswitch only warns when a *named* enumerator is missing; a
        hostile peer sends values outside the enum entirely, which a
        case-complete switch without a default silently falls through.
        """
        for path in cpp_files(self.repo):
            if self.repo / "src" / "service" not in path.parents:
                continue
            text = path.read_text(encoding="utf-8")
            lines = text.splitlines()
            stripped = strip_comments_and_strings(text)
            slines = stripped.splitlines()
            for m in re.finditer(r"\bswitch\s*\(([^)]*)\)\s*\{", stripped):
                cond = m.group(1).strip()
                lineno = stripped.count("\n", 0, m.start()) + 1
                is_wire = any(e in cond for e in self.WIRE_ENUMS)
                if not is_wire:
                    var = re.search(r"(\w+)\s*$", cond)
                    if var:
                        v = re.escape(var.group(1))
                        back = "\n".join(
                            slines[max(0, lineno - 41):lineno])
                        is_wire = bool(
                            re.search(rf"\bFrameType\s+{v}\b", back)
                            or re.search(rf"\b{v}\s*=\s*frame_type\s*\(",
                                         back))
                if not is_wire:
                    continue
                block = self._brace_block(stripped, m.end() - 1)
                d = re.search(r"\bdefault\s*:", block)
                if not d:
                    self.report(
                        "wire-enum-switch", path, lineno,
                        "switch over a wire-decoded enum has no default: "
                        "values outside the enum arrive from the network "
                        "and must be rejected (throw WireError)", lines)
                elif "throw" not in block[d.end():d.end() + 200]:
                    self.report(
                        "wire-enum-switch", path, lineno,
                        "default in a wire-enum switch must reject unknown "
                        "values (throw WireError), not accept silently",
                        lines)

    @staticmethod
    def _brace_block(text, open_pos):
        """Text of the balanced {...} starting at text[open_pos] == '{'."""
        depth = 0
        for i in range(open_pos, len(text)):
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
                if depth == 0:
                    return text[open_pos:i + 1]
        return text[open_pos:]

    # ---- fuzz corpus bookkeeping -------------------------------------------

    def check_stale_corpus(self):
        """corpus/ dirs, harness registrations, sources and dicts agree."""
        fuzz = self.repo / "tests" / "fuzz"
        cml = fuzz / "CMakeLists.txt"
        if not cml.is_file():
            return  # repo (or fixture) has no fuzz suite
        text = cml.read_text(encoding="utf-8")
        m = re.search(r"set\s*\(\s*DEFRAG_FUZZ_HARNESSES\s+([^)]*)\)", text)
        if not m:
            self.report("stale-corpus", cml, 1,
                        "tests/fuzz/CMakeLists.txt does not define "
                        "DEFRAG_FUZZ_HARNESSES")
            return
        registered = m.group(1).split()
        corpus_root = fuzz / "corpus"
        for d in sorted(corpus_root.iterdir()) if corpus_root.is_dir() \
                else []:
            if d.is_dir() and d.name not in registered:
                self.report("stale-corpus", d, 0,
                            f"corpus dir '{d.name}' matches no harness in "
                            "DEFRAG_FUZZ_HARNESSES — renamed harness? "
                            "delete or rename the corpus")
        for h in registered:
            if not (fuzz / f"{h}.cpp").is_file():
                self.report("stale-corpus", cml, 1,
                            f"harness '{h}' is registered but tests/fuzz/"
                            f"{h}.cpp does not exist")
            cdir = corpus_root / h
            if not cdir.is_dir() or not any(p.is_file()
                                            for p in cdir.iterdir()):
                self.report("stale-corpus", cml, 1,
                            f"harness '{h}' has no seed corpus under "
                            f"tests/fuzz/corpus/{h}/ (the replay test "
                            "would fail on an empty corpus)")
            if not (fuzz / "dict" / f"{h}.dict").is_file():
                self.report("stale-corpus", cml, 1,
                            f"harness '{h}' lacks tests/fuzz/dict/{h}.dict")

    # ---- waiver hygiene ---------------------------------------------------

    def check_stale_waivers(self):
        """Every waiver comment must have suppressed a finding this run.

        Runs after all other checks (it consults used_waivers). Stale
        waivers are reported unwaivably: the fix is deleting the comment.
        """
        known = set(CHECK_NAMES) - {"stale-waiver"}
        # The throw-graph lint's waiver comments share the hygiene pass:
        # a typo'd `throw-graph: allow=` must fail here, not waive nothing.
        # (Whether such a waiver is *used* is throw_graph_lint's own job —
        # it tracks suppression in its full-tree scan.)
        try:
            import throw_graph_lint
            tg_known = set(throw_graph_lint.CHECK_NAMES)
        except ImportError:
            tg_known = None
        scan = list(cpp_files(self.repo))
        scan += [p for p in sorted(self.repo.rglob("CMakeLists.txt"))
                 if "build" not in p.parts
                 and self.repo / "related" not in p.parents]
        for path in scan:
            text = path.read_text(encoding="utf-8")
            for i, ln in enumerate(text.splitlines(), start=1):
                tg = THROW_WAIVER_RE.search(ln)
                if tg and tg_known is not None and tg.group(1) not in tg_known:
                    self.findings.append(
                        f"{path.relative_to(self.repo)}:{i}: [stale-waiver] "
                        f"throw-graph waiver names unknown check "
                        f"'{tg.group(1)}'")
                m = WAIVER_RE.search(ln)
                if not m:
                    continue
                check = m.group(1)
                if check not in known:
                    self.findings.append(
                        f"{path.relative_to(self.repo)}:{i}: [stale-waiver] "
                        f"waiver names unknown check '{check}'")
                elif (str(path), i) not in self.used_waivers:
                    self.findings.append(
                        f"{path.relative_to(self.repo)}:{i}: [stale-waiver] "
                        f"waiver for '{check}' no longer suppresses any "
                        "finding; delete it")

    def run(self):
        self.check_metric_docs()
        self.check_headers()
        self.check_banned()
        self.check_cmake()
        self.check_parse_safety()
        self.check_wire_enum_switch()
        self.check_stale_corpus()
        self.check_stale_waivers()
        return self.findings


def self_test():
    """Prove the hostile-input checks catch seeded bugs in fixture trees.

    Exercised by the `repo_lint_selftest` ctest entry: a lint that silently
    stopped matching is worse than no lint, so the fixtures below must keep
    producing (and suppressing) exactly the expected findings.
    """
    import tempfile
    import textwrap
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)

    with tempfile.TemporaryDirectory() as td:
        repo = Path(td)
        svc = repo / "src" / "service"
        svc.mkdir(parents=True)
        (svc / "bad.cpp").write_text(textwrap.dedent("""\
            #include "service/wire.h"
            void bad_resize(WireReader& r, std::vector<int>& out) {
              const std::uint32_t count = r.u32();
              out.resize(count);
            }
            void bad_switch(FrameType type) {
              switch (type) {
                case FrameType::kHello:
                  break;
              }
            }
            void bad_accepting_default(FrameType type) {
              switch (type) {
                case FrameType::kHello:
                  break;
                default:
                  break;
              }
            }
            """), encoding="utf-8")
        (svc / "good.cpp").write_text(textwrap.dedent("""\
            #include "service/wire.h"
            void good_resize(WireReader& r, std::vector<int>& out) {
              const std::uint32_t count = r.u32();
              if (count > r.remaining() / 4) throw WireError("count");
              out.resize(count);
            }
            void good_switch(FrameType type) {
              switch (type) {
                case FrameType::kHello:
                  break;
                default:
                  throw WireError("unknown frame type");
              }
            }
            std::string formatter(FrameType t) {
              // defrag-lint: allow=wire-enum-switch — formatter only;
              switch (t) {
                case FrameType::kHello:
                  return "HELLO";
              }
              return "UNKNOWN";
            }
            """), encoding="utf-8")
        linter = Linter(repo)
        linter.check_parse_safety()
        linter.check_wire_enum_switch()
        text = "\n".join(linter.findings)
        expect("bad.cpp:4: [parse-safety]" in text,
               "seeded unguarded resize was not caught")
        expect("bad.cpp:7: [wire-enum-switch]" in text,
               "seeded defaultless FrameType switch was not caught")
        expect("bad.cpp:13: [wire-enum-switch]" in text,
               "seeded silently-accepting default was not caught")
        expect("good.cpp" not in text,
               f"guarded fixtures produced findings: {text}")
        expect(len(linter.findings) == 3,
               f"expected exactly 3 findings, got: {text}")
        expect(len(linter.used_waivers) == 1,
               "formatter waiver was not consumed")

    with tempfile.TemporaryDirectory() as td:
        repo = Path(td)
        fuzz = repo / "tests" / "fuzz"
        (fuzz / "corpus" / "fuzz_a").mkdir(parents=True)
        (fuzz / "corpus" / "fuzz_a" / "seed.bin").write_bytes(b"x")
        (fuzz / "corpus" / "fuzz_orphan").mkdir()
        (fuzz / "corpus" / "fuzz_orphan" / "seed.bin").write_bytes(b"x")
        (fuzz / "corpus" / "fuzz_empty").mkdir()
        (fuzz / "dict").mkdir()
        (fuzz / "dict" / "fuzz_a.dict").write_text('k="v"\n', encoding="utf-8")
        (fuzz / "dict" / "fuzz_empty.dict").write_text('k="v"\n',
                                                       encoding="utf-8")
        (fuzz / "fuzz_a.cpp").write_text("// harness\n", encoding="utf-8")
        (fuzz / "fuzz_empty.cpp").write_text("// harness\n", encoding="utf-8")
        (fuzz / "CMakeLists.txt").write_text(
            "set(DEFRAG_FUZZ_HARNESSES\n  fuzz_a\n  fuzz_empty\n"
            "  fuzz_missing)\n", encoding="utf-8")
        linter = Linter(repo)
        linter.check_stale_corpus()
        text = "\n".join(linter.findings)
        expect("'fuzz_orphan' matches no harness" in text,
               "orphaned corpus dir was not caught")
        expect("'fuzz_empty' has no seed corpus" in text,
               "empty corpus was not caught")
        expect("'fuzz_missing' is registered but" in text,
               "registered harness without a source was not caught")
        expect("fuzz_a" not in text,
               f"consistent harness was reported: {text}")

    for f in failures:
        print(f"defrag_lint --self-test: FAIL: {f}")
    if not failures:
        print("defrag_lint --self-test: ok")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(
        description="DeFrag repo lint (see module docstring for checks)",
        epilog="exit codes: 0 clean, 1 findings, 2 usage/internal error")
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
    findings = Linter().run()
    for f in findings:
        print(f)
    print(f"defrag_lint: {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as exc:  # noqa: BLE001 — lint must not die silently
        print(f"defrag_lint: internal error: {exc}", file=sys.stderr)
        sys.exit(2)
