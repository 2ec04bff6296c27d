#!/usr/bin/env python3
"""Module layering analysis for the DeFrag codebase.

Derives the include graph of src/ and enforces the declared module DAG
(mirrored in docs/STATIC_ANALYSIS.md "Module DAG"):

    common
      |- obs, chunking, compress          (leaf utilities over common)
      |- storage   <- common, obs, compress
      |- index     <- common, obs, chunking, storage
      |- workload  <- common, chunking
      |- dedup     <- common, obs, chunking, storage, index
      |- core      <- everything above (engines + parallel ingest)
    tools / bench / examples / tests sit above core and may include anything.

Checks (all waivable with `layering: allow=<check>` on the finding's line
or the line above, with a justification):

  dag-cycle        the declared DAG itself must be acyclic (self-check)
  layer-back-edge  an #include crossing modules against the DAG (includes
                   unknown modules: src/ may not include tests/bench)
  cmake-link       the include graph and the CMake link graph must agree:
                   every include edge is backed by a (transitive) PUBLIC
                   link dependency, and every direct defrag_* link edge is
                   exercised by at least one direct include (no stale deps)
  iwyu-transitive  IWYU-lite: a file naming a type that is declared in a
                   header it reaches only transitively must include that
                   header directly (no transitive freeloading)

Exit codes: 0 clean, 1 findings, 2 usage/internal error.
Only the Python 3 standard library is used; runs from any cwd.
"""

import argparse
import re
import sys
import tempfile
from pathlib import Path

from cpp_scan import run_on_fixture, strip_comments_and_strings

DEFAULT_REPO = Path(__file__).resolve().parent.parent
SRC_EXTS = {".cpp", ".h"}

# The declared module DAG: module -> direct allowed dependencies. Keep in
# sync with docs/STATIC_ANALYSIS.md and the src/*/CMakeLists.txt link graph
# (the cmake-link check cross-validates the latter automatically).
DEFAULT_DAG = {
    "common": set(),
    "obs": {"common"},
    "chunking": {"common", "obs"},
    "compress": {"common"},
    "storage": {"common", "obs", "compress"},
    "index": {"common", "obs", "chunking", "storage"},
    "workload": {"common", "chunking"},
    "dedup": {"common", "obs", "chunking", "storage", "index"},
    "core": {"common", "obs", "chunking", "compress", "storage", "index",
             "dedup", "workload"},
    "service": {"common", "obs", "chunking", "compress", "storage", "index",
                "dedup", "workload", "core"},
}

INCLUDE_RE = re.compile(r"#include\s+\"([^\"]+)\"")
LINK_RE = re.compile(
    r"target_link_libraries\s*\(\s*(defrag_\w+)([^)]*)\)", re.DOTALL)
# Top-level type declarations (column 0): class/struct/enum class NAME,
# optionally behind a capability macro. The name must be followed by `{`
# (definition), a single `:` (inheritance), or `;` (forward declaration,
# filtered out below) — this rejects qualified names (`struct std::x`)
# and template specializations (`struct hash<T>`).
TYPE_DECL_RE = re.compile(
    r"^(?:class|struct|enum\s+class)\s+(?:DEFRAG_\w+\(\"[^\"]*\"\)\s+)?"
    r"([A-Za-z_]\w*)\s*(?:final\s*)?(?:\{|:(?!:)|(;))", re.MULTILINE)


class LayeringLinter:
    def __init__(self, root, dag=None):
        self.root = Path(root)
        self.src = self.root / "src"
        self.dag = dag if dag is not None else DEFAULT_DAG
        self.findings = []
        # rel path ("mod/file.h") -> [(rel include, lineno), ...]
        self.includes = {}
        # rel path -> stripped text
        self.stripped = {}

    def report(self, check, path, lineno, message, lines=None):
        if lines is not None and lineno >= 1:
            window = lines[max(0, lineno - 2):lineno]
            if any(f"layering: allow={check}" in ln for ln in window):
                return
        try:
            rel = Path(path).relative_to(self.root)
        except ValueError:
            rel = path
        self.findings.append(f"{rel}:{lineno}: [{check}] {message}")

    def src_files(self):
        if not self.src.is_dir():
            return
        for p in sorted(self.src.rglob("*")):
            if p.suffix in SRC_EXTS:
                yield p

    def rel(self, path):
        return str(Path(path).relative_to(self.src))

    @staticmethod
    def module_of(rel_path):
        return str(rel_path).split("/", 1)[0]

    # ---- declared DAG self-check ----------------------------------------

    def check_dag_acyclic(self):
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {m: WHITE for m in self.dag}
        stack = []

        def dfs(m):
            color[m] = GRAY
            stack.append(m)
            for d in sorted(self.dag.get(m, ())):
                if d not in self.dag:
                    self.report("dag-cycle", "tools/layering_lint.py", 0,
                                f"declared DAG names unknown module '{d}'")
                elif color[d] == GRAY:
                    cyc = stack[stack.index(d):] + [d]
                    self.report("dag-cycle", "tools/layering_lint.py", 0,
                                "declared module DAG has a cycle: "
                                + " -> ".join(cyc))
                elif color[d] == WHITE:
                    dfs(d)
            stack.pop()
            color[m] = BLACK

        for m in sorted(self.dag):
            if color[m] == WHITE:
                dfs(m)

    # ---- include graph ----------------------------------------------------

    def parse_includes(self):
        for path in self.src_files():
            text = path.read_text(encoding="utf-8")
            stripped = strip_comments_and_strings(text)
            rel = self.rel(path)
            self.stripped[rel] = stripped
            incs = []
            # Match on raw lines (stripping blanks the "..." path); use the
            # stripped line only to skip commented-out includes.
            raw_lines = text.splitlines()
            for i, ln in enumerate(stripped.splitlines(), start=1):
                if "#include" not in ln:
                    continue
                m = INCLUDE_RE.search(raw_lines[i - 1])
                if m:
                    incs.append((m.group(1), i))
            self.includes[rel] = incs

    def check_layering(self):
        for rel, incs in sorted(self.includes.items()):
            mod = self.module_of(rel)
            lines = (self.src / rel).read_text(encoding="utf-8").splitlines()
            allowed = self.dag.get(mod)
            for inc, lineno in incs:
                dep = self.module_of(inc)
                if dep == mod:
                    continue
                if allowed is None:
                    self.report("layer-back-edge", self.src / rel, lineno,
                                f"module '{mod}' is not in the declared "
                                "DAG; add it to tools/layering_lint.py and "
                                "docs/STATIC_ANALYSIS.md", lines)
                    break
                if dep not in self.dag:
                    self.report("layer-back-edge", self.src / rel, lineno,
                                f"include of '{inc}': '{dep}' is not a src/ "
                                "module (src may not reach tests/bench/"
                                "tools)", lines)
                elif dep not in allowed:
                    self.report("layer-back-edge", self.src / rel, lineno,
                                f"include of '{inc}': edge {mod} -> {dep} "
                                "is not in the declared module DAG "
                                "(back-edge or undeclared dependency)",
                                lines)

    # ---- CMake link graph cross-check ------------------------------------

    def parse_cmake_links(self):
        """defrag_<mod> -> set of directly linked defrag_<dep> modules."""
        links = {}
        for mod in self.dag:
            cml = self.src / mod / "CMakeLists.txt"
            if not cml.is_file():
                continue
            text = cml.read_text(encoding="utf-8")
            for m in LINK_RE.finditer(text):
                target = m.group(1)
                if target != f"defrag_{mod}":
                    continue
                deps = set()
                for dep in re.findall(r"defrag_(\w+)", m.group(2)):
                    if dep != "compile_options":
                        deps.add(dep)
                links[mod] = deps
        return links

    def check_cmake_links(self):
        links = self.parse_cmake_links()
        if not links:
            return  # fixture trees without CMake

        def closure(mod, seen=None):
            seen = seen if seen is not None else set()
            for d in links.get(mod, ()):
                if d not in seen:
                    seen.add(d)
                    closure(d, seen)
            return seen

        # include edge -> must be linked (transitively: PUBLIC deps chain).
        used_edges = {}
        for rel, incs in self.includes.items():
            mod = self.module_of(rel)
            for inc, lineno in incs:
                dep = self.module_of(inc)
                if dep == mod or dep not in self.dag:
                    continue
                used_edges.setdefault(mod, set()).add(dep)
                if mod in links and dep not in closure(mod):
                    self.report(
                        "cmake-link", self.src / rel, lineno,
                        f"{mod} includes {inc} but defrag_{mod} does not "
                        f"link defrag_{dep} (directly or transitively)")
        # stale direct link: no direct include exercises it and it is not
        # needed transitively for another used edge either.
        for mod, deps in sorted(links.items()):
            used = used_edges.get(mod, set())
            for dep in sorted(deps):
                if dep in used:
                    continue
                # Keep link deps that carry a used transitive dependency.
                if any(u in closure(dep) | {dep} for u in used):
                    continue
                self.report(
                    "cmake-link", self.src / mod / "CMakeLists.txt", 0,
                    f"defrag_{mod} links defrag_{dep} but no file in "
                    f"src/{mod} includes {dep}/ headers (stale link "
                    "dependency)")

    # ---- IWYU-lite --------------------------------------------------------

    def collect_type_owners(self):
        """Type name -> defining header rel path, for names declared at
        top level in exactly one src header."""
        owners = {}
        ambiguous = set()
        for rel, stripped in self.stripped.items():
            if not rel.endswith(".h"):
                continue
            for m in TYPE_DECL_RE.finditer(stripped):
                name, fwd = m.group(1), m.group(2)
                if fwd:  # forward declaration, not a definition
                    continue
                if name in owners and owners[name] != rel:
                    ambiguous.add(name)
                owners[name] = rel
        return {n: h for n, h in owners.items() if n not in ambiguous}

    def transitive_includes(self, rel):
        seen = set()
        work = [inc for inc, _ in self.includes.get(rel, ())]
        while work:
            inc = work.pop()
            if inc in seen or inc not in self.includes:
                continue
            seen.add(inc)
            work.extend(i for i, _ in self.includes[inc])
        return seen

    def check_iwyu(self):
        owners = self.collect_type_owners()
        for rel, stripped in sorted(self.stripped.items()):
            direct = {inc for inc, _ in self.includes.get(rel, ())}
            reach = self.transitive_includes(rel)
            pair = rel[:-4] + ".h" if rel.endswith(".cpp") else None
            lines = (self.src / rel).read_text(encoding="utf-8").splitlines()
            for name, owner in sorted(owners.items()):
                if owner == rel or owner == pair or owner in direct:
                    continue
                if owner not in reach:
                    continue  # not reachable: a real use would not compile
                m = re.search(r"\b" + re.escape(name) + r"\b", stripped)
                if not m:
                    continue
                lineno = stripped.count("\n", 0, m.start()) + 1
                self.report(
                    "iwyu-transitive", self.src / rel, lineno,
                    f"uses '{name}' (defined in {owner}) but only reaches "
                    f"that header transitively; include \"{owner}\" "
                    "directly", lines)

    def run(self):
        self.check_dag_acyclic()
        self.parse_includes()
        self.check_layering()
        self.check_cmake_links()
        self.check_iwyu()
        return self.findings


# ---- self-test -----------------------------------------------------------

CLEAN_FIXTURE = {
    "src/common/widget.h": "#pragma once\nclass Widget {};\n",
    "src/storage/box.h": "#pragma once\n#include \"common/widget.h\"\n"
                         "class Box { Widget w_; };\n",
    "src/dedup/engine.cpp": "#include \"storage/box.h\"\n"
                            "void go(Box&) {}\n",
}

BACK_EDGE_FIXTURE = {
    "src/common/widget.h": CLEAN_FIXTURE["src/common/widget.h"],
    "src/dedup/engine.h": "#pragma once\nclass Engine {};\n",
    # storage -> dedup is a back-edge against the declared DAG.
    "src/storage/box.cpp": "#include \"dedup/engine.h\"\nvoid go(Engine&) {}\n",
}

IWYU_FIXTURE = {
    "src/common/widget.h": CLEAN_FIXTURE["src/common/widget.h"],
    "src/storage/box.h": CLEAN_FIXTURE["src/storage/box.h"],
    # Uses Widget but only includes box.h (reaches widget.h transitively).
    "src/dedup/engine.cpp": "#include \"storage/box.h\"\n"
                            "Widget make() { return Widget{}; }\n",
}


def self_test():
    failures = []

    found = run_on_fixture(CLEAN_FIXTURE, LayeringLinter)
    if found:
        failures.append(f"clean fixture should pass, got: {found}")

    found = run_on_fixture(BACK_EDGE_FIXTURE, LayeringLinter)
    if not any("[layer-back-edge]" in f and "storage -> dedup" in f
               for f in found):
        failures.append(f"seeded back-edge not detected, got: {found}")

    found = run_on_fixture(IWYU_FIXTURE, LayeringLinter)
    if not any("[iwyu-transitive]" in f and "Widget" in f for f in found):
        failures.append(f"transitive type use not detected, got: {found}")

    cyclic = dict(DEFAULT_DAG)
    cyclic["common"] = {"core"}
    linter = LayeringLinter(Path(tempfile.gettempdir()) / "nonexistent",
                            dag=cyclic)
    linter.check_dag_acyclic()
    if not any("[dag-cycle]" in f for f in linter.findings):
        failures.append(f"DAG cycle not detected, got: {linter.findings}")

    for f in failures:
        print(f"self-test FAILED: {f}")
    if not failures:
        print("layering_lint: self-test ok (4 fixtures)")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(
        description="DeFrag module layering lint (see module docstring)",
        epilog="exit codes: 0 clean, 1 findings, 2 usage/internal error")
    ap.add_argument("--root", default=str(DEFAULT_REPO),
                    help="repo root to scan (default: this repo)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the linter against seeded-violation fixtures")
    ap.add_argument("--list-checks", action="store_true",
                    help="print check names and exit")
    args = ap.parse_args()
    if args.list_checks:
        print("dag-cycle layer-back-edge cmake-link iwyu-transitive")
        return 0
    if args.self_test:
        return self_test()
    findings = LayeringLinter(args.root).run()
    for f in findings:
        print(f)
    print(f"layering_lint: {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as exc:  # noqa: BLE001 — lint must not die silently
        print(f"layering_lint: internal error: {exc}", file=sys.stderr)
        sys.exit(2)
