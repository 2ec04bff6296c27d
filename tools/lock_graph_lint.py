#!/usr/bin/env python3
"""Lock-order analysis for the DeFrag codebase.

Builds the global lock graph from three sources and fails on any way the
declared hierarchy could be violated:

  1. Rank declarations in src/common/lock_order.h
     (`inline constexpr Rank kName{"name", level};`) — the canonical order.
  2. Mutex member declarations across src/ — every `Mutex` must be
     constructed with a declared rank (`Mutex mu_{lock_order::kX};`).
  3. `DEFRAG_ACQUIRED_BEFORE(...)` / `DEFRAG_ACQUIRED_AFTER(...)`
     annotations on Mutex declarations — explicit edges.
  4. A brace-tracking scan of src/ for *multi-lock scopes*: a
     `MutexLock`/`.lock()` acquisition while another lock is held in the
     same function. Each observed (outer, inner) pair must go strictly
     downward in the hierarchy (inner.level > outer.level).

Checks (all waivable with `lock-graph: allow=<check>` on the finding's
line or the line above, with a justification):

  rank-levels           declared ranks must have unique, non-negative levels
  unranked-mutex        a Mutex member/local in src/ without a rank
  unknown-rank          a Mutex ranked with an undeclared rank token
  lock-cycle            the edge set (ACQUIRED_* + observed pairs) contains
                        a cycle
  lock-order            an edge contradicts the declared levels (includes
                        same-level nesting: shard locks never nest)
  multi-lock-unresolved a nested acquisition whose lock cannot be resolved
                        to a ranked mutex

The runtime half of this contract is the debug lock-order validator in
src/common/sync.cpp, which checks actual acquisition order against the
same ranks.

Exit codes: 0 clean, 1 findings, 2 usage/internal error.
Only the Python 3 standard library is used; runs from any cwd.
"""

import argparse
import re
import sys
from pathlib import Path

from cpp_scan import run_on_fixture, strip_comments_and_strings

DEFAULT_REPO = Path(__file__).resolve().parent.parent
SRC_EXTS = {".cpp", ".h"}

# Files that define the primitives themselves, not users of them.
EXCLUDED = {"common/sync.h", "common/lock_order.h"}

RANK_DECL_RE = re.compile(
    r"inline\s+constexpr\s+Rank\s+(k\w+)\s*\{\s*\"([a-z_]+)\"\s*,\s*(-?\d+)")
MUTEX_DECL_RE = re.compile(
    r"\bMutex\s+(\w+)\s*"
    r"((?:DEFRAG_ACQUIRED_(?:BEFORE|AFTER)\s*\([^)]*\)\s*)*)"
    r"(?:\{\s*([\w:]+)\s*\})?\s*;")
ACQ_RE = re.compile(r"DEFRAG_ACQUIRED_(BEFORE|AFTER)\s*\(([^)]*)\)")
SCOPED_LOCK_RE = re.compile(r"\bMutexLock\s+\w+\s*\(\s*([^)]+?)\s*\)")
RAW_LOCK_RE = re.compile(r"([\w.\[\]()>-]+?)(?:\.|->)lock\s*\(\s*\)")
RAW_UNLOCK_RE = re.compile(r"([\w.\[\]()>-]+?)(?:\.|->)unlock\s*\(\s*\)")


def member_of(lock_expr):
    """Trailing member name of a lock expression: `s->mu` -> `mu`."""
    expr = lock_expr.strip()
    for sep in ("->", "."):
        if sep in expr:
            expr = expr.rsplit(sep, 1)[1]
    return re.sub(r"\W", "", expr)


class LockGraphLinter:
    def __init__(self, root):
        self.root = Path(root)
        self.src = self.root / "src"
        self.findings = []
        # rank token (kX) -> (name, level); also name -> level
        self.ranks = {}
        self.rank_levels = {}
        # member name -> set of rank names it is declared with (across files)
        self.member_ranks = {}
        # per-file member -> rank name
        self.file_member_ranks = {}
        # directed edges: (outer rank name, inner rank name, where, kind)
        self.edges = []
        # unresolved annotation edges: (outer member, inner member, path, line)
        self.raw_edges = []

    def report(self, check, path, lineno, message, lines=None):
        if lines is not None and lineno >= 1:
            window = lines[max(0, lineno - 2):lineno]
            if any(f"lock-graph: allow={check}" in ln for ln in window):
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
            if p.suffix in SRC_EXTS and \
                    str(p.relative_to(self.src)) not in EXCLUDED:
                yield p

    # ---- 1. rank declarations -------------------------------------------

    def parse_ranks(self):
        path = self.src / "common" / "lock_order.h"
        if not path.is_file():
            self.report("rank-levels", path, 0,
                        "src/common/lock_order.h is missing")
            return
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for i, ln in enumerate(lines, start=1):
            m = RANK_DECL_RE.search(ln)
            if not m:
                continue
            token, name, level = m.group(1), m.group(2), int(m.group(3))
            self.ranks[token] = (name, level)
            if name == "unranked":
                continue
            if level < 0:
                self.report("rank-levels", path, i,
                            f"rank '{name}' has negative level {level}",
                            lines)
            if level in self.rank_levels.values():
                other = [n for n, l in self.rank_levels.items()
                         if l == level]
                self.report("rank-levels", path, i,
                            f"rank '{name}' shares level {level} with "
                            f"'{other[0]}'; levels must be unique", lines)
            self.rank_levels[name] = level

    # ---- 2+3. Mutex declarations and ACQUIRED_* edges -------------------

    def parse_mutex_decls(self):
        for path in self.src_files():
            text = path.read_text(encoding="utf-8")
            stripped = strip_comments_and_strings(text)
            lines = text.splitlines()
            per_file = {}
            for m in MUTEX_DECL_RE.finditer(stripped):
                member, annos, init = m.group(1), m.group(2), m.group(3)
                lineno = stripped.count("\n", 0, m.start()) + 1
                rank_name = None
                if init is None:
                    self.report(
                        "unranked-mutex", path, lineno,
                        f"Mutex '{member}' has no lock_order rank; "
                        "construct it with a rank from common/lock_order.h",
                        lines)
                else:
                    token = init.rsplit("::", 1)[-1]
                    if token not in self.ranks:
                        self.report(
                            "unknown-rank", path, lineno,
                            f"Mutex '{member}' uses undeclared rank "
                            f"'{init}'", lines)
                    else:
                        rank_name = self.ranks[token][0]
                        per_file[member] = rank_name
                        self.member_ranks.setdefault(member, set()).add(
                            rank_name)
                for am in ACQ_RE.finditer(annos or ""):
                    direction, target = am.group(1), member_of(am.group(2))
                    pair = (member, target) if direction == "BEFORE" \
                        else (target, member)
                    self.raw_edges.append(
                        (pair[0], pair[1], path, lineno))
            if per_file:
                self.file_member_ranks[path] = per_file

    def resolve_annotation_edges(self):
        """Map ACQUIRED_* edge endpoints (member names) to rank names.

        An endpoint that cannot be resolved keeps its member name — cycle
        detection still sees the edge; only the level check needs ranks.
        """
        for outer, inner, path, lineno in self.raw_edges:
            o = self.resolve_rank(path, outer) or outer
            i = self.resolve_rank(path, inner) or inner
            self.edges.append((o, i, f"{path}:{lineno}", "annotation"))

    # ---- 4. multi-lock scope scan ---------------------------------------

    def resolve_rank(self, path, member):
        """Rank name for `member` as seen from `path`, or None."""
        own = self.file_member_ranks.get(path, {})
        if member in own:
            return own[member]
        # The paired header of src/mod/x.cpp is src/mod/x.h (and vice versa).
        pair = path.with_suffix(".h" if path.suffix == ".cpp" else ".cpp")
        if member in self.file_member_ranks.get(pair, {}):
            return self.file_member_ranks[pair][member]
        # Unique across the whole tree?
        ranks = self.member_ranks.get(member, set())
        if len(ranks) == 1:
            return next(iter(ranks))
        return None

    def scan_nested_scopes(self):
        for path in self.src_files():
            text = path.read_text(encoding="utf-8")
            stripped = strip_comments_and_strings(text)
            lines = text.splitlines()
            acquisitions = []  # (pos, kind, expr)
            for m in SCOPED_LOCK_RE.finditer(stripped):
                acquisitions.append((m.start(), "scoped", m.group(1)))
            for m in RAW_LOCK_RE.finditer(stripped):
                acquisitions.append((m.start(), "raw", m.group(1)))
            for m in RAW_UNLOCK_RE.finditer(stripped):
                acquisitions.append((m.start(), "unlock", m.group(1)))
            if not acquisitions:
                continue
            acquisitions.sort()
            events = {pos: (kind, expr) for pos, kind, expr in acquisitions}
            held = []  # (depth_at_acquire, expr, lineno)
            depth = 0
            for pos, ch in enumerate(stripped):
                if ch == "{":
                    depth += 1
                elif ch == "}":
                    depth -= 1
                    held = [h for h in held if h[0] <= depth]
                    if depth <= 0:
                        held = []
                if pos not in events:
                    continue
                kind, expr = events[pos]
                lineno = stripped.count("\n", 0, pos) + 1
                if kind == "unlock":
                    member = member_of(expr)
                    for idx in range(len(held) - 1, -1, -1):
                        if member_of(held[idx][1]) == member:
                            del held[idx]
                            break
                    continue
                if held:
                    outer = held[-1]
                    self.record_pair(path, lines, outer[1], outer[2],
                                     expr, lineno)
                # Released when the declaring scope closes (scoped locks) or
                # on an explicit unlock — whichever comes first.
                held.append((depth, expr, lineno))

    def record_pair(self, path, lines, outer_expr, outer_line, inner_expr,
                    inner_line):
        outer = self.resolve_rank(path, member_of(outer_expr))
        inner = self.resolve_rank(path, member_of(inner_expr))
        if outer is None or inner is None:
            which = outer_expr if outer is None else inner_expr
            self.report(
                "multi-lock-unresolved", path, inner_line,
                f"nested acquisition of '{inner_expr}' while holding "
                f"'{outer_expr}' (line {outer_line}); '{which}' does not "
                "resolve to a ranked Mutex — rank it or waive with a "
                "justification", lines)
            return
        self.edges.append((outer, inner, f"{path}:{inner_line}", "observed"))

    # ---- graph checks ----------------------------------------------------

    def check_graph(self):
        adj = {}
        for outer, inner, where, kind in self.edges:
            adj.setdefault(outer, set()).add(inner)
            lo = self.rank_levels.get(outer)
            li = self.rank_levels.get(inner)
            if lo is None or li is None:
                continue  # undeclared ranks already reported
            if li <= lo:
                detail = ("same-level locks must never nest"
                          if li == lo else
                          "contradicts the declared hierarchy")
                self.report(
                    "lock-order", where.rsplit(":", 1)[0],
                    int(where.rsplit(":", 1)[1]),
                    f"{kind} edge '{outer}' (level {lo}) -> '{inner}' "
                    f"(level {li}): {detail}")
        # Cycle detection over the explicit edge set.
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {n: WHITE for n in
                 set(adj) | {v for vs in adj.values() for v in vs}}
        stack_path = []

        def dfs(n):
            color[n] = GRAY
            stack_path.append(n)
            for v in sorted(adj.get(n, ())):
                if color[v] == GRAY:
                    cyc = stack_path[stack_path.index(v):] + [v]
                    self.report("lock-cycle", "src", 0,
                                "lock graph cycle: " + " -> ".join(cyc))
                elif color[v] == WHITE:
                    dfs(v)
            stack_path.pop()
            color[n] = BLACK

        for n in sorted(color):
            if color[n] == WHITE:
                dfs(n)

    def run(self):
        self.parse_ranks()
        self.parse_mutex_decls()
        self.resolve_annotation_edges()
        self.scan_nested_scopes()
        self.check_graph()
        return self.findings


# ---- self-test -----------------------------------------------------------

CLEAN_FIXTURE = {
    "src/common/lock_order.h": """
namespace defrag::lock_order {
struct Rank { const char* name; int level; };
inline constexpr Rank kUnranked{"unranked", -1};
inline constexpr Rank kOuter{"outer", 10};
inline constexpr Rank kInner{"inner", 20};
}
""",
    "src/mod/thing.h": """
#pragma once
class Thing {
  Mutex outer_{lock_order::kOuter};
  Mutex inner_{lock_order::kInner};
};
""",
    "src/mod/thing.cpp": """
#include "mod/thing.h"
void Thing::go() {
  MutexLock a(outer_);
  MutexLock b(inner_);
}
""",
}

SEEDED_CYCLE_FIXTURE = {
    "src/common/lock_order.h": CLEAN_FIXTURE["src/common/lock_order.h"],
    "src/mod/thing.h": """
#pragma once
class Thing {
  Mutex outer_ DEFRAG_ACQUIRED_BEFORE(inner_){lock_order::kOuter};
  Mutex inner_ DEFRAG_ACQUIRED_BEFORE(outer_){lock_order::kInner};
};
""",
}

INVERTED_SCOPE_FIXTURE = {
    "src/common/lock_order.h": CLEAN_FIXTURE["src/common/lock_order.h"],
    "src/mod/thing.h": CLEAN_FIXTURE["src/mod/thing.h"],
    "src/mod/thing.cpp": """
#include "mod/thing.h"
void Thing::go() {
  MutexLock a(inner_);
  MutexLock b(outer_);
}
""",
}

UNRANKED_FIXTURE = {
    "src/common/lock_order.h": CLEAN_FIXTURE["src/common/lock_order.h"],
    "src/mod/thing.h": """
#pragma once
class Thing {
  Mutex mu_;
};
""",
}


def self_test():
    failures = []

    found = run_on_fixture(CLEAN_FIXTURE, LockGraphLinter)
    if found:
        failures.append(f"clean fixture should pass, got: {found}")

    found = run_on_fixture(SEEDED_CYCLE_FIXTURE, LockGraphLinter)
    if not any("[lock-cycle]" in f for f in found):
        failures.append(f"seeded cycle not detected, got: {found}")
    if not any("[lock-order]" in f for f in found):
        failures.append(f"cycle edges should contradict levels: {found}")

    found = run_on_fixture(INVERTED_SCOPE_FIXTURE, LockGraphLinter)
    if not any("[lock-order]" in f and "observed" in f for f in found):
        failures.append(f"inverted nested scope not detected: {found}")

    found = run_on_fixture(UNRANKED_FIXTURE, LockGraphLinter)
    if not any("[unranked-mutex]" in f for f in found):
        failures.append(f"unranked Mutex not detected: {found}")

    for f in failures:
        print(f"self-test FAILED: {f}")
    if not failures:
        print("lock_graph_lint: self-test ok (4 fixtures)")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(
        description="DeFrag lock-order lint (see module docstring)",
        epilog="exit codes: 0 clean, 1 findings, 2 usage/internal error")
    ap.add_argument("--root", default=str(DEFAULT_REPO),
                    help="repo root to scan (default: this repo)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the linter against seeded-violation fixtures")
    ap.add_argument("--list-checks", action="store_true",
                    help="print check names and exit")
    args = ap.parse_args()
    if args.list_checks:
        print("rank-levels unranked-mutex unknown-rank lock-cycle "
              "lock-order multi-lock-unresolved")
        return 0
    if args.self_test:
        return self_test()
    findings = LockGraphLinter(args.root).run()
    for f in findings:
        print(f)
    print(f"lock_graph_lint: {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as exc:  # noqa: BLE001 — lint must not die silently
        print(f"lock_graph_lint: internal error: {exc}", file=sys.stderr)
        sys.exit(2)
