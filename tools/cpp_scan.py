"""C++ source scanning shared by the repo's static-analysis lints.

defrag_lint.py, layering_lint.py, lock_graph_lint.py and
throw_graph_lint.py all match regexes against C++ text with comments and
string literals blanked first, and the fixture-driven self-tests write a
miniature repo to a temporary directory and lint it. Both live here once;
the lints import this module from their own directory.

Only the Python 3 standard library is used.
"""

import tempfile
from pathlib import Path


def strip_comments_and_strings(text, keep_strings=False):
    """Blank out comments and string/char literals, preserving line count.

    Comments become spaces (newlines kept), so line and column positions
    survive. Literals collapse to an empty pair of quotes unless
    keep_strings, which keeps their text (scans that need literal contents,
    such as failpoint names). Good enough for a lint: handles // and /* */
    comments and simple quoted literals; raw strings in this codebase are
    absent by convention.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            out.extend(ch if ch == "\n" else " " for ch in text[i:j + 2])
            i = j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    break
                j += 1
            out.append(quote)
            if keep_strings:
                out.append(text[i + 1:j])
            out.append(quote)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def run_on_fixture(files, linter):
    """Write `files` ({relative path: content}) under a temporary root and
    return `linter(root).run()` — the findings of one self-test fixture."""
    with tempfile.TemporaryDirectory() as td:
        root = Path(td)
        for rel, content in files.items():
            p = root / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(content, encoding="utf-8")
        return linter(root).run()
