#!/usr/bin/env python3
"""Keeps docs/ANALYSIS.md's span taxonomy in step with the spans in src/.

Fails when an ``NP_TRACE_SCOPE("...")`` literal in src/ has no row in the
table under the "Span taxonomy" heading, or when the table names a span
that src/ no longer opens. Only the table's first column is read. A cell
may list several spans; one that starts with a dot is shorthand that keeps
the previous full name's prefix, so ``pipeline.cleanup.detrend`` /
``.filter`` names ``pipeline.cleanup.filter``. Literals inside ``//``
comments (such as the usage example in util/trace.h) are not spans.

Usage:
    check_span_table.py [REPO_ROOT]    (default: the parent of tools/)
"""

import pathlib
import re
import sys

SCOPE = re.compile(r'NP_TRACE_SCOPE\("([^"]+)"\)')
CODE = re.compile(r"`([^`]+)`")


def source_spans(src):
    spans = {}
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        for number, line in enumerate(path.read_text().splitlines(), 1):
            code = line.split("//", 1)[0]
            for name in SCOPE.findall(code):
                spans.setdefault(name, f"{path.relative_to(src.parent)}:{number}")
    return spans


def table_spans(analysis):
    lines = analysis.read_text().splitlines()
    try:
        start = lines.index("### Span taxonomy")
    except ValueError:
        sys.exit(f"{analysis}: no '### Span taxonomy' heading")
    spans = set()
    for line in lines[start + 1:]:
        if line.startswith("#"):
            break
        if not line.startswith("|"):
            continue
        prefix = None
        for name in CODE.findall(line.split("|")[1]):
            if name.startswith("."):
                if prefix is None:
                    sys.exit(f"{analysis}: shorthand `{name}` has no full "
                             f"span before it in: {line}")
                name = prefix + name
            prefix = name.rsplit(".", 1)[0]
            spans.add(name)
    if not spans:
        sys.exit(f"{analysis}: the span taxonomy table is empty")
    return spans


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else
                        pathlib.Path(__file__).resolve().parent.parent)
    in_src = source_spans(root / "src")
    in_table = table_spans(root / "docs" / "ANALYSIS.md")
    failed = False
    for name in sorted(set(in_src) - in_table):
        print(f"{in_src[name]}: span `{name}` is missing from the "
              f"docs/ANALYSIS.md span taxonomy")
        failed = True
    for name in sorted(in_table - set(in_src)):
        print(f"docs/ANALYSIS.md: span taxonomy names `{name}`, which no "
              f"NP_TRACE_SCOPE in src/ opens")
        failed = True
    if failed:
        return 1
    print(f"span taxonomy OK: {len(in_src)} spans")
    return 0


if __name__ == "__main__":
    sys.exit(main())
