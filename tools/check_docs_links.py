#!/usr/bin/env python3
"""Fail on dead relative links and dead repo paths in the Markdown docs.

Scans ``docs/*.md`` and ``README.md`` for inline Markdown links and
images, resolves every *relative* target against the linking file's
directory, and exits non-zero listing any target that does not exist.
External links (``http(s)://``, ``mailto:``) and pure in-page anchors
(``#...``) are ignored; a relative link's ``#fragment`` is stripped
before the existence check.

Backticked repo paths are resolved too, so a deleted file cannot stay
documented: inside an inline code span, every word whose first segment
is one of :data:`REPO_DIRS` must exist under the repo root (a
``:line`` or ``::test`` suffix is dropped first).  Globs, ``{a,b}``
sets and ``<placeholders>`` name no single file and are skipped.

CI runs this as the docs gate; locally::

    python tools/check_docs_links.py [ROOT]
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

#: Inline links/images: [text](target) — target captured lazily so
#: titles ("...") and nested parens in URLs stay out of scope.
LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Schemes that are not filesystem targets.
EXTERNAL = ("http://", "https://", "mailto:", "ftp://")

#: Top-level directories a backticked word must start with to be read
#: as a repo path.
REPO_DIRS = ("src", "tests", "benchmarks", "docs", "tools", "examples")

FENCED = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
CODE_SPAN = re.compile(r"`([^`]+)`")
REPO_PATH = re.compile(rf"(?:{'|'.join(REPO_DIRS)})/[^\s:]*")
NOT_ONE_FILE = re.compile(r"[*?\[{<]")


def iter_doc_files(root: Path) -> list[Path]:
    docs = sorted((root / "docs").glob("*.md"))
    readme = root / "README.md"
    return ([readme] if readme.exists() else []) + docs


def dead_links(root: Path) -> list[str]:
    """Every broken relative link as ``file: target`` strings."""
    problems: list[str] = []
    for doc in iter_doc_files(root):
        text = doc.read_text(encoding="utf-8")
        for match in LINK.finditer(text):
            target = match.group(1)
            if target.startswith(EXTERNAL) or target.startswith("#"):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:
                continue
            resolved = (doc.parent / path_part).resolve()
            if not resolved.exists():
                problems.append(f"{doc.relative_to(root)}: {target}")
        for span in CODE_SPAN.findall(FENCED.sub("", text)):
            for word in span.split():
                match = REPO_PATH.match(word)
                if match is None or NOT_ONE_FILE.search(word):
                    continue
                path = match.group().rstrip(".,;)")
                if not (root / path).exists():
                    problems.append(f"{doc.relative_to(root)}: `{path}`")
    return problems


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).parent.parent
    files = iter_doc_files(root)
    problems = dead_links(root)
    if problems:
        print(f"dead links in {len(files)} scanned file(s):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"docs links OK ({len(files)} file(s) scanned)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
