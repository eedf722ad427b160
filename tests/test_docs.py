"""The docs site: relative links resolve, key pages cross-link."""

import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent

sys.path.insert(0, str(ROOT / "tools"))

from check_docs_links import dead_links, iter_doc_files  # noqa: E402


def test_docs_exist():
    names = {p.name for p in iter_doc_files(ROOT)}
    assert {"README.md", "index.md", "sweeps.md", "store.md",
            "kernel.md", "profiling.md", "observability.md"} <= names


def test_profiling_page_is_cross_linked():
    for page in ("index.md", "kernel.md", "sweeps.md"):
        text = (ROOT / "docs" / page).read_text(encoding="utf-8")
        assert "profiling.md" in text, f"{page} lost its profiling link"


def test_observability_page_is_cross_linked():
    for page in ("index.md", "sweeps.md", "profiling.md"):
        text = (ROOT / "docs" / page).read_text(encoding="utf-8")
        assert "observability.md" in text, \
            f"{page} lost its observability link"


def test_no_dead_relative_links():
    assert dead_links(ROOT) == []


def test_broken_link_detected(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "a.md").write_text(
        "[good](a.md) and [bad](missing.md) and [web](https://x.example)\n"
        "`docs/a.md` lives, `python docs/gone.py --quick` does not and\n"
        "`docs/*.md` names no single file\n"
    )
    assert dead_links(tmp_path) == [
        "docs/a.md: missing.md", "docs/a.md: `docs/gone.py`",
    ]
