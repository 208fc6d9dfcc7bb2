"""Documentation health: intra-repo markdown links, doctests and
README's code.

Run by the CI ``docs`` job (and by the tier-1 suite): every relative
link in README/ROADMAP/docs/* must resolve to a real file, the
doctest examples on the public API must pass, and every ``python``
block of README.md must run as written.
"""

import doctest
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markdown files whose links must resolve.
DOC_FILES = sorted(
    [REPO_ROOT / "README.md", REPO_ROOT / "ROADMAP.md"]
    + list((REPO_ROOT / "docs").glob("*.md")))

#: ``[text](target)`` — good enough for the plain links these docs use.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Modules whose doctests gate the docs job.
DOCTEST_MODULES = ["repro.core.optimizer"]

#: A fenced ``python`` block's body.
_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)


def _relative_links(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    # fenced code blocks may contain bracket syntax that is not a link
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    links = []
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        links.append(target.split("#", 1)[0])
    return links


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_intra_repo_markdown_links_resolve(doc):
    assert doc.exists(), f"{doc} listed but missing"
    broken = [target for target in _relative_links(doc)
              if not (doc.parent / target).exists()]
    assert not broken, f"{doc.name} has broken links: {broken}"


def test_doc_files_list_is_not_empty():
    """The docs satellite exists: README plus at least one docs/ page."""
    names = {path.name for path in DOC_FILES}
    assert "README.md" in names
    assert "ARCHITECTURE.md" in names


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_doctests_pass(module_name):
    module = __import__(module_name, fromlist=["_"])
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"{module_name} lost its doctests"
    assert result.failed == 0


def test_readme_python_blocks_run():
    """Each ``python`` block of README.md runs in a fresh namespace, so
    an API change cannot leave README's example stale."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    blocks = _PYTHON_BLOCK.findall(readme)
    assert blocks, "README.md lost its python examples"
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {number}", "exec"),
             {"__name__": "readme"})
