#!/usr/bin/env python3
"""Fail on broken relative links in the repo's markdown files.

Scans every tracked *.md file for inline links/images `[text](target)`
and reference definitions `[label]: target`, skips absolute URLs
(http/https/mailto) and pure in-page anchors (#...), and checks that the
remaining relative targets exist on disk (resolved against the linking
file's directory; a trailing #fragment is ignored for existence). A
listed file missing from the working tree (deleted, not yet staged) has
no links to check and is skipped; links *to* it from other files still
report as broken. Run from anywhere inside the repo; CI runs it as the
docs job.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

# Inline [text](target) — target ends at the first unescaped ')' or a
# space introducing a title: [x](path "title"). Images are the same
# syntax with a leading '!'.
INLINE_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
# Reference definition: [label]: target
REFDEF_RE = re.compile(r"^\s*\[[^\]]+\]:\s+(\S+)", re.MULTILINE)
SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")


def repo_root() -> Path:
    out = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"],
        check=True, capture_output=True, text=True,
    )
    return Path(out.stdout.strip())


def markdown_files(root: Path) -> list[Path]:
    # --others --exclude-standard also picks up not-yet-committed docs so
    # the check catches broken links before they land.
    out = subprocess.run(
        ["git", "ls-files", "--cached", "--others", "--exclude-standard",
         "*.md", "**/*.md"],
        check=True, capture_output=True, text=True, cwd=root,
    )
    # A tracked file deleted but not yet staged has no links to check.
    return [root / line for line in out.stdout.splitlines()
            if line and (root / line).is_file()]


def strip_code(text: str) -> str:
    """Drop fenced blocks (line-based, so a ``` mentioned mid-prose
    cannot mispair with a real fence) and inline `code` spans — both
    routinely contain [x](y)-looking text that is not a link."""
    kept = []
    in_fence = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence:
            kept.append(line)
    return re.sub(r"`[^`\n]*`", "", "\n".join(kept))


def check_file(md: Path, root: Path) -> list[str]:
    text = strip_code(md.read_text(encoding="utf-8"))
    errors = []
    targets = INLINE_RE.findall(text) + REFDEF_RE.findall(text)
    for target in targets:
        if target.startswith(SKIP_PREFIXES):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        resolved = (md.parent / path).resolve()
        if not resolved.exists():
            rel = md.relative_to(root)
            errors.append(f"{rel}: broken relative link -> {target}")
    return errors


def main() -> int:
    root = repo_root()
    files = markdown_files(root)
    errors = []
    for md in files:
        errors.extend(check_file(md, root))
    if errors:
        print("\n".join(errors))
        print(f"\n{len(errors)} broken link(s) in {len(files)} markdown "
              "file(s)")
        return 1
    print(f"ok: {len(files)} markdown files, all relative links resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
