#!/usr/bin/env python3
"""Cross-check compile_commands.json against the source tree.

Every `.cc` file under the scanned directories must appear in the
exported compilation database: a file missing from the build is
invisible to clang-tidy, so its regressions ship silently. This ctest
turns that blind spot into a failure.

Usage:
  python3 tools/check_compile_commands.py REPO_ROOT COMPILE_COMMANDS \
      [--dirs src bench] [--json report.json]
  python3 tools/check_compile_commands.py --self-test

Exit codes: 0 full coverage, 1 missing files, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile

DEFAULT_DIRS = ("src",)


def tree_sources(root: pathlib.Path, dirs: tuple[str, ...]) -> list[str]:
    out = []
    for sub in dirs:
        base = root / sub
        if not base.is_dir():
            continue
        for p in sorted(base.rglob("*.cc")):
            if p.is_file():
                out.append(p.relative_to(root).as_posix())
    return out


def database_sources(root: pathlib.Path,
                     ccj: pathlib.Path) -> set[str]:
    entries = json.loads(ccj.read_text())
    out: set[str] = set()
    for e in entries:
        f = pathlib.Path(e["file"])
        if not f.is_absolute():
            f = pathlib.Path(e["directory"]) / f
        try:
            out.add(f.resolve().relative_to(root.resolve()).as_posix())
        except ValueError:
            continue  # outside the repo (system stubs etc.)
    return out


def check(root: pathlib.Path, ccj: pathlib.Path, dirs: tuple[str, ...],
          json_out: str | None) -> int:
    if not ccj.is_file():
        print(f"check_compile_commands: no such file: {ccj}",
              file=sys.stderr)
        return 2
    wanted = tree_sources(root, dirs)
    have = database_sources(root, ccj)
    missing = [f for f in wanted if f not in have]
    for f in missing:
        print(f"{f}: not in {ccj.name} — the file is never compiled, so "
              f"clang-tidy cannot see it; add it to the build or delete "
              f"it")
    print(f"check_compile_commands: {len(wanted)} tree sources, "
          f"{len(have)} database entries under the root, "
          f"{len(missing)} missing")
    if json_out:
        pathlib.Path(json_out).write_text(json.dumps({
            "tool": "check_compile_commands",
            "root": str(root),
            "database": str(ccj),
            "tree_sources": len(wanted),
            "missing": missing,
        }, indent=2) + "\n")
    return 1 if missing else 0


def self_test() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="ccc-") as tmp:
        root = pathlib.Path(tmp)
        (root / "src" / "a").mkdir(parents=True)
        built = root / "src" / "a" / "built.cc"
        orphan = root / "src" / "a" / "orphan.cc"
        header = root / "src" / "a" / "only.hh"
        for p in (built, orphan, header):
            p.write_text("// fixture\n")
        ccj = root / "compile_commands.json"

        def write_db(files: list[pathlib.Path]) -> None:
            ccj.write_text(json.dumps([
                {"directory": str(root), "file": str(f),
                 "command": f"c++ -c {f}"} for f in files]))

        # Full coverage (headers are not TUs and must not be required).
        write_db([built, orphan])
        if check(root, ccj, ("src",), None) != 0:
            print("self-test FAIL: full coverage reported missing files")
            failures += 1
        # Orphaned source must fail.
        write_db([built])
        if check(root, ccj, ("src",), None) != 1:
            print("self-test FAIL: orphan.cc not detected")
            failures += 1
        # Relative database paths resolve against `directory`.
        ccj.write_text(json.dumps([
            {"directory": str(root), "file": "src/a/built.cc",
             "command": "c++ -c src/a/built.cc"},
            {"directory": str(root), "file": "src/a/orphan.cc",
             "command": "c++ -c src/a/orphan.cc"}]))
        if check(root, ccj, ("src",), None) != 0:
            print("self-test FAIL: relative database paths not resolved")
            failures += 1
        # Entries outside the root are ignored, not fatal.
        write_db([built, orphan, pathlib.Path("/nonexistent/x.cc")])
        if check(root, ccj, ("src",), None) != 0:
            print("self-test FAIL: out-of-root entry broke the check")
            failures += 1
    print(f"check_compile_commands self-test: {failures} failure(s)")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("root", nargs="?", type=pathlib.Path)
    ap.add_argument("compile_commands", nargs="?", type=pathlib.Path)
    ap.add_argument("--dirs", nargs="+", default=list(DEFAULT_DIRS),
                    help="top-level directories whose .cc files must all "
                         "be in the database (default: src)")
    ap.add_argument("--json", metavar="PATH", default=None)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv[1:])

    if args.self_test:
        return self_test()
    if args.root is None or args.compile_commands is None:
        ap.error("root and compile_commands are required unless "
                 "--self-test is given")
    return check(args.root.resolve(), args.compile_commands,
                 tuple(args.dirs), args.json)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
