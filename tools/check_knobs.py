#!/usr/bin/env python3
"""Lint the runtime-knob documentation against the parser.

Every RESILIENCE_* environment knob parsed in src/util/env.cpp (the only
file that reads the environment) must have a row in README.md's knob
table, and every documented row must correspond to a parsed knob — stale
docs and undocumented knobs both fail. CMake options (RESILIENCE_TSAN, RESILIENCE_WERROR, ...) are out of
scope: the table documents runtime behavior, not build configuration.

Usage: tools/check_knobs.py [--repo DIR]
Exits non-zero listing every knob missing on either side.
"""

import argparse
import pathlib
import re
import sys

# env_int("RESILIENCE_X", ...) — the name may be wrapped onto its own
# line by the formatter, so allow whitespace after the opening paren.
PARSE_RE = re.compile(r'env_int\(\s*"(RESILIENCE_[A-Z_]+)"')
# | `RESILIENCE_X` | description | default |
TABLE_RE = re.compile(r"^\|\s*`(RESILIENCE_[A-Z_]+)`\s*\|", re.MULTILINE)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo", default=pathlib.Path(__file__).parent.parent,
                        type=pathlib.Path, help="repository root")
    args = parser.parse_args()

    env_cpp = args.repo / "src" / "util" / "env.cpp"
    readme = args.repo / "README.md"
    parsed = set(PARSE_RE.findall(env_cpp.read_text()))
    documented = set(TABLE_RE.findall(readme.read_text()))

    ok = True
    for knob in sorted(parsed - documented):
        print(f"check_knobs: {knob} is parsed in {env_cpp.name} but has "
              f"no row in the README knob table", file=sys.stderr)
        ok = False
    for knob in sorted(documented - parsed):
        print(f"check_knobs: {knob} is documented in the README knob table "
              f"but not parsed in {env_cpp.name}", file=sys.stderr)
        ok = False
    if ok:
        print(f"check_knobs: {len(parsed)} knobs parsed, all documented")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
