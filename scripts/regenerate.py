#!/usr/bin/env python3
"""Regenerate every committed curve under results/ from its own manifest.

A manifest records every parsed argument of its run but ``--out``, so each
``results/**/*_manifest.json``, in sorted order, is rerun into the directory
that holds it, rewriting its CSVs and itself.  Exits nonzero if a run fails.
"""

import json
import pathlib
import sys

from entweave.cli import _argv, main

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"


def run() -> int:
    rc = 0
    for path in sorted(RESULTS.glob("**/*_manifest.json")):
        argv = _argv(json.loads(path.read_text()))
        print(f"== {' '.join(argv)} -> {path.parent}")
        rc |= main(["--out", str(path.parent), *argv])
    return rc


if __name__ == "__main__":
    sys.exit(run())
