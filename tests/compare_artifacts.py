"""Byte-for-byte comparison of `qpde` artifacts between two source trees.

Run from the repository root, naming the two `src` directories to compare:

    python tests/compare_artifacts.py OLD_SRC NEW_SRC

pytest does not collect this file.  For each tree, one child interpreter
imports `qpde` from that tree and, through `qpde.cli.main`, runs
`qpde run --seed S` for S in 1-3, `qpde run --seed 1 --mode M` for M in
exact and noisy, and `qpde optimize` on every bundled config, each into
its own directory, and `qpde oracle`, which writes no files, on every
bundled config.  It records each call's exit code and printed output in
one more artifact, calls.json, and each setting row of the seed survey,
`tests/survey.py`'s `survey()` over its `settings()`, in survey.json
(10-15 s more per tree on 2 vCPUs).
Each tree's output root, which `summary.json` echoes as `output_dir` and
the printed lines name, is then replaced by one placeholder, and every
artifact of the two trees is compared byte for byte.  The script prints
each artifact that differs or exists on one side only, then a count, and
exits 1 if any artifact differs.  For an artifact that differs it also
says whether the two texts are the same once every number is masked and,
if so, the largest relative and absolute differences between their
numbers, so a rounding-level change reads apart from a changed result.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 2, 3)
MODES = ("exact", "noisy")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
sys.path.append(sys.argv[5])
from qpde.cli import bundled_config_names, main
import survey
root, seeds, modes = sys.argv[2], json.loads(sys.argv[3]), json.loads(sys.argv[4])
calls = [[name, "run-seed%d" % seed, ["run", "--config", name, "--seed", str(seed)]]
         for name in bundled_config_names() for seed in seeds]
calls += [[name, "run-" + mode, ["run", "--config", name, "--seed", "1", "--mode", mode]]
          for name in bundled_config_names() for mode in modes]
calls += [[name, "optimize", ["optimize", "--config", name]]
          for name in bundled_config_names()]
calls = [[name, leaf, argv + ["--out", "%s/%s/%s" % (root, name, leaf)]]
         for name, leaf, argv in calls]
calls += [[name, "oracle", ["oracle", "--config", name]] for name in bundled_config_names()]
record = {}
for name, leaf, argv in calls:
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = main(argv)
    record["%s/%s" % (name, leaf)] = [code, printed.getvalue()]
with open("%s/calls.json" % root, "w") as handle:
    json.dump(record, handle, indent=1, sort_keys=True)
rows = {name: survey.survey(runs) for name, runs in survey.settings()}
with open("%s/survey.json" % root, "w") as handle:
    json.dump(rows, handle, indent=1, sort_keys=True)
"""


def write_artifacts(src: Path, root: Path) -> dict[str, bytes]:
    """Run every call against the package in `src`; return each file under
    `root`, by relative path, with `root` replaced by a placeholder."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, "-c", CHILD, str(src.resolve()), str(root),
                    json.dumps(SEEDS), json.dumps(MODES), str(Path(__file__).parent)],
                   env=env, check=True)
    return {str(path.relative_to(root)): path.read_bytes().replace(str(root).encode(),
                                                                    b"<out>")
            for path in sorted(root.rglob("*")) if path.is_file()}


def numeric_drift(old: bytes, new: bytes) -> str:
    """How far two differing texts are apart: their shape once numbers are
    masked, and then the largest |a - b| / max(|a|, |b|) and |a - b| over
    paired numbers that differ."""
    old_text, new_text = old.decode(errors="replace"), new.decode(errors="replace")
    if NUMBER.sub("#", old_text) != NUMBER.sub("#", new_text):
        return "text differs beyond its numbers"
    pairs = [(a, b) for a, b in zip(map(float, NUMBER.findall(old_text)),
                                    map(float, NUMBER.findall(new_text))) if a != b]
    relative = max((abs(a - b) / max(abs(a), abs(b)) for a, b in pairs), default=0.0)
    absolute = max((abs(a - b) for a, b in pairs), default=0.0)
    return (f"same text once numbers are masked, max relative difference {relative:.2e}, "
            f"max absolute difference {absolute:.2e}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        old = write_artifacts(args.old_src, Path(tmp) / "old")
        new = write_artifacts(args.new_src, Path(tmp) / "new")
    differing = 0
    for name in sorted(old.keys() | new.keys()):
        if name not in old or name not in new:
            print(f"only in {'old' if name in old else 'new'}: {name}")
        elif old[name] != new[name]:
            print(f"differs: {name}: {numeric_drift(old[name], new[name])}")
        else:
            continue
        differing += 1
    print(f"{len(old.keys() | new.keys()) - differing} of {len(old.keys() | new.keys())} "
          f"artifacts identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
