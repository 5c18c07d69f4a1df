"""Write reference.json: the outputs that critmap-256 and qk-1024 are checked against.

    python3 perfbench/make_reference.py

Run from the root of a source checkout whose outputs are trusted; the
committed file was made at the commit that added the benchmark.  It runs
the same command lines as the benchmark (one critmap, one qk per node in
workloads.QK_NODES), which takes about a minute.
"""

import json
import shutil
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from bundlemf import cli  # noqa: E402


def _run(name: str, inputs: dict, work: Path) -> Path:
    argv = workloads.cli_argv(workloads.WORKLOADS[name], inputs, str(work))
    if cli.main(argv) != 0:
        raise SystemExit(f"bundlemf {' '.join(argv)} failed")
    return work


def main() -> None:
    work = HERE / "_run" / "reference"
    out = _run("critmap-256", {}, work / "critmap")
    values = [float(x) for row in (out / "critmap.csv").read_text().split()
              for x in row.split(",")]
    ref = {"critmap-256": {"values": values}, "qk-1024": {}}
    for p in workloads.QK_NODES:
        out = _run("qk-1024", {"p": list(p)}, work / "qk")
        res = json.loads((out / "qk_summary.json").read_text())["results"]
        ref["qk-1024"]["{},{}".format(*p)] = {k: res[k] for k in ("Lambda", "interface_jump")}
    shutil.rmtree(work)
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
