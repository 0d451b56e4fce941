"""Self-test of the benchmark at toy scale (a few hundred orgs).

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced, and checks that each
end-to-end and per-layer metric of BENCHMARK.json is reported, with its
unit, as a finite number.  It then shows that the answer checks bite:
serving the release of seed+1 while checking against seed's release must
make the run incorrect, and the command must refuse to run (exit non-zero,
no result line) in a directory that holds only the benchmark's files.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT_DIR, ROOT, bootstrap  # noqa: E402

ORGS = 300
SEED = 5
SECONDS = 1.0


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_metrics(workload: str, values, declared) -> None:
    for metric in declared:
        name = metric["name"]
        expect(name in values, f"{workload}: metric {name} missing")
        value = values[name]
        expect(
            isinstance(value, float) and math.isfinite(value),
            f"{workload}: {name} = {value!r} is not a finite number",
        )


def main() -> int:
    bootstrap()
    import run

    spec = run.load_spec()
    runs = run.workloads()
    for workload, fn in runs.items():
        result = fn(SEED, SECONDS, False, orgs=ORGS)
        expect(result["outcome"].correct, f"{workload}: {result['outcome'].violations}")
        expect(result["outcome"].failed == 0, f"{workload}: {result['outcome'].errors}")
        check_metrics(workload, run.end_to_end(result), spec["end_to_end"])
        traced = fn(SEED, SECONDS, True, orgs=ORGS)
        expect(traced["outcome"].correct, f"{workload} traced: {traced['outcome'].violations}")
        wanted = {m["name"] for m in spec["per_layer"]}
        run.fill_layers(workload, SEED, traced, wanted, orgs=ORGS)
        check_metrics(workload, traced["layers"], spec["per_layer"])
        print(f"ok  {workload}: every metric present", flush=True)

    wrong = runs["serve"](SEED, SECONDS, False, orgs=ORGS, served_seed=SEED + 1,
                          setup_repeats=1)
    expect(not wrong["outcome"].correct, "serving seed+1's release passed the check")
    print(f"ok  serve: wrong release caught ({wrong['outcome'].violations[0]})")

    bare = OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "batch",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(out.returncode != 0, "ran without the program's source")
    expect('"correct"' not in out.stdout, "printed a result without the program")
    print(f"ok  bare checkout refused (exit {out.returncode})")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
