#!/usr/bin/env python
"""CI scale smoke: a 100k-ASN sharded run must be exact and bounded.

Runs ``borges run`` twice over the same ~100k-ASN universe — once with
``--shards 4`` and once with ``--shards 1`` — and ``borges generate``
twice, once with ``--stream``.  Each run happens in a fresh subprocess
(``ru_maxrss`` is a per-process high-water mark) and its peak RSS is
read from its own telemetry manifest's ``process_peak_rss_bytes`` gauge
(``RUSAGE_CHILDREN`` would report the maximum over all children).
Asserts:

* the two saved mappings are **byte-identical** — sharding is an
  execution strategy, never a result change;
* neither run degraded;
* the sharded run's peak RSS stays under a ceiling;
* the streamed export writes the same three dataset files as the full
  one, with a peak RSS at least ``MIN_STREAM_RSS_RATIO`` times lower.

Run from the repository root::

    python scripts/scale_smoke.py

Exits non-zero with a diagnostic on any violation.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: ~100k ASNs under the default universe config.
DEFAULT_ORGS = 67_700

#: Peak-RSS ceiling for the sharded run.  Measured ~0.6 GiB at 100k
#: ASNs; 3 GiB leaves headroom for allocator noise without letting an
#: accidental full-universe copy (≫1 GiB at this scale) slip through.
DEFAULT_RSS_CEILING_GIB = 3.0

#: Full materialization / streamed export peak RSS.  Measured 4.3–4.4x
#: (~360 vs ~83 MiB) at 100k ASNs on a 2-vCPU host; 2x fails only if
#: streaming stops bounding memory.
MIN_STREAM_RSS_RATIO = 2.0

DATASET_FILES = (
    "peeringdb_snapshot.json",
    "as2org.jsonl",
    "apnic_population.csv",
)


def run_cli(label: str, tmp: Path, orgs: int, command: list) -> dict:
    """Run one ``borges`` command in a fresh process; read its manifest."""
    manifest = tmp / f"manifest-{label}.json"
    cmd = [
        sys.executable, "-m", "repro.cli",
        "--telemetry-out", str(manifest),
        "--seed", "11",
        "--orgs", str(orgs),
        *command,
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True
    )
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        print(proc.stdout)
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(
            f"{label}: borges {command[0]} failed ({proc.returncode})"
        )
    if "DEGRADED" in proc.stdout:
        print(proc.stdout)
        raise SystemExit(f"{label}: run degraded")
    payload = json.loads(manifest.read_text())
    series = (
        payload.get("metrics", {})
        .get("process_peak_rss_bytes", {})
        .get("series", [])
    )
    peak_rss = max((entry.get("value", 0) for entry in series), default=0)
    if not peak_rss:
        raise SystemExit(f"{label}: manifest carries no peak-RSS gauge")
    print(f"{label}: {seconds:,.1f}s, peak rss {peak_rss / (1 << 20):,.0f} MiB")
    return {"org_count": payload.get("org_count"), "peak_rss": peak_rss}


def run_borges(label: str, tmp: Path, orgs: int, shards: int) -> dict:
    mapping = tmp / f"mapping-{label}.json"
    result = run_cli(
        label, tmp, orgs,
        ["run", "--shards", str(shards), "--save-mapping", str(mapping)],
    )
    result["mapping"] = mapping.read_bytes()
    return result


def run_generate(label: str, tmp: Path, orgs: int, stream: bool) -> dict:
    out = tmp / f"datasets-{label}"
    command = ["generate", "--out", str(out)] + (["--stream"] if stream else [])
    result = run_cli(label, tmp, orgs, command)
    result["out"] = out
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--orgs", type=int, default=DEFAULT_ORGS)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument(
        "--rss-ceiling-gib", type=float, default=DEFAULT_RSS_CEILING_GIB
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        sharded = run_borges("sharded", tmp, args.orgs, args.shards)
        single = run_borges("single", tmp, args.orgs, 1)
        full = run_generate("generate", tmp, args.orgs, stream=False)
        streamed = run_generate("generate-stream", tmp, args.orgs, stream=True)
        differing = [
            name for name in DATASET_FILES
            if (streamed["out"] / name).read_bytes()
            != (full["out"] / name).read_bytes()
        ]

    if sharded["mapping"] != single["mapping"]:
        print(
            f"FAIL: --shards {args.shards} mapping differs from --shards 1 "
            f"({sharded['org_count']} vs {single['org_count']} orgs)",
            file=sys.stderr,
        )
        return 1
    print(
        f"byte-identical mappings ({len(sharded['mapping']):,} bytes, "
        f"{sharded['org_count']:,} orgs)"
    )

    ceiling = args.rss_ceiling_gib * (1 << 30)
    if sharded["peak_rss"] > ceiling:
        print(
            f"FAIL: sharded peak RSS {sharded['peak_rss'] / (1 << 30):.2f} GiB "
            f"exceeds ceiling {args.rss_ceiling_gib} GiB",
            file=sys.stderr,
        )
        return 1
    print(
        f"peak RSS {sharded['peak_rss'] / (1 << 30):.2f} GiB "
        f"<= ceiling {args.rss_ceiling_gib} GiB"
    )

    if differing:
        print(f"FAIL: streamed export differs in {differing}", file=sys.stderr)
        return 1
    ratio = full["peak_rss"] / streamed["peak_rss"]
    if ratio < MIN_STREAM_RSS_RATIO:
        print(
            f"FAIL: streamed export peak RSS only {ratio:.2f}x below full "
            f"materialization (required {MIN_STREAM_RSS_RATIO}x)",
            file=sys.stderr,
        )
        return 1
    print(
        f"byte-identical dataset files; streamed export peak RSS "
        f"{ratio:.1f}x below full (>= {MIN_STREAM_RSS_RATIO}x)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
