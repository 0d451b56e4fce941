#!/usr/bin/env python3
"""The serve layer end to end: publish, serve, query, hot-swap, load.

Runs the pipeline on a small universe, publishes the mapping as a
CAIDA-format release file, boots the HTTP query API on an ephemeral
port, exercises every endpoint with plain ``urllib``, hot-swaps to the
release-file generation while requests are flowing, and finishes with a
seeded Zipfian load run against the in-process service.

Run:  python examples/query_service.py [--orgs N] [--seed S]
"""

import argparse
import json
import tempfile
import urllib.request
from pathlib import Path

from repro import BorgesPipeline, UniverseConfig, generate_universe
from repro.core.release import save_mapping_as2org
from repro.serve import LoadGenerator, QueryServer, QueryService


def get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--orgs", type=int, default=500)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    print(f"running the pipeline (seed={args.seed}, orgs={args.orgs})...")
    universe = generate_universe(
        UniverseConfig(seed=args.seed, n_organizations=args.orgs)
    )
    result = BorgesPipeline(
        universe.whois, universe.pdb, universe.web
    ).run()
    mapping = result.mapping

    service = QueryService()
    service.store.load_from_mapping(
        mapping, whois=universe.whois, pdb=universe.pdb
    )
    index = service.store.current().index
    big = max((index.org_of(a) for a in index.asns()), key=lambda o: o.size)
    member = big.members[0]

    with QueryServer(service) as server:
        print(f"\nquery API on {server.url}")

        body = get(f"{server.url}/v1/asn/{member}")
        print(f"GET /v1/asn/{member}")
        print(f"  -> {body['name'] or 'AS' + str(member)} belongs to "
              f"{body['org']['name']!r} ({body['org']['size']} networks)")

        body = get(f"{server.url}/v1/org/{big.org_id}")
        print(f"GET /v1/org/{big.org_id}")
        print(f"  -> {body['name']!r}: members {body['members'][:6]}...")

        a, b = big.members[:2]
        body = get(f"{server.url}/v1/siblings?a={a}&b={b}")
        print(f"GET /v1/siblings?a={a}&b={b}  ->  {body['siblings']}")

        token = big.name.split()[0].lower()
        body = get(f"{server.url}/v1/search?q={token}")
        print(f"GET /v1/search?q={token}  ->  "
              f"{[r['name'] for r in body['results'][:3]]}")

        print("\nhot-swapping to a release-file generation...")
        with tempfile.TemporaryDirectory() as tmp:
            release = Path(tmp) / "borges_as2org.jsonl"
            save_mapping_as2org(mapping, universe.whois, release)
            service.store.load_from_release_file(release)
        body = get(f"{server.url}/healthz")
        print(f"GET /healthz  ->  {body}")

    print("\nseeded Zipfian load against the in-process service:")
    generator = LoadGenerator(service, index.asns(), seed=7)
    report = generator.run_overload(50_000, workers=1)
    print(f"  {report.requests:,} requests in "
          f"{report.elapsed_seconds:.3f}s = {report.qps:,.0f}/sec "
          f"(p50 {report.admitted_p50 * 1e3:.3f} ms)")

    stats = service.stats()
    print(f"  response cache: {stats['response_cache']}")
    print(f"  active snapshot: {stats['snapshot']['active']['source']} "
          f"generation {stats['snapshot']['active']['generation']}")


if __name__ == "__main__":
    main()
