"""Pinned digests and the canonical encoder's equivalence property.

Every artifact fingerprint, dataset digest and snapshot check hashes
:func:`repro.digest.canonical_json`.  The golden values below were
computed with the recursive ``jsonable`` walk the C-encoder form
replaced; a warm cache written by either must keep hitting, so any drift
here is a cache-invalidating change that needs an
``ARTIFACT_SCHEMA_VERSION`` bump.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BorgesConfig, UniverseConfig
from repro.core import ArtifactStore, BorgesPipeline
from repro.core.artifacts import ARTIFACT_SCHEMA_VERSION
from repro import digest
from repro.digest import canonical_json, dataset_digest, stable_digest
from repro.obs import config_fingerprint
from repro.peeringdb.models import Network, Organization
from repro.peeringdb.snapshot import PDBSnapshot
from repro.universe import generate_universe
from repro.web.http import RedirectKind
from repro.web.simweb import Site, SimulatedWeb
from repro.whois.dataset import WhoisDataset
from repro.whois.models import ASNDelegation, WhoisOrg

GOLDEN_UNIVERSE = UniverseConfig(seed=7, n_organizations=300)

GOLDEN_DATASETS = {
    "whois": "df30b7ac3d9057a928923d303c07853cda69a6366b36dd1b41b4f4d5e27a69f1",
    "pdb": "bae26a7250e7c683978159e297be2c4260a819f857df1b151ab946fbc969c734",
    "web": "c2bdc8afb9244fb430ebd389c4a3a996d5b356449eae41d244bdd2ef3991ba82",
}

#: stage → (fingerprint, content digest) of the default DAG.
GOLDEN_STAGES = {
    "oid_w": (
        "ecdae9f43b61c8c0ada5a61f942a3cbf63b1951b20cd7bb49f28218cfb804ec8",
        "0a893c527ca43d96ff8d8aa26335c1b2983acd3ee0e0ebb96c81cae3e9cace11",
    ),
    "oid_p": (
        "c7b75ad3071ddcc17774f2997232e490fc8c772fd05d951938e120c2bac7f086",
        "253857605ffc0efcd9a19681f51ed6d0f3ffe3b6b26d3e469fb94613645a9cfc",
    ),
    "ner_extract": (
        "c67aea7a5867b9979656d8ee8cf8728d466201df236d0334d1c725807fae83da",
        "bfa0b3a2555afe1637da0eb0ffd24cffe3f2423e86f82cc8242ad92d230df6a2",
    ),
    "notes_aka": (
        "82d2b3913f525e45518d35a05b51bf4c86bfdb949832f1096b7068a22bd9a5c3",
        "5062f6f30a01ec0b30e88babb25c933dacbc800554a3577199307ff09b66eb5c",
    ),
    "scrape": (
        "978b8e51e4ff916849b86a598d037a6c8acb526b00cc2db9e9053d7d5a48c280",
        "6ff8937a3d0f0868faa1bc380b18f63650a21b8ef985f6e5159ea0f012633778",
    ),
    "rr": (
        "9a94da12399cf07bd9233d5812811e0da218d4ceef6b6ca6c048da0826e33616",
        "67be73d0c7c10ce29c19eb9fd5aaa23d57daa8b4d91e6fd7f0298bacd92084a9",
    ),
    "favicons": (
        "8dc3ebbe7c4a4abb8c2f5172fa2122589d6bb2d20555714c5ef0efe6f9a6df1e",
        "55b25b84e81ed0e0d30133d6a35f26b88221330a4ce705575bc641b8761b9be2",
    ),
    "merge": (
        "f2010dcdc83518b6608901476f79a52dbedd6955790a11effa1fa999e3ece817",
        "3fc15611d1ca78073c82c76b591212428b9cd38f3b02d2afcec15c19a0a92634",
    ),
}

GOLDEN_MANIFEST = "455ae0a98150b489a6e94ce4d31fa9c1706f1498a0557815eab03793b01c9753"
GOLDEN_MAPPING = "3fc15611d1ca78073c82c76b591212428b9cd38f3b02d2afcec15c19a0a92634"
GOLDEN_DEFAULT_CONFIG = (
    "4ee7241de430ad0e85d2218076142170e1d95a89a121593cd1298022ebedd8f8"
)
#: ``obs.config_fingerprint`` keeps its own (spaced) separators.
GOLDEN_CONFIG_FINGERPRINT = (
    "9150d66982a0b4625d12775f17d60e014054585ac9877923f5ae7e4a1eb7ada4"
)


@pytest.fixture(scope="module")
def golden_universe():
    return generate_universe(GOLDEN_UNIVERSE)


def _run(universe, config=None):
    store = ArtifactStore()
    u = universe
    result = BorgesPipeline(
        u.whois, u.pdb, u.web, config=config, artifact_store=store
    ).run()
    return result, store


@pytest.fixture(scope="module")
def golden_run(golden_universe):
    """A run under whatever fault profile the environment selects."""
    return _run(golden_universe)


@pytest.fixture(scope="module")
def clean_run(golden_universe):
    """A run with faults off: a fault profile salts every fingerprint."""
    return _run(golden_universe, BorgesConfig().with_fault_profile("none"))


class TestGoldenDigests:
    def test_schema_version_unchanged(self):
        assert ARTIFACT_SCHEMA_VERSION == 1

    def test_dataset_digests(self, golden_universe):
        u = golden_universe
        assert {
            "whois": dataset_digest(u.whois),
            "pdb": dataset_digest(u.pdb),
            "web": dataset_digest(u.web),
        } == GOLDEN_DATASETS

    def test_stage_fingerprints_and_content(self, clean_run, golden_run):
        manifest = clean_run[1].manifest()
        assert {
            entry["stage"]: (fingerprint, entry["content_digest"])
            for fingerprint, entry in manifest.items()
        } == GOLDEN_STAGES
        assert stable_digest(manifest) == GOLDEN_MANIFEST
        # Whatever the environment's fault profile, it changes no result.
        assert {
            entry["stage"]: entry["content_digest"]
            for entry in golden_run[1].manifest().values()
        } == {stage: content for stage, (_, content) in GOLDEN_STAGES.items()}

    def test_mapping_digest(self, golden_run):
        result, _ = golden_run
        assert stable_digest(result.mapping.to_json()) == GOLDEN_MAPPING

    def test_default_config_digest(self):
        assert stable_digest(BorgesConfig()) == GOLDEN_DEFAULT_CONFIG
        assert config_fingerprint(BorgesConfig()) == GOLDEN_CONFIG_FINGERPRINT


# -- the replaced encoder, kept verbatim as the property's oracle -------------


def jsonable(value: Any) -> Any:
    """Coerce *value* to a JSON-serialisable, deterministic form."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (frozenset, set)):
        return sorted(jsonable(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, bytes):
        return "bytes:" + value.hex()
    return value


def oracle_digest(value: Any) -> str:
    encoded = json.dumps(jsonable(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


@dataclasses.dataclass(frozen=True)
class Record:
    name: str
    value: Any
    tags: Tuple[str, ...] = ()


scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text()
    | st.binary(max_size=8)
)
# Sets are homogeneous: the old and new encoders sort the same elements.
scalar_sets = (
    st.sets(st.integers(), max_size=6)
    | st.frozensets(st.text(max_size=6), max_size=6)
    | st.sets(st.binary(max_size=4), max_size=6)
    | st.frozensets(st.floats(allow_nan=False), max_size=6)
)
values = st.recursive(
    scalars | scalar_sets,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=6), children, max_size=4)
        | st.builds(
            Record,
            name=st.text(max_size=6),
            value=children,
            tags=st.lists(st.text(max_size=4), max_size=3).map(tuple),
        )
    ),
    max_leaves=20,
)


class TestEncoderEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(values)
    def test_matches_recursive_walk(self, value):
        assert stable_digest(value) == oracle_digest(value)

    def test_non_ascii_and_bytes(self):
        value = {
            "naïve": ["☃", b"\x00\xff", frozenset({"é", "e"})],
            "nested": (Record("ü", {"z": 1, "a": {3, 1, 2}}),),
        }
        assert stable_digest(value) == oracle_digest(value)
        assert canonical_json(value).isascii()

    def test_unencodable_values_still_raise(self):
        with pytest.raises(TypeError):
            canonical_json({"x": object()})
        with pytest.raises(TypeError):
            canonical_json(Record)  # a dataclass type, not an instance


# -- dataset digests, written column by column ---------------------------------


def whois_payload(dataset: WhoisDataset) -> Any:
    """What ``WhoisDataset.content_digest`` hashed as a built payload."""
    return {
        "orgs": [dataset.orgs[k].to_json() for k in sorted(dataset.orgs)],
        "delegations": [
            dataset.delegations[k].to_json() for k in sorted(dataset.delegations)
        ],
    }


def pdb_payload(snapshot: PDBSnapshot) -> Any:
    payload = snapshot.to_json()
    payload.pop("meta", None)
    return payload


def web_payload(web: SimulatedWeb) -> Any:
    return [
        {
            "host": site.host,
            "title": site.title,
            "redirect_kind": str(site.redirect_kind.value),
            "redirect_target": site.redirect_target,
            "favicon": site.favicon,
            "alive": site.alive,
        }
        for site in web.sites()
    ]


class Small(enum.IntEnum):
    ONE = 1
    BIG = 70000


#: Text the encoder must escape, mixed with text it writes as it is.
texts = st.text(max_size=6) | st.sampled_from(
    ["", "plain", 'quo"te', "back\\slash", "tab\tnl\n", "\x00\x1f\x7f", "naïve ☃", "50%"]
)
#: Int fields built without validate(): bools and IntEnums get through.
ints = (
    st.integers(min_value=0, max_value=2**32)
    | st.booleans()
    | st.sampled_from(list(Small))
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | texts,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(texts, children, max_size=3),
    max_leaves=6,
)
#: PDB ``extra``: empty most of the time; may shadow a modelled key.
extras = st.just({}) | st.dictionaries(
    st.sampled_from(["name", "asn", "id", "status"]) | texts, json_values, max_size=3
)

whois_orgs = st.builds(
    WhoisOrg, org_id=texts, name=texts, country=texts, source=texts
)
delegations = st.builds(
    ASNDelegation, asn=ints, org_id=texts, name=texts, source=texts
)
pdb_orgs = st.builds(
    Organization, org_id=ints, name=texts, website=texts, country=texts,
    extra=extras,
)
networks = st.builds(
    Network, asn=ints, name=texts, org_id=ints, aka=texts, notes=texts,
    website=texts, info_type=texts, extra=extras,
)
sites = st.builds(
    Site, host=texts, title=texts, redirect_kind=st.sampled_from(list(RedirectKind)),
    redirect_target=texts, favicon=st.binary(max_size=6), alive=st.booleans(),
)


#: Two records per chunk: chunk boundaries fall inside generated lists,
#: and each chunk picks its columns' encoders on its own.
small_chunks = mock.patch.object(digest, "_CHUNK", 2)


class TestColumnDigests:
    """Each dataset digest equals the digest of the payload it once built
    record by record, for any records, validated or not."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(whois_orgs, max_size=6), st.lists(delegations, max_size=6))
    def test_whois(self, orgs, delegs):
        dataset = WhoisDataset(
            orgs={o.org_id: o for o in orgs},
            delegations={d.asn: d for d in delegs},
        )
        with small_chunks:
            assert dataset.content_digest() == stable_digest(whois_payload(dataset))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(pdb_orgs, max_size=6), st.lists(networks, max_size=6))
    def test_pdb(self, orgs, nets):
        snapshot = PDBSnapshot(
            orgs={o.org_id: o for o in orgs},
            nets={n.asn: n for n in nets},
            meta={"generated": "now"},
        )
        with small_chunks:
            assert snapshot.content_digest() == stable_digest(pdb_payload(snapshot))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(sites, max_size=6))
    def test_web(self, site_list):
        web = SimulatedWeb()
        for site in site_list:
            if site.host.lower() not in web:
                web.add_site(site)
        with small_chunks:
            assert web.content_digest() == stable_digest(web_payload(web))

    def test_golden_universe(self, golden_universe):
        u = golden_universe
        assert u.whois.content_digest() == stable_digest(whois_payload(u.whois))
        assert u.pdb.content_digest() == stable_digest(pdb_payload(u.pdb))
        assert u.web.content_digest() == stable_digest(web_payload(u.web))


# -- the per-object fallback token --------------------------------------------


class Opaque:
    """A dataset without ``content_digest()``."""


class TestVolatileToken:
    def test_never_shared_by_distinct_objects(self):
        # Each object dies before the next is made, so CPython hands the
        # same address out again; an id()-based token repeats here.
        tokens = [dataset_digest(Opaque()) for _ in range(50)]
        assert len(set(tokens)) == len(tokens)
        assert all(t.startswith("volatile:") for t in tokens)

    def test_stable_for_one_object(self):
        obj = Opaque()
        assert dataset_digest(obj) == dataset_digest(obj)

    def test_unreferenceable_object_gets_fresh_tokens(self):
        obj = {"not": "weakly referenceable"}
        assert dataset_digest(obj) != dataset_digest(obj)
