"""Unit tests for the WHOIS substrate: models, dataset, CAIDA file format."""

import pytest

from repro.errors import SchemaError, SnapshotError, UnknownASNError
from repro.whois import (
    ASNDelegation,
    WhoisDataset,
    WhoisOrg,
    load_as2org_file,
    save_as2org_file,
)


def make_dataset():
    orgs = [
        WhoisOrg(org_id="LVLT-ARIN", name="Level 3 Parent, LLC", country="US"),
        WhoisOrg(org_id="CL-ARIN", name="CenturyLink", country="US"),
        WhoisOrg(org_id="DTAG-RIPE", name="Deutsche Telekom", country="DE",
                 source="ripencc"),
    ]
    delegations = [
        ASNDelegation(asn=3356, org_id="LVLT-ARIN", name="LEVEL3"),
        ASNDelegation(asn=3549, org_id="LVLT-ARIN", name="GBLX"),
        ASNDelegation(asn=209, org_id="CL-ARIN", name="CENTURYLINK"),
        ASNDelegation(asn=3320, org_id="DTAG-RIPE", name="DTAG",
                      source="ripencc"),
    ]
    return WhoisDataset.build(orgs, delegations)


class TestModels:
    def test_org_requires_known_rir(self):
        with pytest.raises(SchemaError):
            WhoisOrg(org_id="X", name="X", source="marsnic").validate()

    def test_org_requires_id_and_name(self):
        with pytest.raises(SchemaError):
            WhoisOrg(org_id="", name="X").validate()
        with pytest.raises(SchemaError):
            WhoisOrg(org_id="X", name="").validate()

    def test_delegation_requires_valid_asn(self):
        with pytest.raises(SchemaError):
            ASNDelegation(asn=23456, org_id="X").validate()

    def test_org_json_round_trip(self):
        org = WhoisOrg(org_id="A-ARIN", name="A", country="US")
        assert WhoisOrg.from_json(org.to_json()) == org

    def test_delegation_json_round_trip(self):
        delegation = ASNDelegation(asn=42, org_id="A", name="FORTY-TWO")
        assert ASNDelegation.from_json(delegation.to_json()) == delegation

    def test_delegation_json_uses_string_asn(self):
        # CAIDA's wire format carries ASNs as strings.
        assert ASNDelegation(asn=42, org_id="A").to_json()["asn"] == "42"


class TestDataset:
    def test_build_and_lookup(self):
        dataset = make_dataset()
        assert len(dataset) == 4
        assert dataset.org_id_of(3356) == "LVLT-ARIN"
        assert dataset.org_name_of(209) == "CenturyLink"

    def test_members_sorted(self):
        members = make_dataset().members()
        assert members["LVLT-ARIN"] == (3356, 3549)

    def test_siblings_of(self):
        assert make_dataset().siblings_of(3356) == {3356, 3549}

    def test_unknown_asn_raises(self):
        with pytest.raises(UnknownASNError):
            make_dataset().org_id_of(1)

    def test_duplicate_delegation_rejected(self):
        orgs = [WhoisOrg(org_id="A", name="A")]
        delegations = [
            ASNDelegation(asn=1, org_id="A"),
            ASNDelegation(asn=1, org_id="A"),
        ]
        with pytest.raises(SchemaError):
            WhoisDataset.build(orgs, delegations)

    def test_dangling_org_rejected(self):
        with pytest.raises(SchemaError):
            WhoisDataset.build([], [ASNDelegation(asn=1, org_id="GHOST")])

    def test_stats(self):
        stats = make_dataset().stats()
        assert stats["asns"] == 4
        assert stats["orgs"] == 3
        assert stats["max_asns_per_org"] == 2

    def test_restricted_to(self):
        restricted = make_dataset().restricted_to([3356, 3320])
        assert restricted.asns() == [3320, 3356]
        assert set(restricted.orgs) == {"LVLT-ARIN", "DTAG-RIPE"}


class TestAs2OrgFile:
    def test_round_trip(self, tmp_path):
        dataset = make_dataset()
        path = tmp_path / "as2org.jsonl"
        save_as2org_file(dataset, path)
        loaded = load_as2org_file(path)
        assert loaded.asns() == dataset.asns()
        assert loaded.org_name_of(3320) == "Deutsche Telekom"

    def test_gzip_round_trip(self, tmp_path):
        path = tmp_path / "as2org.jsonl.gz"
        save_as2org_file(make_dataset(), path)
        assert len(load_as2org_file(path)) == 4

    def test_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "file.jsonl"
        path.write_text(
            "# comment\n\n"
            '{"type": "Organization", "organizationId": "A", "name": "A", '
            '"source": "ARIN"}\n'
            '{"type": "ASN", "asn": "5", "organizationId": "A", '
            '"source": "ARIN"}\n'
        )
        assert load_as2org_file(path).asns() == [5]

    def test_unknown_record_type_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "Mystery"}\n')
        with pytest.raises(SchemaError):
            load_as2org_file(path)

    def test_bad_json_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{oops\n")
        with pytest.raises(SnapshotError):
            load_as2org_file(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(SnapshotError):
            load_as2org_file(tmp_path / "nope.jsonl")
