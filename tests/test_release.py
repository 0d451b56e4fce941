"""Tests for publishing mappings in CAIDA's as2org format."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.mapping import OrgMapping
from repro.core.org_keys import oid_w_clusters
from repro.core.release import mapping_to_whois_dataset, save_mapping_as2org
from repro.digest import stable_digest
from repro.obs import use_registry
from repro.serve import MappingIndex, SnapshotStore
from repro.whois import load_as2org_file
from repro.whois.as2org_file import (
    load_as2org_text,
    read_as2org_file_text,
    release_digest,
)


class TestMappingExport:
    def test_one_org_per_cluster(self, borges_mapping, universe):
        dataset = mapping_to_whois_dataset(borges_mapping, universe.whois)
        assert len(dataset.orgs) == len(borges_mapping)
        assert len(dataset) == borges_mapping.universe_size

    def test_cluster_members_share_the_released_org(
        self, borges_mapping, universe
    ):
        dataset = mapping_to_whois_dataset(borges_mapping, universe.whois)
        for cluster in borges_mapping.multi_asn_clusters()[:50]:
            members = sorted(cluster)
            org_ids = {dataset.org_id_of(asn) for asn in members}
            assert len(org_ids) == 1
            assert org_ids.pop() == f"BORGES-{members[0]}"

    def test_names_carried_from_mapping(self, borges_mapping, universe):
        dataset = mapping_to_whois_dataset(borges_mapping, universe.whois)
        from repro.universe.canonical import AS_LUMEN

        released = dataset.org_name_of(AS_LUMEN)
        assert released == borges_mapping.org_name_of(AS_LUMEN)

    def test_round_trip_through_caida_file(
        self, tmp_path, borges_mapping, universe
    ):
        path = tmp_path / "borges_as2org.jsonl.gz"
        save_mapping_as2org(borges_mapping, universe.whois, path)
        loaded = load_as2org_file(path)
        assert loaded.asns() == universe.whois.asns()
        # The reloaded file reproduces exactly the mapping's clustering.
        for cluster in borges_mapping.multi_asn_clusters()[:25]:
            members = sorted(cluster)
            assert loaded.siblings_of(members[0]) == set(members)

    def test_reloaded_theta_matches(self, tmp_path, borges_mapping, universe):
        from repro.baselines import build_as2org_mapping
        from repro.metrics import org_factor_from_mapping

        path = tmp_path / "release.jsonl"
        save_mapping_as2org(borges_mapping, universe.whois, path)
        reloaded_mapping = build_as2org_mapping(load_as2org_file(path))
        assert org_factor_from_mapping(reloaded_mapping) == pytest.approx(
            org_factor_from_mapping(borges_mapping)
        )


class TestReleaseLoad:
    @pytest.mark.parametrize("name", ["release.jsonl", "release.jsonl.gz"])
    def test_release_loads_to_the_blob_of_its_whole_text(
        self, tmp_path, borges_mapping, universe, name
    ):
        """The store's one-pass load builds the index the whole-text
        parse builds: that construction is kept here as the oracle."""
        path = tmp_path / name
        save_mapping_as2org(borges_mapping, universe.whois, path)
        whois = load_as2org_text(read_as2org_file_text(path))
        expected = MappingIndex.build(
            OrgMapping(
                universe=whois.asns(),
                clusters=oid_w_clusters(whois),
                method="release",
                org_names={asn: whois.org_name_of(asn) for asn in whois.asns()},
            ),
            whois=whois,
        )
        with use_registry() as registry:
            snapshot = SnapshotStore(registry=registry).load_from_release_file(path)
        assert bytes(snapshot.index.blob) == bytes(expected.blob)


#: Lines with what JSON must escape: quotes, backslashes, control and
#: non-ASCII characters, lone surrogates, line separators.
_LINES = st.lists(
    st.text(
        st.one_of(
            st.characters(exclude_categories=()),
            st.sampled_from('"\\\x00\x1f\x7f\n\r\t\u2028é中🙂'),
        )
    )
)


@given(_LINES)
def test_streamed_release_digest_is_the_list_digest(lines):
    assert release_digest(iter(lines)) == stable_digest(list(lines))
