"""The error hierarchy, and the one event path with its stderr rendering."""

import logging

import pytest

from repro.cli import main as cli_main
from repro.core import BorgesPipeline
from repro.core.mapping import OrgMapping
from repro.core.release import save_mapping_as2org
from repro.core.web_inference import WebInferenceModule
from repro.errors import (
    ConfigError,
    DataError,
    FetchError,
    LLMError,
    LLMResponseError,
    RedirectLoopError,
    ReproError,
    URLError,
    UnknownASNError,
    WebError,
)
from repro.obs import MetricsRegistry, setup_logging, use_event_log
from repro.serve import SnapshotStore
from repro.watch import (
    RunJournal,
    SnapshotArchive,
    WatchConfig,
    WatchDaemon,
    WatchRunResult,
)


class TestErrorHierarchy:
    def test_everything_derives_from_repro_error(self):
        for exc_type in (DataError, LLMError, WebError, UnknownASNError):
            assert issubclass(exc_type, ReproError)

    def test_unknown_asn_records_asn(self):
        error = UnknownASNError(64512)
        assert error.asn == 64512
        assert "64512" in str(error)

    def test_fetch_error_fields(self):
        error = FetchError("http://x.example/", "host not found")
        assert error.url == "http://x.example/"
        assert error.reason == "host not found"

    def test_redirect_loop_is_fetch_error(self):
        error = RedirectLoopError("http://x.example/", 16)
        assert isinstance(error, FetchError)
        assert error.max_hops == 16

    def test_url_error_fields(self):
        error = URLError("not a url", "empty host")
        assert error.url == "not a url"

    def test_llm_response_error_keeps_raw(self):
        error = LLMResponseError("bad json", raw_output="{oops")
        assert error.raw_output == "{oops"

    def test_catching_base_class(self):
        with pytest.raises(ReproError):
            raise UnknownASNError(1)


@pytest.fixture()
def stderr_threshold():
    """Put the ``repro`` logger's threshold back after a test moves it."""
    logger = logging.getLogger("repro")
    level = logger.level
    yield
    logger.setLevel(level)


def _lines(capsys):
    return capsys.readouterr().err.splitlines()


class TestStderrRendering:
    """stderr is a rendering of the event log, thresholded by ``-v``."""

    def test_warning_prints_one_line_by_default(self, capsys, stderr_threshold):
        setup_logging("warning")
        with use_event_log() as log:
            log.emit("unit.warned", severity="warning", n=3, note="two words")
        (line,) = _lines(capsys)
        assert " WARNING " in line
        assert line.endswith('unit.warned n=3 note="two words"')
        assert len(log.events("unit.warned")) == 1

    def test_debug_and_info_print_nothing_by_default(
        self, capsys, stderr_threshold
    ):
        setup_logging("warning")
        with use_event_log() as log:
            log.emit("unit.debug", severity="debug")
            log.emit("unit.info")
        assert _lines(capsys) == []
        assert len(log.events()) == 2

    def test_verbose_cli_shows_info_events(self, capsys, stderr_threshold):
        argv = ["--seed", "7", "--orgs", "60", "run"]
        with use_event_log():
            assert cli_main(argv) == 0
        assert not [line for line in _lines(capsys) if "stage.finish" in line]
        with use_event_log():
            assert cli_main(["-v", *argv]) == 0
        shown = [line for line in _lines(capsys) if "stage.finish" in line]
        assert shown and all(" INFO " in line for line in shown)

    def test_setup_logging_adds_one_handler(self, stderr_threshold):
        setup_logging()
        setup_logging("debug")
        assert len(logging.getLogger("repro").handlers) == 1
        assert logging.getLogger("repro").level == logging.DEBUG

    def test_unknown_severity_rejected(self):
        with pytest.raises(ConfigError):
            setup_logging("loud")


class TestOneReportPerOccurrence:
    """Each occurrence is one event and, by default, at most one line."""

    @pytest.fixture()
    def report(self, capsys, stderr_threshold):
        """Run a callable; returns (events it emitted, stderr lines)."""
        setup_logging("warning")
        capsys.readouterr()

        def run(action):
            with use_event_log() as log:
                action()
            return log.events(), _lines(capsys)

        return run

    @pytest.fixture()
    def store(self, borges_mapping):
        with use_event_log():
            store = SnapshotStore(registry=MetricsRegistry())
            store.load_from_mapping(borges_mapping)
        return store

    def test_rollback(self, report, store, borges_mapping):
        with use_event_log():
            store.load_from_mapping(borges_mapping)
        events, lines = report(store.rollback)
        assert [e["event"] for e in events] == ["snapshot.rollback"]
        assert len(lines) == 1

    def test_swap_failure(self, report, store, tmp_path):
        missing = tmp_path / "missing.json"
        events, lines = report(
            lambda: store.try_swap(lambda: store.load_from_mapping_file(missing))
        )
        assert [e["event"] for e in events] == ["snapshot.swap_failed"]
        assert len(lines) == 1 and store.stale

    def test_integrity_failure(
        self, report, store, borges_mapping, universe, tmp_path
    ):
        release = tmp_path / "release.jsonl"
        save_mapping_as2org(borges_mapping, universe.whois, release)
        text = release.read_text(encoding="utf-8")
        release.write_text(text[: len(text) // 2], encoding="utf-8")
        events, lines = report(
            lambda: store.try_swap(lambda: store.load_from_release_file(release))
        )
        assert [e["event"] for e in events] == ["snapshot.integrity_failure"]
        assert len(lines) == 1 and store.stale

    def test_failed_optional_stage(self, report, universe, monkeypatch):
        def boom(self, by_final):
            raise RuntimeError("favicon API on fire")

        monkeypatch.setattr(WebInferenceModule, "favicon_stage", boom)
        pipeline = BorgesPipeline(universe.whois, universe.pdb, universe.web)
        events, lines = report(pipeline.run)
        failed = [e for e in events if e.get("status") == "failed"]
        assert [(e["event"], e["stage"]) for e in failed] == [
            ("stage.finish", "favicons")
        ]
        assert len(lines) == 1 and "stage=favicons" in lines[0]

    def test_publish_gate_block(self, report, tmp_path):
        store = SnapshotStore(registry=MetricsRegistry())
        results = iter(
            [
                _watch_result([{n} for n in range(1, 11)], "d1"),
                _watch_result([set(range(1, 11))], "d2"),  # one org: blocked
            ]
        )
        daemon = WatchDaemon(
            store=store,
            archive=SnapshotArchive(tmp_path / "archive"),
            journal=RunJournal(tmp_path / "journal.jsonl"),
            runner=lambda: next(results),
            config=WatchConfig(interval=0.0),
            registry=MetricsRegistry(),
            sleep=lambda _seconds: None,
        )
        with use_event_log():
            assert daemon.cycle() == "published"
        outcomes = []
        events, lines = report(lambda: outcomes.append(daemon.cycle()))
        assert outcomes == ["gate_blocked"]
        assert [(e["event"], e["outcome"]) for e in events] == [
            ("watch.cycle", "gate_blocked")
        ]
        assert len(lines) == 1


def _watch_result(groups, digest):
    return WatchRunResult(
        mapping=OrgMapping(
            universe=sorted(asn for group in groups for asn in group),
            clusters=[frozenset(group) for group in groups],
            method="event-test",
        ),
        dataset_digest=digest,
        label=digest,
    )
