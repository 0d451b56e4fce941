"""Unit tests for the error hierarchy and logging helpers."""

import logging

import pytest

from repro.errors import (
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
from repro.logutil import get_logger, setup_logging


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


class TestLogUtil:
    def test_get_logger_namespaces(self):
        assert get_logger("core.ner").name == "repro.core.ner"

    def test_get_logger_idempotent_prefix(self):
        assert get_logger("repro.web").name == "repro.web"

    def test_setup_logging_adds_one_handler(self):
        setup_logging()
        setup_logging()
        assert len(logging.getLogger("repro").handlers) == 1
