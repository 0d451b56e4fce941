"""The deterministic offline chat backend (GPT-4o-mini stand-in).

:class:`SimulatedChatBackend` receives *rendered prompts* — the exact
strings a real API call would carry — recognizes which of the paper's two
tasks they encode, recovers the embedded fields, runs the corresponding
NLP engine, passes the result through the calibrated error model, and
renders a plausible completion string.  The pipeline then parses that
string with :mod:`repro.llm.parsing`, so the full prompt→completion→parse
round trip is exercised end to end.
"""

from __future__ import annotations

import re
from typing import List, Optional, Sequence, Tuple

from ..config import LLMConfig
from ..errors import LLMInvalidRequestError
from .cache import ResponseCache
from .classifier_engine import classify_group, decode_brand
from .client import ChatBackend, ChatClient, ChatMessage
from .errors_model import ErrorInjector
from .extraction_engine import (
    extract_siblings,
    find_all_numbers,
    find_asn_tokens,
)
from .parsing import render_extraction_reply
from .prompts import CLASSIFIER_PROMPT_MARKER, EXTRACTION_PROMPT_MARKER

_EXTRACTION_FIELDS_RE = re.compile(
    r"The PeeringDB information for the ASN (?P<asn>\d+) is:\s*\n\n"
    r"Notes: (?P<notes>.*?)\n\nAKA: (?P<aka>.*?)\n\nThe output should be",
    re.DOTALL,
)
_CLASSIFIER_URLS_RE = re.compile(
    r"Accessing these URLs (?P<urls>\[.*?\]) returned the attached favicon",
    re.DOTALL,
)
_URL_TOKEN_RE = re.compile(r"'([^']*)'|\"([^\"]*)\"")


def _parse_url_list(text: str) -> List[str]:
    """Parse the prompt's ``str(list_of_urls)`` rendering.

    Deliberately not ``ast.literal_eval``: the AST constructor's
    recursion bookkeeping is not reliable under heavy thread
    concurrency on CPython 3.11 (``SystemError: AST constructor
    recursion depth mismatch``, seen when many sharded favicon stages
    classify at once), and the input is only ever a flat list of
    quoted URL strings.
    """
    inner = text.strip()
    if not (inner.startswith("[") and inner.endswith("]")):
        raise LLMInvalidRequestError(f"unparsable URL list: {text[:80]!r}")
    return [
        match.group(1) if match.group(1) is not None else match.group(2)
        for match in _URL_TOKEN_RE.finditer(inner)
    ]


class SimulatedChatBackend(ChatBackend):
    """Deterministic task-routing backend with calibrated errors."""

    name = "simulated"

    def __init__(self, config: Optional[LLMConfig] = None) -> None:
        self._config = (config or LLMConfig()).validate()
        self._injector = ErrorInjector(
            seed=self._config.seed,
            rates={
                # Extraction slips (Table 4): missing a reported sibling
                # (FN), misreading a decoy number as an ASN (FP case 1),
                # and misreading an upstream's real ASN as a sibling (FP
                # case 2 — the kind that produces wrong merges downstream).
                "extract_drop": self._config.extraction_error_rate,
                "extract_decoy": self._config.extraction_error_rate * 0.3,
                "extract_upstream": self._config.extraction_error_rate * 0.2,
                # Classifier slips (Table 5): rejecting a real company
                # (FN) and blessing a framework icon as a company (FP).
                "classify_reject": self._config.classifier_error_rate,
                "classify_accept": self._config.classifier_error_rate * 0.25,
            },
        )

    def complete(
        self, messages: Sequence[ChatMessage], config: LLMConfig
    ) -> str:
        prompt_text = "\n".join(m.text for m in messages if m.role != "assistant")
        if EXTRACTION_PROMPT_MARKER in prompt_text:
            return self._complete_extraction(prompt_text)
        if CLASSIFIER_PROMPT_MARKER in prompt_text:
            return self._complete_classification(prompt_text, messages)
        raise LLMInvalidRequestError(
            "simulated backend received a prompt it does not recognize; "
            "only the Borges extraction and classifier prompts are modelled"
        )

    # -- extraction task ------------------------------------------------

    def _complete_extraction(self, prompt_text: str) -> str:
        match = _EXTRACTION_FIELDS_RE.search(prompt_text)
        if not match:
            raise LLMInvalidRequestError("extraction prompt missing embedded fields")
        own_asn = int(match.group("asn"))
        notes = _unplaceholder(match.group("notes"))
        aka = _unplaceholder(match.group("aka"))

        result = extract_siblings(own_asn, notes, aka)
        asns: List[int] = list(result.asns)
        reasoning = result.reasoning
        asns, reasoning = self._inject_extraction_errors(
            own_asn, notes, aka, asns, reasoning
        )
        return render_extraction_reply(asns, reasoning)

    def _inject_extraction_errors(
        self,
        own_asn: int,
        notes: str,
        aka: str,
        asns: List[int],
        reasoning: str,
    ) -> Tuple[List[int], str]:
        text = f"{notes}\n{aka}"
        if asns and self._injector.should("extract_drop", own_asn):
            dropped = self._injector.pick("extract_drop", tuple(sorted(asns)), own_asn)
            asns = [a for a in asns if a != dropped]
            reasoning += "; one reported AS appeared ambiguous and was omitted"
        asn_tokens = set(find_asn_tokens(text))
        decoys = [
            n for n in find_all_numbers(text)
            if n not in asn_tokens and n != own_asn and 1 <= n <= 4_000_000_000
        ]
        if decoys and self._injector.should("extract_decoy", own_asn):
            decoy = self._injector.pick("extract_decoy", tuple(decoys), own_asn)
            if decoy not in asns:
                asns = asns + [decoy]
                reasoning += (
                    f"; the number {decoy} in the text appears to be an AS number"
                )
        # FP case 2: a real AS token the engine correctly excluded (an
        # upstream/peer) is misread as a sibling.
        excluded_tokens = sorted(
            asn_tokens - set(asns) - {own_asn}
        )
        if excluded_tokens and self._injector.should("extract_upstream", own_asn):
            upstream = self._injector.pick(
                "extract_upstream", tuple(excluded_tokens), own_asn
            )
            asns = asns + [upstream]
            reasoning += (
                f"; AS{upstream} appears to belong to the same organization"
            )
        return asns, reasoning

    # -- classification task -----------------------------------------------

    def _complete_classification(
        self, prompt_text: str, messages: Sequence[ChatMessage]
    ) -> str:
        match = _CLASSIFIER_URLS_RE.search(prompt_text)
        if not match:
            raise LLMInvalidRequestError("classifier prompt missing URL list")
        urls = _parse_url_list(match.group("urls"))
        favicon = b""
        for message in messages:
            images = message.images
            if images:
                favicon = images[0].data
                break
        if not favicon:
            raise LLMInvalidRequestError("classifier prompt carried no favicon image")

        answer = classify_group(favicon, list(urls))
        brand = decode_brand(favicon)
        identity = (brand, tuple(sorted(map(str, urls))))
        if answer.is_company and self._injector.should("classify_reject", *identity):
            return "I don't know"
        if not answer.is_company and self._injector.should(
            "classify_accept", *identity
        ):
            # The model over-trusts a shared default icon: invents a company.
            return _invented_company_name(urls)
        return answer.reply


def _unplaceholder(field_text: str) -> str:
    """Undo the ``(empty)`` placeholder the prompt renderer inserts."""
    return "" if field_text.strip() == "(empty)" else field_text


def _invented_company_name(urls: Sequence[str]) -> str:
    """A plausible-but-wrong company name for an FP classifier slip."""
    from ..web.url import brand_label

    for url in urls:
        try:
            return brand_label(str(url)).capitalize() + " Telecom"
        except Exception:
            continue
    return "Acme Telecom"


def make_default_client(
    config: Optional[LLMConfig] = None,
    cache: Optional[ResponseCache] = None,
    resilience: Optional["ResilienceConfig"] = None,
    registry=None,
    injector=None,
) -> ChatClient:
    """Build the standard offline client: simulated backend + cache.

    *resilience* configures the retry policy and circuit breaker, and —
    when its fault profile (or ``$BORGES_FAULT_PROFILE``) is active —
    wraps the backend in a seeded :class:`FaultyChatBackend` so chaos
    runs are reproducible.  Pass *injector* to share one
    :class:`FaultInjector` (and its tallies) with other surfaces.
    """
    from ..config import ResilienceConfig
    from ..resilience.breaker import CircuitBreaker
    from ..resilience.faults import (
        FaultInjector,
        FaultyChatBackend,
        resolve_fault_profile,
    )
    from ..resilience.policy import RetryPolicy

    cfg = (config or LLMConfig()).validate()
    res = (resilience or ResilienceConfig()).validate()
    backend: ChatBackend = SimulatedChatBackend(cfg)
    profile = resolve_fault_profile(res.fault_profile)
    if profile.active:
        if injector is None:
            injector = FaultInjector(
                profile, seed=res.fault_seed, registry=registry
            )
        backend = FaultyChatBackend(backend, injector)
    policy = RetryPolicy(
        attempts=res.llm_attempts,
        base_delay=res.llm_base_delay,
        max_delay=res.llm_max_delay,
        multiplier=res.backoff_multiplier,
        jitter=res.backoff_jitter,
    )
    breaker = CircuitBreaker(
        name=f"llm:{backend.name}",
        failure_threshold=res.breaker_failure_threshold,
        recovery_seconds=res.breaker_recovery_seconds,
        half_open_max_calls=res.breaker_half_open_max_calls,
        registry=registry,
    )
    return ChatClient(
        backend, config=cfg, cache=cache, registry=registry,
        retry_policy=policy, breaker=breaker,
    )
