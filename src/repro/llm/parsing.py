"""Structured-output format instructions and response parsing.

The extraction prompt asks the model to answer in a small JSON envelope
(the ``{format_instructions}`` placeholder of Listing 2); this module owns
that contract on both sides — rendering the instructions and parsing the
model's reply back into typed results, tolerating the usual LLM quirks
(code fences, leading prose).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import List, Tuple

from ..errors import LLMResponseError
from ..types import ASN

#: Instructions injected into Listing 2's ``{format_instructions}`` slot.
EXTRACTION_FORMAT_INSTRUCTIONS = """\
The output should be a JSON object with exactly these keys:
{"sibling_asns": [<integers>], "reasoning": "<string>"}
Use an empty list when no sibling AS is reported."""

_JSON_BLOCK_RE = re.compile(r"\{.*\}", re.DOTALL)
_FENCE_RE = re.compile(r"```(?:json)?\s*(.*?)```", re.DOTALL)


@dataclass(frozen=True)
class ExtractionResult:
    """Parsed output of the notes/aka information-extraction stage."""

    sibling_asns: Tuple[ASN, ...]
    reasoning: str = ""

    @property
    def found(self) -> bool:
        return bool(self.sibling_asns)


@dataclass(frozen=True)
class ClassifierVerdict:
    """Parsed output of the favicon classifier (Listing 3).

    ``is_company`` follows the paper's decision: a telecommunications
    company (or subsidiary) groups its URLs; a hosting technology or an
    "I don't know" does not.
    """

    answer: str
    is_company: bool

    @property
    def is_unknown(self) -> bool:
        return not self.is_company and self.answer.lower() == "i don't know"


def render_extraction_reply(asns: List[int], reasoning: str) -> str:
    """Serialize an extraction result the way the model would reply."""
    return json.dumps(
        {"sibling_asns": sorted(set(int(a) for a in asns)), "reasoning": reasoning}
    )


def parse_extraction_reply(raw: str) -> ExtractionResult:
    """Parse a model reply into an :class:`ExtractionResult`.

    Accepts raw JSON, fenced JSON, or JSON embedded in prose.  Raises
    :class:`~repro.errors.LLMResponseError` when nothing parseable exists.
    """
    payload = _extract_json_object(raw)
    asns_field = payload.get("sibling_asns")
    if not isinstance(asns_field, list):
        raise LLMResponseError("missing sibling_asns list", raw_output=raw)
    asns: List[ASN] = []
    for item in asns_field:
        try:
            asns.append(int(item))
        except (TypeError, ValueError):
            raise LLMResponseError(
                f"non-integer sibling ASN {item!r}", raw_output=raw
            ) from None
    reasoning = str(payload.get("reasoning", "") or "")
    return ExtractionResult(
        sibling_asns=tuple(sorted(set(asns))), reasoning=reasoning
    )


#: Terms in a classifier reply that indicate a technology, not a company.
_TECHNOLOGY_TERMS = (
    "bootstrap", "wordpress", "godaddy", "ixc", "wix", "framework",
    "hosting technology", "cms", "template",
)


def parse_classifier_reply(raw: str) -> ClassifierVerdict:
    """Parse the one-line classifier answer (Listing 3's contract).

    The prompt instructs: reply *only* with a company name, a technology
    name, or "I don't know".  Company ⇒ group; anything else ⇒ don't.
    """
    answer = raw.strip().strip(".").strip()
    if not answer:
        raise LLMResponseError("empty classifier reply", raw_output=raw)
    lowered = answer.lower()
    if lowered in ("i don't know", "i dont know", "unknown"):
        return ClassifierVerdict(answer="I don't know", is_company=False)
    if any(term in lowered for term in _TECHNOLOGY_TERMS):
        return ClassifierVerdict(answer=answer, is_company=False)
    return ClassifierVerdict(answer=answer, is_company=True)


def _extract_json_object(raw: str) -> dict:
    """Find and decode the first JSON object in *raw*."""
    candidates: List[str] = []
    fenced = _FENCE_RE.search(raw)
    if fenced:
        candidates.append(fenced.group(1))
    block = _JSON_BLOCK_RE.search(raw)
    if block:
        candidates.append(block.group(0))
    candidates.append(raw)
    for candidate in candidates:
        try:
            payload = json.loads(candidate.strip())
        except json.JSONDecodeError:
            continue
        if isinstance(payload, dict):
            return payload
    raise LLMResponseError("no JSON object in model reply", raw_output=raw)
