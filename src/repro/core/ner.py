"""The LLM-based NER module (§4.2): siblings from notes and aka.

Three stages, exactly as the paper describes:

1. **Input filter** — only records whose notes or aka contain digits are
   sent to the model (most free text carries no ASN information; this
   dropout filter saves model calls and improves accuracy).
2. **Information extraction** — the Listing-2 few-shot prompt is rendered
   per record and sent through the chat client; the JSON reply is parsed
   into candidate sibling ASNs.
3. **Output filter** — hallucination guard: only numbers literally
   present in the record's notes/aka survive; the record's own ASN and
   syntactically invalid ASNs are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from ..config import BorgesConfig
from ..errors import LLMResponseError
from ..llm.client import ChatClient, ChatMessage
from ..llm.extraction_engine import contains_number, find_all_numbers
from ..llm.parsing import parse_extraction_reply
from ..llm.prompts import render_extraction_prompt
from ..obs.log import get_event_log
from ..peeringdb import Network, PDBSnapshot
from ..types import ASN, Cluster, is_valid_asn


@dataclass(frozen=True)
class NERRecordResult:
    """Extraction outcome for one PeeringDB record."""

    asn: ASN
    raw_extracted: Tuple[ASN, ...]
    siblings: Tuple[ASN, ...]
    filtered_out: Tuple[ASN, ...]
    reasoning: str = ""
    parse_failed: bool = False

    @property
    def cluster(self) -> Cluster:
        """The sibling cluster this record induces (itself + siblings)."""
        return frozenset((self.asn,) + self.siblings)


@dataclass
class NERStats:
    """Counters mirroring §5.2's notes-and-aka accounting."""

    records_total: int = 0
    records_with_text: int = 0
    records_numeric: int = 0
    records_queried: int = 0
    records_with_siblings: int = 0
    asns_extracted: int = 0
    parse_failures: int = 0


class NERModule:
    """Runs the three-stage extraction over a PeeringDB snapshot."""

    def __init__(self, client: ChatClient, config: Optional[BorgesConfig] = None) -> None:
        self._client = client
        self._config = (config or BorgesConfig()).validate()
        self.stats = NERStats()

    def run(self, pdb: PDBSnapshot) -> List[NERRecordResult]:
        """Extract siblings for every eligible record in *pdb*."""
        results: List[NERRecordResult] = []
        for net in pdb.networks():
            self.stats.records_total += 1
            if not net.freeform_text:
                continue
            self.stats.records_with_text += 1
            numeric = contains_number(net.freeform_text)
            if numeric:
                self.stats.records_numeric += 1
            if self._config.ner_input_filter and not numeric:
                continue
            result = self.extract_record(net)
            results.append(result)
            if result.siblings:
                self.stats.records_with_siblings += 1
                self.stats.asns_extracted += len(result.siblings)
        return results

    def extract_record(self, net: Network) -> NERRecordResult:
        """Stages 2–3 for a single record."""
        self.stats.records_queried += 1
        prompt = render_extraction_prompt(net.asn, net.notes, net.aka)
        response = self._client.chat([ChatMessage(role="user", content=prompt)])
        try:
            parsed = parse_extraction_reply(response.content)
        except LLMResponseError as exc:
            self.stats.parse_failures += 1
            get_event_log().emit(
                "ner.unparsable_reply",
                severity="warning",
                asn=net.asn,
                error=str(exc),
            )
            return NERRecordResult(
                asn=net.asn, raw_extracted=(), siblings=(),
                filtered_out=(), parse_failed=True,
            )
        siblings, filtered = self._output_filter(net, parsed.sibling_asns)
        return NERRecordResult(
            asn=net.asn,
            raw_extracted=parsed.sibling_asns,
            siblings=tuple(sorted(siblings)),
            filtered_out=tuple(sorted(filtered)),
            reasoning=parsed.reasoning,
        )

    def _output_filter(
        self, net: Network, candidates: Sequence[ASN]
    ) -> Tuple[Set[ASN], Set[ASN]]:
        """Keep only literal, valid, non-self ASNs (the §4.2 guard)."""
        keep: Set[ASN] = set()
        dropped: Set[ASN] = set()
        literal_numbers = (
            set(find_all_numbers(net.freeform_text))
            if self._config.ner_output_filter
            else None
        )
        for candidate in candidates:
            candidate = int(candidate)
            if candidate == net.asn or not is_valid_asn(candidate):
                dropped.add(candidate)
                continue
            if literal_numbers is not None and candidate not in literal_numbers:
                dropped.add(candidate)
                continue
            keep.add(candidate)
        return keep, dropped

    def clusters(self, results: Sequence[NERRecordResult]) -> List[Cluster]:
        """The feature's sibling clusters (records with ≥1 sibling)."""
        return [r.cluster for r in results if r.siblings]
