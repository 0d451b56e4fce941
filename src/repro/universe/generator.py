"""The universe generator: ground truth plus every exported view.

Given a :class:`~repro.config.UniverseConfig`, :func:`generate_universe`
builds one deterministic synthetic Internet:

1. ground truth — canonical paper scenarios + randomly drawn
   organizations (singletons, conglomerates, a few government-style
   many-ASN registrants) with an M&A timeline;
2. the WHOIS dataset, fragmenting conglomerates into legal entities;
3. the PeeringDB snapshot, with operator-written notes/aka/websites;
4. the simulated web, with post-merger redirect chains and favicons;
5. APNIC-style populations and an AS topology for AS-Rank;
6. annotations: the truth needed to score extraction/classification.

The implementation lives in :mod:`repro.universe.stream`, which splits
generation into a cheap plan phase and lazy org-complete chunks so huge
universes need not be materialized at once.  This module keeps the
stable entry points: :class:`UniverseGenerator` with ``plan()`` /
``stream()`` / ``generate()``, and the :class:`Universe` /
:class:`Annotations` containers.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..config import UniverseConfig
from .stream import (  # noqa: F401  (re-exported API surface)
    SYNTHETIC_ASN_BASE,
    Annotations,
    Universe,
    UniverseChunk,
    UniversePlan,
    assemble_universe,
    build_plan,
    stream_chunks,
)

__all__ = [
    "SYNTHETIC_ASN_BASE",
    "Annotations",
    "Universe",
    "UniverseGenerator",
    "generate_universe",
]


class UniverseGenerator:
    """Deterministic builder; every random draw hangs off ``config.seed``.

    ``generate()`` is a thin collect-all facade over the streaming path:
    ``plan()`` draws every org's shape, ``stream()`` yields org-complete
    chunks, and :func:`~repro.universe.stream.assemble_universe` folds
    them — so the streamed universe is byte-identical to this one.
    """

    def __init__(self, config: Optional[UniverseConfig] = None) -> None:
        self._config = (config or UniverseConfig()).validate()

    @property
    def config(self) -> UniverseConfig:
        return self._config

    def plan(self, chunk_size: Optional[int] = None) -> UniversePlan:
        """Phase 1: per-org seeds + plan-level backbone facts."""
        return build_plan(self._config, chunk_size=chunk_size)

    def stream(
        self, chunk_size: Optional[int] = None
    ) -> Iterator[UniverseChunk]:
        """Phase 2: lazily yield org-complete chunks of the universe."""
        return stream_chunks(self.plan(chunk_size=chunk_size))

    def generate(self) -> Universe:
        """Collect-all facade: stream every chunk and assemble."""
        plan = self.plan()
        return assemble_universe(plan, stream_chunks(plan))


def generate_universe(config: Optional[UniverseConfig] = None) -> Universe:
    """Build one deterministic universe from *config* (or defaults)."""
    return UniverseGenerator(config).generate()
