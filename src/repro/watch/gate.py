"""The publish gate: a new inference must earn the swap.

PARI's probabilistic framing of relationship inference makes the point
that matters here: a freshly derived mapping is a *hypothesis*, and a
hypothesis can be worse than the release it would replace — a upstream
feed truncated overnight, a feature degraded, an LLM backend started
hallucinating.  Publishing blindly turns any of those into user-visible
regressions.  The gate diffs every candidate against the active
generation and refuses the swap when the delta exceeds configured
thresholds:

* ``max_org_shrink`` / ``max_org_growth`` — fractional change in
  organization count (a mapping that lost a third of its orgs did not
  discover consolidation; it lost evidence);
* ``max_coverage_drop`` — fractional loss of ASN coverage (the universe
  should drift, not collapse);
* ``max_churn`` — fraction of common ASNs whose sibling set changed
  (WHOIS drifts a little per day, not 50%);
* ``min_precision`` — ground-truth precision floor, enforced only when
  the caller has ground truth to measure against.

The first generation (no active snapshot) always passes — there is
nothing to regress from.  A blocked candidate is an *event*, not an
error: the daemon journals it, reports it as the cycle's ``watch.cycle``
event (``outcome=gate_blocked``, at warning), bumps the metric, and keeps
serving the old generation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import ConfigError
from ..serve.diff import GenerationDiff, diff_indexes
from ..serve.index import MappingIndex


@dataclass(frozen=True)
class GateThresholds:
    """Regression limits a candidate must stay inside to publish."""

    max_org_shrink: float = 0.20
    max_org_growth: float = 0.50
    max_coverage_drop: float = 0.05
    max_churn: float = 0.35
    min_precision: float = 0.0

    def validate(self) -> "GateThresholds":
        for name in (
            "max_org_shrink",
            "max_org_growth",
            "max_coverage_drop",
            "max_churn",
        ):
            value = getattr(self, name)
            if not 0.0 <= value:
                raise ConfigError(f"{name} must be >= 0: {value}")
        if not 0.0 <= self.min_precision <= 1.0:
            raise ConfigError(
                f"min_precision out of [0,1]: {self.min_precision}"
            )
        return self

    def to_json(self) -> Dict[str, float]:
        return {
            "max_org_shrink": self.max_org_shrink,
            "max_org_growth": self.max_org_growth,
            "max_coverage_drop": self.max_coverage_drop,
            "max_churn": self.max_churn,
            "min_precision": self.min_precision,
        }


@dataclass(frozen=True)
class GateDecision:
    """The gate's verdict on one candidate, with its evidence."""

    allowed: bool
    reasons: tuple
    metrics: Dict[str, float]
    diff: Optional[GenerationDiff] = None

    def to_json(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "allowed": self.allowed,
            "reasons": list(self.reasons),
            "metrics": dict(self.metrics),
        }
        if self.diff is not None:
            out["diff"] = self.diff.to_json()
        return out


class PublishGate:
    """Evaluate candidate generations against the active one."""

    def __init__(self, thresholds: Optional[GateThresholds] = None) -> None:
        self.thresholds = (thresholds or GateThresholds()).validate()

    def evaluate(
        self,
        candidate: MappingIndex,
        active: Optional[MappingIndex],
        precision: Optional[float] = None,
    ) -> GateDecision:
        """The verdict for *candidate* vs *active* (``None`` = bootstrap).

        *precision* is the candidate's measured ground-truth precision
        when the operator has ground truth; ``None`` skips that check
        (absence of evidence is not a regression).
        """
        thresholds = self.thresholds
        reasons: List[str] = []
        metrics: Dict[str, float] = {
            "candidate_orgs": float(len(candidate)),
            "candidate_asns": float(candidate.asn_count),
        }
        if precision is not None:
            metrics["precision"] = precision
            if precision < thresholds.min_precision:
                reasons.append(
                    f"precision {precision:.4f} below floor "
                    f"{thresholds.min_precision:.4f}"
                )
        if active is None:
            return GateDecision(
                allowed=not reasons, reasons=tuple(reasons), metrics=metrics
            )

        diff = diff_indexes(active, candidate)
        metrics.update(
            {
                "active_orgs": float(len(active)),
                "active_asns": float(active.asn_count),
                "churn_fraction": diff.churn_fraction,
            }
        )
        if len(active):
            org_delta = (len(candidate) - len(active)) / len(active)
            metrics["org_delta_fraction"] = org_delta
            if org_delta < -thresholds.max_org_shrink:
                reasons.append(
                    f"org count shrank {-org_delta:.1%} "
                    f"(limit {thresholds.max_org_shrink:.1%})"
                )
            if org_delta > thresholds.max_org_growth:
                reasons.append(
                    f"org count grew {org_delta:.1%} "
                    f"(limit {thresholds.max_org_growth:.1%})"
                )
        if active.asn_count:
            coverage_delta = (
                candidate.asn_count - active.asn_count
            ) / active.asn_count
            metrics["coverage_delta_fraction"] = coverage_delta
            if coverage_delta < -thresholds.max_coverage_drop:
                reasons.append(
                    f"ASN coverage dropped {-coverage_delta:.1%} "
                    f"(limit {thresholds.max_coverage_drop:.1%})"
                )
        if diff.churn_fraction > thresholds.max_churn:
            reasons.append(
                f"churn {diff.churn_fraction:.1%} of common ASNs "
                f"(limit {thresholds.max_churn:.1%})"
            )
        return GateDecision(
            allowed=not reasons,
            reasons=tuple(reasons),
            metrics=metrics,
            diff=diff,
        )
