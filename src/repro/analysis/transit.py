"""Figure 8: marginal network growth of organizations along AS-Rank.

For each AS in rank order, the marginal growth is how many more networks
its Borges organization holds than its AS2Org organization — the paper's
"how many additional networks are associated with an organization,
relative to its highest-ranked ASN".  Only each organization's
highest-ranked ASN contributes (avoiding double counting), and the figure
plots the cumulative sum plus least-squares slopes over the top 100,
1,000 and 10,000 ranks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul
from typing import Dict, List, Sequence, Set

from ..asrank.rank import ASRank
from ..core.mapping import OrgMapping


@dataclass
class TransitGrowthSeries:
    """The Fig. 8 data: per-rank marginal growth and regression slopes."""

    ranks: List[int] = field(default_factory=list)
    marginal_growth: List[int] = field(default_factory=list)
    cumulative_growth: List[int] = field(default_factory=list)
    slopes: Dict[int, float] = field(default_factory=dict)

    def mean_growth_top(self, n: int) -> float:
        """Average marginal gain over the top-*n* ranked ASNs."""
        selected = [
            g for r, g in zip(self.ranks, self.marginal_growth) if r <= n
        ]
        return sum(selected) / len(selected) if selected else 0.0


def transit_marginal_growth(
    borges: OrgMapping,
    as2org: OrgMapping,
    rank: ASRank,
    fit_windows: Sequence[int] = (100, 1_000, 10_000),
) -> TransitGrowthSeries:
    """Compute the Fig. 8 series from two mappings and an AS-Rank table."""
    series = TransitGrowthSeries()
    seen_orgs: Set[int] = set()
    for entry in rank:
        if entry.asn not in borges:
            continue
        org_index = borges.org_index_of(entry.asn)
        if org_index in seen_orgs:
            continue  # only the org's highest-ranked ASN counts
        seen_orgs.add(org_index)
        growth = len(borges.cluster_of(entry.asn)) - len(
            as2org.cluster_of(entry.asn)
        )
        series.ranks.append(entry.rank)
        series.marginal_growth.append(max(0, growth))
    cumulative = 0
    for growth in series.marginal_growth:
        cumulative += growth
        series.cumulative_growth.append(cumulative)
    for window in fit_windows:
        series.slopes[window] = _fit_slope(series, window)
    return series


def _fit_slope(series: TransitGrowthSeries, window: int) -> float:
    """Least-squares slope of cumulative growth over ranks ≤ *window*.

    The closed form ``(n·Σxy − Σx·Σy) / (n·Σx² − (Σx)²)`` over the
    integer ranks and counts is computed exactly in integers, so the one
    division returns the correctly rounded slope.  Ranks are distinct,
    so the denominator is positive once there are two of them.
    """
    xs = [r for r in series.ranks if r <= window]
    if len(xs) < 2:
        return 0.0
    ys = series.cumulative_growth[: len(xs)]
    n, sum_x, sum_y = len(xs), sum(xs), sum(ys)
    numerator = n * sum(map(mul, xs, ys)) - sum_x * sum_y
    return numerator / (n * sum(map(mul, xs, xs)) - sum_x * sum_x)
