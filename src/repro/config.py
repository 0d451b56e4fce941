"""Configuration dataclasses for the Borges pipeline and the synthetic world.

Two families of knobs live here:

* :class:`UniverseConfig` — parameters of the synthetic Internet used as an
  offline stand-in for the paper's PeeringDB/WHOIS/web/APNIC inputs.  The
  defaults are a scaled-down replica of the paper's 2024-07 snapshot that
  preserves its ratios (PeeringDB coverage, website coverage, org-size
  skew); see DESIGN.md §4 for the scale note.
* :class:`BorgesConfig` — the pipeline's own switches: which of the four
  features run, filter toggles, LLM and scraping settings.  These map
  one-to-one onto the design choices §4.2/§4.3 of the paper describes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import FrozenSet, Tuple

from .errors import ConfigError

#: Names of the four Borges features as used throughout tables and the CLI.
FEATURE_OID_P = "oid_p"
FEATURE_NOTES_AKA = "notes_aka"
FEATURE_RR = "rr"
FEATURE_FAVICONS = "favicons"
#: The compulsory WHOIS backbone; always on, never in ``features``.
FEATURE_OID_W = "oid_w"

ALL_FEATURES: Tuple[str, ...] = (
    FEATURE_OID_P,
    FEATURE_NOTES_AKA,
    FEATURE_RR,
    FEATURE_FAVICONS,
)

#: Canonical display order of every feature (Table 3 rows,
#: ``BorgesResult.feature_table``, and :func:`feature_combo_label` all
#: derive from this single tuple so they cannot drift when a feature is
#: added).
TABLE_FEATURE_ORDER: Tuple[str, ...] = (
    FEATURE_OID_P,
    FEATURE_OID_W,
    FEATURE_NOTES_AKA,
    FEATURE_RR,
    FEATURE_FAVICONS,
)

#: Stage names of the pipeline's stage DAG, in canonical definition
#: order.  They live here, not in :mod:`repro.core.stages`, so that the
#: CLI can offer them as choices without importing the pipeline.
STAGE_OID_W = "oid_w"
STAGE_OID_P = "oid_p"
STAGE_NER_EXTRACT = "ner_extract"
STAGE_NOTES_AKA = "notes_aka"
STAGE_SCRAPE = "scrape"
STAGE_RR = "rr"
STAGE_FAVICONS = "favicons"
STAGE_MERGE = "merge"

ALL_STAGES: Tuple[str, ...] = (
    STAGE_OID_W,
    STAGE_OID_P,
    STAGE_NER_EXTRACT,
    STAGE_NOTES_AKA,
    STAGE_SCRAPE,
    STAGE_RR,
    STAGE_FAVICONS,
    STAGE_MERGE,
)

#: Ids of the paper's tables and figures that ``borges experiment``
#: regenerates: the keys of :data:`repro.experiments.EXPERIMENTS`, kept
#: here so that the CLI can offer them without importing the harness.
EXPERIMENT_IDS: Tuple[str, ...] = (
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
    "fig7",
    "fig8",
    "fig9",
)


@dataclass(frozen=True)
class LLMConfig:
    """Settings for the chat model used by the NER and classifier stages.

    Mirrors §4.2: GPT-4o-mini with temperature 0 and top_p 1 for
    reproducible output.  ``backend`` selects the driver; the offline
    default is the deterministic simulator.
    """

    model: str = "gpt-4o-mini-sim"
    temperature: float = 0.0
    top_p: float = 1.0
    max_tokens: int = 1024
    backend: str = "simulated"
    #: Probability knobs of the simulator's calibrated error model.  They
    #: are chosen so the validation tables land near the paper's accuracy
    #: (Table 4: 0.947, Table 5: 0.986).  Setting both to 0 yields the
    #: perfect-oracle ablation.
    extraction_error_rate: float = 0.03
    classifier_error_rate: float = 0.09
    seed: int = 1340

    def validate(self) -> "LLMConfig":
        if not 0.0 <= self.temperature <= 2.0:
            raise ConfigError(f"temperature out of range: {self.temperature}")
        if not 0.0 <= self.top_p <= 1.0:
            raise ConfigError(f"top_p out of range: {self.top_p}")
        if self.max_tokens <= 0:
            raise ConfigError("max_tokens must be positive")
        for name in ("extraction_error_rate", "classifier_error_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{name} out of range: {rate}")
        return self


@dataclass(frozen=True)
class ScraperConfig:
    """Settings for the headless-browser analogue (§4.3.1)."""

    max_redirect_hops: int = 16
    timeout_seconds: float = 15.0
    follow_meta_refresh: bool = True
    execute_javascript: bool = True
    user_agent: str = "borges-repro/1.0 (+headless)"

    def validate(self) -> "ScraperConfig":
        if self.max_redirect_hops < 1:
            raise ConfigError("max_redirect_hops must be >= 1")
        if self.timeout_seconds <= 0:
            raise ConfigError("timeout_seconds must be positive")
        return self


@dataclass(frozen=True)
class ResilienceConfig:
    """Retry/backoff, circuit-breaker and fault-injection knobs.

    The delays are tuned for the offline simulators (no real network
    latency); a live deployment would raise them.  ``fault_profile``
    names one of :data:`repro.resilience.PROFILES`; the empty string
    defers to the ``BORGES_FAULT_PROFILE`` environment variable (default
    ``none``), which is how CI runs the unmodified suite under chaos.
    """

    #: LLM completion retries (exponential backoff, seeded jitter).
    llm_attempts: int = 3
    llm_base_delay: float = 0.01
    llm_max_delay: float = 0.25
    #: Web fetch retries; the simulated web answers instantly, so the
    #: default backoff is zero-cost while preserving the retry semantics.
    web_attempts: int = 3
    web_base_delay: float = 0.0
    web_max_delay: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_jitter: float = 0.1
    #: Circuit breakers (per LLM backend, per web host).
    breaker_failure_threshold: int = 5
    breaker_recovery_seconds: float = 30.0
    breaker_half_open_max_calls: int = 1
    #: Seeded chaos: profile name ("" → environment) and injector seed.
    fault_profile: str = ""
    fault_seed: int = 2020

    def validate(self) -> "ResilienceConfig":
        if self.llm_attempts < 1 or self.web_attempts < 1:
            raise ConfigError("retry attempts must be >= 1")
        for name in (
            "llm_base_delay", "llm_max_delay", "web_base_delay", "web_max_delay"
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ConfigError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ConfigError(f"backoff_jitter out of [0,1]: {self.backoff_jitter}")
        if self.breaker_failure_threshold < 1:
            raise ConfigError("breaker_failure_threshold must be >= 1")
        if self.breaker_recovery_seconds <= 0:
            raise ConfigError("breaker_recovery_seconds must be positive")
        if self.breaker_half_open_max_calls < 1:
            raise ConfigError("breaker_half_open_max_calls must be >= 1")
        if self.fault_profile:
            from .resilience.faults import PROFILES

            if self.fault_profile not in PROFILES:
                raise ConfigError(
                    f"unknown fault profile {self.fault_profile!r}; "
                    f"known: {sorted(PROFILES)}"
                )
        return self

    def with_profile(self, name: str) -> "ResilienceConfig":
        """Return a copy pinned to the named fault profile."""
        return dataclasses.replace(self, fault_profile=name).validate()


@dataclass(frozen=True)
class ExecutorConfig:
    """Stage-DAG execution knobs.

    ``max_workers`` bounds how many shards of a sharded run
    (:func:`~repro.core.pipeline.run_sharded`) execute at once; an active
    fault profile runs them one at a time so seeded chaos stays a pure
    function of call order.  Within one pipeline the stages run one after
    another on the calling thread.  ``artifact_cache_dir`` persists stage
    artifacts to disk so a later process re-runs warm (the CLI's
    ``--artifact-cache``).
    """

    max_workers: int = 4
    artifact_cache_dir: str = ""

    def validate(self) -> "ExecutorConfig":
        if self.max_workers < 1:
            raise ConfigError("max_workers must be >= 1")
        return self


@dataclass(frozen=True)
class BorgesConfig:
    """Full pipeline configuration.

    ``features`` selects which sibling-inference signals run; WHOIS org IDs
    (``OID_W``) are always included, as in the paper, because WHOIS is the
    compulsory delegation database that defines the node set.
    """

    features: FrozenSet[str] = frozenset(ALL_FEATURES)
    #: §4.2 input filter: drop notes/aka entries containing no digits.
    ner_input_filter: bool = True
    #: §4.2 output filter: only accept numbers literally present in the text.
    ner_output_filter: bool = True
    #: §4.3.2 / §4.3.3 blocklists (Appendix D).
    apply_blocklists: bool = True
    #: §4.3.3 step 2: LLM reclassification of shared-favicon groups whose
    #: subdomains differ.  Disabling leaves only the strict step-1 rule.
    favicon_llm_step: bool = True
    llm: LLMConfig = field(default_factory=LLMConfig)
    scraper: ScraperConfig = field(default_factory=ScraperConfig)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    executor: ExecutorConfig = field(default_factory=ExecutorConfig)

    def validate(self) -> "BorgesConfig":
        unknown = self.features - set(ALL_FEATURES)
        if unknown:
            raise ConfigError(f"unknown features: {sorted(unknown)}")
        self.llm.validate()
        self.scraper.validate()
        self.resilience.validate()
        self.executor.validate()
        return self

    def with_fault_profile(self, name: str) -> "BorgesConfig":
        """Return a copy running under the named fault profile."""
        return dataclasses.replace(
            self, resilience=self.resilience.with_profile(name)
        ).validate()

    def with_features(self, *names: str) -> "BorgesConfig":
        """Return a copy restricted to the given feature subset."""
        return dataclasses.replace(self, features=frozenset(names)).validate()

    def has(self, feature: str) -> bool:
        return feature in self.features


@dataclass(frozen=True)
class UniverseConfig:
    """Parameters of the synthetic Internet.

    The defaults build a ≈12k-ASN world whose statistics mirror the
    paper's snapshot at roughly 1:10 scale:

    * paper: 117,431 WHOIS ASNs / 95,300 WHOIS orgs  → ratio 1.23 AS/org
    * paper: 30,955 PDB nets (26.4% of WHOIS ASNs) / 27,712 PDB orgs
    * paper: 26,225 of 30,955 PDB nets carry a website (84.7%)
    * paper: 17,633 non-empty notes/aka; 2,916 with digits
    """

    seed: int = 42
    #: Number of ground-truth organizations (conglomerates count once).
    n_organizations: int = 9_000
    #: Fraction of organizations that are multinational conglomerates with
    #: several subsidiaries/brands (the heavy tail of org sizes).
    conglomerate_fraction: float = 0.02
    #: Mean subsidiaries per conglomerate (geometric-ish tail).
    mean_subsidiaries: float = 5.0
    #: Largest conglomerate size cap (paper: DoD runs 973 of 117k ≈ 0.8%).
    max_org_asns: int = 120
    #: Probability an AS registers in PeeringDB (paper ≈ 0.264 overall;
    #: larger orgs are more likely to register — modelled inside generator).
    pdb_registration_rate: float = 0.30
    #: Probability a PDB net reports a website (paper ≈ 0.847).
    website_rate: float = 0.85
    #: Probability a PDB net has non-empty notes or aka (paper ≈ 0.57).
    notes_rate: float = 0.55
    #: Of non-empty notes/aka, fraction containing digits (paper ≈ 0.165).
    numeric_notes_rate: float = 0.17
    #: Of numeric notes, fraction that actually report siblings (the rest
    #: are upstream lists, phone numbers, prefix counts, years...).
    sibling_notes_rate: float = 0.35
    #: Probability a merged/acquired subsidiary's site redirects to the
    #: parent's site (the Clearwire→Sprint→T-Mobile pattern).
    merger_redirect_rate: float = 0.25
    #: Probability subsidiaries share the parent's favicon.
    shared_favicon_rate: float = 0.06
    #: Probability a small org uses a web-framework default favicon.
    framework_favicon_rate: float = 0.08
    #: Probability a small org points its PDB website at a mainstream
    #: platform (facebook/github/...) — the blocklist targets these.
    platform_website_rate: float = 0.04
    #: Fraction of WHOIS records where a conglomerate's subsidiary gets its
    #: own WHOIS org (legal fragmentation — what AS2Org cannot see past).
    whois_fragmentation_rate: float = 0.85
    #: Probability PeeringDB consolidates a fragmented subsidiary under the
    #: parent's PDB org (the Fig. 3 Lumen/CenturyLink effect).
    pdb_consolidation_rate: float = 0.32
    #: Dead-site probability (paper: 20,742 of 24,200 URLs reachable).
    dead_site_rate: float = 0.14
    #: Access-network share among ASNs (eyeballs carrying APNIC users).
    access_fraction: float = 0.45
    #: Global user population to distribute over access networks.
    total_users: int = 420_000_000

    def validate(self) -> "UniverseConfig":
        if self.n_organizations < 10:
            raise ConfigError("n_organizations must be >= 10")
        if self.max_org_asns < 2:
            raise ConfigError("max_org_asns must be >= 2")
        rates = {
            name: getattr(self, name)
            for name in (
                "conglomerate_fraction",
                "pdb_registration_rate",
                "website_rate",
                "notes_rate",
                "numeric_notes_rate",
                "sibling_notes_rate",
                "merger_redirect_rate",
                "shared_favicon_rate",
                "framework_favicon_rate",
                "platform_website_rate",
                "whois_fragmentation_rate",
                "pdb_consolidation_rate",
                "dead_site_rate",
                "access_fraction",
            )
        }
        for name, value in rates.items():
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} out of [0,1]: {value}")
        if self.mean_subsidiaries < 1.0:
            raise ConfigError("mean_subsidiaries must be >= 1")
        if self.total_users <= 0:
            raise ConfigError("total_users must be positive")
        return self

    def scaled(self, factor: float) -> "UniverseConfig":
        """Return a copy with organization count scaled by *factor*.

        Useful for quick tests (``cfg.scaled(0.02)``) and for stress runs.
        """
        if factor <= 0:
            raise ConfigError("scale factor must be positive")
        return dataclasses.replace(
            self,
            n_organizations=max(10, int(self.n_organizations * factor)),
            total_users=max(1, int(self.total_users * factor)),
        ).validate()


#: A small universe used across the test-suite: fast but still exhibits
#: conglomerates, redirects, favicons and noisy notes.
TEST_UNIVERSE = UniverseConfig(seed=7, n_organizations=400, total_users=20_000_000)


def feature_combo_label(features: FrozenSet[str]) -> str:
    """Human-readable label for a feature subset, Table-6 style."""
    order = {name: i for i, name in enumerate(TABLE_FEATURE_ORDER)}
    pretty = {
        FEATURE_OID_P: "OID_P",
        FEATURE_NOTES_AKA: "N&A",
        FEATURE_RR: "R&R",
        FEATURE_FAVICONS: "F",
    }
    if not features:
        return "AS2Org (baseline)"
    names = sorted(features, key=lambda n: order[n])
    return " + ".join(pretty[n] for n in names)


def all_feature_combos() -> Tuple[FrozenSet[str], ...]:
    """Every subset of the four features (the 16 rows of Table 6)."""
    combos = [
        frozenset(name for i, name in enumerate(ALL_FEATURES) if mask & (1 << i))
        for mask in range(2 ** len(ALL_FEATURES))
    ]
    return tuple(sorted(combos, key=lambda s: (len(s), feature_combo_label(s))))
