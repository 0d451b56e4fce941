"""Borges — Better ORGanizations Entities mappingS (IMC 2025 reproduction).

A framework for improving AS-to-Organization mappings by combining WHOIS
and PeeringDB organization keys with LLM-based extraction of sibling
ASNs from free text and website-based inference (redirect chains, domain
similarity, favicon analysis).

Quickstart::

    from repro import generate_universe, BorgesPipeline, org_factor_from_mapping

    universe = generate_universe()                    # offline synthetic inputs
    pipeline = BorgesPipeline(universe.whois, universe.pdb, universe.web)
    result = pipeline.run()
    print(org_factor_from_mapping(result.mapping))    # the theta metric

The package layout mirrors the system: substrates (``peeringdb``,
``whois``, ``web``, ``llm``, ``apnic``, ``asrank``), the synthetic-world
generator (``universe``), the baselines (``baselines``), the Borges core
(``core``), metrics and analyses (``metrics``, ``analysis``), the
experiment harness (``experiments``), and the observability layer
(``obs``: metrics registry, span tracing, run manifests).
"""

__version__ = "1.0.0"

#: Public name → the submodule that defines it.  Each is imported on
#: first access (PEP 562), so importing this package runs none of
#: the subpackages until a caller asks for one of these names.
_EXPORTS = {
    "ALL_FEATURES": "config",
    "BorgesConfig": "config",
    "LLMConfig": "config",
    "ScraperConfig": "config",
    "UniverseConfig": "config",
    "BorgesPipeline": "core",
    "BorgesResult": "core",
    "OrgMapping": "core",
    "build_as2org_mapping": "baselines",
    "build_as2orgplus_mapping": "baselines",
    "org_factor": "metrics",
    "org_factor_from_mapping": "metrics",
    "Universe": "universe",
    "generate_universe": "universe",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    # ``__import__`` (``from .module import name``) takes the
    # interpreter's own import path, which ``-X importtime`` reports;
    # ``importlib.import_module`` would hide the import from it.
    value = getattr(__import__(module, globals(), None, (name,), 1), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
