"""JSON form of topology specifications.

A :class:`~repro.experiments.scenario.Scenario` carrying a custom
topology stores it in this form, so a scenario (and a corpus entry)
stays one JSON document.
"""

from __future__ import annotations

from ..topology.spec import TopologySpec

_SPEC_SCHEMA = "repro/topology-spec/v1"


class IoError(ValueError):
    """Raised on malformed documents."""


def spec_to_dict(spec: TopologySpec) -> dict:
    """Render a specification as a JSON-ready dict."""
    spec.validate()
    return {
        "schema": _SPEC_SCHEMA,
        "name": spec.name,
        "family": spec.family,
        "fm_host": spec.fm_host,
        "switches": [[name, nports] for name, nports in spec.switches],
        "endpoints": list(spec.endpoints),
        "links": [list(link) for link in spec.links],
    }


def spec_from_dict(document: dict) -> TopologySpec:
    """Rebuild a specification from :func:`spec_to_dict` output."""
    if document.get("schema") != _SPEC_SCHEMA:
        raise IoError(
            f"expected schema {_SPEC_SCHEMA!r}, "
            f"got {document.get('schema')!r}"
        )
    try:
        spec = TopologySpec(
            name=document["name"],
            family=document.get("family", "custom"),
            fm_host=document.get("fm_host"),
            switches=[(name, int(nports))
                      for name, nports in document["switches"]],
            endpoints=list(document["endpoints"]),
            links=[(a, int(ap), b, int(bp))
                   for a, ap, b, bp in document["links"]],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise IoError(f"malformed topology document: {exc}") from exc
    spec.validate()
    return spec
