"""The JSON report renderer against the `json.dumps` of the report's dict."""

import copy
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from assetscout.design import ConnEdge
from assetscout.evaluation import EvalResult
from assetscout.refine import PrimaryAsset
from assetscout.report import SCHEMA_VERSION, AssetReport
from assetscout.rules import CandidateAsset
from assetscout.syntax import Diagnostic, SignalDecl


def oracle_json(report):
    """Oracle: the report as a dict, through `json.dumps(indent=2, sort_keys=True)`."""
    assets = [{
        "module": a.module,
        "name": a.name,
        "direction": a.direction,
        "width_bits": a.width_bits,
        "patterns": list(a.patterns),
        "objectives": list(a.objectives),
        "outside_top_tree": a.outside_top_tree,
        "top": a.top,
        "contributors": [
            {"module": c.module, "signal": c.signal.name,
             "rule": c.matched_rule, "matched_groups": list(c.matched_groups)}
            for c in a.contributors
        ],
        "trace_path": [
            {"from": list(e.src), "to": list(e.dst), "via": e.via}
            for e in a.trace_path
        ],
    } for a in report.assets]
    assets.sort(key=lambda a: (a["module"], a["name"], a["top"]))
    data = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": report.tool_version,
        "family": report.family,
        "top_modules": list(report.top_modules),
        "corpus_stats": dict(report.corpus_stats),
        "stage_counts": dict(report.stage_counts),
        "assets": assets,
        "diagnostics": [d.as_dict() for d in report.diagnostics],
    }
    if report.evaluation is not None:
        data["evaluation"] = report.evaluation.as_dict()
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


# quotes, backslashes, control, non-ASCII and astral characters, and a lone
# surrogate
_TEXT = st.text('ab_"\\\x00\x1f\n\t\x7f\xe9 \U0001f512\ud800', max_size=5)
_NAMES = st.one_of(st.sampled_from(["a", "b"]), _TEXT)
_REF = st.tuples(_NAMES, _NAMES)
_COUNTS = st.dictionaries(_TEXT, st.integers(), max_size=3)

_CONTRIBUTOR = st.builds(
    CandidateAsset, module=_NAMES,
    signal=st.builds(SignalDecl, name=_NAMES, direction=_TEXT),
    matched_rule=_TEXT, patterns=st.lists(_TEXT, max_size=2),
    objectives=st.lists(_TEXT, max_size=2),
    matched_groups=st.lists(_TEXT, max_size=3))

_FIELDS = dict(
    module=_NAMES, name=_NAMES, direction=_TEXT,
    width_bits=st.one_of(st.none(), st.integers()),
    contributors=st.lists(_CONTRIBUTOR, max_size=3),
    patterns=st.lists(_TEXT, max_size=3), objectives=st.lists(_TEXT, max_size=3),
    trace_path=st.lists(st.builds(ConnEdge, _REF, _REF, _TEXT), max_size=3),
    outside_top_tree=st.booleans(), top=_NAMES)


@st.composite
def _assets(draw):
    """Assets, with copies of some under other tops: copies that share the
    lists, copies with equal but distinct lists, and near-copies that differ
    in one field other than `top` as well."""
    assets = draw(st.lists(st.builds(PrimaryAsset, **_FIELDS), max_size=6))
    for asset in list(assets):
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            fields = {**vars(asset), "top": draw(_FIELDS["top"])}
            kind = draw(st.sampled_from(["shared", "equal", "near"]))
            if kind == "equal":
                fields = copy.deepcopy(fields)
            elif kind == "near":
                name = draw(st.sampled_from(sorted(set(_FIELDS) - {"top"})))
                fields[name] = draw(_FIELDS[name].filter(
                    lambda value, old=fields[name]: value != old))
            assets.append(PrimaryAsset(**fields))
    return assets


_REPORT = st.builds(
    AssetReport, tool_version=_TEXT, family=_TEXT,
    top_modules=st.lists(_NAMES, max_size=3), corpus_stats=_COUNTS,
    stage_counts=_COUNTS, assets=_assets(),
    diagnostics=st.lists(st.builds(Diagnostic, _TEXT, _TEXT, st.integers()),
                         max_size=3),
    evaluation=st.one_of(st.none(), st.builds(
        EvalResult, *[st.integers(min_value=0, max_value=9)] * 4,
        degenerate=st.booleans(), ignored_entries=st.integers(min_value=0))))


@settings(max_examples=200, deadline=None)
@given(report=_REPORT)
def test_json_render_matches_dumps_of_report_dict(report):
    assert report.render("json") == oracle_json(report)
