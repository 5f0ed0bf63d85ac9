"""Tests for the search substrate: schema, index, service."""

from __future__ import annotations

from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.auth import AuthClient
from repro.auth.identity import SEARCH_INGEST_SCOPE, SEARCH_QUERY_SCOPE
from repro.errors import PermissionDenied, SchemaError, SearchError
from repro.rng import RngRegistry
from repro.search import (
    FieldFilter,
    SearchIndex,
    SearchService,
    make_record,
    validate_datacite,
)
from repro.search.index import _walk_strings, tokenize
from repro.sim import Environment


def record(ident="doi:1", title="hyperspectral scan", year=2023, **ext):
    return make_record(ident, title, ["alice"], year, **ext)


# -- DataCite schema ---------------------------------------------------------


def test_make_record_valid():
    doc = record(subjects=["microscopy", "gold"])
    assert doc["identifier"] == "doi:1"
    assert doc["subjects"] == ["microscopy", "gold"]


def test_missing_fields_listed():
    with pytest.raises(SchemaError) as ei:
        validate_datacite({"title": "x"})
    msg = str(ei.value)
    assert "identifier" in msg and "creators" in msg and "publication_year" in msg


def test_bad_year_rejected():
    with pytest.raises(SchemaError, match="publication_year"):
        record(year=99)


def test_bad_creators_rejected():
    with pytest.raises(SchemaError, match="creator"):
        make_record("d", "t", [], 2023)
    with pytest.raises(SchemaError, match="creator"):
        make_record("d", "t", [""], 2023)


def test_non_dict_rejected():
    with pytest.raises(SchemaError):
        validate_datacite("nope")


def test_bad_subjects_rejected():
    with pytest.raises(SchemaError, match="subjects"):
        record(subjects="not-a-list")


# -- index: ingest + free text -------------------------------------------------


def test_ingest_and_get():
    idx = SearchIndex("portal")
    idx.ingest("s1", record(), now=5.0)
    e = idx.get("s1")
    assert e.content["title"] == "hyperspectral scan"
    assert e.ingested_at == 5.0
    assert len(idx) == 1


def test_ingest_replaces_subject():
    idx = SearchIndex("portal")
    idx.ingest("s1", record(title="first title zephyr"))
    idx.ingest("s1", record(title="second title quixote"))
    assert len(idx) == 1
    assert len(idx.query(q="zephyr")) == 0
    assert len(idx.query(q="quixote")) == 1


def test_invalid_record_rejected_at_ingest():
    idx = SearchIndex("portal")
    with pytest.raises(SchemaError):
        idx.ingest("s1", {"title": "no identifier"})


def test_free_text_ranking_prefers_higher_tf():
    idx = SearchIndex("portal")
    idx.ingest("a", record("d1", "gold gold gold nanoparticle"))
    idx.ingest("b", record("d2", "gold film"))
    idx.ingest("c", record("d3", "carbon background"))
    res = idx.query(q="gold")
    assert res.subjects() == ["a", "b"]
    assert res.hits[0].score > res.hits[1].score


def test_query_no_text_returns_newest_first():
    idx = SearchIndex("portal")
    idx.ingest("old", record("d1"), now=1.0)
    idx.ingest("new", record("d2"), now=9.0)
    res = idx.query()
    assert res.subjects() == ["new", "old"]


def test_query_limit_offset():
    idx = SearchIndex("portal")
    for i in range(10):
        idx.ingest(f"s{i}", record(f"d{i}"), now=float(i))
    res = idx.query(limit=3)
    assert len(res) == 3
    assert res.total_matched == 10
    res2 = idx.query(limit=3, offset=3)
    assert set(res.subjects()).isdisjoint(res2.subjects())
    with pytest.raises(SearchError):
        idx.query(limit=-1)


def test_delete():
    idx = SearchIndex("portal")
    idx.ingest("s1", record())
    idx.delete("s1")
    assert len(idx) == 0
    assert len(idx.query(q="hyperspectral")) == 0
    with pytest.raises(SearchError):
        idx.delete("s1")


def test_replace_and_delete_leave_no_stale_postings():
    idx = SearchIndex("portal")
    idx.ingest("s1", record("d1", "zephyr gold"))
    idx.ingest("s2", record("d2", "gold film"))
    idx.ingest("s1", record("d1", "quixote carbon"))
    assert len(idx.query(q="zephyr")) == 0
    assert idx.query(q="gold").subjects() == ["s2"]
    assert "zephyr" not in idx._postings
    idx.delete("s2")
    assert len(idx.query(q="gold film")) == 0
    assert idx.query(q="quixote").subjects() == ["s1"]
    assert all(idx._postings.values())  # no empty posting list
    assert not any("s2" in p for p in idx._postings.values())
    idx.delete("s1")
    assert dict(idx._postings) == {}
    assert idx._terms == {}


# -- ingest identity ------------------------------------------------------------------


def per_string_postings(ops):
    """Postings the index held before ingest tokenized one joined string:
    each string tokenized on its own, a full vocabulary scan on removal."""
    postings = defaultdict(dict)

    def remove(subject):
        for term in list(postings):
            postings[term].pop(subject, None)
            if not postings[term]:
                del postings[term]

    live = set()
    for op, subject, content in ops:
        if subject in live:
            remove(subject)
            live.discard(subject)
        if op == "ingest":
            counts = Counter()
            for text in _walk_strings(content):
                counts.update(tokenize(text))
            for term, tf in counts.items():
                postings[term][subject] = tf
            live.add(subject)
    return postings


def _ordered(postings):
    return [(term, list(subjects.items())) for term, subjects in postings.items()]


def test_adjacent_strings_do_not_merge_tokens():
    idx = SearchIndex("p", validate=False)
    content = {"symbol": "Au", "number": "79", "list": ["Zn", "30 keV", ("x", "Y")]}
    idx.ingest("s", content)
    assert "au79" not in idx._postings and "zn30" not in idx._postings
    assert _ordered(idx._postings) == _ordered(
        per_string_postings([("ingest", "s", content)])
    )


_text = st.text(alphabet="Au79 bC-ΣİKé_x", max_size=12)
_content = st.recursive(
    _text | st.none() | st.booleans() | st.integers(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["a", "b", "c"]), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["ingest", "ingest", "delete"]),
            st.sampled_from(["s1", "s2", "s3"]),
            st.dictionaries(st.sampled_from(["title", "x", "y"]), _content, max_size=3),
        ),
        max_size=12,
    )
)
def test_ingest_postings_match_per_string_tokenization(ops):
    idx = SearchIndex("p", validate=False)
    applied = []
    for op, subject, content in ops:
        if op == "delete":
            if subject not in idx._entries:
                continue
            idx.delete(subject)
        else:
            idx.ingest(subject, content)
        applied.append((op, subject, content))
        assert _ordered(idx._postings) == _ordered(per_string_postings(applied))


# -- filters + facets -------------------------------------------------------------


def test_field_filters():
    idx = SearchIndex("portal")
    idx.ingest("a", record("d1", year=2022, experiment={"signal_type": "hyperspectral"}))
    idx.ingest("b", record("d2", year=2023, experiment={"signal_type": "spatiotemporal"}))
    eq = idx.query(filters=[FieldFilter("experiment.signal_type", "eq", "hyperspectral")])
    assert eq.subjects() == ["a"]
    ge = idx.query(filters=[FieldFilter("publication_year", "ge", 2023)])
    assert ge.subjects() == ["b"]
    both = idx.query(
        filters=[
            FieldFilter("publication_year", "between", (2022, 2023)),
            FieldFilter("experiment.signal_type", "ne", "hyperspectral"),
        ]
    )
    assert both.subjects() == ["b"]


def test_filter_missing_path_excludes():
    idx = SearchIndex("portal")
    idx.ingest("a", record("d1"))
    assert idx.query(filters=[FieldFilter("nope.deep", "eq", 1)]).subjects() == []


def test_filter_date_range_iso_strings():
    idx = SearchIndex("portal")
    idx.ingest("a", record("d1", dates={"created": "2023-06-01T00:10:00"}))
    idx.ingest("b", record("d2", dates={"created": "2023-06-01T02:00:00"}))
    res = idx.query(
        filters=[
            FieldFilter(
                "dates.created",
                "between",
                ("2023-06-01T00:00:00", "2023-06-01T01:00:00"),
            )
        ]
    )
    assert res.subjects() == ["a"]


def test_unknown_filter_op():
    with pytest.raises(SearchError):
        FieldFilter("x", "regex", ".*")


def test_facets_count_values():
    idx = SearchIndex("portal")
    idx.ingest("a", record("d1", experiment={"signal_type": "hyperspectral"}))
    idx.ingest("b", record("d2", experiment={"signal_type": "hyperspectral"}))
    idx.ingest("c", record("d3", experiment={"signal_type": "spatiotemporal"}))
    res = idx.query(facet_fields=["experiment.signal_type"])
    assert res.facets["experiment.signal_type"] == {
        "hyperspectral": 2,
        "spatiotemporal": 1,
    }


def test_facets_over_list_values():
    idx = SearchIndex("portal")
    idx.ingest("a", record("d1", subjects=["gold", "film"]))
    idx.ingest("b", record("d2", subjects=["gold"]))
    res = idx.query(facet_fields=["subjects"])
    assert res.facets["subjects"] == {"gold": 2, "film": 1}


# -- visibility --------------------------------------------------------------------


def test_visibility_filtering():
    auth = AuthClient()
    alice = auth.register_identity("alice")
    bob = auth.register_identity("bob")
    idx = SearchIndex("portal")
    idx.ingest("pub", record("d1"), visible_to=("public",))
    idx.ingest("priv", record("d2"), visible_to=(alice.urn,))
    assert idx.query(identity=None).subjects() == ["pub"]
    assert set(idx.query(identity=alice).subjects()) == {"pub", "priv"}
    assert idx.query(identity=bob).subjects() == ["pub"]


def test_get_respects_visibility():
    auth = AuthClient()
    alice = auth.register_identity("alice")
    idx = SearchIndex("portal")
    idx.ingest("priv", record(), visible_to=(alice.urn,))
    idx.get("priv", identity=alice)
    with pytest.raises(SearchError):
        idx.get("priv", identity=None)


def test_empty_visible_to_rejected():
    idx = SearchIndex("portal")
    with pytest.raises(SearchError):
        idx.ingest("s", record(), visible_to=())


def test_bad_subject_rejected():
    idx = SearchIndex("portal")
    with pytest.raises(SearchError):
        idx.ingest("", record())


# -- service (auth + timing) --------------------------------------------------------


def test_search_service_auth_and_latency():
    env = Environment()
    auth = AuthClient()
    alice = auth.register_identity("alice")
    ok = auth.issue_token(alice, [SEARCH_INGEST_SCOPE, SEARCH_QUERY_SCOPE], now=0.0)
    svc = SearchService(env, auth, RngRegistry(0), ingest_latency_s=0.8, latency_sigma=0.0)
    svc.create_index("portal")
    out = {}

    def run(env):
        yield from svc.ingest(ok, "portal", "s1", record())
        out["ingested_at"] = env.now
        res = yield from svc.query(ok, "portal", q="hyperspectral")
        out["res"] = res

    env.process(run(env))
    env.run()
    assert out["ingested_at"] == pytest.approx(0.8)
    assert out["res"].subjects() == ["s1"]


def test_search_service_scope_enforced():
    env = Environment()
    auth = AuthClient()
    alice = auth.register_identity("alice")
    query_only = auth.issue_token(alice, [SEARCH_QUERY_SCOPE], now=0.0)
    svc = SearchService(env, auth, RngRegistry(0))
    svc.create_index("portal")

    def run(env):
        with pytest.raises(PermissionDenied):
            yield from svc.ingest(query_only, "portal", "s1", record())
        yield env.timeout(0)

    env.process(run(env))
    env.run()


def test_search_service_duplicate_index():
    env = Environment()
    svc = SearchService(env, AuthClient())
    svc.create_index("a")
    with pytest.raises(ValueError):
        svc.create_index("a")
    with pytest.raises(ValueError):
        svc.index("missing")


# -- properties -----------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.lists(st.text(alphabet="abcdef ", min_size=1, max_size=30), min_size=1, max_size=15))
def test_ingest_then_query_total_consistency(titles):
    """Property: every ingested record is findable by its own title terms
    (when they tokenize to something)."""
    idx = SearchIndex("p", validate=False)
    for i, t in enumerate(titles):
        idx.ingest(f"s{i}", {"title": t})
    for i, t in enumerate(titles):
        toks = [w for w in t.split() if w]
        if not toks:
            continue
        res = idx.query(q=toks[0], limit=len(titles))
        assert f"s{i}" in res.subjects()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 30), st.integers(0, 29))
def test_pagination_partition_property(n, offset):
    """Property: limit/offset windows partition the full result list."""
    idx = SearchIndex("p", validate=False)
    for i in range(n):
        idx.ingest(f"s{i:02d}", {"title": "x"}, now=float(i))
    full = idx.query(limit=n).subjects()
    window = idx.query(limit=5, offset=offset).subjects()
    assert window == full[offset : offset + 5]
