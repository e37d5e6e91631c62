import io
import json

import pytest
from hypothesis import given, strategies as st

from dblinst.collage import collage_of_model
from dblinst.elements import elements
from dblinst.fincat import Copresheaf
from dblinst.fixtures import (builtin_multicategory, chain_category,
                              weighted_graph_instance, weighted_graph_schema)
from dblinst.cli import FIXTURE_NAMES, _FIXTURES
from dblinst.errors import MalformedDocument
from dblinst.serialize import (document_of, load_document, object_of,
                               save_document, write_document)
from dblinst.sketch import flatten_theory
from dblinst.theories import builtin_theory


def _samples():
    x = weighted_graph_schema()
    h = weighted_graph_instance(2)
    _, pi, _ = elements(h)
    cat = chain_category(2)
    cp = Copresheaf(cat, {"0": ["a", "b"], "1": ["c"]},
                    {"id:0": {"a": "a", "b": "b"}, "id:1": {"c": "c"},
                     "0<1": {"a": "c", "b": "c"}})
    assert cp.validate() == []
    return {
        "theory": builtin_theory("walking_square"),
        "model": x,
        "model_morphism": pi,
        "instance": h,
        "fincategory": cat,
        "copresheaf": cp,
        "presented_category": collage_of_model(x),
        "sketch": flatten_theory(builtin_theory("walking_loose")),
        "multicategory": builtin_multicategory("join"),
    }


@pytest.mark.parametrize("kind", sorted(_samples()))
def test_round_trip_is_byte_identical(kind):
    obj = _samples()[kind]
    doc = document_of(obj)
    assert doc["kind"] == kind
    assert doc["format_version"] == 1
    text = json.dumps(doc, sort_keys=True)
    back = object_of(doc)
    doc2 = document_of(back)
    assert json.dumps(doc2, sort_keys=True) == text


def test_save_and_load_files(tmp_path):
    for kind, obj in _samples().items():
        path = tmp_path / (kind + ".json")
        save_document(document_of(obj), path)
        doc = load_document(path)
        assert doc["kind"] == kind
        # a second emission of the loaded object writes the same bytes
        path2 = tmp_path / (kind + ".again.json")
        save_document(document_of(object_of(doc)), path2)
        assert path.read_bytes() == path2.read_bytes()


def test_unknown_kind_rejected():
    with pytest.raises(MalformedDocument,
                       match="^unknown document kind 'nonsense'$"):
        object_of({"kind": "nonsense", "format_version": 1})


@pytest.mark.parametrize("value, found", [
    ([1], "list"), (3, "int"), ("x", "str"), (None, "NoneType")])
def test_a_value_that_is_not_an_object_is_a_typed_error(value, found):
    with pytest.raises(MalformedDocument, match="^a document is a JSON "
                       "object, not a value of type {}$".format(found)):
        object_of(value)


@pytest.mark.parametrize("text", ["", "{", '{"kind": "theory",}', "[1] 2"])
def test_text_that_is_not_json_is_a_typed_error(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(MalformedDocument) as err:
        load_document(path)
    assert str(err.value).startswith("{}: not valid JSON: ".format(path))


@pytest.mark.parametrize("kind, part, inner", [
    ("model", "theory", "theory"), ("model_morphism", "source", "model"),
    ("model_morphism", "target", "model"), ("instance", "model", "model"),
    ("copresheaf", "base", "fincategory"),
    ("sketch", "presented", "presented_category"),
    ("sketch", "theory", "theory")])
def test_a_part_of_another_kind_is_a_typed_error(kind, part, inner):
    doc = document_of(_samples()[kind])
    for value, found in (({"kind": "nonsense"}, "kind 'nonsense'"),
                         ([inner], "a value of type list")):
        doc[part] = value
        with pytest.raises(MalformedDocument, match="^expected a '{}' "
                           "document, found {}$".format(inner, found)):
            object_of(doc)


def test_documents_are_plain_json():
    for obj in _samples().values():
        doc = document_of(obj)
        json.dumps(doc)  # raises if anything non-serializable leaks in


def _written(doc):
    fh = io.StringIO()
    write_document(doc, fh)
    return fh.getvalue()


def _reference(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_written_fixture_documents_are_the_json_module_bytes(name, tmp_path):
    for fname, obj in sorted(_FIXTURES[name]().items()):
        doc = document_of(obj)
        assert _written(doc) == _reference(doc), fname
        save_document(doc, tmp_path / fname)
        assert (tmp_path / fname).read_bytes() == _reference(doc).encode()


# strings with non-ASCII characters, astral code points, quotes,
# backslashes and control characters; integers far outside 64 bits
_strings = st.text() | st.text(
    alphabet='"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600ab')
_scalars = (st.none() | st.booleans() | _strings | st.integers()
            | st.integers(min_value=-2 ** 80, max_value=2 ** 80))
_documents = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(_strings, inner, max_size=4)),
    max_leaves=30)


@given(_documents)
def test_written_documents_are_the_json_module_bytes(doc):
    assert _written(doc) == _reference(doc)


@pytest.mark.parametrize("doc", [{"weight": 1.5}, [0.0], {1: "one"},
                                 {"nested": {(0, 1): "pair"}}, {"s": {"a"}}],
                         ids=["float", "float in list", "int key",
                              "tuple key", "set"])
def test_values_outside_the_document_format_are_refused(doc):
    with pytest.raises(TypeError):
        _written(doc)


class _Pieces:
    """A text sink that keeps only the count and longest of its writes."""

    def __init__(self):
        self.count = self.longest = 0

    def write(self, text):
        self.count += 1
        self.longest = max(self.longest, len(text))


def test_a_large_document_is_streamed_in_small_pieces():
    doc = document_of(flatten_theory(builtin_theory("prom_trunc", 2)))
    sink = _Pieces()
    write_document(doc, sink)
    assert len(_reference(doc)) > 700000
    assert sink.count > 10000 and sink.longest < 1000
