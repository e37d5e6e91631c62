import argparse
import json
import os
import shlex
import subprocess
import sys

import pytest

import dblinst
from dblinst import cli
from dblinst.cli import build_parser, main
from dblinst.collage import PresentedCategory
from dblinst.elements import is_discrete_opfibration
from dblinst.serialize import (document_of, load_document, object_of,
                               save_document)

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")

# every option of every verb, -h/--help aside
VERB_OPTIONS = {
    "validate-theory": {"--json-report"},
    "validate-model": {"--json-report"},
    "validate-instance": {"--json-report"},
    "collage": {"--output", "-o"},
    "close-category": {"--output", "-o", "--bound"},
    "to-copresheaf": {"--output", "-o", "--bound"},
    "from-copresheaf": {"--output", "-o", "--bound", "--model"},
    "elements": {"--output", "-o"},
    "nabla": {"--output", "-o"},
    "check-dopf": {"--json-report", "--witness"},
    "migrate": {"--output", "-o", "--bound", "--mode", "--along"},
    "factorize": {"--output", "-o", "--bound", "--cartesian"},
    "check-initial": {"--json-report", "--corpus"},
    "check-cartesian": {"--json-report"},
    "flatten": {"--output", "-o", "--cartesian"},
    "count-morphisms": set(),
    "fixtures": {"--directory"},
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def emitted(tmp_path, capsys):
    """Emit the weighted-graph fixture pair and return the two paths."""
    code, out, _ = run(capsys, "fixtures", "emit", "weighted_graph",
                       "--directory", str(tmp_path))
    assert code == 0
    model = tmp_path / "weighted_graph.json"
    instance = tmp_path / "weighted_graph_instance.json"
    assert model.exists() and instance.exists()
    return model, instance


def test_validate_emitted_fixtures(emitted, capsys):
    model, instance = emitted
    code, out, _ = run(capsys, "validate-model", str(model))
    assert code == 0 and out.strip() == "ok"
    code, out, _ = run(capsys, "validate-instance", str(instance))
    assert code == 0 and out.strip() == "ok"


def test_validate_theory_fixture(tmp_path, capsys):
    code, _, _ = run(capsys, "fixtures", "emit", "walking_square",
                     "--directory", str(tmp_path))
    assert code == 0
    code, out, _ = run(capsys, "validate-theory",
                       str(tmp_path / "walking_square.json"))
    assert code == 0 and out.strip() == "ok"


def test_json_report_container(emitted, capsys):
    model, _ = emitted
    code, out, _ = run(capsys, "validate-model", str(model), "--json-report")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "report" and doc["ok"] and doc["entries"] == []


def test_failing_check_exits_one(emitted, tmp_path, capsys):
    _, instance = emitted
    doc = load_document(instance)
    # break an action table entry: send an edge to the wrong weight fiber
    broken = tmp_path / "broken.json"
    entry = next(e for e in doc["actions"] if e[0] == "l")
    entry[1][0][-1] = "e1"  # the weighting action now leaves the weight sort
    save_document(doc, broken)
    code, out, _ = run(capsys, "validate-instance", str(broken))
    assert code == 1 and out.strip() != "ok"


def test_structural_errors_exit_two(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, _, err = run(capsys, "validate-model", str(missing))
    assert code == 2 and "error" in err
    wrong_kind = tmp_path / "wrong.json"
    wrong_kind.write_text('{"kind": "theory", "format_version": 1}')
    code, _, err = run(capsys, "validate-model", str(wrong_kind))
    assert code == 2


def test_elements_check_dopf_nabla_pipeline(emitted, tmp_path, capsys):
    _, instance = emitted
    proj = tmp_path / "proj.json"
    code, _, _ = run(capsys, "elements", str(instance), "-o", str(proj))
    assert code == 0 and proj.exists()
    code, out, _ = run(capsys, "check-dopf", str(proj))
    assert code == 0 and out.strip() == "ok"
    back = tmp_path / "back.json"
    code, _, _ = run(capsys, "nabla", str(proj), "-o", str(back))
    assert code == 0
    assert load_document(back)["kind"] == "instance"


def test_collage_close_copresheaf_round_trip(emitted, tmp_path, capsys):
    model, instance = emitted
    cp = tmp_path / "cp.json"
    code, _, _ = run(capsys, "to-copresheaf", str(instance), "--bound", "4",
                     "-o", str(cp))
    assert code == 0
    back = tmp_path / "back.json"
    code, _, _ = run(capsys, "from-copresheaf", str(cp), "--model",
                     str(model), "--bound", "4", "-o", str(back))
    assert code == 0
    assert load_document(back)["kind"] == "instance"
    code, out, _ = run(capsys, "validate-instance", str(back))
    assert code == 0


def test_collage_on_stdout_and_in_a_file_are_the_same_bytes(
        emitted, tmp_path, capsys):
    model, _ = emitted
    code, out, _ = run(capsys, "collage", str(model))
    assert code == 0
    written = tmp_path / "collage.json"
    code, _, _ = run(capsys, "collage", str(model), "-o", str(written))
    assert code == 0
    assert out.encode() == written.read_bytes()
    assert out.endswith("}\n")


def test_factorize_and_check_outputs(emitted, tmp_path, capsys):
    from dblinst.fixtures import (dopf_corpus_over, weighted_graph_schema)
    from dblinst.model import enumerate_model_morphisms, terminal_model
    x = weighted_graph_schema()
    one = terminal_model(x.theory)
    f = enumerate_model_morphisms(x, one)[0]
    fpath = tmp_path / "to_terminal.json"
    save_document(document_of(f), fpath)
    stem = str(tmp_path / "fac")
    code, _, _ = run(capsys, "factorize", str(fpath), "--bound", "4",
                     "-o", stem)
    assert code == 0
    code, out, _ = run(capsys, "check-dopf", stem + ".dopf.json")
    assert code == 0 and out.strip() == "ok"
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    for i, (pi, _) in enumerate(dopf_corpus_over(one)):
        save_document(document_of(pi), corpus_dir / "q{}.json".format(i))
    code, out, _ = run(capsys, "check-initial", stem + ".initial.json",
                       "--corpus", str(corpus_dir))
    assert code == 0 and out.strip() == "ok"


def test_count_morphisms_prints_a_number(tmp_path, capsys):
    code, _, _ = run(capsys, "fixtures", "emit", "negloop1",
                     "--directory", str(tmp_path))
    assert code == 0
    code2, _, _ = run(capsys, "fixtures", "emit", "signed_models",
                      "--directory", str(tmp_path))
    assert code2 == 0
    code, out, _ = run(capsys, "count-morphisms",
                       str(tmp_path / "negloop1.json"),
                       str(tmp_path / "signed_model_0.json"))
    assert code == 0 and out.strip() == "1"


def test_flatten_writes_a_sketch(tmp_path, capsys):
    code, _, _ = run(capsys, "fixtures", "emit", "walking_loose",
                     "--directory", str(tmp_path))
    assert code == 0
    sk = tmp_path / "sk.json"
    code, _, _ = run(capsys, "flatten", str(tmp_path / "walking_loose.json"),
                     "-o", str(sk))
    assert code == 0
    assert load_document(sk)["kind"] == "sketch"


def test_collage_name_clash_exits_two(tmp_path, capsys):
    from dblinst.fixtures import walking_loose_model
    x = walking_loose_model(["a0@h0"], ["b0"], [("h0", "a0@h0", "b0")])
    path = tmp_path / "clash.json"
    path.write_text(json.dumps(document_of(x)).replace('"l"', '"id:dom@a0"'))
    code, out, err = run(capsys, "collage", str(path))
    assert code == 2 and out == ""
    assert err.strip() == \
        "error: two collage generators are named h{id:dom@a0@h0}"


def test_check_dopf_names_a_partial_component(tmp_path, capsys):
    from dblinst.fixtures import walking_loose_model
    from dblinst.model import ModelMorphism, terminal_model
    x = walking_loose_model(["a0", "a1"], ["b"], [("h", "a0", "b")])
    f = ModelMorphism(x, terminal_model(x.theory),
                      {"dom": {"a0": "*"}, "cod": {"b": "*"}},
                      {"id:dom": {"a0": "*", "a1": "*"},
                       "id:cod": {"b": "*"}, "l": {"h": "*"}})
    path = tmp_path / "partial.json"
    save_document(document_of(f), path)
    code, _, err = run(capsys, "check-dopf", str(path))
    assert code == 2
    assert err.strip() == "error: component at object dom not total"


def test_factorize_refuses_a_morphism_that_is_not_one(tmp_path, capsys):
    from dblinst.fixtures import walking_loose_model
    from dblinst.model import ModelMorphism
    x = walking_loose_model(["a0", "a1", "a2"], ["b0"],
                            [("h0.0", "a0", "b0"), ("h1.0", "a1", "b0"),
                             ("h2.0", "a2", "b0")])
    y = walking_loose_model(["a0"], ["b0", "b1"],
                            [("h0.0", "a0", "b0"), ("h0.1", "a0", "b1")])
    to_a0 = {"a0": "a0", "a1": "a0", "a2": "a0"}
    f = ModelMorphism(x, y, {"dom": to_a0, "cod": {"b0": "b0"}},
                      {"l": {"h0.0": "h0.0", "h1.0": "h0.1", "h2.0": "h0.0"},
                       "id:dom": to_a0, "id:cod": {"b0": "b0"}})
    path = tmp_path / "broken.json"
    save_document(document_of(f), path)
    code, out, err = run(capsys, "factorize", str(path), "--bound", "4",
                         "-o", str(tmp_path / "fac"))
    assert code == 2 and out == ""
    assert err.strip() == (
        "error: not a model morphism: right leg broken at l on h1.0; "
        "laxator compatibility fails at (l,id:cod) on (h1.0,b0)")


def test_unknown_verb_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus-verb"])
    assert exc.value.code == 2


@pytest.fixture()
def fold_migration(tmp_path):
    """A fold of walking-loose models and the tautological instances of
    its source and target, saved as documents."""
    from dblinst.fixtures import tautological_instance, walking_loose_model
    from dblinst.model import enumerate_model_morphisms
    x = walking_loose_model(["a0", "a1"], ["b0"],
                            [("h0", "a0", "b0"), ("h1", "a1", "b0")])
    y = walking_loose_model(["a"], ["b"], [("h", "a", "b")])
    al = enumerate_model_morphisms(x, y)[0]
    paths = {}
    for name, obj in (("along", al), ("hx", tautological_instance(x)),
                      ("hy", tautological_instance(y))):
        paths[name] = str(tmp_path / (name + ".json"))
        save_document(document_of(obj), paths[name])
    return paths


def test_migrate_modes_write_instances(fold_migration, capsys):
    p = fold_migration
    for mode, doc in (("delta", p["hy"]), ("sigma", p["hx"]),
                      ("pi", p["hx"])):
        code, out, _ = run(capsys, "migrate", doc, "--mode", mode,
                           "--along", p["along"], "--bound", "4")
        assert code == 0 and json.loads(out)["kind"] == "instance"


def test_max_hom_card_env_caps_migration(fold_migration, capsys,
                                         monkeypatch):
    p = fold_migration
    monkeypatch.setenv("DBLINST_MAX_HOM_CARD", "1")
    code, _, err = run(capsys, "migrate", p["hx"], "--mode", "sigma",
                       "--along", p["along"], "--bound", "4")
    assert code == 2
    assert err.startswith("error: left extension at ")
    assert "raw elements" in err


def test_cartesian_factorize_names_the_non_cartesian_endpoint(tmp_path,
                                                              capsys):
    from dblinst.fixtures import weighted_graph_schema
    from dblinst.model import enumerate_model_morphisms, terminal_model
    x = weighted_graph_schema()
    f = enumerate_model_morphisms(x, terminal_model(x.theory))[0]
    fpath = tmp_path / "to_terminal.json"
    save_document(document_of(f), fpath)
    code, _, err = run(capsys, "factorize", str(fpath), "--cartesian",
                       "--bound", "4", "-o", str(tmp_path / "fac"))
    assert code == 2
    assert err.startswith("error: source is not cartesian: theory carries ")


@pytest.mark.parametrize("source, target", [
    ("weighted_graph", "negloop1"), ("monad_model", "weighted_graph")])
def test_count_morphisms_across_theories_is_a_typed_error(
        tmp_path, capsys, source, target):
    for name in ("weighted_graph", "negloop1", "monad_instance"):
        code, _, _ = run(capsys, "fixtures", "emit", name,
                         "--directory", str(tmp_path))
        assert code == 0
    code, _, err = run(capsys, "count-morphisms",
                       str(tmp_path / (source + ".json")),
                       str(tmp_path / (target + ".json")))
    assert code == 2
    assert err.strip() == ("error: the models live over theories with "
                           "different objects, tight arrows, loose arrows, "
                           "cells")


def test_validate_theory_reports_an_arrow_to_an_unknown_object(tmp_path,
                                                               capsys):
    from dblinst.theories import builtin_theory
    t = builtin_theory("walking_tight")
    t.tight["ghost"] = ("top", "nowhere")
    path = tmp_path / "ghost.json"
    save_document(document_of(t), path)
    code, out, err = run(capsys, "validate-theory", str(path))
    assert code == 1 and err == ""
    assert out.splitlines() == ["tight: endpoints of ghost unknown"]


def test_validate_theory_reports_an_identity_cell_of_an_unknown_arrow(
        tmp_path, capsys):
    from dblinst.theories import builtin_theory
    t = builtin_theory("walking_loose")
    t.cell_id_loose["ghost"] = next(iter(t.cells))
    path = tmp_path / "ghost.json"
    save_document(document_of(t), path)
    code, out, err = run(capsys, "validate-theory", str(path))
    assert code == 1 and err == ""
    assert out.splitlines() == ["vertical identity cell of ghost ill-formed"]


def test_flatten_refuses_an_invalid_theory(tmp_path, capsys):
    from dblinst.theories import builtin_theory
    t = builtin_theory("walking_tight")
    t.tight_comp[("id:top", "t")] = "ghost"
    path = tmp_path / "ghost.json"
    save_document(document_of(t), path)
    code, out, err = run(capsys, "flatten", str(path),
                         "-o", str(tmp_path / "sk.json"))
    assert code == 2 and out == ""
    assert err.strip() == (
        "error: {} is not a valid theory: tight: left unit fails at t; "
        "tight: composite of (id:top,t) has wrong endpoints".format(path))
    assert not (tmp_path / "sk.json").exists()


def test_each_verb_takes_only_the_flags_it_reads():
    parser = build_parser()
    verbs = next(a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)).choices
    options = {verb: {o for a in p._actions for o in a.option_strings}
               - {"-h", "--help"} for verb, p in verbs.items()}
    assert options == VERB_OPTIONS
    shared = {"--output", "--json-report", "--bound"}
    assert sum(len(o & shared) for o in options.values()) == 20


@pytest.mark.parametrize("argv", [
    ["validate-model", "F.json", "--bound", "3"],
    ["elements", "H.json", "--json-report"],
    ["count-morphisms", "A.json", "B.json", "-o", "out.json"],
    ["fixtures", "emit", "terminal", "-o", "D"]])
def test_a_flag_the_verb_does_not_read_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_the_bound_has_no_second_way_in(emitted, tmp_path, capsys,
                                        monkeypatch):
    model, _ = emitted
    presented = tmp_path / "presented.json"
    code, _, _ = run(capsys, "collage", str(model), "-o", str(presented))
    assert code == 0
    monkeypatch.setenv("DBLINST_MAX_WORDLEN", "1")
    code, out, err = run(capsys, "close-category", str(presented))
    assert code == 0 and err == ""
    assert json.loads(out)["kind"] == "fincategory"


def test_close_category_refuses_a_generator_named_like_a_composite(
        tmp_path, capsys):
    presented = tmp_path / "clash.json"
    save_document(document_of(PresentedCategory(
        ["x", "y", "z"], {"a": ("x", "y", "plain"), "b": ("y", "z", "plain"),
                          "a;b": ("x", "z", "plain")}, [])), presented)
    code, out, err = run(capsys, "close-category", str(presented))
    assert (code, out, err) == (
        2, "", "error: two closure morphisms are named a;b\n")


@pytest.mark.parametrize("generators, bound, message", [
    ({"a": ("x", "w", "plain")}, "4",
     "error: generator a has undeclared endpoint w\n"),
    ({"a": ("x", "x", "plain")}, "0", "error: word bound 0 is below 1\n")])
def test_close_category_refuses_an_undeclared_endpoint_or_a_zero_bound(
        tmp_path, capsys, generators, bound, message):
    presented = tmp_path / "presented.json"
    save_document(document_of(PresentedCategory(["x"], generators, [])),
                  presented)
    code, out, err = run(capsys, "close-category", str(presented),
                         "--bound", bound)
    assert (code, out, err) == (2, "", message)


def test_migrate_delta_refuses_an_instance_over_other_spans(tmp_path,
                                                            capsys):
    from dblinst.fixtures import tautological_instance, walking_loose_model
    from dblinst.model import identity_morphism
    y = walking_loose_model(["a"], ["b"], [("h", "a", "b")])
    paths = {}
    for name, obj in (("along", identity_morphism(y)),
                      ("h", tautological_instance(
                          walking_loose_model(["a"], ["b"], [])))):
        paths[name] = str(tmp_path / (name + ".json"))
        save_document(document_of(obj), paths[name])
    code, out, err = run(capsys, "migrate", paths["h"], "--mode", "delta",
                         "--along", paths["along"])
    assert (code, out, err) == (
        2, "", "error: instance does not live over the morphism's target\n")


def test_check_dopf_writes_the_witness_bijections(emitted, tmp_path,
                                                  capsys):
    _, instance = emitted
    proj, witness = tmp_path / "proj.json", tmp_path / "witness.json"
    code, _, _ = run(capsys, "elements", str(instance), "-o", str(proj))
    assert code == 0
    code, out, _ = run(capsys, "check-dopf", str(proj), "--witness",
                       str(witness), "--json-report")
    assert code == 0 and json.loads(out)["witness"] == str(witness)
    doc = load_document(witness)
    assert doc["kind"] == "dopf_witness"
    check = is_discrete_opfibration(object_of(load_document(proj)))
    assert {m: {tuple(e[:2]): e[2] for e in entries}
            for m, (entries,) in doc["bijections"].items()} == \
        check.witness.bijections


def test_the_readme_command_line_block_parses_and_runs(tmp_path, capsys):
    with open(README) as fh:
        text = fh.read().split("## Command line", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.replace("/tmp/demo", str(tmp_path))
             for line in block.splitlines()
             if line and not line.startswith("#")]
    verbs = set()
    for line in lines:
        argv = shlex.split(line)
        if argv[:2] == ["mkdir", "-p"]:
            os.makedirs(argv[2], exist_ok=True)
            continue
        assert argv[0] == "dblinst"
        build_parser().parse_args(argv[1:])
        code, _, err = run(capsys, *argv[1:])
        assert code == 0, (line, err)
        verbs.add(argv[1])
    # no fixture is a cartesian model or instance
    assert verbs == set(VERB_OPTIONS) - {"check-cartesian"}


def _outcome(capsys, call, argv):
    """Exit code, stdout and stderr of ``call(argv)``, whether it returns
    or exits."""
    try:
        code = call(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def _full_parse(argv):
    """What ``main`` does with ``argv`` when it parses with every verb's
    parser: only argvs that stop in the parser are passed here."""
    parser = build_parser()
    args = parser.parse_args(argv)
    assert args.verb is None, argv
    parser.print_help()
    return 2


USAGE_ERRORS = [
    ["bogus-verb"],
    ["bogus-verb", "--help"],
    ["--bogus"],
    ["validate-model"],
    ["count-morphisms", "A.json"],
    ["migrate", "H.json", "--along", "A.json"],
    ["fixtures", "emit"],
    ["elements", "H.json", "--json-report"],
    ["validate-model", "F.json", "--bound", "3"],
    ["count-morphisms", "A.json", "B.json", "-o", "out.json"],
    ["elements", "H.json", "extra.json"],
    ["migrate", "H.json", "--along", "A.json", "--mode", "gamma"],
    ["close-category", "P.json", "--bound", "many"],
    ["fixtures", "emit", "no_such_fixture"],
    ["fixtures", "print", "terminal"],
]


@pytest.mark.parametrize("argv", [[verb, "--help"] for verb in VERB_OPTIONS]
                         + [["migrate", "-h"], [], ["--help"], ["-h"]]
                         + USAGE_ERRORS, ids=" ".join)
def test_help_and_usage_errors_match_the_full_parser(argv, capsys):
    expected = _outcome(capsys, _full_parse, argv)
    assert expected[0] in (0, 2)
    assert _outcome(capsys, main, argv) == expected


def test_a_call_that_names_a_verb_builds_only_that_verb(tmp_path, capsys,
                                                        monkeypatch):
    built = []

    def recording(verb=None):
        built.append(verb)
        return build_parser(verb)

    monkeypatch.setattr(cli, "build_parser", recording)
    code, out, _ = run(capsys, "fixtures", "emit", "terminal",
                       "--directory", str(tmp_path))
    assert code == 0 and out.strip() == str(tmp_path / "terminal.json")
    assert _outcome(capsys, main, ["--help"])[0] == 0
    assert built == ["fixtures", None]
    for verb in VERB_OPTIONS:
        verbs = next(a for a in build_parser(verb)._actions
                     if isinstance(a, argparse._SubParsersAction)).choices
        assert list(verbs) == [verb]


@pytest.mark.parametrize("text", ["[1]", "3", '"x"'])
@pytest.mark.parametrize("verb", ["validate-model", "check-cartesian",
                                  "elements"])
def test_a_document_that_is_not_an_object_is_a_typed_error(
        tmp_path, capsys, verb, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = run(capsys, verb, str(path))
    assert (code, out, err) == (
        2, "", "error: {}: not a JSON object\n".format(path))


@pytest.mark.parametrize("text", ["", "{", "[1] 2"])
@pytest.mark.parametrize("verb", ["validate-model", "check-cartesian",
                                  "elements"])
def test_text_that_is_not_json_is_a_typed_error(tmp_path, capsys, verb,
                                                text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = run(capsys, verb, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: {}: not valid JSON: ".format(path))
    assert err.count("\n") == 1


@pytest.mark.parametrize("model, found", [
    (3, "a value of type int"), ({"kind": "theory"}, "kind 'theory'")])
def test_a_malformed_part_of_a_document_is_a_typed_error(
        tmp_path, capsys, model, found):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"kind": "instance", "model": model}))
    code, out, err = run(capsys, "validate-instance", str(path))
    assert (code, out, err) == (
        2, "", "error: expected a 'model' document, found {}\n".format(found))


@pytest.mark.parametrize("verb, kind, field", [
    ("validate-model", "model", "theory"),
    ("validate-theory", "theory", "objects"),
    ("validate-instance", "instance", "model"),
    ("check-dopf", "model_morphism", "source")])
def test_a_document_without_a_required_field_is_a_typed_error(
        tmp_path, capsys, verb, kind, field):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"kind": kind}))
    code, out, err = run(capsys, verb, str(path))
    assert (code, out, err) == (
        2, "", "error: a {!r} document has no {!r} field\n".format(kind, field))


@pytest.mark.parametrize("mutate, message", [
    (lambda doc: doc.update(on_objects=3),
     "a 'model' document's 'on_objects' field holds "
     "a value of type int, not dict"),
    (lambda doc: doc["on_loose"]["l"].pop("apex"),
     "a 'model' document's span 'l' needs an 'apex' array "
     "and 'left' and 'right' objects"),
    (lambda doc: doc.update(laxators=3),
     "a 'model' document's 'laxators' field holds a "
     "value of type int, not list"),
    (lambda doc: doc["on_loose"]["l"].update(apex=5),
     "a 'model' document's span 'l' needs "
     "an 'apex' array and 'left' and 'right' objects"),
    (lambda doc: doc["on_objects"].update(dom=3),
     "a 'model' document is malformed: "
     "TypeError: 'int' object is not iterable"),
    (lambda doc: doc["theory"].update(tight={"f": 3}),
     "a 'theory' document is malformed: "
     "TypeError: 'int' object is not iterable")],
    ids=["on_objects", "no apex", "laxators", "apex", "carrier", "theory"])
def test_a_malformed_nested_shape_is_a_typed_error(tmp_path, capsys, mutate,
                                                   message):
    from dblinst.fixtures import walking_loose_model
    doc = document_of(walking_loose_model(["a"], ["b"], [("h", "a", "b")]))
    mutate(doc)
    path = tmp_path / "doc.json"
    save_document(doc, path)
    assert run(capsys, "validate-model", str(path)) == (
        2, "", "error: {}\n".format(message))


def test_check_cartesian_names_the_kinds_it_reads(tmp_path, capsys):
    code, _, _ = run(capsys, "fixtures", "emit", "walking_square",
                     "--directory", str(tmp_path))
    assert code == 0
    path = tmp_path / "walking_square.json"
    code, out, err = run(capsys, "check-cartesian", str(path))
    assert (code, out) == (2, "")
    assert err == ("error: {}: expected one of ['instance', 'model'], "
                   "found 'theory'\n".format(path))


def test_flatten_cartesian_refuses_a_theory_without_products(tmp_path,
                                                             capsys):
    code, _, _ = run(capsys, "fixtures", "emit", "walking_square",
                     "--directory", str(tmp_path))
    assert code == 0
    sk = tmp_path / "sk.json"
    code, out, err = run(capsys, "flatten",
                         str(tmp_path / "walking_square.json"),
                         "--cartesian", "-o", str(sk))
    assert code == 2 and out == "" and not sk.exists()
    assert err == ("error: theory on objects tl, tr, bl, br carries no "
                   "cartesian structure\n")


def test_a_missing_directory_is_named_in_the_error(emitted, tmp_path,
                                                   capsys):
    missing = tmp_path / "missing"
    code, out, err = run(capsys, "fixtures", "emit", "walking_square",
                         "--directory", str(missing))
    assert code == 2 and out == ""
    assert err == "error: [Errno 2] No such file or directory: {!r}\n".format(
        str(missing / "walking_square.json"))
    _, instance = emitted
    code, out, err = run(capsys, "elements", str(instance),
                         "-o", str(missing / "proj.json"))
    assert code == 2 and out == ""
    assert err == "error: [Errno 2] No such file or directory: {!r}\n".format(
        str(missing / "proj.json"))


def test_a_repeated_label_is_a_typed_error_also_without_asserts(emitted,
                                                                tmp_path):
    """``python -O`` skips asserts, so this runs the console entry point
    in a subprocess with that flag."""
    model, _ = emitted
    doc = load_document(model)
    doc["on_objects"]["dom"] = ["E", "V", "E"]
    broken = tmp_path / "repeated.json"
    save_document(doc, broken)
    package_root = os.path.dirname(os.path.dirname(dblinst.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "dblinst.cli", "validate-model",
         str(broken)], env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", "error: label 'E' is repeated in a finite set\n")


def test_validate_theory_reports_a_missing_projection(tmp_path, capsys):
    from dblinst.serialize import theory_to_doc
    from dblinst.theories import builtin_theory
    doc = theory_to_doc(builtin_theory("prom_trunc", 1))
    del doc["cartesian"]["proj_tight"][0]
    path = tmp_path / "no_projection.json"
    save_document(doc, path)
    code, out, err = run(capsys, "validate-theory", str(path))
    assert code == 1 and err == ""
    assert out.splitlines() == ["cartesian: projections of x0xx0 ill-formed"]


def test_check_cartesian_reports_a_partial_projection(tmp_path, capsys):
    from dblinst.cartesian import multicategory_to_model
    from dblinst.fixtures import join_multicategory, tautological_instance
    from dblinst.theories import builtin_theory
    x = multicategory_to_model(join_multicategory(),
                               builtin_theory("prom_trunc", 2))
    model, inst = document_of(x), document_of(tautological_instance(x))
    del model["on_tight"]["tf:2-1:1"]["(o,o)"]
    del inst["tight_cells"]["tf:2-1:1"]["(o,o)"]
    for doc, line in ((model, "tight arrow tf:2-1:1 has no total function"),
                      (inst, "tight cell at tf:2-1:1 not total")):
        path = tmp_path / "partial.json"
        save_document(doc, path)
        code, out, err = run(capsys, "check-cartesian", str(path))
        assert code == 1 and err == ""
        assert out.splitlines() == [line]


def _join_documents():
    """The join model over prom_trunc(2) and its tautological instance,
    as documents."""
    from dblinst.cartesian import multicategory_to_model
    from dblinst.fixtures import join_multicategory, tautological_instance
    from dblinst.theories import builtin_theory
    x = multicategory_to_model(join_multicategory(),
                               builtin_theory("prom_trunc", 2))
    return document_of(x), document_of(tautological_instance(x))


def _without_first_projections(model, inst):
    del model["theory"]["cartesian"]["proj_tight"][0]
    return model


def _without_loose(model, inst):
    del model["on_loose"]["lf:2-2:1.2"]
    return model


def _without_carrier(model, inst):
    del inst["carriers"]["x2"]
    return inst


@pytest.mark.parametrize("edit, line", [
    (_without_first_projections, "cartesian: projections of x0xx0 missing"),
    (_without_loose, "loose arrow lf:2-2:1.2 has no well-typed span"),
    (_without_carrier, "carrier at x2 not labelled over the model")])
def test_check_cartesian_reports_a_document_it_cannot_read(
        tmp_path, capsys, edit, line):
    path = tmp_path / "doc.json"
    save_document(edit(*_join_documents()), path)
    code, out, err = run(capsys, "check-cartesian", str(path))
    assert (code, out.splitlines(), err) == (1, [line], "")
