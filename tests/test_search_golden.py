"""Golden hom-set searches: every enumeration pinned to recorded values.

Each case records the number of results and a sha256 of the JSON list
of their component tables, in the order the search returns them (model
and instance morphisms sorted by ``component_key``; natural
transformations and sketch-model morphisms in search order; Π values
by sorted element names plus the copresheaf document).  So any change
to a hom-set, or to the order of its elements, shows up here.

Seeded random tiny models, instances and copresheaves are checked
against brute-force oracles: the product of all component tables,
filtered by the morphism validators or by naturality.
"""

import functools
import hashlib
import itertools
import json
import random

import pytest

from dblinst.cartesian import (model_to_multicategory,
                               multicategories_isomorphic,
                               multicategory_to_model)
from dblinst.collage import (close_presented_category, collage_of_model,
                             instance_to_copresheaf)
from dblinst.fincat import (Copresheaf, FinFunctor,
                            enumerate_natural_transformations)
from dblinst.finset import FiniteSet
from dblinst.fixtures import (build_instance, builtin_multicategory,
                              chain_category, parallel_pair_category,
                              profunctor_instance_fixture,
                              signed_fixture_models, standard_instance_corpus,
                              tautological_instance, terminal_multicategory,
                              two_object_multicategory, walking_loose_model,
                              walking_tight_model, weighted_graph_instance,
                              weighted_graph_schema)
from dblinst.instance import (InstanceMorphism, enumerate_instance_morphisms,
                              find_instance_isomorphism,
                              validate_instance, validate_instance_morphism)
from dblinst.migration import kan_extend_right
from dblinst.model import (ModelMorphism, enumerate_model_morphisms,
                           find_model_isomorphism, terminal_model,
                           validate_model, validate_model_morphism)
from dblinst.serialize import copresheaf_to_doc
from dblinst.signed import walking_feedback_loop
from dblinst.sketch import (enumerate_sketch_model_morphisms, flatten_theory,
                            model_to_sketch_model)
from dblinst.theories import builtin_theory


def digest(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def model_morphism_doc(f):
    return None if f is None else {"objects": f.on_objects,
                                   "loose": f.on_loose}


def pinned(docs):
    return [len(docs), digest(docs)]


def models_golden(a, b):
    return pinned([model_morphism_doc(f)
                   for f in enumerate_model_morphisms(a, b)])


def instances_golden(h, k):
    return pinned([mu.components for mu in enumerate_instance_morphisms(h, k)])


def copresheaf_golden(cp):
    names = sorted(v for c in cp.base.objects for v in cp.on_objects[c])
    return names, digest(copresheaf_to_doc(cp))


# ---------------------------------------------------------------------------
# corpus cases


def _corpus_by_theory():
    """The corpus models and instances by theory.  The signed models
    are searched only as feedback-loop targets: a table-at-a-time
    search between two of them takes minutes."""
    by_theory = {}
    for name, x, instances in standard_instance_corpus():
        if name != "signed":
            by_theory.setdefault(name, []).append((x, instances))
    return by_theory


def _model_cases():
    cases = {}
    for name, entries in _corpus_by_theory().items():
        for (i, (x, _)), (j, (y, _)) in itertools.product(
                enumerate(entries), repeat=2):
            cases["model_{}_{}_{}".format(name, i, j)] = (
                lambda x=x, y=y: models_golden(x, y))
    fold_x = lambda: walking_loose_model(
        ["a0", "a1"], ["b0"], [("h0", "a0", "b0"), ("h1", "a1", "b0")])
    fold_y = lambda: walking_loose_model(["a"], ["b"], [("h", "a", "b")])
    cases["model_fold"] = lambda: models_golden(fold_x(), fold_y())
    cases["model_unfold"] = lambda: models_golden(fold_y(), fold_x())
    cases["model_weighted_graph_to_terminal"] = lambda: models_golden(
        weighted_graph_schema(),
        terminal_model(builtin_theory("walking_loose")))
    cases["model_weighted_graph_self"] = lambda: models_golden(
        weighted_graph_schema(), weighted_graph_schema())
    for i, x in enumerate(signed_fixture_models()):
        for sign in (+1, -1):
            cases["model_feedback_{}_{}".format(
                "pos" if sign > 0 else "neg", i)] = (
                lambda x=x, sign=sign: models_golden(
                    walking_feedback_loop(sign), x))
    return cases


def _model_isomorphism_cases():
    def iso(a, b):
        return digest(model_morphism_doc(find_model_isomorphism(a, b)))

    relabel = (lambda: walking_tight_model(["p", "q"], ["r"],
                                           {"p": "r", "q": "r"}),
               lambda: walking_tight_model(["u", "v"], ["w"],
                                           {"u": "w", "v": "w"}))
    return {
        "find_model_iso_relabelling": lambda: iso(relabel[0](), relabel[1]()),
        "find_model_iso_none": lambda: iso(
            relabel[0](), walking_tight_model(["p"], ["r"], {"p": "r"})),
        "find_model_iso_weighted_graph": lambda: iso(
            weighted_graph_schema(), weighted_graph_schema()),
    }


def _instance_cases():
    cases = {}
    for name, entries in _corpus_by_theory().items():
        for m, (_, instances) in enumerate(entries):
            for (i, h), (j, k) in itertools.product(
                    enumerate(instances), repeat=2):
                cases["instance_{}_{}_{}_{}".format(name, m, i, j)] = (
                    lambda h=h, k=k: instances_golden(h, k))
    for i, j in ((2, 2), (2, 3), (3, 2)):
        cases["instance_weighted_graph_{}_{}".format(i, j)] = (
            lambda i=i, j=j: instances_golden(weighted_graph_instance(i),
                                              weighted_graph_instance(j)))

    def iso(i, j):
        mu = find_instance_isomorphism(weighted_graph_instance(i),
                                       weighted_graph_instance(j))
        return digest(None if mu is None else mu.components)

    cases["find_instance_iso_2_2"] = lambda: iso(2, 2)
    cases["find_instance_iso_2_3"] = lambda: iso(2, 3)
    return cases


def _copresheaf_pairs():
    cat = parallel_pair_category()
    c1 = Copresheaf(cat, {"a": FiniteSet(["x"]), "b": FiniteSet(["u", "v"])},
                    {"id:a": {"x": "x"}, "id:b": {"u": "u", "v": "v"},
                     "f": {"x": "u"}, "g": {"x": "v"}})
    c2 = Copresheaf(cat, {"a": FiniteSet(["y"]), "b": FiniteSet(["w"])},
                    {"id:a": {"y": "y"}, "id:b": {"w": "w"},
                     "f": {"y": "w"}, "g": {"y": "w"}})
    pairs = {"parallel_12": (c1, c2), "parallel_21": (c2, c1),
             "parallel_11": (c1, c1)}
    x, h = profunctor_instance_fixture()
    closure = close_presented_category(collage_of_model(x), 6)
    ch = instance_to_copresheaf(h, closure)
    ck = instance_to_copresheaf(tautological_instance(x), closure)
    pairs.update({"profunctor_hk": (ch, ck), "profunctor_kh": (ck, ch),
                  "profunctor_hh": (ch, ch)})
    x = weighted_graph_schema()
    closure = close_presented_category(collage_of_model(x), 6)
    w2 = instance_to_copresheaf(weighted_graph_instance(2), closure)
    w3 = instance_to_copresheaf(weighted_graph_instance(3), closure)
    pairs.update({"weighted_graph_23": (w2, w3),
                  "weighted_graph_22": (w2, w2)})
    return pairs


def _natural_transformation_cases():
    names = ("parallel_12", "parallel_21", "parallel_11", "profunctor_hk",
             "profunctor_kh", "profunctor_hh", "weighted_graph_23",
             "weighted_graph_22")
    return {"nat_" + name: (lambda name=name: pinned(
                enumerate_natural_transformations(*_copresheaf_pairs()[name])))
            for name in names}


def _sketch_cases():
    cases = {}

    def sketch_golden(x, y):
        sk = flatten_theory(x.theory)
        return pinned(enumerate_sketch_model_morphisms(
            model_to_sketch_model(x, sk), model_to_sketch_model(y, sk)))

    fold = walking_loose_model(["a0", "a1"], ["b0"],
                               [("h0", "a0", "b0"), ("h1", "a1", "b0")])
    wg = weighted_graph_schema()
    for label, (x, y) in {"fold_wg": (fold, wg), "wg_fold": (wg, fold),
                          "fold_fold": (fold, fold)}.items():
        cases["sketch_" + label] = lambda x=x, y=y: sketch_golden(x, y)
    for name, entries in _corpus_by_theory().items():
        for (i, (x, _)), (j, (y, _)) in itertools.product(
                enumerate(entries), repeat=2):
            cases["sketch_{}_{}_{}".format(name, i, j)] = (
                lambda x=x, y=y: sketch_golden(x, y))
    return cases


def _point_inclusion(target_obj):
    c1, c2 = chain_category(1), chain_category(2)
    return FinFunctor(c1, c2, {"0": target_obj},
                      {"id:0": "id:{}".format(target_obj)})


def _pi_cases():
    cp = Copresheaf(chain_category(1), {"0": FiniteSet(["x", "y", "z"])},
                    {"id:0": {v: v for v in "xyz"}})
    arrow = Copresheaf(chain_category(2),
                       {"0": FiniteSet(["p", "q", "r"]),
                        "1": FiniteSet(["s", "t"])},
                       {"id:0": {v: v for v in "pqr"},
                        "id:1": {"s": "s", "t": "t"},
                        "0<1": {"p": "s", "q": "t", "r": "t"}})
    collapse = FinFunctor(chain_category(2), chain_category(1),
                          {"0": "0", "1": "0"},
                          {"id:0": "id:0", "id:1": "id:0", "0<1": "id:0"})
    into_three = FinFunctor(chain_category(2), chain_category(3),
                            {"0": "0", "1": "2"},
                            {"id:0": "id:0", "id:1": "id:2", "0<1": "0<2"})
    cases = {"pi_point_{}".format(o): (
        lambda o=o: copresheaf_golden(kan_extend_right(_point_inclusion(o),
                                                       cp)))
             for o in ("0", "1")}
    cases["pi_collapse"] = lambda: copresheaf_golden(
        kan_extend_right(collapse, arrow))
    cases["pi_into_three"] = lambda: copresheaf_golden(
        kan_extend_right(into_three, arrow))
    return cases


def _multicategory_cases():
    prom2 = builtin_theory("prom_trunc", 2)
    cases = {}
    for name in ("terminal", "join", "two_object"):
        cases["multicategory_round_trip_" + name] = (
            lambda name=name: multicategories_isomorphic(
                builtin_multicategory(name),
                model_to_multicategory(multicategory_to_model(
                    builtin_multicategory(name), prom2))))

    def pairing_moved():
        other = two_object_multicategory()
        other.multimorphisms["pair"] = (("a", "a"), "a")
        other.comp[("ia", ("pair",))] = "pair"
        del other.comp[("ib", ("pair",))]
        return multicategories_isomorphic(two_object_multicategory(), other)

    cases["multicategory_terminal_vs_two_object"] = (
        lambda: multicategories_isomorphic(terminal_multicategory(2),
                                           two_object_multicategory()))
    cases["multicategory_pairing_moved"] = pairing_moved
    return cases


@functools.lru_cache(maxsize=None)
def golden_cases():
    cases = {}
    for part in (_model_cases, _model_isomorphism_cases, _instance_cases,
                 _natural_transformation_cases, _sketch_cases, _pi_cases,
                 _multicategory_cases):
        cases.update(part())
    return cases


GOLDEN = {
    'find_instance_iso_2_2':
        'cc0eccb64592af921a65241be07975ec05e28478079f84bea154c4f027590fa0',
    'find_instance_iso_2_3':
        '74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b',
    'find_model_iso_none':
        '74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b',
    'find_model_iso_relabelling':
        '534a43d15cbf086c22c9fa845f5ecd705a58c7d1440c77ebf984533dcf8872ee',
    'find_model_iso_weighted_graph':
        '71b0aa86bc770d828b7eac70d649295b9471b4b0be53cd3ccabee1362e652cbd',
    'instance_terminal_0_0_0':
        [1,
         'bf4497962f49a95dbd3c732d3b58df7182f7bcc5707360b575ca87803b0f3b74'],
    'instance_terminal_0_0_1':
        [1,
         '72b3d5c932f68920f6348903ea1d01da9f3c75461058a01a9ce4e8abd970ce85'],
    'instance_terminal_0_1_0':
        [1,
         '3b917c84786ce0f0b2aef18168e22a483c49dfe7a90430e2d4a1c8987396ba06'],
    'instance_terminal_0_1_1':
        [1,
         '4a7ca42e8941dc2a9f0112cbe9657f9ca14ec659a8aeb8e920af3c4c5fd2d6d1'],
    'instance_terminal_1_0_0':
        [1,
         '85dde06ef989f258c6fff15546c4e003ed25b356b03127a688f74b6eef37f1ad'],
    'instance_terminal_1_0_1':
        [0,
         '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
    'instance_terminal_1_1_0':
        [1,
         '3b917c84786ce0f0b2aef18168e22a483c49dfe7a90430e2d4a1c8987396ba06'],
    'instance_terminal_1_1_1':
        [1,
         '4a7ca42e8941dc2a9f0112cbe9657f9ca14ec659a8aeb8e920af3c4c5fd2d6d1'],
    'instance_terminal_2_0_0':
        [1,
         'dec025b90d1718674def920cfda2f8da53e7d4fe3709fd25d8257d29714947d8'],
    'instance_terminal_2_0_1':
        [1,
         '7183fd426d6665699ed11be39afd19ba5ce942c40392abcb0a28dbe5a90747fa'],
    'instance_terminal_2_1_0':
        [1,
         '33f4800c21e4b8c83598f704aac2e0aa01bfe1f304bc4715510c228a9dadda6d'],
    'instance_terminal_2_1_1':
        [1,
         'b968611e76c84f48447910c540832445369eb1627cea1e6aab133d17b6c2ea7c'],
    'instance_walking_loose_0_0_0':
        [1,
         '939e883df545f767051081b0af0de63d4ce2179582be49f704b9ab96a22623c6'],
    'instance_walking_loose_0_0_1':
        [4,
         'd1c08467743d404b4256191e5e65e22a9169a133b1e1f3d0bd66c496e8218f1c'],
    'instance_walking_loose_0_1_0':
        [1,
         '18b43c376d000832a9a8db373add6ddd81a349da42504b454b6b1281972ee766'],
    'instance_walking_loose_0_1_1':
        [16,
         'b7917a0b53f7dbb862d311122afb8a88aedc11deba2b594bc5ba87e4576b4832'],
    'instance_walking_loose_1_0_0':
        [1,
         '78f099ee1099704ed79bad8273f84013a4b6c23221052866faf25588b60ce481'],
    'instance_walking_loose_1_0_1':
        [2,
         '995026c1754cd021fb01aa20a205ed5e9c987310d910b3a52f7beaccaeba3537'],
    'instance_walking_loose_1_1_0':
        [1,
         'e7b7effdd726696ac6c5aae0ec7376f3dac3b34293bb27d7be42b1bd08e31398'],
    'instance_walking_loose_1_1_1':
        [4,
         'e0fac2efc3576e456b381b9acd6c0649cca3c3406e995f1f35f8fe6ff6ef7288'],
    'instance_walking_loose_2_0_0':
        [1,
         '764d27ecc4a8520e233fad836e733d06ca068a1565b5b91b281f2f226bc7c195'],
    'instance_walking_loose_2_0_1':
        [4,
         'd7a9f0120d7ce38df4d769e75d24a713659b79cd1c243ea7a46a52350d491700'],
    'instance_walking_loose_2_1_0':
        [1,
         'cd6335ca73157bbecaa01b9d1f1278eec0247f87851abb83a2a34c95b32b12ec'],
    'instance_walking_loose_2_1_1':
        [16,
         '39effc982f352c17230bea7ed2f7be89f35f67a5c1e6e761ab2f8cd2540f2ab9'],
    'instance_walking_square_0_0_0':
        [1,
         '48b782d7e3f06bbd5bd490e31609f746d82493cef975078c86a032af2fae2c06'],
    'instance_walking_square_0_0_1':
        [2,
         'e499d1450f392497872725e9d3a08634f7bacc5ef5b9e021abdd071b61194e40'],
    'instance_walking_square_0_1_0':
        [1,
         'f75736d18954a9f8acffc2c2ec34f9890b9fe2c215f08fd34b9187b48f32afdb'],
    'instance_walking_square_0_1_1':
        [4,
         '939f4e1f3d58745ce8822204ba8989485c1591bf7ba376206f58ea962ec6b167'],
    'instance_walking_square_1_0_0':
        [1,
         '74efaa255b44f1afb0aa5c0bd8eb59fcaa8408ba096f42e4b90465bb330169ec'],
    'instance_walking_square_1_0_1':
        [2,
         '90e02e2e658bd13e408838f890a87323c75eb9ac689637c7292d77a6c59f0558'],
    'instance_walking_square_1_1_0':
        [1,
         '5c74af53987f42fc116862a031586c246ace33352be7445afac72b90a2e59543'],
    'instance_walking_square_1_1_1':
        [4,
         '726c9931bb8f73ea40a7e5b57816f828c99759ea8d8ac71824b6ad4ba54b8dde'],
    'instance_walking_square_2_0_0':
        [1,
         'f2fa8b2c8488ffa9f7e4a6f4fbddd2fdaed5585322b6480492e44610567f93ac'],
    'instance_walking_square_2_0_1':
        [2,
         'd81310e5b78cd0db0c6158afe08362207e0ab4a0aee0451d728ee65a5ebf8558'],
    'instance_walking_square_2_1_0':
        [1,
         'fc59f84d06514025f6630dfc8f5717c2c512d6b829ece4c8305cdbf8b0d84065'],
    'instance_walking_square_2_1_1':
        [4,
         '8d48e44c12b540587b6b9974cc655928ccfa5b049f9e586a4fafbdf718bb0dfc'],
    'instance_walking_tight_0_0_0':
        [1,
         'd16daa3f7ac35f45d3638f7059b281e50b829fa5ffebb960fa5da240c2b31a7e'],
    'instance_walking_tight_0_0_1':
        [2,
         '33ada596faf6d362c19b7f5f1a90331d52b21cfc04970273fbff4ad0ce8c4e48'],
    'instance_walking_tight_0_1_0':
        [1,
         '9635ce21f9073cfa39ba4528b2bd9752b63dae4d6ad17e8a7ec6977fa5b5ea00'],
    'instance_walking_tight_0_1_1':
        [4,
         '1b51950f19f91d274c183200a47c8ca7654efd3995e4b0954ad7b7ec7cfc1131'],
    'instance_walking_tight_1_0_0':
        [1,
         'ef74a20e3d69c38c8750898925c8a00a7454772118dbe921d00b67e511e8948b'],
    'instance_walking_tight_1_0_1':
        [4,
         '4d669808294e2b5312841694850eaafeb4c60d8b21812ef9c3268dc270fd1d62'],
    'instance_walking_tight_1_1_0':
        [1,
         '51fc76ff30248946fa006734c0891e5cbbf9f4854eadb8a5df6405486d3f4047'],
    'instance_walking_tight_1_1_1':
        [16,
         '5f0953953709fafe8ee932fdd7b787b75b3f2e7c6be81b4125d7c875e20a6146'],
    'instance_walking_tight_2_0_0':
        [1,
         '4839b5ed733068546336f2899defe7926092774c959762a7dc945eeefa1a018c'],
    'instance_walking_tight_2_0_1':
        [4,
         '938c7a3f4dba58678fb98a0fae38ac8105cfea11f33ca0fcd1ea02ff67adf0bd'],
    'instance_walking_tight_2_1_0':
        [1,
         'dfd4cb8004f8cf93759cf22c549cdb1ad2c6a39a84a052144150b6e656ae07b1'],
    'instance_walking_tight_2_1_1':
        [16,
         '9e5fc3e120493df6a2bb0114e130120ec0e040d7cb4e1dbc7cfd7c9dba29eb84'],
    'instance_weighted_graph_2_2':
        [16,
         'd9a938775b1efd60c53be39073b96d3b877e3e9b9413c18685900244f4996837'],
    'instance_weighted_graph_2_3':
        [36,
         '059a738b6c99e6123a423cbf4e3db41eddcd5a1ddae4977aef7ed6dec103984f'],
    'instance_weighted_graph_3_2':
        [16,
         '413ab7b420d5086f2251777a3fe5264cfa5fd3758dff07e71533de08c243a30b'],
    'model_feedback_neg_0':
        [1,
         '2baa09b685471fb1e36ac6a1b29a41c59f04ce43ed5f6b70c07f8a3f7756548b'],
    'model_feedback_neg_1':
        [2,
         '49d4890dd27166138b5a19e404238abb75b805f6a7a7350179ed88042ec9cdf2'],
    'model_feedback_neg_2':
        [0,
         '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
    'model_feedback_pos_0':
        [4,
         '9b1e9ac08a51ccfc9466946760ca864006386cd86e0432510b4e58ce224f1e2f'],
    'model_feedback_pos_1':
        [2,
         'efe137f509364050f8fb6cd33a7336242e88170cc128b6e522b9f1b27a90899c'],
    'model_feedback_pos_2':
        [4,
         '3fe994d61f532a7d2695100faab5ecc10c820c078fbfe9e7d7cfd19fbcc0b064'],
    'model_fold':
        [1,
         'e76aa44cfa8a526c03f8322fb7be891ceca6e3cea334f0b11cb33f2dd718ba74'],
    'model_terminal_0_0':
        [1,
         'b1d0889aa53121d5397618237a9ab3e0cf8ce6d9381dc2ccfff0fbaa58dba09f'],
    'model_terminal_0_1':
        [2,
         '864f4c518f0fb1c36c62394c3cb283afe0bd785498e94c116f851be882bd0d7d'],
    'model_terminal_0_2':
        [2,
         '0cc7b72da641dcf595c821a071a06be44db1008d21990c32b6b73d578f44a936'],
    'model_terminal_1_0':
        [1,
         '1dbda1132e08c192263a6f97b20671fe617a3132591b356a4829966f4c29a9ff'],
    'model_terminal_1_1':
        [4,
         '0b724a69da627a7bc0be5ace6aff520d0748890921829d3575956efa72206b15'],
    'model_terminal_1_2':
        [4,
         'b589f64aac4c7a8a9d3c0aeb069bbb1362f585dce3e0ce2b67411cf656970d55'],
    'model_terminal_2_0':
        [1,
         '502d7aa6fb58a82326a84890c571dcca0b587b1668f014f658f1af870ab84636'],
    'model_terminal_2_1':
        [2,
         '4c1147bd36e2c1372b6d9e704480d677ce53e375886d5e30f161c6a09673d4f5'],
    'model_terminal_2_2':
        [3,
         '039c302754cce8507dc1736f209c2578b04d6bed844e7178589984a901484399'],
    'model_unfold':
        [2,
         'e0683abef9f487db6fdf75ca1f7239661960432b0d4875c2e3d56ff042a25c2a'],
    'model_walking_loose_0_0':
        [2,
         'e75ca94519c028e842c5679b24dc2f0a2da432e2cdb118c363ce2c08bad0f1a6'],
    'model_walking_loose_0_1':
        [4,
         'cb15d47fe0f677dcdb4e3d6b6aa7f9864b73239488aa41624004e0e4175cefd1'],
    'model_walking_loose_0_2':
        [0,
         '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
    'model_walking_loose_1_0':
        [1,
         'f7355c2bcc7e3d65e114bb6c6c74b717a61c1155a2eec3923c4e576e059a2846'],
    'model_walking_loose_1_1':
        [4,
         '6e2cf8857a272f9101b289fd58a83a4018ac39bd102fef7881d74390b3c983ee'],
    'model_walking_loose_1_2':
        [0,
         '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
    'model_walking_loose_2_0':
        [2,
         'bfc959955d888a36c5dda25571c1e43605b383861ebf37e2717adfd1144c90fc'],
    'model_walking_loose_2_1':
        [2,
         'e7174cc11a6a66ae9317261346d1408e39001814b5ee646841fb517ee1a0c97d'],
    'model_walking_loose_2_2':
        [1,
         'd5b12b8a381f913d1ff56afefc73cca824de482a8e256a4f0cd7a1d7681dbc47'],
    'model_walking_square_0_0':
        [1,
         '6844669bdee80baafd325ff18347663e0179671509611b1782459d505da62857'],
    'model_walking_square_0_1':
        [2,
         '073b94daa3a4c5ad16cd5fd9073161e78b1e38ae710fcb3fbc30aef794d13e41'],
    'model_walking_square_0_2':
        [1,
         '763f8bdc81bb144ed030d3275594c9f18b83e6ab7c3ebf34ef473199fb4ae303'],
    'model_walking_square_1_0':
        [1,
         '0df4432f508e6ff5b89d73042eb2d66550d20aae06cb59367c6c74e995bbe27b'],
    'model_walking_square_1_1':
        [4,
         '93e7bf7c2e4e24d989cf0f2b26845b0ade0ec38b9d36a86987bc6c62ccab4ff1'],
    'model_walking_square_1_2':
        [1,
         '5a906ef95c7afb2293ec73415d3a5c786c8098ad09b1c00c46ddde0bbbe76ebd'],
    'model_walking_square_2_0':
        [1,
         '68dd8f8e2f182548ad9c3eaff033a797095768a70155caa7756eb4389eac64b0'],
    'model_walking_square_2_1':
        [2,
         '4d0abf1379cd29f6570a6c632e6ca3a41091b98bbf3141af8ff6a6196d8a74b8'],
    'model_walking_square_2_2':
        [2,
         '5419a270ae4df3d7b344c8aae763e43920c66a014fab933c079fc23dd7a77e5f'],
    'model_walking_tight_0_0':
        [4,
         '38467e6ac3c46b91e378415239b5b4d090200b8f418eb8d42ce6251444abe754'],
    'model_walking_tight_0_1':
        [1,
         'a01a9571fd734fac21c99109c873c04be208cb5e073dd088a234e6cc6e2174ff'],
    'model_walking_tight_0_2':
        [2,
         'ef8cd3a5e8be614381347ac08c74d41eacf59072d67cd034a10929066e9571ec'],
    'model_walking_tight_1_0':
        [2,
         '67de2ba0ea15db8a85acfda30fe447dc7e28a2d484bdbaa8841afbad2c772d4d'],
    'model_walking_tight_1_1':
        [2,
         '877b566c9f02449bd30201dd31118928d1ac940461875e774acc0b5d536b0e6d'],
    'model_walking_tight_1_2':
        [4,
         '078eb2fa1b0de7076ae1e1fab2d61abb352160644cebe2660578276a4ecc798b'],
    'model_walking_tight_2_0':
        [4,
         'c4014166c7bb55db527bb344740520f3b8d27b7e26ee7967d126c5770d195bba'],
    'model_walking_tight_2_1':
        [1,
         '7052c26190e5521973205b5459d80540b58bef884eb52c17f5a9f4cd488f4ff9'],
    'model_walking_tight_2_2':
        [4,
         'c3aacc9c37e3c837e61a1a0ddf42c5a4ba0f636372862e9216b0071adabf95fb'],
    'model_weighted_graph_self':
        [2,
         'e75ca94519c028e842c5679b24dc2f0a2da432e2cdb118c363ce2c08bad0f1a6'],
    'model_weighted_graph_to_terminal':
        [1,
         '877bbe5250de04efa1bd8648095540fe84d94054fc770ed79f3a5196a57c9ce7'],
    'multicategory_pairing_moved': False,
    'multicategory_round_trip_join': True,
    'multicategory_round_trip_terminal': True,
    'multicategory_round_trip_two_object': True,
    'multicategory_terminal_vs_two_object': False,
    'nat_parallel_11':
        [1,
         '988dd196b64a837382a34fe4fd4063df579af313999adbfa11271aba327609a8'],
    'nat_parallel_12':
        [1,
         '7d4d6edd674c71256b5cd755090c4394e4621e264f139f5883a9fdc205d06d14'],
    'nat_parallel_21':
        [0,
         '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
    'nat_profunctor_hh':
        [4,
         '61a9de430b9211f2e7394ec33d2c79df5d4b14969b77f9dc133d457593e347bd'],
    'nat_profunctor_hk':
        [1,
         'f4855b10eb91259dcd675df7e236bb6a52bde76a0ef947c7a1883ccaac805659'],
    'nat_profunctor_kh':
        [2,
         '924ac7ea90e924c536d675cebeb8d810c2786e3151b53084b3e034134ee3c651'],
    'nat_weighted_graph_22':
        [16,
         'daf0d48cdc658037bc106997d24a270d168217486145569d6ecb602ec080a293'],
    'nat_weighted_graph_23':
        [36,
         '8d1fd3f9de939ff6b95bf888fd6584361f7566cc0eafe242e7b8b3946b99d7cc'],
    'pi_collapse':
        [['[p|s]', '[q|t]', '[r|t]'],
         '40d35b7f0b838905535bf3aea4e034345a8940291d2e702dc63f09fe99236109'],
    'pi_into_three':
        [['[p|s]', '[q|t]', '[r|t]', '[s]', '[s]', '[t]', '[t]'],
         '99a21f7499a6a8b87a8ba9791a0a17b103def057d2fa2b011db604a0ca97755d'],
    'pi_point_0':
        [['[()]', '[x]', '[y]', '[z]'],
         '515c5a655a09648c96d6249a0c3801956124a97cd03415f905cd2ecf4d957b6c'],
    'pi_point_1':
        [['[x]', '[x]', '[y]', '[y]', '[z]', '[z]'],
         '3624d3d89f25c71edd51afa051d53a3fb3c0190f3283496b9df8960997178ef4'],
    'sketch_fold_fold':
        [4,
         '9fc28992ba8e911e1b0488bb2952f38da44a340d4fd471a2ce94fbd89a3633d0'],
    'sketch_fold_wg':
        [1,
         '772497c546231e2b3077d668574ac77b2d0ae8bf8041cd90fd28f3c4f45cfe2c'],
    'sketch_terminal_0_0':
        [1,
         '5835d568a64c7316bc91c096d6d426ae09c85d2de108243d99e100c8518b66c9'],
    'sketch_terminal_0_1':
        [2,
         '549848a5401d5b4c7179a2df1b54280594805cbc37eabaa91271c5031c407302'],
    'sketch_terminal_0_2':
        [2,
         '7c557443df50a7c83c94be52dab1dcbea41305afdf97e633eb53ab2f65cc80b9'],
    'sketch_terminal_1_0':
        [1,
         'c6b8b94710fe7b504a60368d99ff200fd50c57b50e8e996ca4a93394a7f3dfec'],
    'sketch_terminal_1_1':
        [4,
         '192ad844cccbf1b963f5029c0d209b23995e737d12bca0ead127382010c322fd'],
    'sketch_terminal_1_2':
        [4,
         'b27e99413f00788cfd9fa645ec7b8f9efd2e7bb48e991b11635312a20d5d5c36'],
    'sketch_terminal_2_0':
        [1,
         'bc09780dc2fcdc648c12bab5ceb2b7590eb6308f9c57c37399495be20a2e5944'],
    'sketch_terminal_2_1':
        [2,
         '37d8412bc1d679b9f15afb72b1faaad9635879f90994491ef3e65cd6e0f1907f'],
    'sketch_terminal_2_2':
        [3,
         'af189743391109891549ce9ec41f7966c581dde08817a64eb779300370621261'],
    'sketch_walking_loose_0_0':
        [2,
         '8d4ce623b0ce5dc4ca63c96479e4525d336a758eb17433b89e34bf7c62d74439'],
    'sketch_walking_loose_0_1':
        [4,
         '008bc5a0240a9be0f7b1897e5873211603163fcda101c10c8db265cc2ccf7883'],
    'sketch_walking_loose_0_2':
        [0,
         '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
    'sketch_walking_loose_1_0':
        [1,
         '772497c546231e2b3077d668574ac77b2d0ae8bf8041cd90fd28f3c4f45cfe2c'],
    'sketch_walking_loose_1_1':
        [4,
         '9fc28992ba8e911e1b0488bb2952f38da44a340d4fd471a2ce94fbd89a3633d0'],
    'sketch_walking_loose_1_2':
        [0,
         '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
    'sketch_walking_loose_2_0':
        [2,
         'db8f5cb82af7ef94324fe5f9e79f9108e0aaabdb9499daa71d81cd2877075827'],
    'sketch_walking_loose_2_1':
        [2,
         '6dbcda6bd62d0f8cd8227e280f2d31b45d06aacaeba49e284216fee23da4a525'],
    'sketch_walking_loose_2_2':
        [1,
         '4afabb01a61b560cf95645d16b69bcebbff08f180ae667f90adb3ebd8aec9a0e'],
    'sketch_walking_square_0_0':
        [1,
         '634c08bd0f93dad2a8475842ef9a09ed4a036c60a913b7ea78110072615c64d9'],
    'sketch_walking_square_0_1':
        [2,
         '23da5b7a6b5d619f39dbcfd78cdd95b8e75d5ad7258d31f98e26824f7a2f8d80'],
    'sketch_walking_square_0_2':
        [1,
         '0e4a167bf8300c48bf50968deda98d6d78f1e25e580f7e02cf78ac0dbeaba3cb'],
    'sketch_walking_square_1_0':
        [1,
         'd864fe96ff2909bf3989fe0f3d4b8fcc1d9560dd62b64f21bb78eb67aca114dc'],
    'sketch_walking_square_1_1':
        [4,
         'b255271e7ba03c3ffa2b0e1db5ba32cdcab1dca1a99843fb1f6722ddfe96a80c'],
    'sketch_walking_square_1_2':
        [1,
         '2d4f0eea77c20ef3ff74671d8a593bdf07bf6c241601ead4c1329da2bdecca38'],
    'sketch_walking_square_2_0':
        [1,
         '27f4399c46c385a20af8a51c1b8098a9f94b0d098878bf4492a7aacc79318ffc'],
    'sketch_walking_square_2_1':
        [2,
         'bf4d8b46aa3cec491c18e4bf1b50c2f89a0e8587483a2254c3b093c9fa811c26'],
    'sketch_walking_square_2_2':
        [2,
         '8389463f0f408a36d580ddbfbd6029c34d97b5e1a7b99e32997b11bf95045955'],
    'sketch_walking_tight_0_0':
        [4,
         '396b268e0cc885139a100dfd0241a4e9f4231d424602443ab07157d6b7fa0b2e'],
    'sketch_walking_tight_0_1':
        [1,
         '42bfc4e4725f22648294ca9533a895598c9caaeea393e9da625fcd9e2e6da524'],
    'sketch_walking_tight_0_2':
        [2,
         '627b6d1c78efde044c795415d41c93710459f24db5dd32331349ee6360d1cbcb'],
    'sketch_walking_tight_1_0':
        [2,
         '5a5008cbd5e1dd50bef440561e0ca3d4be1a23f1257d2fa5a6805866a6fe84ab'],
    'sketch_walking_tight_1_1':
        [2,
         'f8590a7506845f87352eda35e6d16f3e0dd62ac80a0a8f8eab540d585c74f2bb'],
    'sketch_walking_tight_1_2':
        [4,
         '663f64d33fd2e5705aadd09fcf91b0a3133d45ec4d91acebda5a8d97340da32c'],
    'sketch_walking_tight_2_0':
        [4,
         '208c2ded288c4ee65f2b12a7da25b04cfc4302ebfd419927cf05533ba431b065'],
    'sketch_walking_tight_2_1':
        [1,
         '7ff16b881adb23a6a571e671b4b18a1d3a346efc12eb7f033f9b38f426f5429a'],
    'sketch_walking_tight_2_2':
        [4,
         'fd24806b2d764276ae38a9cc6d90331c6b71bf239c22137c2d3f204022f87d1f'],
    'sketch_wg_fold':
        [4,
         '008bc5a0240a9be0f7b1897e5873211603163fcda101c10c8db265cc2ccf7883'],
}


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_search_golden(name):
    got = golden_cases()[name]()
    assert json.loads(json.dumps(got)) == GOLDEN[name]


# ---------------------------------------------------------------------------
# brute-force oracles on seeded random tiny inputs


def _all_tables(src, dst):
    src, dst = list(src), list(dst)
    return [dict(zip(src, image))
            for image in itertools.product(dst, repeat=len(src))]


def _random_model(rng):
    if rng.random() < 0.5:
        dom = ["a{}".format(i) for i in range(rng.randint(1, 2))]
        cod = ["b{}".format(i) for i in range(rng.randint(1, 2))]
        het = [("h{}".format(i), rng.choice(dom), rng.choice(cod))
               for i in range(rng.randint(0, 3))]
        return walking_loose_model(dom, cod, het)
    top = ["p{}".format(i) for i in range(rng.randint(1, 3))]
    bot = ["r{}".format(i) for i in range(rng.randint(1, 2))]
    return walking_tight_model(top, bot, {p: rng.choice(bot) for p in top})


def _brute_force_model_morphisms(a, b):
    t = a.theory
    pools = [_all_tables(a.on_objects[d], b.on_objects[d]) for d in t.objects]
    pools += [_all_tables(a.on_loose[m].apex, b.on_loose[m].apex)
              for m in t.loose]
    found = []
    for tables in itertools.product(*pools):
        f = ModelMorphism(a, b, dict(zip(t.objects, tables)),
                          dict(zip(t.loose, tables[len(t.objects):])))
        if not validate_model_morphism(f):
            found.append(f)
    return sorted(found, key=lambda f: f.component_key())


@pytest.mark.parametrize("seed", range(8))
def test_model_morphisms_match_brute_force(seed):
    rng = random.Random(seed)
    a = _random_model(rng)
    while True:
        b = _random_model(rng)
        if b.theory.objects == a.theory.objects:
            break
    assert validate_model(a) == [] and validate_model(b) == []
    assert enumerate_model_morphisms(a, b) == \
        _brute_force_model_morphisms(a, b)


def _random_instance(rng, x):
    """One or two elements over every model element, so that every
    heteromorphism can act."""
    carriers, labels = {}, {}
    for d in x.theory.objects:
        labels[d] = {"{}.{}".format(e, i): e for e in x.on_objects[d]
                     for i in range(rng.randint(1, 2))}
        carriers[d] = sorted(labels[d])
    sp = x.on_loose["l"]
    fiber = {b: [v for v in carriers["cod"] if labels["cod"][v] == b]
             for b in x.on_objects["cod"]}
    act = {(e, xi): rng.choice(fiber[sp.right[xi]])
           for e in carriers["dom"] for xi in sp.apex
           if sp.left[xi] == labels["dom"][e]}
    return build_instance(x, carriers, labels, {"l": act})


def _brute_force_instance_morphisms(h, k):
    objs = h.model.theory.objects
    found = []
    for tables in itertools.product(
            *[_all_tables(h.carriers[d], k.carriers[d]) for d in objs]):
        mu = InstanceMorphism(h, k, dict(zip(objs, tables)))
        if not validate_instance_morphism(mu):
            found.append(mu)
    return sorted(found, key=lambda mu: mu.component_key())


@pytest.mark.parametrize("seed", range(8))
def test_instance_morphisms_match_brute_force(seed):
    rng = random.Random(seed)
    x = walking_loose_model(["a0", "a1"], ["b0"],
                            [("h0", "a0", "b0"), ("h1", "a1", "b0"),
                             ("h2", "a0", "b0")])
    h, k = _random_instance(rng, x), _random_instance(rng, x)
    assert validate_instance(h) == [] and validate_instance(k) == []
    assert enumerate_instance_morphisms(h, k) == \
        _brute_force_instance_morphisms(h, k)


def _random_arrow_copresheaf(rng):
    src = ["s{}".format(i) for i in range(rng.randint(0, 3))]
    dst = ["t{}".format(i) for i in range(rng.randint(1, 2))]
    return Copresheaf(chain_category(2), {"0": src, "1": dst},
                      {"id:0": {v: v for v in src},
                       "id:1": {v: v for v in dst},
                       "0<1": {v: rng.choice(dst) for v in src}})


def _brute_force_natural_transformations(c1, c2):
    """In lexicographic order: objects in base order, elements and
    values in label order."""
    base = c1.base
    found = []
    for tables in itertools.product(
            *[_all_tables(c1.on_objects[o], c2.on_objects[o])
              for o in base.objects]):
        comp = dict(zip(base.objects, tables))
        if all(comp[d][c1.on_morphisms[f][v]] == c2.on_morphisms[f][comp[s][v]]
               for f, (s, d) in base.morphisms.items()
               for v in c1.on_objects[s]):
            found.append(comp)
    return found


@pytest.mark.parametrize("seed", range(8))
def test_natural_transformations_match_brute_force(seed):
    rng = random.Random(seed)
    c1, c2 = _random_arrow_copresheaf(rng), _random_arrow_copresheaf(rng)
    assert c1.validate() == [] and c2.validate() == []
    assert enumerate_natural_transformations(c1, c2) == \
        _brute_force_natural_transformations(c1, c2)
