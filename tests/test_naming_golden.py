"""Golden names: every generated sort, generator and relation pinned.

The flattened sketch of a theory and the collage of a model are
presentations whose generators are named from the theory's and the
model's own names.  Each case records the number of generators and a
sha256 of the JSON dump of the presentation: its document (which sorts
the generators), the generators in insertion order, and the relations
in order.  So a change to any generated name, to the order generators
are made in, or to the order of relations shows up here.

Inputs: every built-in theory (the truncated families up to bound 2,
``sq_finset_op(2)`` included), the cartesian flattenings, the collages,
sketch models and copresheaf round trips of the standard instance
corpus, of the three multicategory models and of the signed models,
and the collage generator maps and reflections of the migration
morphisms.
"""

import functools
import hashlib
import json

import pytest

from dblinst.cartesian import multicategory_to_model
from dblinst.collage import (close_presented_category, collage_generator_map,
                             collage_of_model, copresheaf_to_instance,
                             instance_to_copresheaf)
from dblinst.fixtures import (builtin_multicategory, cyclic_quotient_morphism,
                              standard_instance_corpus,
                              walking_loose_model, walking_tight_model,
                              weighted_graph_schema)
from dblinst.migration import reflect_into_dopf
from dblinst.model import enumerate_model_morphisms, terminal_model
from dblinst.serialize import copresheaf_to_doc, document_of
from dblinst.sketch import (flatten_cartesian_theory, flatten_theory,
                            model_to_sketch_model)
from dblinst.theories import builtin_theory

SIMPLE_THEORIES = ("terminal", "walking_loose", "walking_tight",
                   "walking_square", "signed", "involution_cell")
FAMILY_THEORIES = ("monad_trunc", "prom_trunc", "sq_finset_op")
CARTESIAN_THEORIES = ("prom_trunc", "sq_finset_op")


def digest(doc):
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def presentation_golden(p):
    return [len(p.generators), digest([
        document_of(p), [[g, list(e)] for g, e in p.generators.items()],
        [[src, dst, list(w1), list(w2)] for src, dst, w1, w2 in p.relations]])]


def sketch_golden(sk):
    return presentation_golden(sk.presented) + [digest(document_of(sk))]


@functools.lru_cache(maxsize=None)
def theory(name, k=None):
    return builtin_theory(name, k)


def theory_names():
    out = [(name, None) for name in SIMPLE_THEORIES]
    out += [(name, k) for name in FAMILY_THEORIES for k in range(3)]
    return out


@functools.lru_cache(maxsize=None)
def corpus_models():
    """(name, model, instances): the corpus, which holds the signed
    models, and the multicategory models with no instances."""
    out = []
    for name, x, instances in standard_instance_corpus():
        out.append(("{}_{}".format(name, len(out)), x, instances))
    for name in ("terminal", "join", "two_object"):
        out.append(("multicategory_" + name, multicategory_to_model(
            builtin_multicategory(name), theory("prom_trunc", 2)), []))
    return out


def _migration_morphisms():
    fold = enumerate_model_morphisms(
        walking_loose_model(["a0", "a1"], ["b0"],
                            [("h0", "a0", "b0"), ("h1", "a1", "b0")]),
        walking_loose_model(["a"], ["b"], [("h", "a", "b")]))[0]
    tight_fold = enumerate_model_morphisms(
        walking_tight_model(["p", "q"], ["r"], {"p": "r", "q": "r"}),
        walking_tight_model(["p"], ["r"], {"p": "r"}))[0]
    x = weighted_graph_schema()
    to_terminal = enumerate_model_morphisms(x, terminal_model(x.theory))[0]
    return {"fold": fold, "cyclic_quotient": cyclic_quotient_morphism(),
            "to_terminal": to_terminal, "tight_fold": tight_fold}


def _sketch_model_golden(x):
    s = model_to_sketch_model(x, flatten_theory(x.theory))
    return [len(s.on_generators), digest(
        [[[o, list(fs.labels)] for o, fs in s.on_objects.items()],
         [[g, list(tb.items())] for g, tb in s.on_generators.items()]])]


def _copresheaf_golden(x, instances):
    closure = close_presented_category(collage_of_model(x), 4)
    out = []
    for h in instances:
        cp = instance_to_copresheaf(h, closure)
        back = copresheaf_to_instance(cp, x, closure)
        out += [digest(copresheaf_to_doc(cp)), digest(document_of(back))]
    return out


def _reflect_golden(al):
    inst, _, gen_class = reflect_into_dopf(al, 4)
    return [digest(document_of(inst)), digest(list(gen_class.items()))]


@functools.lru_cache(maxsize=None)
def golden_cases():
    cases = {}
    for name, k in theory_names():
        key = name if k is None else "{}_{}".format(name, k)
        cases["flatten_" + key] = (
            lambda name=name, k=k: sketch_golden(flatten_theory(
                theory(name, k))))
    for name in CARTESIAN_THEORIES:
        for k in range(3):
            cases["flatten_cartesian_{}_{}".format(name, k)] = (
                lambda name=name, k=k: sketch_golden(
                    flatten_cartesian_theory(theory(name, k))))
    for name, x, instances in corpus_models():
        cases["collage_" + name] = (
            lambda x=x: presentation_golden(collage_of_model(x)))
        cases["sketch_model_" + name] = lambda x=x: _sketch_model_golden(x)
        if instances:
            cases["copresheaf_" + name] = (
                lambda x=x, instances=instances: _copresheaf_golden(
                    x, instances))
    for name, al in _migration_morphisms().items():
        cases["generator_map_" + name] = (
            lambda al=al: [len(collage_generator_map(al)), digest(
                [[g, list(w)] for g, w in collage_generator_map(al).items()])])
        cases["reflect_" + name] = lambda al=al: _reflect_golden(al)
    return cases


GOLDEN = {
    "collage_multicategory_join": [
        18,
        "da24bc0b7aa30edea63460f2a5611d2103d7e90f16ef945fb3dbc8296608973d"],
    "collage_multicategory_terminal": [
        18,
        "c1d1cbc7125dc08367403ec65c93b324e49575b66a0909b1d930d56c244e003a"],
    "collage_multicategory_two_object": [
        36,
        "9e9f8aff28bfb05bb59d24a7237f2c9d5d4399e443112e599c14b146c0371a16"],
    "collage_signed_12": [
        13,
        "b2390330ffffdebfb8d9a5f45237daa94826bad144fea562450aa440bee683a9"],
    "collage_signed_13": [
        8,
        "41ee865d0bf7308a5de133e0c28a12329fa484750b1b0fa6918c4117af39651b"],
    "collage_signed_14": [
        11,
        "d80aafedd8b94a368f92fa9830a01886aff1f978f9ee18a22138b1adb45e68ba"],
    "collage_terminal_3": [
        1,
        "c79de521623995ddfd10eab0f6831163d54835ee7daf607f7c72ae005f540b73"],
    "collage_terminal_4": [
        2,
        "326e35727524fae3d5c0e8c2a0c98f493bf3f1f3f926121d8b53f3dc83c175c1"],
    "collage_terminal_5": [
        3,
        "ab20d254d667a71906d49868a8b688401aff5f42f3e8e5b0529d79ee2f72a0db"],
    "collage_walking_loose_0": [
        4,
        "bb5183af8f605d1b4194d7c9edb1e827b82207b16281fb570a97524b9bcb3b47"],
    "collage_walking_loose_1": [
        5,
        "3d5f3974bad2e82f50da36e77cd3df8c902bbcd21e73624c2607e6f689ce6d63"],
    "collage_walking_loose_2": [
        2,
        "c940d1e8a94fd4e9acc1373488167affa8ea295908c7c667a7c243c736d2bf20"],
    "collage_walking_square_10": [
        11,
        "214ad44e74e859400c9ae79a9b0d913e26de134e34e20d52374d5c97ff517d46"],
    "collage_walking_square_11": [
        10,
        "ad0c9b998c359ee8d286bcb2c1cd879328f72dd1ce333f84c94f271ba0920f81"],
    "collage_walking_square_9": [
        8,
        "802150e4625068ab512871f12a2ed478329b6591d170064996d2d4e0da51b462"],
    "collage_walking_tight_6": [
        5,
        "5161fb25a833fd513c992a49486ee66eb7a776f8a2b0a6d523aeee97d4af9bd2"],
    "collage_walking_tight_7": [
        4,
        "b7888461194dff4a7d0d5c6c2ea7aeb046d75fcf1795bd08047ca689f6aebf8e"],
    "collage_walking_tight_8": [
        6,
        "c005c10ff608b49b7f5b28c53023a5579aec69b933baa11361905fab6e166007"],
    "copresheaf_signed_12": [
        "228de0a832b92421a68a3a39ceff92e875fd19b9c4c02aae1e72133ba624a39b",
        "a0d32ee09161357c23476616388998918ef071f6d6536e113d0d3aa6d41b76cc",
        "a71a24e07e6f5fa2c8e8b633d26e87099ca38b0e3b33389f317079e5d3801ea4",
        "ce99e68f01cb4f8c7d91c5cf0741be43d86bb79e104804a14bcd86dde85b7298"],
    "copresheaf_signed_13": [
        "8ad9235410d53a838a70db6622651868f6c2618a3dff70fece9e9f11855e9e60",
        "66befc4fea36f79de3e69f2ff37a88d134d0cecb5feeff05196096c1c58caa8d",
        "2ef3b56eedc29d63f7f7c018344eefe17244c7ca749cb0885f478a8f84f83459",
        "bc4bfb7980b13f8fe8526c8bb0fc0e91eff3891e71edded48fdbf383e0920811"],
    "copresheaf_signed_14": [
        "fb9e5e17428956f5ab07d4b436b21540c945fc62edf973c82311dbc96210a5ca",
        "141f052643502c2122b3f46a8f108bb91aae3d62557b5c3b18ee2e23bb01da0c",
        "c4ada017f9746dffb0160325ab04b90f0510b77a351b8fc3d865cb723dc3ef94",
        "30423c644c1a0f4225705f95ef645b055670d626acf8656279ecb2dd22e201da"],
    "copresheaf_terminal_3": [
        "1837d098af0ea880ed3bb58849bd866a29d315d12eec553b0599563e94a45315",
        "259dff7db04baa487cbd187dc34070a0d721ef60a39bb18a357f86ee5b17b95d",
        "409c43637964b154bbd763a7abeac2537258ca75ce43b0921b48faf0cc615880",
        "b274ea42e1cf488f24eae17e38d15b0f61e20cf1673cdf2c01f8889b70f9cd5f"],
    "copresheaf_terminal_4": [
        "912795b8c98095572cecf4e4cf39c2e275747932d5ef76eaa15522473a47cf66",
        "60c9cd09a7caa6025a4a706d8f8bc62c9fa0e7efcaa473d9c3b0f6ab8817414c",
        "d90c42ef463258e8f7da0fdc97142458e01afcbb418f3633727639b5ae22374b",
        "ee917d6bda6bf2164438366bcafbb0b39e8efb0fb9ff40c8faeb5a132bf73044"],
    "copresheaf_terminal_5": [
        "732b99bc172aa3e641475e775428e6ae587cd0802c125750d031d08c25ddf8a7",
        "89b602594129beff7c5b72484f27b4a15735996edc7684de0c3f64fd9c1775a6",
        "678828aac75d372d6e395e96fa43f0477ffe6c2e6012222dd2df335f8dd3cf0a",
        "2c071b8ad324a49388127cb2fb94ad4394d62bf1b76fc9c02521bd5e4a329cb1"],
    "copresheaf_walking_loose_0": [
        "4b9f37b13bedfbdbcc62ec016e20fe46a02ad966edb7c1d3604b5a8fbaba74f4",
        "a9a7b7f71583e13a930e79d8e00649833a063b29e80854452d7b2ec6f0e9ee28",
        "12f31bc2daeb56d7ebdac7d19a445ca514c1f32a0fc6abc91da1384b8d484c39",
        "9d60cb0c377a206ab63ce5592ad558d418e562f6d9d0ac93dac06013a0d63747"],
    "copresheaf_walking_loose_1": [
        "a729eaad85edcf1b12420075c785e1ebd1a4a5f228fc37456948a5422d529927",
        "c5a68bf06ba518b76f2b170bf815637c674716dacabcb7f1307db2101d013077",
        "ca13007a83babb0ce24c18d83ec254b343840ee05a365d1990aeeacd6a9730b1",
        "328041bc5e28acabef6f94adcd30fe14e5cd1dda10ffdec19ca9ae6c3871d944"],
    "copresheaf_walking_loose_2": [
        "35f74bd4c32c768972085c52ad03d88007c8a30968fe29de0b462871f529a808",
        "5848dcd0e26a5522c99bfbcea499bba2b0969e0f33c117551c9e78b5701cd8bd",
        "5e4f989dbf8af74802f394c2edb6b8d81b114e141329b9bafd4181887ef325a8",
        "86437199140ad6690f12c18389d3172abbf7b8d7774e49facd7b61f0057f525b"],
    "copresheaf_walking_square_10": [
        "13b4e2a79818db786b286f7605a9bd570d113d5530e5e1ea0d7c1a884017a5de",
        "dcc035e57e8ab7b7a1f1dcd0f85613d0f58a01959d8a1a82a117c86523247849",
        "f5acbaed3cea10c41158e84ae89b9ab8a9e68d9334e98682d813e344bf57ac4a",
        "13307b4b535cb8c071dcd3875a0e7c8e80014428200cbdb18de5e2e9d36e4bb1"],
    "copresheaf_walking_square_11": [
        "05596ee2d088f726e4579bc8071d3cebe90c9cdedcbf42ed999338236904ffa2",
        "b3cf23b808b36e116edf0dae2b94b583a6baa5544446b0222f2178f2c588edfe",
        "c7489f872ddf54e6925575b32b161b9b5e813b3ebeced1e685e1eddd9bc1e30c",
        "8dd5350350fe75956eee2c2e4c1c4814b855ea803f781acc21c2f1dbcc57574a"],
    "copresheaf_walking_square_9": [
        "03a436dc5f57967a549824607e58e39b07e11068c9fdbb004907b1bdf2d8b640",
        "e7bdad2052ab65faa9138fbec15a2488fdb2ff4c1f29af90fd11c750178684c8",
        "47ef51b5c7a931621b66766d76c36250ea06868f56274e82fe4e5e3fb3d7918e",
        "6a730b70bcafd58a96b0c3270768637b39f6d9d5d4f13bef13ad8fc6c2369c9e"],
    "copresheaf_walking_tight_6": [
        "271e0a1496218a098bd83816964070c77edffc1226b69438170f6b01fb1ca304",
        "7aeda2902fd5b699c7dcbaac9ab5119d44952f9df8c96b7ef6c31159d047a730",
        "54f49bda958820805e09ac3490c098d92fa8e2b63d6cf45b4a06ce1ad7db87f2",
        "917fa47fdc530e70ff9312d1f5661c07d495acdd197d5fd8ff716eb017f76d4c"],
    "copresheaf_walking_tight_7": [
        "c94dd1d4ecb53562b8557ce3b9b66e26e73169ca2544cd847593fb710322ad8c",
        "5a0ef4f74d9ca5a78d7cafad83610dc0d4893558f141f999e49ff7d0a82bfd10",
        "d87c10f50e5e2f50ec36b6460aa6f51975b3c7ff18c29bd886a66b7e50db9c5c",
        "22d96a293b1467517dad669b915dc8b474dbd80440d01648b832f1b17b3bad92"],
    "copresheaf_walking_tight_8": [
        "96120387d22339e41f4168d93b127c46d36b38cc608346160fbf727ff037f1a9",
        "8ce63b063f59b512490a12dc668d7800d817b1e05f1249c63ee084cb33f9d3fc",
        "805f367f7b4f3cc498b49544f13e553aa44ac0566b5a354664dc1ad6fad4a751",
        "06be7afe61d2b9b94380b22394da15b81d97fbfdd80d68a6578b3b0a7366baf0"],
    "flatten_cartesian_prom_trunc_0": [
        13,
        "bfbf30b3ea10c22ccad7714aa972d9f061048a2cd2e43129a485561cf0c260d0",
        "b22c3a93568722eab45d367a33f540159d7856eda97f18c9fd8ff7e040a5d10b"],
    "flatten_cartesian_prom_trunc_1": [
        56,
        "70a6038ed47981e16cd35db1d0abe47c94d5a919179baaa497577350b44ce8c7",
        "9ec7571074706b584dd5d2cb2a86b94c2c58b01ef9106ea612faed0aa1f729bd"],
    "flatten_cartesian_prom_trunc_2": [
        913,
        "297da43fb5db555360b8e321fbc7cf133f54a835f2def79ce8b1fdeae35f2672",
        "507ea720b9c07e6ff3cd879fc047e7e027de14926a2c31562f46bc3e1e8d1874"],
    "flatten_cartesian_sq_finset_op_0": [
        13,
        "c8bd4b7b911ef48fffd684ea09a5bfaf26d54f2cbe1844666497ae5979a968bd",
        "5fe743c43846fb83c8f5cac2ffe93ace9cccdf608f5492bc5be8e2f41eb090fa"],
    "flatten_cartesian_sq_finset_op_1": [
        60,
        "cb6b889743e489c537b9e36ed235eeaa028d5c499ac980cf1ae88a010ea5916b",
        "d56d0fc0bfb9955441aaa16e98dac51c685e9a3f08fc3811f1d0c74d2c7a6b09"],
    "flatten_cartesian_sq_finset_op_2": [
        7705,
        "9c0a9478b0743a14e76146169bd1db50e2745a0ef5fa3021e28f09b70c86e0b8",
        "efdc3f9e5b57fd2cb2fd4b3d496b3bb3fd1f6be49d7fb4c8df244c4e3b663a21"],
    "flatten_involution_cell": [
        17,
        "f8f95912ec8c44cd83e25f3d59e87e43dba71ee1269ed6a35d61282db897b58f",
        "281fd2190100185192e29e3990e04063b308c0b6de5d9b3c8f15866a786223ac"],
    "flatten_monad_trunc_0": [
        13,
        "a6cb1b8699fca221c1eee507f7bc04feeba89ce6342dc10de709ba8f496a36a6",
        "23d249bb3c2ce0e22a6cb397916ee3a0f0c96d258c8cca9a97d134e40471d1ee"],
    "flatten_monad_trunc_1": [
        19,
        "f5c66d17d454a527f7fd58265f4e93fef1c04cd3bd2348c72b82b9439f2d1dc8",
        "eb0b82b435bca558a17d07237f5ad7d27c8cc6f95a022ede8a9e7f1f3ec5e7dc"],
    "flatten_monad_trunc_2": [
        59,
        "afbe05d87a620b9a9a2b89a3131b64eb953255b061274a3ec9a2e8102b157eff",
        "994bf3a3ba06b1b1e9eaa4baceab1966cc52f2f599a0970d5702ebf903528eaa"],
    "flatten_prom_trunc_0": [
        13,
        "bfbf30b3ea10c22ccad7714aa972d9f061048a2cd2e43129a485561cf0c260d0",
        "081f451b5be3dd61136fe490f8561708f15b27fc7cd8dc6fdb6d098a28040e66"],
    "flatten_prom_trunc_1": [
        56,
        "70a6038ed47981e16cd35db1d0abe47c94d5a919179baaa497577350b44ce8c7",
        "16244b03cb6cb0f0d47b07e8c7369bfe9d8af8cd48adc1347ce261a119297f85"],
    "flatten_prom_trunc_2": [
        913,
        "297da43fb5db555360b8e321fbc7cf133f54a835f2def79ce8b1fdeae35f2672",
        "a8ffca9ceeca5035d4c7ae8d08822da320b2027741577d71613dfb53d94374a3"],
    "flatten_signed": [
        57,
        "80ed64409af28c78578e359bb1a6782219979b552ad1eb8e190fdfcdb29096b2",
        "f24dcd83df992ebf63c4e1bcee32067e7567c8be12701058d5eaf18c11b5e082"],
    "flatten_sq_finset_op_0": [
        13,
        "c8bd4b7b911ef48fffd684ea09a5bfaf26d54f2cbe1844666497ae5979a968bd",
        "0804d14cc5a6763e1d79da1224eddb6a11375b6e7d159fc9da4de4b8e455fc69"],
    "flatten_sq_finset_op_1": [
        60,
        "cb6b889743e489c537b9e36ed235eeaa028d5c499ac980cf1ae88a010ea5916b",
        "48432b6f246fd3f3299cc6372f6999e2b350e8efa5197b2cbfb56eab40d4e54c"],
    "flatten_sq_finset_op_2": [
        7705,
        "9c0a9478b0743a14e76146169bd1db50e2745a0ef5fa3021e28f09b70c86e0b8",
        "787074698d6e135bfc3a0617d0c6f60538991d395b574619f52a2632c4cf6b8a"],
    "flatten_terminal": [
        13,
        "5ddd0db9ae2ebf26296bd26a212c9e64ed7ad50a452e1d4c49624435e2ecfee0",
        "31223c4d1452107484982a8e2feb194293d3570fafa8cc6bd170d65ec432ac0f"],
    "flatten_walking_loose": [
        50,
        "8abb36fea6a0aef4aab806b1a9b7446e2b48148e5d1dbe5634e440bc627c97b0",
        "8910ea5d6631e48117e2315e1f1d70b7b5cd6d1542a2f39fc78f52beea079e45"],
    "flatten_walking_square": [
        109,
        "4051aeaeb57741e49ef186e15ae468f1bab04524838d66eca1f4783fae62f52c",
        "61d4afbb969bc1d7adb47acd011c8eb5bd0c9853cc570919562123647954aa49"],
    "flatten_walking_tight": [
        29,
        "74d441e2f946d7cea8b83c1ef97b69cf412c0adf769a8f96619a56d8e87fe9eb",
        "b92c7b92cc4d4214c742fa5d4b606089c7726befc8ddc2b2af17ad6ea7fd027c"],
    "generator_map_cyclic_quotient": [
        4,
        "01fce11f04ed700b42fa45f5b9cafaef0ad4eadca49bdd6037338d9f5b9970d7"],
    "generator_map_fold": [
        5,
        "15caad11b345291621984c780b7b484eeb4c8e754982b022567f2810f514b224"],
    "generator_map_tight_fold": [
        5,
        "586b685b8df0a5e033895fd4a6fd99487bd2aeeb2601164953cd01a1c9331d28"],
    "generator_map_to_terminal": [
        4,
        "3a7ffcf5138f87d4c35ae6ded4ef0d1a93e5081836617a5caf0359e0529635c5"],
    "reflect_cyclic_quotient": [
        "65a75fa9b489133b591932306d8f31ca2938e95a72c26fa913f349258dec88e7",
        "674b95b6a994d5fb71ab51885c14797ccbe68439ecabc0b632e2435a5fd3973a"],
    "reflect_fold": [
        "d7dd1dd08d83ea50d6ae8d3a9c8517f3bb06b8b3c35beeda5b79c1888995d2a8",
        "0f22aeb7dff856c005f7d38a21f8cd8cffeac35744c7e5d7a77634a7a3a3a3bb"],
    "reflect_tight_fold": [
        "e61936e410fa7a65778a7f1bbf8eb7815f829d8fd390ad72a8f056f59a66ab3f",
        "3970b6626a43011fc6f9efe999e2c174b460756ec9ce22e38f947a7de93fc2e8"],
    "reflect_to_terminal": [
        "898be0e8fde94ac1bab037085c28b11e7de7819cda8032673ed9cb4d8eb257c8",
        "18ef269fcf0b9af1ff1533fe76df57087d1bd4b79136f64958749e883185d15c"],
    "sketch_model_multicategory_join": [
        913,
        "cc8faedeb1c0bf1500de765f30871e13e203dc2e1445c9546235ad3ae0815f42"],
    "sketch_model_multicategory_terminal": [
        913,
        "d0a3813643dee191ba2f95462b90353b4757dc94171aa4b5e6a4f6dfd9837575"],
    "sketch_model_multicategory_two_object": [
        913,
        "7d861f2afd4e79ad6b2c46415c2cfa80a32c8046f4e0a408cc538e9a36acd9a8"],
    "sketch_model_signed_12": [
        57,
        "76988e065bca7d2587f903b632ee20d5ac2725ace53b90517f258681ecb3ac8f"],
    "sketch_model_signed_13": [
        57,
        "0645e2c0d96ccddda1fbd373e476b3557846d0a27e5ad2c1e6b51f087b5936b6"],
    "sketch_model_signed_14": [
        57,
        "a9664b96435a7050e969640410bdb8a35d6953552028e0247b55e61abd5729d4"],
    "sketch_model_terminal_3": [
        13,
        "718bfa7b0ba97aac1cfde3dd74c618fa9c57c38bf32fc45939e6d29d14b53f77"],
    "sketch_model_terminal_4": [
        13,
        "34e573329e304cbeb101caedb5b9b61177605c91fd9af91df3e8ac76cca0f383"],
    "sketch_model_terminal_5": [
        13,
        "e4b90c5cad46db585b700d7d34184a5cc494d0c7a1093b917f91f2a92678f20b"],
    "sketch_model_walking_loose_0": [
        50,
        "bf38de99b10199b1c05a561a92c7377b2163fe48f564cdfff00e72d8f0bc395c"],
    "sketch_model_walking_loose_1": [
        50,
        "7f25fe7f039e3544813d16c602aaa61d0b2d6af6d508098f2087fb023e010472"],
    "sketch_model_walking_loose_2": [
        50,
        "cf054ee6fe30c5de803517af2e966bfd5cf51b2bbcdafc5c9ab1ea939f1d616e"],
    "sketch_model_walking_square_10": [
        109,
        "5ccc37f1e3768d1039dadba39866d1fecee34792089401b133ae2bdd1c793262"],
    "sketch_model_walking_square_11": [
        109,
        "b4bd8e60440529b8e7089e4ff9075f28877ce76306715741065a1539143ca62a"],
    "sketch_model_walking_square_9": [
        109,
        "1c4a0b15b06b2abdbce24e0438098228bd460cfbc88f44c53e64782fc40b96cf"],
    "sketch_model_walking_tight_6": [
        29,
        "0d519b5191202917138a82bc9be63cdf05cf4e093b8af4d2d922d6164362f5e3"],
    "sketch_model_walking_tight_7": [
        29,
        "47df65ce45b121fc1764843cda4c425d7dd5741b371d9cc94ef77ab64d51e463"],
    "sketch_model_walking_tight_8": [
        29,
        "bc280b4da38ec75f05d49578d39d5982ca5e02d8d592554b9005466835b723c6"],
}



@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_naming_matches_golden(name):
    assert golden_cases()[name]() == GOLDEN[name]
