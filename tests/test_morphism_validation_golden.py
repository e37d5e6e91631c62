"""Golden morphism validation: the reports of valid and corrupted model
and instance morphisms, pinned in order.

Model morphisms, for each theory of the standard instance corpus (its
signed models included) and for the codiscrete monad model: the
identity of every model, its map to the terminal model, the first three
morphisms between each ordered pair of models of one theory, and the
``elements`` projection of every instance.  Instance morphisms, for
each corpus entry and for the monad fixture: the identity of every
instance and the first three morphisms between each ordered pair of
its instances.

Each morphism is validated as it is and in four seeded corruptions:
one, two and three table entries rewritten to another element of the
target, and one entry dropped.  A case records the line count of each
of the five reports and a sha256 of the JSON list of all five, so any
change to what the validators check, to the order they report in, or
to the wording of a line shows up here.
"""

import functools
import hashlib
import itertools
import json
import random

import pytest

from dblinst.elements import elements
from dblinst.finset import inverse_table
from dblinst.fixtures import (monad_instance_fixture, standard_instance_corpus,
                              tautological_instance)
from dblinst.instance import (InstanceMorphism, enumerate_instance_morphisms,
                              identity_instance_morphism,
                              validate_instance_morphism)
from dblinst.model import (ModelMorphism, enumerate_model_morphisms,
                           find_model_isomorphism, identity_morphism,
                           terminal_model, validate_model_morphism)


def digest(doc):
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def variants(tables, targets, seed):
    """The component tables as they are, with one, two and three
    entries rewritten, and with one entry dropped.  ``tables`` and
    ``targets`` are keyed alike: a table and the elements its entries
    may be rewritten to."""
    entries = [(c, k) for c, tab in tables.items() for k in tab]
    rng = random.Random(seed)
    out = [tables]
    for n in (1, 2, 3):
        new = {c: dict(tab) for c, tab in tables.items()}
        for c, k in rng.sample(entries, min(n, len(entries))):
            others = [v for v in targets[c] if v != new[c][k]]
            if others:
                new[c][k] = rng.choice(others)
        out.append(new)
    new = {c: dict(tab) for c, tab in tables.items()}
    if entries:
        c, k = rng.choice(entries)
        del new[c][k]
    out.append(new)
    return out


def pinned(reports):
    return [[len(r) for r in reports], digest(reports)]


def model_morphism_golden(f, seed):
    a, b = f.source, f.target
    tables = {("ob", d): tab for d, tab in f.on_objects.items()}
    tables.update({("lo", m): tab for m, tab in f.on_loose.items()})
    targets = {("ob", d): list(b.on_objects[d]) for d in f.on_objects}
    targets.update({("lo", m): list(b.on_loose[m].apex) for m in f.on_loose})
    reports = []
    for tabs in variants(tables, targets, seed):
        g = ModelMorphism(
            a, b, {d: tabs[("ob", d)] for d in f.on_objects},
            {m: tabs[("lo", m)] for m in f.on_loose})
        reports.append(validate_model_morphism(g))
    return pinned(reports)


def instance_morphism_golden(mu, seed):
    h, k = mu.source, mu.target
    targets = {d: list(k.carriers[d]) for d in mu.components}
    return pinned([
        validate_instance_morphism(InstanceMorphism(h, k, tabs))
        for tabs in variants(mu.components, targets, seed)])


def to_terminal(x):
    y = terminal_model(x.theory)
    return ModelMorphism(
        x, y, {d: {e: "*" for e in s} for d, s in x.on_objects.items()},
        {m: {xi: "*" for xi in sp.apex} for m, sp in x.on_loose.items()})


@functools.lru_cache(maxsize=None)
def _groups():
    """(name, models, instances per model) for each theory group."""
    groups = {}
    for name, x, instances in standard_instance_corpus():
        models, insts = groups.setdefault(name, ([], []))
        models.append(x)
        insts.append(instances)
    x, h = monad_instance_fixture()
    groups["monad"] = ([x], [[h, tautological_instance(x)]])
    return groups


def _model_morphisms():
    for name, (models, insts) in _groups().items():
        for i, x in enumerate(models):
            yield "{}_{}_identity".format(name, i), identity_morphism(x)
            yield "{}_{}_terminal".format(name, i), to_terminal(x)
            for j, h in enumerate(insts[i]):
                yield ("{}_{}_elements_{}".format(name, i, j),
                       elements(h)[1])
        for (i, x), (j, y) in itertools.product(enumerate(models), repeat=2):
            for r, f in enumerate(enumerate_model_morphisms(x, y)[:3]):
                yield "{}_{}_{}_{}".format(name, i, j, r), f


def _instance_morphisms():
    for name, (_, insts) in _groups().items():
        for c, instances in enumerate(insts):
            for i, h in enumerate(instances):
                yield ("{}_{}_{}_identity".format(name, c, i),
                       identity_instance_morphism(h))
            for (i, h), (j, k) in itertools.product(enumerate(instances),
                                                    repeat=2):
                for r, mu in enumerate(enumerate_instance_morphisms(h, k)[:3]):
                    yield "{}_{}_{}_{}_{}".format(name, c, i, j, r), mu


@functools.lru_cache(maxsize=None)
def computed():
    out = {"model_" + case: model_morphism_golden(f, case)
           for case, f in _model_morphisms()}
    out.update({"instance_" + case: instance_morphism_golden(mu, case)
                for case, mu in _instance_morphisms()})
    return out


GOLDEN = {
    'model_walking_loose_0_identity':
        [[0, 3, 0, 4, 1], 'f75e213e7f2f025f5ffaa938331d963ac948a2e19945599616aec7084fb30b6c'],
    'model_walking_loose_0_terminal':
        [[0, 0, 0, 0, 1], '0e6d7d551578d67d8c39b791ed19fe0500c475c87236a1c0cd21a18cf35641ae'],
    'model_walking_loose_0_elements_0':
        [[0, 3, 4, 4, 1], 'e28df51f48f565e5601d97fbd88cdc4b9911a77d489d2c4b7e7f2fe8f6c18def'],
    'model_walking_loose_0_elements_1':
        [[0, 0, 0, 3, 1], 'e7a10c114884bd7906a37602364e30a127e4a7ca8631bd3d266772934ffff48e'],
    'model_walking_loose_1_identity':
        [[0, 0, 2, 8, 1], '4b68239911657969d961044f684b37fe0181677b68dbe5a54a3a176d56fc861a'],
    'model_walking_loose_1_terminal':
        [[0, 0, 0, 0, 1], '0e6d7d551578d67d8c39b791ed19fe0500c475c87236a1c0cd21a18cf35641ae'],
    'model_walking_loose_1_elements_0':
        [[0, 4, 4, 6, 1], 'a5fbcd2978383d31c4b43128255acc64217d947036eb8f9d86d4502a62a45f5a'],
    'model_walking_loose_1_elements_1':
        [[0, 2, 6, 2, 1], '1486cc760f91b51a89d05bdb566066bb5a3fc23829845138bf32bfd5236b48e1'],
    'model_walking_loose_2_identity':
        [[0, 0, 0, 0, 1], 'a8c4cb39ec68cb51f3b5bfadff6e26a704832253d41e1818a086ee04992ec294'],
    'model_walking_loose_2_terminal':
        [[0, 0, 0, 0, 1], '0e6d7d551578d67d8c39b791ed19fe0500c475c87236a1c0cd21a18cf35641ae'],
    'model_walking_loose_2_elements_0':
        [[0, 0, 0, 0, 1], '0e6d7d551578d67d8c39b791ed19fe0500c475c87236a1c0cd21a18cf35641ae'],
    'model_walking_loose_2_elements_1':
        [[0, 0, 0, 0, 1], '00d91f51e99a96c5659f4b61639355452e09a88bd5286da06f4c9d05b669cc04'],
    'model_walking_loose_0_0_0':
        [[0, 0, 0, 4, 1], '2e1967141c90fba38d3979f8e872a872dfd57830c2962b77fbe579b33ebe1a2b'],
    'model_walking_loose_0_0_1':
        [[0, 4, 3, 3, 1], '8fd751988d2ee27cfa0da9b077af1d55c0862fddd87c0027db32fa35302b68f6'],
    'model_walking_loose_0_1_0':
        [[0, 0, 7, 4, 1], '259ce336743d5f605b9076c72608092dbf0b05285bf4198df4d242208ed1e8a0'],
    'model_walking_loose_0_1_1':
        [[0, 3, 3, 2, 1], '709eed4fe4edfde9512caeb6a17027312bc9d6c4583de9bc06841d362a348107'],
    'model_walking_loose_0_1_2':
        [[0, 0, 4, 5, 1], '0d967a45b9da17c24ca500342e05d244a40971def80b328cbc72083c0526ca9a'],
    'model_walking_loose_1_0_0':
        [[0, 4, 0, 4, 1], '2da7dce59ba46506ce9a75d5c494c10bc3c780533fce309abee84021d7bf4b3f'],
    'model_walking_loose_1_1_0':
        [[0, 2, 2, 4, 1], '63cadeedb99c0d9f623a19790ed64e9d5aa754df4b7280fa20ebd3f2db736adb'],
    'model_walking_loose_1_1_1':
        [[0, 4, 2, 8, 1], '3c9bb80c768323713319a9d92a16dcca80ab7e74367eb67eb241598b6164f8b2'],
    'model_walking_loose_1_1_2':
        [[0, 4, 8, 0, 1], 'fbd42a8f8c7898a55904c5265fb8f16379117079745cf8ac855ebdcc346ebcf3'],
    'model_walking_loose_2_0_0':
        [[0, 0, 3, 3, 1], 'c10c67e263896bbef3b38ee6e80d9d814c95c3ee60710a01b163b172fe307243'],
    'model_walking_loose_2_0_1':
        [[0, 0, 0, 0, 1], '0e6d7d551578d67d8c39b791ed19fe0500c475c87236a1c0cd21a18cf35641ae'],
    'model_walking_loose_2_1_0':
        [[0, 0, 0, 3, 1], 'ef42ef3f87d2c8fdcd5e4f45de6aaebf7fb37611c2c2eb048dae1c11455f3a70'],
    'model_walking_loose_2_1_1':
        [[0, 0, 3, 0, 1], 'e357a38aeece0284a61aec6b2cf2d059be915c1134ad34a51818ec7c5dfb043e'],
    'model_walking_loose_2_2_0':
        [[0, 0, 0, 0, 1], '00d91f51e99a96c5659f4b61639355452e09a88bd5286da06f4c9d05b669cc04'],
    'model_terminal_0_identity':
        [[0, 0, 0, 0, 1], 'c9af7667ef3fc01c19e2b12ba7d88380d35552a10243d2a223357d3889e465f5'],
    'model_terminal_0_terminal':
        [[0, 0, 0, 0, 1], 'c9af7667ef3fc01c19e2b12ba7d88380d35552a10243d2a223357d3889e465f5'],
    'model_terminal_0_elements_0':
        [[0, 0, 0, 0, 1], '1fc49abc0ece7d0442d86b701a910c40f14c824dceca389bc0aceb55a50814f3'],
    'model_terminal_0_elements_1':
        [[0, 0, 0, 0, 1], '1fc49abc0ece7d0442d86b701a910c40f14c824dceca389bc0aceb55a50814f3'],
    'model_terminal_1_identity':
        [[0, 3, 0, 3, 1], 'c476959a0465df54b546536cbd700ca5e374d1f0d78e1331f16a66325b896023'],
    'model_terminal_1_terminal':
        [[0, 0, 0, 0, 1], 'c9af7667ef3fc01c19e2b12ba7d88380d35552a10243d2a223357d3889e465f5'],
    'model_terminal_1_elements_0':
        [[0, 3, 6, 3, 1], 'c7efbc20144b16d582af9bfabdbc774b6bde78cdf7e711c347040a6772de3f96'],
    'model_terminal_1_elements_1':
        [[0, 3, 0, 0, 1], '2de1f676b58b01d68dd4f67836c5aeab675cac2385fc28ef7619581265baf2ad'],
    'model_terminal_2_identity':
        [[0, 4, 8, 8, 1], '80d344c2535f781609b93e950cb6509914793f660204371ba5b971ab48adc33c'],
    'model_terminal_2_terminal':
        [[0, 0, 0, 0, 1], 'c9af7667ef3fc01c19e2b12ba7d88380d35552a10243d2a223357d3889e465f5'],
    'model_terminal_2_elements_0':
        [[0, 4, 4, 9, 1], 'fa67d1b8043349c738ba395b33ba17b1ac78932fe08c6db1a7a912c440c0dc4d'],
    'model_terminal_2_elements_1':
        [[0, 4, 8, 6, 1], '9c2560e863841071571dc8aa20ffb2187639f4e61e0f051455400d034a39defa'],
    'model_terminal_0_0_0':
        [[0, 0, 0, 0, 1], 'c9af7667ef3fc01c19e2b12ba7d88380d35552a10243d2a223357d3889e465f5'],
    'model_terminal_0_1_0':
        [[0, 3, 0, 0, 1], '85d50af2ce19b46fe6bc1c6c4b38cebff803051ab02762e01390e8ce58199d34'],
    'model_terminal_0_1_1':
        [[0, 3, 0, 0, 1], '49beeb5006d7a6b6e6a9cf1c43cf3cb572c9a23bc388ada7a439e329d87651d7'],
    'model_terminal_0_2_0':
        [[0, 3, 0, 3, 1], 'adb085d03445bf0ed4671092985a7b62172c0ab8d775586f7ff1bc37bb80c633'],
    'model_terminal_0_2_1':
        [[0, 3, 0, 0, 1], '49beeb5006d7a6b6e6a9cf1c43cf3cb572c9a23bc388ada7a439e329d87651d7'],
    'model_terminal_1_0_0':
        [[0, 0, 0, 0, 1], 'c9af7667ef3fc01c19e2b12ba7d88380d35552a10243d2a223357d3889e465f5'],
    'model_terminal_1_1_0':
        [[0, 3, 6, 3, 1], '7e5fc3e2b822ab5bf90acb2c043154aa17ac24411ab32b6108396607bd5c6908'],
    'model_terminal_1_1_1':
        [[0, 3, 0, 3, 1], '8be02f11bf109b8bf880fff182d4af724beb5f26f27b26b03f90c47c5a8ab392'],
    'model_terminal_1_1_2':
        [[0, 3, 0, 3, 1], '222f7e763e5369ba14e74975f1a3d547e1ae9f1d6685a42ffe71a99960d4b3f8'],
    'model_terminal_1_2_0':
        [[0, 3, 0, 6, 1], '2ab6cd543ac11b8a5e3e5526d2d8e08abfc39b5ed2018eebd656766eeaccc8a1'],
    'model_terminal_1_2_1':
        [[0, 3, 3, 6, 1], '609071fbdc033eb54760d4a6c20bccb352a8cb5de022dabcb1531474d35de8d6'],
    'model_terminal_1_2_2':
        [[0, 3, 6, 6, 1], 'd3aab4dbb0569d9897b2f66491e71c33d8f14c4a0782bbba0c66c5fc10a2739c'],
    'model_terminal_2_0_0':
        [[0, 0, 0, 0, 1], 'c9af7667ef3fc01c19e2b12ba7d88380d35552a10243d2a223357d3889e465f5'],
    'model_terminal_2_1_0':
        [[0, 4, 8, 8, 1], '75577ad33b103b031fa855d072e1bb79b5f934475f9e95253b0e7f34003142fa'],
    'model_terminal_2_1_1':
        [[0, 4, 6, 8, 1], 'af029084cff6882fd13c6bdf1903cfadfa75383fdce588032bde2edd562a8e61'],
    'model_terminal_2_2_0':
        [[0, 4, 5, 4, 1], '23bc7dece34d2529b716651303aef008b215ebe5631e551189ddf5e308bf8972'],
    'model_terminal_2_2_1':
        [[0, 4, 4, 6, 1], 'c21fa11e3e9e78040757c77c74d600518f147d221f2ce006653daeae0aa40a3a'],
    'model_terminal_2_2_2':
        [[0, 4, 5, 8, 1], 'e44722a292ae93562a7863581cf139418a09418b4f3bdf300672490b5660d11a'],
    'model_walking_tight_0_identity':
        [[0, 3, 3, 0, 1], '8af8a84d2d7b13bcb6d86599b3017b8d4e01335f79abff3ffcbb5e9e9a2c182b'],
    'model_walking_tight_0_terminal':
        [[0, 0, 0, 0, 1], 'ab06c924dca6048c62cd62f0b48654d1a444019078c8e70558a25efd83442571'],
    'model_walking_tight_0_elements_0':
        [[0, 3, 3, 3, 1], '3dd3aabb883d39655a3d51b474ff4b14c819fc509ff3eff16c96513b4a725d9f'],
    'model_walking_tight_0_elements_1':
        [[0, 3, 3, 3, 1], 'f59f016a4a76c4e220473c08969056f549aa0f83217b7d95d592d514f898a121'],
    'model_walking_tight_1_identity':
        [[0, 4, 7, 7, 1], 'd66bafe96a0e96df8676dca8e3e5c470f787ad3f452a2dd69ffd00065decf8eb'],
    'model_walking_tight_1_terminal':
        [[0, 0, 0, 0, 1], 'ae555beec3822d907e9c8719489120c37f04423fabd2db0e5cc9ad41f1ee9779'],
    'model_walking_tight_1_elements_0':
        [[0, 4, 0, 7, 1], '43d21fbc337bb0beeb4a6184e8cee522f65c71f0dcbe940dee65baa9e6f98194'],
    'model_walking_tight_1_elements_1':
        [[0, 0, 7, 10, 1], '64e1d50a156f3348743276f80fbebf1e371e6528749fbcff8f9248dadfff9a65'],
    'model_walking_tight_2_identity':
        [[0, 4, 8, 10, 1], 'b7451a80762bc14229dd613efcab297895a546b43bcc2bb2c1b1445477ea2ece'],
    'model_walking_tight_2_terminal':
        [[0, 0, 0, 0, 1], 'd5a97f8285f5036add66a290bf52eaab59f8e833d92ed3300447dade0dda9152'],
    'model_walking_tight_2_elements_0':
        [[0, 4, 8, 11, 1], '82dcddc94b14d5e37f9f33aab71470aa7ea33d6c569bb3d36ca8be24f6974c59'],
    'model_walking_tight_2_elements_1':
        [[0, 4, 8, 10, 1], '9354ea0728b135fdf48082b09038501a359f1b0a82da885b786ff8a62a7ec68c'],
    'model_walking_tight_0_0_0':
        [[0, 3, 6, 3, 1], 'f2f6edb27e28978b9cf4df9d4c634b26399b9728c7784caf4093b69dd6a427c4'],
    'model_walking_tight_0_0_1':
        [[0, 3, 0, 0, 1], '6886eba1c0a57da1f560fac4a2a5ace8ad64b1cfcc2840b4209561387adf8101'],
    'model_walking_tight_0_0_2':
        [[0, 0, 3, 3, 1], '0c3ae97a04460c25559824652e888f2a6d64b50098f48f7c185cb419ca242e45'],
    'model_walking_tight_0_1_0':
        [[0, 4, 0, 5, 1], 'a114abe561a0708cc8d49ad558352c38736ab8c5d3be2b1bcd5d64f0d6fc1d0d'],
    'model_walking_tight_0_2_0':
        [[0, 4, 2, 5, 1], 'b19dadc84afd4a33d6a0280b4122ab29a74730b103c74d284056dbdd0d707422'],
    'model_walking_tight_0_2_1':
        [[0, 4, 9, 5, 1], '4b19837f32e1a5ab4379c4f5f6663709822760e6a21530eefb5335d51fcc6c7b'],
    'model_walking_tight_1_0_0':
        [[0, 0, 3, 3, 1], '8ad718b3c5b0051976c9905d7625595af5c7855ee44ea976e7a22f6ad76931e0'],
    'model_walking_tight_1_0_1':
        [[0, 0, 3, 3, 1], '8ad718b3c5b0051976c9905d7625595af5c7855ee44ea976e7a22f6ad76931e0'],
    'model_walking_tight_1_1_0':
        [[0, 3, 3, 5, 1], '12289b699ee14d620764f5be8e377ded567c89ded63f3ed0f9e98757bd129885'],
    'model_walking_tight_1_1_1':
        [[0, 0, 7, 7, 1], 'bef033570e07ce8695aa213faa66132ec00e8e89b44f1aa0530379638d0d4de6'],
    'model_walking_tight_1_2_0':
        [[0, 4, 2, 11, 1], '34cf3790926fd9c8f25f266c91217135817ac19826793c07419d1b27378eea3c'],
    'model_walking_tight_1_2_1':
        [[0, 4, 8, 4, 1], '2c9115ba3308e15404f88067577d4ef235228fb39ecbcf87905ac26aca22f8ee'],
    'model_walking_tight_1_2_2':
        [[0, 4, 0, 5, 1], 'f8a847b25bb22a27baf34d6d586010a7864a014e6d9be0c063e8d44b3cb1b3f7'],
    'model_walking_tight_2_0_0':
        [[0, 0, 0, 0, 1], 'ab06c924dca6048c62cd62f0b48654d1a444019078c8e70558a25efd83442571'],
    'model_walking_tight_2_0_1':
        [[0, 0, 3, 3, 1], '8ad718b3c5b0051976c9905d7625595af5c7855ee44ea976e7a22f6ad76931e0'],
    'model_walking_tight_2_0_2':
        [[0, 0, 3, 3, 1], '29c85d79fe48cec629d45acc2143ffb49fecda8a0c01e6336007f8434e9f017a'],
    'model_walking_tight_2_1_0':
        [[0, 4, 8, 7, 1], 'ceeca7269d4b1c69d35634bc4fe169d2639c6d373412cd22ebb7d59e1ddae8e9'],
    'model_walking_tight_2_2_0':
        [[0, 4, 6, 10, 1], 'a27aa3c9316ea17d05de4c9910b19584a488befa2747922d975a32d64ab1a39a'],
    'model_walking_tight_2_2_1':
        [[0, 4, 2, 12, 1], '8ff6388b004ce40c6adf1ab6295f9daa373b5dbfc48f3dd600254478c30c3867'],
    'model_walking_tight_2_2_2':
        [[0, 4, 8, 10, 1], 'bc0448266ada431ae910b4d8b4bacf3eb432d00d11580d3b7a5c35201755e4d8'],
    'model_walking_square_0_identity':
        [[0, 0, 0, 0, 1], '685c7bd927c558cefe526a83765e2ebb962ddaa1cfed7db70ede6f52a9ed2ada'],
    'model_walking_square_0_terminal':
        [[0, 0, 0, 0, 1], 'fe962af89841c5338bed14f72c47febfde812741bf43b3a91ca9cc2422477d70'],
    'model_walking_square_0_elements_0':
        [[0, 0, 0, 0, 1], 'cb7652ba36f924c3a98202c7ed2e833a643b87e2e10148229bf2eae412a0d8ae'],
    'model_walking_square_0_elements_1':
        [[0, 0, 0, 0, 1], 'ffc39a26e36c95cd89574fb607f5c5215be253a6620c9962803868c92eaefb64'],
    'model_walking_square_1_identity':
        [[0, 4, 2, 0, 1], '80df1b80ab4af8148850c0806dfcb6c15ccc6a6bd21631731c3bb4f911223644'],
    'model_walking_square_1_terminal':
        [[0, 0, 0, 0, 1], 'ac432e3f98c18a5f7f4b65ec2908539fa09c9c0b190a8d00d0219c2ce7b522bd'],
    'model_walking_square_1_elements_0':
        [[0, 4, 6, 6, 1], '31234bbba714d1a5e82ed1e39819eac9dcc55f10a5cb6c12f1f33821da063dd2'],
    'model_walking_square_1_elements_1':
        [[0, 0, 2, 6, 1], 'ff2598461de6e31c51e4aab3a3246ad9f02685c3c661df5f5ace9f1de90f6774'],
    'model_walking_square_2_identity':
        [[0, 0, 2, 5, 1], 'bc3913807dcd60a8358ea7abeab1f31ae1841d41af02461035ed9b86a5232643'],
    'model_walking_square_2_terminal':
        [[0, 0, 0, 0, 1], '68a04fd493c122a00ffddd33192e9071d195fa3fbd6d918bf563659ebf24d6bc'],
    'model_walking_square_2_elements_0':
        [[0, 5, 0, 5, 1], '08e89e9d75dc1552df311fdabd2c0ec060b136a23517e421139a0ee39f686432'],
    'model_walking_square_2_elements_1':
        [[0, 0, 5, 9, 1], '6496b4f7e0f236714922d9783f9608ab9d031c43b073f792aa96e84fd0754e89'],
    'model_walking_square_0_0_0':
        [[0, 0, 0, 0, 1], 'fe962af89841c5338bed14f72c47febfde812741bf43b3a91ca9cc2422477d70'],
    'model_walking_square_0_1_0':
        [[0, 0, 2, 2, 1], '342d08e958e9b0d3d22a05b80fc7d91203080874ef3f319b7c6b3d910c14ce8d'],
    'model_walking_square_0_1_1':
        [[0, 0, 0, 0, 1], '929f2dd1658b62fcdfc7ee2df3320d15b33526648daa129553da05b37deec11e'],
    'model_walking_square_0_2_0':
        [[0, 0, 5, 0, 1], '41e88fb9b2eecb21ddceceaedff343cd2eaf58792b9ef29734835b2d2a03fe78'],
    'model_walking_square_1_0_0':
        [[0, 0, 0, 0, 1], '929f2dd1658b62fcdfc7ee2df3320d15b33526648daa129553da05b37deec11e'],
    'model_walking_square_1_1_0':
        [[0, 0, 4, 4, 1], 'd062ec22997281c04d3d05b4f6457a07227fe93ca3b05c05454443ca9fbf8579'],
    'model_walking_square_1_1_1':
        [[0, 4, 4, 2, 1], '2b770bf703cfe5c14ed7bd2d1f5f2ec973de14fc3b76ae8ae70a5293d4c90435'],
    'model_walking_square_1_1_2':
        [[0, 2, 4, 4, 1], 'b6b9d77984ea466d4507100eb5c377569402218ad52f9b3334e2d7774bd5b1c0'],
    'model_walking_square_1_2_0':
        [[0, 5, 0, 0, 1], '4b4ccb96978673679e4c2521f3d122c0bcbf57d00ccdd3e6ccb79126438d6697'],
    'model_walking_square_2_0_0':
        [[0, 0, 0, 0, 1], 'cb7652ba36f924c3a98202c7ed2e833a643b87e2e10148229bf2eae412a0d8ae'],
    'model_walking_square_2_1_0':
        [[0, 0, 0, 0, 1], 'fe962af89841c5338bed14f72c47febfde812741bf43b3a91ca9cc2422477d70'],
    'model_walking_square_2_1_1':
        [[0, 0, 4, 4, 1], '188405f02934883de2939c72b23dc7e6f67edd364f716496361a0a7d35aeabce'],
    'model_walking_square_2_2_0':
        [[0, 0, 4, 7, 1], '4d14b31c841ce0bce2cc4ead3342e152784a4e82585f27d670cca2af91a60742'],
    'model_walking_square_2_2_1':
        [[0, 4, 0, 3, 1], '984680bae1b1af97f70447d344f4cb1c3a4b8ae1c7c98a43efc4cf2811d2aa6f'],
    'model_signed_0_identity':
        [[0, 7, 14, 25, 1], '981fa139ead7a4b8339778925c9a4aaba842dbbe4f0d75d1decee9cb86fffe2d'],
    'model_signed_0_terminal':
        [[0, 0, 0, 0, 1], 'ccc41ff96f37605e1d6140de0612308a30aa7afdc56623a44dd5ee14921303de'],
    'model_signed_0_elements_0':
        [[0, 7, 19, 19, 1], '98f9af95f4d79b5eec8f0f8b30f62d63cfccdfcc30573e6e51fba84152e3d1cd'],
    'model_signed_0_elements_1':
        [[0, 8, 14, 26, 1], '3264dc5e7a68ed5e41779e0455f2c51f4aacf3f1f4426fb895264f2304a3146c'],
    'model_signed_1_identity':
        [[0, 6, 15, 18, 1], '9d2a87a96c2cac7b17cf3af84a8eb1e6a31b46a482204baa91ae8cb28198e357'],
    'model_signed_1_terminal':
        [[0, 0, 0, 0, 1], 'c9af7667ef3fc01c19e2b12ba7d88380d35552a10243d2a223357d3889e465f5'],
    'model_signed_1_elements_0':
        [[0, 10, 15, 19, 1], '014e872b769b9aa0de562fd45f408c4113be9eb980f423d790d5e6ee254cd228'],
    'model_signed_1_elements_1':
        [[0, 8, 13, 18, 1], '3a9ac2c10a45c8a453c0ebce7b7706ce9bffebcc1ccb7f3595bf57dd713ab47a'],
    'model_signed_2_identity':
        [[0, 2, 10, 21, 1], '432387ebf0d543c40a9d9c24510427a6317ddb5903455bf5aa8648d674fa1349'],
    'model_signed_2_terminal':
        [[0, 0, 0, 0, 1], 'c9af7667ef3fc01c19e2b12ba7d88380d35552a10243d2a223357d3889e465f5'],
    'model_signed_2_elements_0':
        [[0, 13, 9, 12, 1], '02866acf3df57b456e406250db8e960aa8fbb9de349b12185b916bc066181c46'],
    'model_signed_2_elements_1':
        [[0, 5, 12, 22, 1], '54d0991a6033aae71428d8f3d4b71ce86aebccf253f1cbdc0bd00cf176088c52'],
    'model_signed_0_0_0':
        [[0, 9, 20, 23, 1], 'e325306dc3745f5d3891408cdaad8ae1e927ec0fc5022f94272b6db6057b0f14'],
    'model_signed_0_0_1':
        [[0, 8, 14, 16, 1], 'aded6041e296e64a270f19e8d17bb9d8a818dc06dbf7910d49f02f9ff1a699ae'],
    'model_signed_0_0_2':
        [[0, 7, 20, 23, 1], '6633a0d96f73c766f4efbe2b3d9052821bdc1a8de6c15f5bb6e53ce6e3fae823'],
    'model_signed_0_1_0':
        [[0, 9, 19, 18, 1], '34cb3738e835da2cfb0369afa1b8809775d590678eb87f0ed867118a29073d8a'],
    'model_signed_0_1_1':
        [[0, 5, 14, 27, 1], '723fe24ea5775c5e234d7ddc33353310abefce62203c94c6acf2ea9771c38eb0'],
    'model_signed_0_1_2':
        [[0, 6, 18, 23, 1], '8d1e3ca6cb95a8db13a1fad3d0b9e5f1a227fecddccdae29d72a4e302b4ff212'],
    'model_signed_1_0_0':
        [[0, 9, 17, 19, 1], '582de7dd1eafbb9d626b406d5384ac730466ff8f7e81a035aff020a565e65fe4'],
    'model_signed_1_1_0':
        [[0, 10, 15, 12, 1], 'b29c0b145ade76264eebbaafbcbb30084b852e3d269343f328cf317a77767acd'],
    'model_signed_1_1_1':
        [[0, 6, 11, 19, 1], '00eb81d315755fa5b2ae4feb2866eadc33f3db1f916a9d53a22c7bf9ff1110a5'],
    'model_signed_1_1_2':
        [[0, 9, 16, 23, 1], 'b3b632cf1fe5f2159804b476daf448580e82ebfca5c150512be90506c8dad2ab'],
    'model_signed_2_0_0':
        [[0, 9, 18, 20, 1], '99613c126dcbf0753d6e35bc21fe5c44fadb450102c4e7e3c9ad351d5bc4ffe1'],
    'model_signed_2_0_1':
        [[0, 6, 14, 20, 1], '574bf34e5599e5c2bcc0e05df85383a1286cb2587968453c1ffbfc87fa04eaee'],
    'model_signed_2_0_2':
        [[0, 7, 17, 16, 1], '484e1b94ebf53d798edb711c753531c648c9ad14e4437214405fdca689cdb016'],
    'model_signed_2_1_0':
        [[0, 5, 9, 23, 1], '64dfe0db323636040e1f5c5bc09380f4b340ee40d9b6e1775836772ff341343d'],
    'model_signed_2_1_1':
        [[0, 2, 4, 22, 1], '40e0b2ae89b41f110da701624f3f0fbebc43ce9864ecd949f02f5920ac022f37'],
    'model_signed_2_1_2':
        [[0, 8, 13, 12, 1], '53259ff0ec8a167a7e7b535b2ef395d25c218871f61b870c5f93d7a1f0ba5409'],
    'model_signed_2_2_0':
        [[0, 2, 13, 22, 1], 'ce866fca86f6d286cd791626446cb1b9257d4c56192caf1ef47575e73edef0f1'],
    'model_signed_2_2_1':
        [[0, 7, 11, 12, 1], 'fae33c0cc6092a45fbf926c814eecaccbbeb5f4394fd45f8f1aec3b6b3dfe7b2'],
    'model_signed_2_2_2':
        [[0, 6, 9, 24, 1], '19e2afafe6c46a8bd08f25cc0ead0448fd7b5547804b24d064702c0ece28781f'],
    'model_monad_0_identity':
        [[0, 7, 11, 16, 1], 'f300ecafe6d2ac5bcac5d07aa446bb644c654d2b121620a3492d180c75314e28'],
    'model_monad_0_terminal':
        [[0, 0, 0, 0, 1], 'e037bf85f6671a7ac06aeb6af3691ac82375e2d6c28c867bf7e5b9461ac39259'],
    'model_monad_0_elements_0':
        [[0, 5, 15, 17, 1], 'dc9d3f1979ff32ddfd319e00d5aae94e87f98e681ec7a642bd56ac8e30b8320d'],
    'model_monad_0_elements_1':
        [[0, 8, 13, 50, 1], '3f617b5b522025cac6c7e130b2ae8b65a08d2ad9889ed3c3c2eee439011f2c39'],
    'model_monad_0_0_0':
        [[0, 36, 15, 10, 1], 'd7a0254fb9f2a49665049dff1538468cefced2e3868d96b1d00e29984dd8e8dd'],
    'model_monad_0_0_1':
        [[0, 38, 13, 15, 1], '5824c7f6cfa059a353c08c0f8ffba10be09c7066b6fed94bcf39ebfd4e77bd95'],
    'instance_walking_loose_0_0_identity':
        [[0, 0, 2, 2, 1], '2d560d44febcebfe1303fa83c55c55346f0f358725b6a573d7fb2c6d0da02d8b'],
    'instance_walking_loose_0_1_identity':
        [[0, 1, 0, 2, 1], 'fc3cce970cd971bfacea57e32f9a158464a8c8221f3f183a1e73d23c9e9a3a61'],
    'instance_walking_loose_0_0_0_0':
        [[0, 1, 1, 2, 1], 'edec80a530fc8f95b6e04f0de9cb42372503d0be8a3db97a3d83e53d88773e40'],
    'instance_walking_loose_0_0_1_0':
        [[0, 1, 2, 2, 1], 'b18492bc5b00ac253b0080c7c1a9262f367f143366d06205d404e0d59ccf8f00'],
    'instance_walking_loose_0_0_1_1':
        [[0, 1, 1, 2, 1], 'd3b436319666dfc543e4110fe23bbea86878784fe73cccdb53da7322f16d839f'],
    'instance_walking_loose_0_0_1_2':
        [[0, 1, 1, 1, 1], '0e8f161d1c5b10505a44adca4133ab902936b0e6d438d03a10c026e80f4eaf85'],
    'instance_walking_loose_0_1_0_0':
        [[0, 1, 1, 2, 1], '6140dfd0ed1f1989ed6e8b1b43ed481aeb2e9a5d9cbf0072c7e96613140d19f6'],
    'instance_walking_loose_0_1_1_0':
        [[0, 1, 2, 1, 1], '82e0c6b0209861be51ae4ec6e2bdc52d184de41571e65f1d93a2772d332d8675'],
    'instance_walking_loose_0_1_1_1':
        [[0, 1, 1, 2, 1], 'fff166feca880300f32f51ecbd7ccff50681157ca8ef5004e0ab019ca548e94f'],
    'instance_walking_loose_0_1_1_2':
        [[0, 1, 1, 1, 1], '31a3b0bdaf9d6c920cb8e82b29ad9db23a201ba5e177ff001ec45f4313b66114'],
    'instance_walking_loose_1_0_identity':
        [[0, 1, 1, 2, 1], 'ec0cdb111d59b47c8f84268687d282157f3bd4b147b1f3b718b738f843a1f843'],
    'instance_walking_loose_1_1_identity':
        [[0, 2, 4, 2, 1], '68eae0478b226007e7625a7a5fc4020173fa62f524bd35c82deb71015ef5daee'],
    'instance_walking_loose_1_0_0_0':
        [[0, 0, 1, 2, 1], 'ffccc10558236bf883ddc556bd464ea35a43d0bccdbd7b9593b834c3d01f76a5'],
    'instance_walking_loose_1_0_1_0':
        [[0, 2, 1, 1, 1], '0633df2918d374cac61586bf0258f1e1eb1c501ca6e785078c9045d78d87fe1f'],
    'instance_walking_loose_1_0_1_1':
        [[0, 2, 2, 2, 1], '3024cb4ab7c5e0a009fcb781f8d3730622b266338e4c779a684582d776cdd8bb'],
    'instance_walking_loose_1_1_0_0':
        [[0, 1, 1, 1, 1], '9d9c684566e21a7fb269d440704176694027ec56a55724f496aece401933673a'],
    'instance_walking_loose_1_1_1_0':
        [[0, 1, 1, 3, 1], '33524b9168fcf5ed21a1720029c60da5460b099d16136576d2f1268417fcae7d'],
    'instance_walking_loose_1_1_1_1':
        [[0, 1, 1, 1, 1], '220244df5531900a7dc6bd7ab41369404e8ed2b29eccc6037af1ec458fe891a0'],
    'instance_walking_loose_1_1_1_2':
        [[0, 1, 1, 1, 1], '18afab1e1562d0cd80f3a3225976cf0e8fd3cd63d2a1c44b066aaef912b98422'],
    'instance_walking_loose_2_0_identity':
        [[0, 0, 0, 0, 1], '71bacbee5d8ad5514bcb978833dce65868137d2044ad5785549c22db20b23e2b'],
    'instance_walking_loose_2_1_identity':
        [[0, 0, 0, 0, 1], '13a6e376f451f8f28322fc732aad65dd65ec6fb9580611cddd0c505f2696d035'],
    'instance_walking_loose_2_0_0_0':
        [[0, 0, 0, 0, 1], '71bacbee5d8ad5514bcb978833dce65868137d2044ad5785549c22db20b23e2b'],
    'instance_walking_loose_2_0_1_0':
        [[0, 0, 0, 0, 1], '13a6e376f451f8f28322fc732aad65dd65ec6fb9580611cddd0c505f2696d035'],
    'instance_walking_loose_2_0_1_1':
        [[0, 0, 0, 0, 1], '13a6e376f451f8f28322fc732aad65dd65ec6fb9580611cddd0c505f2696d035'],
    'instance_walking_loose_2_0_1_2':
        [[0, 0, 0, 0, 1], '13a6e376f451f8f28322fc732aad65dd65ec6fb9580611cddd0c505f2696d035'],
    'instance_walking_loose_2_1_0_0':
        [[0, 0, 0, 0, 1], '13a6e376f451f8f28322fc732aad65dd65ec6fb9580611cddd0c505f2696d035'],
    'instance_walking_loose_2_1_1_0':
        [[0, 0, 0, 0, 1], '71bacbee5d8ad5514bcb978833dce65868137d2044ad5785549c22db20b23e2b'],
    'instance_walking_loose_2_1_1_1':
        [[0, 0, 0, 0, 1], '13a6e376f451f8f28322fc732aad65dd65ec6fb9580611cddd0c505f2696d035'],
    'instance_walking_loose_2_1_1_2':
        [[0, 0, 0, 0, 1], '71bacbee5d8ad5514bcb978833dce65868137d2044ad5785549c22db20b23e2b'],
    'instance_terminal_0_0_identity':
        [[0, 0, 0, 0, 1], 'dd7e54e6726345f1cafc0d838bfb2213293b096ea99845384d3b7368cf6855f6'],
    'instance_terminal_0_1_identity':
        [[0, 0, 0, 0, 1], 'dd7e54e6726345f1cafc0d838bfb2213293b096ea99845384d3b7368cf6855f6'],
    'instance_terminal_0_0_0_0':
        [[0, 0, 0, 0, 1], 'dd7e54e6726345f1cafc0d838bfb2213293b096ea99845384d3b7368cf6855f6'],
    'instance_terminal_0_0_1_0':
        [[0, 0, 0, 0, 1], 'dd7e54e6726345f1cafc0d838bfb2213293b096ea99845384d3b7368cf6855f6'],
    'instance_terminal_0_1_0_0':
        [[0, 0, 0, 0, 1], 'dd7e54e6726345f1cafc0d838bfb2213293b096ea99845384d3b7368cf6855f6'],
    'instance_terminal_0_1_1_0':
        [[0, 0, 0, 0, 1], 'dd7e54e6726345f1cafc0d838bfb2213293b096ea99845384d3b7368cf6855f6'],
    'instance_terminal_1_0_identity':
        [[0, 1, 2, 2, 1], 'abd0c12cff98e3dddfd173cb3431873c9f8ad0e1d820eb53ae8914bf632a1bea'],
    'instance_terminal_1_1_identity':
        [[0, 0, 0, 0, 1], 'dd7e54e6726345f1cafc0d838bfb2213293b096ea99845384d3b7368cf6855f6'],
    'instance_terminal_1_0_0_0':
        [[0, 1, 2, 2, 1], 'abd0c12cff98e3dddfd173cb3431873c9f8ad0e1d820eb53ae8914bf632a1bea'],
    'instance_terminal_1_1_0_0':
        [[0, 1, 1, 1, 1], '4f0d13f66547974e560b65890e7ab6dae97da5484435c7987be5306e98466f66'],
    'instance_terminal_1_1_1_0':
        [[0, 0, 0, 0, 1], 'dd7e54e6726345f1cafc0d838bfb2213293b096ea99845384d3b7368cf6855f6'],
    'instance_terminal_2_0_identity':
        [[0, 1, 2, 2, 1], 'e4363ee6db721e2d20e9ca34835994e1b1945732bcaa3181ffc4fd30b7b197b7'],
    'instance_terminal_2_1_identity':
        [[0, 1, 2, 2, 1], '0944e4bcc060a92cd106d6ad794698ec84b37e70f4c6d89d00f87ddc44cc8870'],
    'instance_terminal_2_0_0_0':
        [[0, 1, 2, 2, 1], 'e4363ee6db721e2d20e9ca34835994e1b1945732bcaa3181ffc4fd30b7b197b7'],
    'instance_terminal_2_0_1_0':
        [[0, 1, 2, 2, 1], 'e4363ee6db721e2d20e9ca34835994e1b1945732bcaa3181ffc4fd30b7b197b7'],
    'instance_terminal_2_1_0_0':
        [[0, 1, 2, 2, 1], '385c1cbcd3d9670a0f6f49e7d0430c22b211a0d26832e54249be455d8840b5e0'],
    'instance_terminal_2_1_1_0':
        [[0, 1, 2, 2, 1], '0944e4bcc060a92cd106d6ad794698ec84b37e70f4c6d89d00f87ddc44cc8870'],
    'instance_walking_tight_0_0_identity':
        [[0, 1, 1, 2, 1], '48d15a3bb7f91d8930f12757be37344a91696a84031d0cbac82b69a2572c2ad1'],
    'instance_walking_tight_0_1_identity':
        [[0, 1, 2, 1, 1], 'd4967c611ec7e268b3e507be79064f578ff2e46808e9a7b6120390515da9d951'],
    'instance_walking_tight_0_0_0_0':
        [[0, 1, 2, 2, 1], 'a3c9df7bb810588264dde0d3d1a0312290d4f75e2c60a462953755d30b450950'],
    'instance_walking_tight_0_0_1_0':
        [[0, 1, 1, 0, 1], 'af3272953b3cd6d1af12fa1ed9cd72fb979ed1596124f0baf9bdfcbc477591e4'],
    'instance_walking_tight_0_0_1_1':
        [[0, 1, 1, 2, 1], '3b3c64fce195fa003bb3ae8860a71a2a9baad946fd6cdfbcf806b38f3fea3759'],
    'instance_walking_tight_0_1_0_0':
        [[0, 1, 1, 3, 1], 'e85ad0ff0b49df01fbef796256dc7940d9d2be46f7e18845e8dd1cab23cfdc59'],
    'instance_walking_tight_0_1_1_0':
        [[0, 1, 1, 1, 1], 'f9b1c85ffa7c68480c6a3f23de8a46c1591d17be9182791a3907946955aa1474'],
    'instance_walking_tight_0_1_1_1':
        [[0, 2, 1, 3, 1], 'c4e84031d40597ba42ddcadd366b3bc96fefe4fcbfc082a35d97e3b66336df2d'],
    'instance_walking_tight_0_1_1_2':
        [[0, 1, 4, 1, 1], '067787f23f78d14423be99cbb241a0160aee860180ccf0cfc0f2c1903d808b84'],
    'instance_walking_tight_1_0_identity':
        [[0, 1, 1, 2, 1], 'e5c8c4572f30e4f61b8564fe62c2291d0788e824167ac5e87610b74351956340'],
    'instance_walking_tight_1_1_identity':
        [[0, 1, 1, 1, 1], 'f3c1433743fb85aecbb8fb19e77360b6a11fe0a9dd54705183e74d8bc2cba266'],
    'instance_walking_tight_1_0_0_0':
        [[0, 1, 1, 2, 1], '2e40710be15a0cd07c51577efdde75d73e1b7685c6da537f400aa56de7957356'],
    'instance_walking_tight_1_0_1_0':
        [[0, 1, 1, 2, 1], 'bb14683ebf7f6005aa441052004589e0303880fbacebfbeea365ecf4a1b30468'],
    'instance_walking_tight_1_0_1_1':
        [[0, 1, 1, 2, 1], '1a6fc72a55aeef61f143d16925190f04aef6984a532cb2bee632fb68f667c201'],
    'instance_walking_tight_1_0_1_2':
        [[0, 1, 1, 1, 1], '479a5cbb53b56a31987767bb96e3c917d5af180721ec051f60d7272584ac7f2c'],
    'instance_walking_tight_1_1_0_0':
        [[0, 1, 0, 2, 1], '0726b2939561d659c4fae0e44c2ca3b002c8e2f75e5503262098c44eec52656a'],
    'instance_walking_tight_1_1_1_0':
        [[0, 1, 2, 2, 1], '4eacb82723431c97693494739d9a6e87547c3cb246479540fe12bfdc4d29bb99'],
    'instance_walking_tight_1_1_1_1':
        [[0, 1, 2, 2, 1], '657aaf5942ba81446ad591913f4265e554412ba8b6fdbb51709208e811a513b9'],
    'instance_walking_tight_1_1_1_2':
        [[0, 1, 1, 1, 1], 'f3c1433743fb85aecbb8fb19e77360b6a11fe0a9dd54705183e74d8bc2cba266'],
    'instance_walking_tight_2_0_identity':
        [[0, 1, 2, 3, 1], 'a76e1a5d7a28058be08fd7aea85043f1a81d52031387ed62933eea915c66cdd3'],
    'instance_walking_tight_2_1_identity':
        [[0, 1, 1, 2, 1], '20baaf6234e845e97c83efedb1fa171c7a869c8792e10f4acda54b317680860c'],
    'instance_walking_tight_2_0_0_0':
        [[0, 1, 2, 3, 1], '94010b395ec9c670b36d564f919c0778c38298740a0435f3d5afb0ff9be50596'],
    'instance_walking_tight_2_0_1_0':
        [[0, 1, 2, 3, 1], '12018ff8148e6b41d6acf2a79a424e5b4ea5af3db1cc7fa8510b18e6c4783f99'],
    'instance_walking_tight_2_0_1_1':
        [[0, 1, 2, 2, 1], 'fed6956129dd04101efb57a2e9ef7380b197bc4a0242c7021607b5905ba8955e'],
    'instance_walking_tight_2_0_1_2':
        [[0, 1, 1, 1, 1], 'ef3c778b8f6044b6a34fdf7083e1d42fcf059c9bd33ad81c21d2cb4d4b5d15cc'],
    'instance_walking_tight_2_1_0_0':
        [[0, 1, 2, 3, 1], 'c640bc2d4a5506899d0cb67a8e6059045b7fa314a070d16a28924de455104be0'],
    'instance_walking_tight_2_1_1_0':
        [[0, 1, 2, 2, 1], '6604a419383f6e3b13a10a52c0779dec3ad2ad0ceb89d942f4a0b371f8c2cc07'],
    'instance_walking_tight_2_1_1_1':
        [[0, 1, 2, 3, 1], 'fc6bf01ea282ee0bb34f9c5ba6d7827719ca156b0be4e2bc63524eeeef5cf5ae'],
    'instance_walking_tight_2_1_1_2':
        [[0, 1, 1, 2, 1], 'ab5d9002f57b0b31db62c6e69001c584cc166d69bcd8875794ac4f89282ba538'],
    'instance_walking_square_0_0_identity':
        [[0, 0, 0, 0, 1], 'b032587d7e063f2a2526af4cc33566ea0d9796cf8023e70a3769da3c10452604'],
    'instance_walking_square_0_1_identity':
        [[0, 2, 4, 4, 1], 'cbba44d04f8bb05947851c5a23bfe97e81f3c924ca10490c3a469fb8330561a3'],
    'instance_walking_square_0_0_0_0':
        [[0, 0, 0, 0, 1], '6c93d4cf2600660ae01967660edcfa4ecffd955505e297919173aff6090ed75a'],
    'instance_walking_square_0_0_1_0':
        [[0, 2, 2, 2, 1], '42162a29c258fda3fcb89c8f37383232c4a9257b370334a581c17af9892e3549'],
    'instance_walking_square_0_0_1_1':
        [[0, 2, 4, 2, 1], 'ad092f7930b29664cab0f9c920c8b7c0c99034ef92e85bc9d3961517c6c6b277'],
    'instance_walking_square_0_1_0_0':
        [[0, 0, 0, 0, 1], '17e55ef1bbb85b7e91609b2189745e4039dc4a3f5984079393625ed10a9eacfb'],
    'instance_walking_square_0_1_1_0':
        [[0, 2, 4, 6, 1], 'f6d485b41e98932c777eea4ab7ca0cd8f31c9fafefdfb4d8e0b1f150eae38865'],
    'instance_walking_square_0_1_1_1':
        [[0, 2, 2, 2, 1], '487a9ec1cd7340ccfa99742fba04e08743d5fcd6aeaec314d988d5152a271683'],
    'instance_walking_square_0_1_1_2':
        [[0, 2, 4, 2, 1], 'b7099bffc461020941b8c7e5247c46f051db4109513be0e35f3169c9d88df5d9'],
    'instance_walking_square_1_0_identity':
        [[0, 1, 2, 1, 1], 'e2d1dfc5ff3d8a1175afb19b607ff49a059b097b038bf08336800fb2ad32d967'],
    'instance_walking_square_1_1_identity':
        [[0, 2, 5, 6, 1], 'd8f9f11d93cabdec0d66fd68e622d7bfd8cd13b0fa0f5afc5387087bcc22f37a'],
    'instance_walking_square_1_0_0_0':
        [[0, 0, 0, 1, 1], '85f0a4b6fd09b2b1b8f1ad01b7ad783c019a642ee8ff45e50a458c6f8eae5862'],
    'instance_walking_square_1_0_1_0':
        [[0, 3, 1, 4, 1], '0ac2abe50a6a055a76f755a7ba37143ae27393f6ecb9f430ae9820ae8ecf7281'],
    'instance_walking_square_1_0_1_1':
        [[0, 1, 1, 1, 1], '4d11f77433b7fe42b3d51c53eef8de7c633580a885d5f34ab2c89bc2587c3e34'],
    'instance_walking_square_1_1_0_0':
        [[0, 0, 0, 2, 1], '663da35ff9c74b5d5fcbacb978c6cd8268be708607905231ca3526e38696a340'],
    'instance_walking_square_1_1_1_0':
        [[0, 2, 3, 5, 1], '02bfa77abdf418eda32a5c15e0100d53939ba015681c6182a28da60aa9cdbe9d'],
    'instance_walking_square_1_1_1_1':
        [[0, 3, 6, 1, 1], '370fcce90d86717182635c8a14a7ecb51b5de47a4af4c5a55035edadb1721654'],
    'instance_walking_square_1_1_1_2':
        [[0, 1, 3, 1, 1], '7d8fae1fdda68f05cd4df3a8a156f7feabad885a9e6201a78e57d40a97755818'],
    'instance_walking_square_2_0_identity':
        [[0, 1, 0, 2, 1], 'ede3b0c43af405e0163a671c016bceed3a284059b2dc37504b0bbff2285b54e4'],
    'instance_walking_square_2_1_identity':
        [[0, 2, 2, 1, 1], '3e3f5e6eb0d49b9095c677db44a6f119a358b6215f20f17bd79a498ff3a4312a'],
    'instance_walking_square_2_0_0_0':
        [[0, 0, 0, 2, 1], 'ec7c338dac35153ec48974fdff9e238e544c97609a91531dfd2bbfffe5bd82aa'],
    'instance_walking_square_2_0_1_0':
        [[0, 3, 3, 4, 1], '1a734dd6ea03be351563abc70ad13525bb02abb27b08d7bfbd340caf70e8e9ad'],
    'instance_walking_square_2_0_1_1':
        [[0, 1, 5, 4, 1], '930e9263a900534c5d17f8deb7058f1a98eee3766d4c82be01550487528c1a75'],
    'instance_walking_square_2_1_0_0':
        [[0, 0, 1, 1, 1], 'c95518bf05c7d26443d0e67d710d31bf214dff81135b632ecaf22fbe6cc1778a'],
    'instance_walking_square_2_1_1_0':
        [[0, 2, 5, 4, 1], 'a3c5e467683d0950f703afdccceff444257d76097b34b715abbf11226ee2f095'],
    'instance_walking_square_2_1_1_1':
        [[0, 2, 4, 1, 1], 'bc9f63b0ebb48dcf1880443b288ad7be5bfd46d4a700995a6f88dabdb61867c6'],
    'instance_walking_square_2_1_1_2':
        [[0, 2, 5, 1, 1], '88e586617e9c480dfec1885e1fe3c7e65c5b06d7d5b1271b373e13cbcf2af7fc'],
    'instance_signed_0_0_identity':
        [[0, 1, 2, 3, 1], 'c3e8e2a003cfdcc1ea383324192794a9e5d31570d43c9e39debaa2a0d3f11446'],
    'instance_signed_0_1_identity':
        [[0, 8, 2, 2, 1], '2c64dcca6cecbd4aba9b2b5e86edccec8a1f9d9cfe47ff2187ef44d09c79ba4e'],
    'instance_signed_0_0_0_0':
        [[0, 1, 2, 3, 1], 'fc6023bd8dc13b07e4b14e90cf4e10decc1a04d21b2dd349e44a5882a3f82d21'],
    'instance_signed_0_1_0_0':
        [[0, 1, 2, 3, 1], '9ded8601b0c5549b5e80eeb39a45d27fb8b6eaae93efbbf0c33045582a01eeb3'],
    'instance_signed_0_1_1_0':
        [[0, 1, 2, 2, 1], '5c1a6ec9a295cbf747280bd53e7792219dfa9494214d34c6d63c9a461d5f4250'],
    'instance_signed_0_1_1_1':
        [[0, 1, 2, 2, 1], '4a61f5e366640fe51a4beb60dd88cc69a96836f308e71977bb3f54f697c1f3fb'],
    'instance_signed_1_0_identity':
        [[0, 1, 2, 2, 1], '4888071013c1457cf570efedd29d1d1179424c6dc47edb576f00c4a822ba4d86'],
    'instance_signed_1_1_identity':
        [[0, 6, 2, 2, 1], 'cd490d356619f8b9b5fa6f145d5921771f61da3e1fcc298c0e3896e265bab060'],
    'instance_signed_1_0_0_0':
        [[0, 1, 2, 2, 1], '4888071013c1457cf570efedd29d1d1179424c6dc47edb576f00c4a822ba4d86'],
    'instance_signed_1_1_0_0':
        [[0, 1, 2, 3, 1], '71030edb863f487ed8065d1d9bf68f7dc2255169289aed6878fb9da38a52c2e3'],
    'instance_signed_1_1_1_0':
        [[0, 1, 1, 1, 1], '8826cc295fa663a379b8b58702b541a650f924aaaf91332dc61aaada50fb08cc'],
    'instance_signed_1_1_1_1':
        [[0, 1, 1, 10, 1], 'b9f25703f2e64a4c399491a92bef3ed831106292d83946b3887097855be4080c'],
    'instance_signed_2_0_identity':
        [[0, 1, 2, 3, 1], '06bde985a95a4f5291020e10231b08c168240d7923fe30ec5847aa5459665a23'],
    'instance_signed_2_1_identity':
        [[0, 1, 4, 2, 1], 'c1ce5994895974c265c790cf6ec954c015acf842c9a38635e027a9b378977f29'],
    'instance_signed_2_0_0_0':
        [[0, 1, 2, 3, 1], 'e493705a45cb5c821dfa8118e9d424538135168785a33aa8136ed3b8dab9e7ab'],
    'instance_signed_2_1_0_0':
        [[0, 1, 2, 3, 1], 'd7dc999d6c1adf2189dc2ae33973909f0d745096eb86a4fa9229a72265326d6b'],
    'instance_signed_2_1_1_0':
        [[0, 3, 1, 2, 1], 'fe3bce696174676b8a94e22920aa0cdb705b12dae3843ec02b22860cfcd0cd4e'],
    'instance_monad_0_0_identity':
        [[0, 1, 2, 2, 1], 'b33cefcb014a79c68216f07d003f52fab6aed38328d40adc91ef5cd3eeddbbeb'],
    'instance_monad_0_1_identity':
        [[0, 1, 2, 2, 1], 'e098efcab7b018800efb8019a4023894dc4c269f3f28486b32cea4424a6a3532'],
    'instance_monad_0_0_0_0':
        [[0, 1, 2, 2, 1], 'b33cefcb014a79c68216f07d003f52fab6aed38328d40adc91ef5cd3eeddbbeb'],
    'instance_monad_0_0_1_0':
        [[0, 1, 2, 2, 1], 'b33cefcb014a79c68216f07d003f52fab6aed38328d40adc91ef5cd3eeddbbeb'],
    'instance_monad_0_1_0_0':
        [[0, 1, 2, 2, 1], 'e098efcab7b018800efb8019a4023894dc4c269f3f28486b32cea4424a6a3532'],
    'instance_monad_0_1_1_0':
        [[0, 1, 2, 2, 1], '78884db64791d227a04105ff6fc0ba5f767849f50581e0f7e299d2824cc1fe02'],
}


def test_every_case_is_pinned():
    assert sorted(computed()) == sorted(GOLDEN)


@pytest.mark.parametrize("case", list(GOLDEN))
def test_morphism_validation_report(case):
    assert computed()[case] == GOLDEN[case]


def test_inverse_of_every_isomorphism_found_is_a_morphism():
    """A bijective morphism is an isomorphism: its inverse tables pass
    the validator.  Checked on every ordered pair of models of one
    theory, the models of elements included."""
    found = 0
    for models, insts in _groups().values():
        pool = models + [elements(h)[0] for hs in insts for h in hs]
        for a, b in itertools.product(pool, repeat=2):
            f = find_model_isomorphism(a, b)
            if f is None:
                continue
            found += 1
            inv = ModelMorphism(
                b, a, {d: inverse_table(t) for d, t in f.on_objects.items()},
                {m: inverse_table(t) for m, t in f.on_loose.items()})
            assert validate_model_morphism(inv) == []
    assert found
