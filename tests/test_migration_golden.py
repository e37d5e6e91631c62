"""Golden migrations: Σ, Π and comprehensive factorizations pinned to
recorded values.

Each case records the sorted element names of its result and a sha256
of the result's JSON document, which holds every action table.  So any
change to element names, to the representative a class is named after,
or to an identification shows up here.
"""

import hashlib
import json

import pytest

from dblinst.elements import elements
from dblinst.fincat import Copresheaf, FinCategory, FinFunctor
from dblinst.finset import FiniteSet
from dblinst.fixtures import (category_as_model, chain_category,
                              coproduct_instance, cyclic_quotient_morphism,
                              functor_as_morphism, representable_instances,
                              tautological_instance, walking_loose_model,
                              walking_tight_model, weighted_graph_instance,
                              weighted_graph_schema)
from dblinst.migration import (MigrationContext, comprehensive_factorize,
                               kan_extend_left, migrate_lan, migrate_ran)
from dblinst.model import enumerate_model_morphisms, terminal_model
from dblinst.serialize import copresheaf_to_doc, document_of


def digest(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def instance_golden(h):
    names = sorted(e for d in h.model.theory.objects for e in h.carriers[d])
    return names, digest(document_of(h))


def copresheaf_golden(cp):
    names = sorted(v for c in cp.base.objects for v in cp.on_objects[c])
    return names, digest(copresheaf_to_doc(cp))


def factorization_golden(f):
    fac = comprehensive_factorize(f, bound=4)
    middle = fac.middle
    names = sorted(e for d in middle.theory.objects
                   for e in middle.on_objects[d])
    return names, [digest(document_of(g))
                   for g in (middle, fac.initial, fac.opfibration)]


def _to_terminal(x):
    return enumerate_model_morphisms(x, terminal_model(x.theory))[0]


def _migration_morphisms():
    fold = enumerate_model_morphisms(
        walking_loose_model(["a0", "a1"], ["b0"],
                            [("h0", "a0", "b0"), ("h1", "a1", "b0")]),
        walking_loose_model(["a"], ["b"], [("h", "a", "b")]))[0]
    tight_fold = enumerate_model_morphisms(
        walking_tight_model(["p", "q"], ["r"], {"p": "r", "q": "r"}),
        walking_tight_model(["p"], ["r"], {"p": "r"}))[0]
    return {"fold": fold, "cyclic_quotient": cyclic_quotient_morphism(),
            "to_terminal": _to_terminal(weighted_graph_schema()),
            "tight_fold": tight_fold}


def _migration_cases():
    cases = {}
    for name, al in _migration_morphisms().items():
        taut = tautological_instance(al.source)
        instances = [("taut", taut),
                     ("coproduct", coproduct_instance(taut, taut))]
        instances += [("rep{}".format(i), h) for i, h in enumerate(
            representable_instances(al.source, bound=4))]
        for label, h in instances:
            for mode, migrate in (("sigma", migrate_lan),
                                  ("pi", migrate_ran)):
                cases["{}_{}_{}".format(mode, name, label)] = (
                    lambda al=al, h=h, migrate=migrate: instance_golden(
                        migrate(al, h, context=MigrationContext(al, 4))))
    return cases


def _point_inclusion(target_obj):
    c1, c2 = chain_category(1), chain_category(2)
    return FinFunctor(c1, c2, {"0": target_obj},
                      {"id:0": "id:{}".format(target_obj)})


def _two_element_copresheaf():
    return Copresheaf(chain_category(1), {"0": FiniteSet(["x", "y"])},
                      {"id:0": {"x": "x", "y": "y"}})


def _swap_extension():
    """Σ along the identity of the two-element group, whose non-identity
    arrow ``e`` sorts before ``id:*``, on the swap action.  The class of
    ``(*, id:*, a)`` also holds ``(*, e, b)``: it is named after the
    latter, which comes first in (object, arrow, value) order but not in
    ((object, value), arrow) order."""
    z2 = FinCategory(["*"], {"id:*": ("*", "*"), "e": ("*", "*")},
                     {"*": "id:*"},
                     {("id:*", "id:*"): "id:*", ("id:*", "e"): "e",
                      ("e", "id:*"): "e", ("e", "e"): "id:*"})
    swap = Copresheaf(z2, {"*": FiniteSet(["a", "b"])},
                      {"id:*": {"a": "a", "b": "b"},
                       "e": {"a": "b", "b": "a"}})
    identity = FinFunctor(z2, z2, {"*": "*"}, {"id:*": "id:*", "e": "e"})
    return kan_extend_left(identity, swap)


def _factorization_cases():
    collapse = FinFunctor(chain_category(2), chain_category(1),
                          {"0": "0", "1": "0"},
                          {"id:0": "id:0", "id:1": "id:0", "0<1": "id:0"})
    two_each = walking_loose_model(
        ["a0", "a1"], ["b0", "b1"],
        [("h0", "a0", "b0"), ("h1", "a0", "b1"),
         ("h2", "a1", "b0"), ("h3", "a1", "b1")])
    return {
        "weighted_graph_to_terminal": lambda: _to_terminal(
            weighted_graph_schema()),
        "chain_collapse": lambda: functor_as_morphism(
            collapse, category_as_model(chain_category(2)),
            category_as_model(chain_category(1))),
        "elements_projection": lambda: elements(
            weighted_graph_instance(2))[1],
        "two_hets_per_element_to_terminal": lambda: _to_terminal(two_each),
    }


def golden_cases():
    cases = _migration_cases()
    for obj in ("0", "1"):
        cases["lan_point_inclusion_{}".format(obj)] = (
            lambda obj=obj: copresheaf_golden(kan_extend_left(
                _point_inclusion(obj), _two_element_copresheaf())))
    cases["lan_swap"] = lambda: copresheaf_golden(_swap_extension())
    for name, f in _factorization_cases().items():
        cases["factorize_" + name] = lambda f=f: factorization_golden(f())
    return cases


GOLDEN = {
    "factorize_chain_collapse": (
        ["(0,[*.0|id:*|0])"],
        ["6e64360b805b29d51425450a458e843b3b1fb4b98b7f416863da34ffb52a5b6c",
         "dfdaf9a7265aae41ae666cc322d1b83a57658cedd21002147fa7254270733130",
         "ef2ce45b2d6fc33cd84a942f49698186d8222e7bc59abc8488925d9dbe59618e"]),
    "factorize_elements_projection": (
        ["(E,[dom.e0|id:dom|E])", "(E,[dom.e1|id:dom|E])",
         "(V,[dom.v0|id:dom|V])", "(V,[dom.v1|id:dom|V])",
         "(Wt,[cod.5|id:cod|Wt])", "(Wt,[cod.7|id:cod|Wt])"],
        ["91e8bd188ac0ec55f2660440e70435c1e978f72c0ac26621fac88988538cd58b",
         "3100ba97548a2ca8918de7a9bfa5b828c9a996c8549d2ce2824df18499cff242",
         "c6d0c149739f7654af121816fb8d07458073b54d7d89382bb0fc0773132c39ae"]),
    "factorize_two_hets_per_element_to_terminal": (
        ["(*,[cod.b0|id:cod|*])", "(*,[dom.a0|id:dom|*])",
         "(*,[dom.a1|id:dom|*])"],
        ["a0d6930c1226810eb53d7f2f46ad6a796849a5064779c183ffaad147e04c2fc8",
         "71f2c3d341cd0c1271a868b35ea9c73b6797a0317fe94858a66553fcdf055618",
         "9cdfdcbc46c0bbec204aa1609f4bc5125592258346f3fae0680f5f2db7140462"]),
    "factorize_weighted_graph_to_terminal": (
        ["(*,[cod.Wt|id:cod|*])", "(*,[dom.E|id:dom|*])",
         "(*,[dom.V|h{l@*}])", "(*,[dom.V|id:dom|*])"],
        ["f0a4a44946c36a265e2064004ef603ed1f7b47945df766116734572d5e68c169",
         "8c39ad08f0a20ca5e880d7896fc0730e3a2957f269270f9d3d03255de8f75e98",
         "b61686cb60d4dd5214614f4f3233c49f1a5133b3209f013a6f23df316e28ae73"]),
    "lan_point_inclusion_0": (
        ["[0|0<1|x]", "[0|0<1|y]", "[0|id:0|x]", "[0|id:0|y]"],
        "d184825005e58f444d73f68af3303e56602ce0521230dac897670979978d8258"),
    "lan_point_inclusion_1": (
        ["[0|id:1|x]", "[0|id:1|y]"],
        "d518de03f9a2f158a8c824722cc4b44ce9baee5f0c0632a4c3cc3aecf595789b"),
    "lan_swap": (
        ["[*|e|a]", "[*|e|b]"],
        "87d3764d87f640db5d893a61b3a2674450b749b26a331a59df5c6530166afebe"),
    "pi_cyclic_quotient_coproduct": (
        ["(*,[(L,*)|(L,*)])", "(*,[(R,*)|(R,*)])"],
        "867aba80759eaec97b6aa2aa6cc8d2e732d9d74271d2bb975162069c76ec8251"),
    "pi_cyclic_quotient_rep0": (
        ["(*,[(*,h{id:*@1})|(*,id:*|*)])", "(*,[(*,id:*|*)|(*,h{id:*@1})])"],
        "64ba37c11369f8c2fae5acdb634d421585723cd9ea0b3336b9650e6152053cbf"),
    "pi_cyclic_quotient_taut": (
        ["(*,[*|*])"],
        "6741f74ae0e6257c2ac3f799e6540cf89e452241b0e1a6239da6187dde115f07"),
    "pi_fold_coproduct": (
        ["(a,[(L,b0)|(L,a0)|(L,a1)])", "(a,[(R,b0)|(R,a0)|(R,a1)])",
         "(b,[(L,b0)])", "(b,[(R,b0)])"],
        "f4f26ee7e7cc9f5250e67f97f8e6cc36de40bef7d5707e366ac1ae4e91e721f6"),
    "pi_fold_rep0": (
        ["(b,[(b0,h{l@h0})])"],
        "2ffcfb73e1cc111bd8af22a4462d520a8318353a1169f4cb72664a54997bd8d1"),
    "pi_fold_rep1": (
        ["(b,[(b0,h{l@h1})])"],
        "193bb3816a8fbf7f54b747ae979cfc159d37874176cdcae652bab22c042c7e94"),
    "pi_fold_rep2": (
        ["(b,[(b0,id:cod|b0)])"],
        "9a8f8b26c8410652105073e956e74832238bc5c5b14cb789770b1a6980e813eb"),
    "pi_fold_taut": (
        ["(a,[b0|a0|a1])", "(b,[b0])"],
        "7561219b90e3dcfbb1ebbac3add07824a2e631f4e8d9544ddbbdd19ac9d04a2f"),
    "pi_tight_fold_coproduct": (
        ["(p,[(L,r)|(L,p)|(L,q)])", "(p,[(R,r)|(R,p)|(R,q)])", "(r,[(L,r)])",
         "(r,[(R,r)])"],
        "e65c8afbf5639e67b52791031c8fbfe04e6f5b93a55d8fc24c7eb3d8747027f1"),
    "pi_tight_fold_rep0": (
        ["(r,[(r,t{t@p})])"],
        "ffbbca074a70992a7ee5e372072609eaf056178211984da005c793d7b2ef71d4"),
    "pi_tight_fold_rep1": (
        ["(r,[(r,t{t@q})])"],
        "1564924b6eea51d8d01fedc65c8124b796d7d443d2d26fecc56abf4f997fd13f"),
    "pi_tight_fold_rep2": (
        ["(r,[(r,id:bot|r)])"],
        "05a9216d949af7f9f6404b4bd64c1d73cec70f3614df3a955b902c160aded1c6"),
    "pi_tight_fold_taut": (
        ["(p,[r|p|q])", "(r,[r])"],
        "87a2581f7d9f22f9951ca6ffd2e88b2c47ca085189b523d53b0cbaf8ffadfb65"),
    "pi_to_terminal_coproduct": (
        ["(*,[(L,Wt)])", "(*,[(L,Wt)|(L,E)|(L,V)])",
         "(*,[(L,Wt)|(L,E)|(R,V)])", "(*,[(R,Wt)])",
         "(*,[(R,Wt)|(R,E)|(L,V)])", "(*,[(R,Wt)|(R,E)|(R,V)])"],
        "d7936c68381da5f05c70de3b69895ff8dbdeefd976aa1a580755ddaa1eecbc9b"),
    "pi_to_terminal_rep0": (
        ["(*,[(Wt,h{l@w})])"],
        "a8e80494cb3e7f4b38e92854f03526fc35d22f9de1d773d99b4279c3c4fa0ec5"),
    "pi_to_terminal_rep1": (
        [],
        "403ab5d8de6b4c9e442e4a00f517b850cc2255b63a91ed65ec8895119d742d43"),
    "pi_to_terminal_rep2": (
        ["(*,[(Wt,id:cod|Wt)])"],
        "4f312cf6d613c3424299e874cd683b7b3ce091c124b15043c045072dff9c5662"),
    "pi_to_terminal_taut": (
        ["(*,[Wt])", "(*,[Wt|E|V])"],
        "94a30d87947d22e3e1797117db0076400fc6da3f36ef0df85bebe874e64c6d79"),
    "sigma_cyclic_quotient_coproduct": (
        ["(*,[*|*|h{id:*@1}|(L,*)])", "(*,[*|*|h{id:*@1}|(R,*)])"],
        "1ab69564f25de531787b51936bc163a8a3dfc0856f4249a9ecc9fff7e262f43b"),
    "sigma_cyclic_quotient_rep0": (
        ["(*,[*|*|h{id:*@1}|(*,h{id:*@1})])",
         "(*,[*|*|h{id:*@1}|(*,id:*|*)])"],
        "7ddbbb62d81d5fc9ab53776f2c9ad2b5352685d74de77e3e33fdb81aa0b719fc"),
    "sigma_cyclic_quotient_taut": (
        ["(*,[*|*|h{id:*@1}|*])"],
        "e3e9318dffb5650bdf1773ca9169448f0795c47264dd6ac2686d0a178c364f4c"),
    "sigma_fold_coproduct": (
        ["(a,[dom|a0|id:dom|a|(L,a0)])", "(a,[dom|a0|id:dom|a|(R,a0)])",
         "(a,[dom|a1|id:dom|a|(L,a1)])", "(a,[dom|a1|id:dom|a|(R,a1)])",
         "(b,[cod|b0|id:cod|b|(L,b0)])", "(b,[cod|b0|id:cod|b|(R,b0)])"],
        "68e403231ab29d78bb71fb8aaf7d6c7b53bc95e91b30300c37f0217f6fb21977"),
    "sigma_fold_rep0": (
        ["(a,[dom|a0|id:dom|a|(a0,id:dom|a0)])",
         "(b,[cod|b0|id:cod|b|(b0,h{l@h0})])"],
        "d2656202941ac691ac0a8df0ab8e7103428360c6b26f0b4e749e74f34b4cb5a0"),
    "sigma_fold_rep1": (
        ["(a,[dom|a1|id:dom|a|(a1,id:dom|a1)])",
         "(b,[cod|b0|id:cod|b|(b0,h{l@h1})])"],
        "b0ed58fd602b1e3022443c19a11aa513da1dce1a4689a09e8e4aadff6b3b5114"),
    "sigma_fold_rep2": (
        ["(b,[cod|b0|id:cod|b|(b0,id:cod|b0)])"],
        "ce4064227f51e9b265c91821546f1ec6199a1ce2d6c4b4cd0624c6c3905dd38b"),
    "sigma_fold_taut": (
        ["(a,[dom|a0|id:dom|a|a0])", "(a,[dom|a1|id:dom|a|a1])",
         "(b,[cod|b0|id:cod|b|b0])"],
        "d71e24f4fab9c47097ed18d23d8dc2171aaf78e78f38438d9e840bc0023be393"),
    "sigma_tight_fold_coproduct": (
        ["(p,[top|p|id:top|p|(L,p)])", "(p,[top|p|id:top|p|(R,p)])",
         "(p,[top|q|id:top|p|(L,q)])", "(p,[top|q|id:top|p|(R,q)])",
         "(r,[bot|r|id:bot|r|(L,r)])", "(r,[bot|r|id:bot|r|(R,r)])"],
        "57e7d9ee61e8710be58ad973be72a66c653f5c263c5d97ba4b3cb39fdf7033c1"),
    "sigma_tight_fold_rep0": (
        ["(p,[top|p|id:top|p|(p,id:top|p)])",
         "(r,[bot|r|id:bot|r|(r,t{t@p})])"],
        "801026761cb375afe06f7e31d7dd9fcd9a1a5817614b263eddbc3f3962d5ace3"),
    "sigma_tight_fold_rep1": (
        ["(p,[top|q|id:top|p|(q,id:top|q)])",
         "(r,[bot|r|id:bot|r|(r,t{t@q})])"],
        "6f36d0b3f81ffe0676397b14e8f14b1f82b9958c836a1da0705e4bf67dba3061"),
    "sigma_tight_fold_rep2": (
        ["(r,[bot|r|id:bot|r|(r,id:bot|r)])"],
        "543ac8facc81e033b59a37fceb8c0f5b21e3537f0a86b9d087efb37a8c685e03"),
    "sigma_tight_fold_taut": (
        ["(p,[top|p|id:top|p|p])", "(p,[top|q|id:top|p|q])",
         "(r,[bot|r|id:bot|r|r])"],
        "2a5ecc06c25e503b5a339d9b27e357b15cfd25c7c270a531464871c0825dd1de"),
    "sigma_to_terminal_coproduct": (
        ["(*,[cod|Wt|id:cod|*|(L,Wt)])", "(*,[cod|Wt|id:cod|*|(R,Wt)])",
         "(*,[dom|E|id:dom|*|(L,E)])", "(*,[dom|E|id:dom|*|(R,E)])",
         "(*,[dom|V|h{l@*}|(L,V)])", "(*,[dom|V|h{l@*}|(R,V)])",
         "(*,[dom|V|id:dom|*|(L,V)])", "(*,[dom|V|id:dom|*|(R,V)])"],
        "4380ab6f35acaae65bdebc2863ea9ed4b9ecb84ac492c999619dba1d912f15ee"),
    "sigma_to_terminal_rep0": (
        ["(*,[cod|Wt|id:cod|*|(Wt,h{l@w})])",
         "(*,[dom|E|id:dom|*|(E,id:dom|E)])"],
        "ba6143194a657229d5fa73042b5b2f22a7d5468863a57c506263d3fe120534ee"),
    "sigma_to_terminal_rep1": (
        ["(*,[dom|V|h{l@*}|(V,id:dom|V)])",
         "(*,[dom|V|id:dom|*|(V,id:dom|V)])"],
        "1d871fb5efdff48d9785144d2400023999f8347211e5cb42c11fcfe8d0c0c1a3"),
    "sigma_to_terminal_rep2": (
        ["(*,[cod|Wt|id:cod|*|(Wt,id:cod|Wt)])"],
        "22970e25b55e733f01864c4359bffe46464738f76095b2ac6c9de826d1a1a16e"),
    "sigma_to_terminal_taut": (
        ["(*,[cod|Wt|id:cod|*|Wt])", "(*,[dom|E|id:dom|*|E])",
         "(*,[dom|V|h{l@*}|V])", "(*,[dom|V|id:dom|*|V])"],
        "a511ac78fee0a41d43101b5e5aeeeb12f6183bd9ddb6b81152975b06b5c43a3f"),
}


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_migration_matches_golden(name):
    assert golden_cases()[name]() == GOLDEN[name]
