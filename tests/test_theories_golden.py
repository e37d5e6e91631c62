"""Golden built-in theories: every table, its order and its attached data.

Each built-in theory is pinned by three digests:
- its ``theory_to_doc`` document, which holds every table's contents;
- the insertion order of its twelve tables, and of its cartesian
  structure's tables where it has one (the document sorts them, but
  validation reports, sketches and searches follow insertion order);
- its ``size_of_object``, ``tight_data`` and ``loose_data``, in order,
  where they are set.

So a change to how the theories are built that changes any table, any
name, any order or any attached datum shows up here.
"""

import hashlib
import json

import pytest

from dblinst.serialize import theory_to_doc
from dblinst.theories import builtin_theory

TABLES = ("objects", "tight", "tight_id", "tight_comp", "loose", "loose_id",
          "loose_comp", "cells", "cell_id_loose", "cell_id_tight",
          "cell_vcomp", "cell_hcomp")
CARTESIAN_TABLES = ("terminal_tight", "product_object", "proj_tight",
                    "product_loose", "proj_cells")
ATTACHED = ("size_of_object", "tight_data", "loose_data")


def _digest(value):
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digests(t):
    orders = [list(getattr(t, name)) for name in TABLES]
    if t.cartesian is not None:
        orders += [list(getattr(t.cartesian, name))
                   for name in CARTESIAN_TABLES]
    attached = [list(getattr(t, name).items()) for name in ATTACHED
                if hasattr(t, name)]
    return (_digest(theory_to_doc(t)), _digest(orders), _digest(attached))


GOLDEN = {
    ('terminal', None):
        ('bdc8b20ee27eea84', '087ccbeae2593661', '4f53cda18c2baa0c'),
    ('walking_loose', None):
        ('43127eebd6c77cce', '5e03099d20225b2a', '4f53cda18c2baa0c'),
    ('walking_tight', None):
        ('d826b6d800eccc0a', '2613802f2224e3d2', '4f53cda18c2baa0c'),
    ('walking_square', None):
        ('e53f97ea9bad26ef', '6cfa39e35605feef', '4f53cda18c2baa0c'),
    ('signed', None):
        ('14432451d7636ec2', '8102d842b9a1c088', '4f53cda18c2baa0c'),
    ('involution_cell', None):
        ('084c89a71123cd42', '056ce77ed53a40ab', '4f53cda18c2baa0c'),
    ('monad_trunc', 0):
        ('2098f2f3568e131d', '2eb2db4fe1549f04', '4f53cda18c2baa0c'),
    ('monad_trunc', 1):
        ('da56f19f616988ef', 'e3fa825c9125c110', '4f53cda18c2baa0c'),
    ('monad_trunc', 2):
        ('3c45116c0fdee4c3', '63110237e596b3e4', '4f53cda18c2baa0c'),
    ('prom_trunc', 0):
        ('37ff6cf4684da960', '6369a0c91dac5bb6', '2b6f3b8e74b6d1f6'),
    ('prom_trunc', 1):
        ('07ab266bc4cc1583', 'd63a823564dcb9ac', '108895681bc5008f'),
    ('prom_trunc', 2):
        ('df7816735b1a6827', '1f9b6da490e42271', '78fc9d2d40876bfd'),
    ('sq_finset_op', 0):
        ('70388bfe6c3e5c55', '6b36c71928180a34', 'a7bcea29d8aeac74'),
    ('sq_finset_op', 1):
        ('b6d4f200bcf9b476', 'fc1e291b3083a6ab', '8751c251e60217d7'),
    ('sq_finset_op', 2):
        ('32752784ad94dbd7', 'c85e3e7509d9a0e7', '6fc334ded2770d6a'),
}


@pytest.mark.parametrize("name,k", sorted(GOLDEN, key=str))
def test_builtin_theory_is_pinned(name, k):
    assert digests(builtin_theory(name, k)) == GOLDEN[(name, k)]


def test_every_builtin_theory_is_pinned():
    small = ["terminal", "walking_loose", "walking_tight", "walking_square",
             "signed", "involution_cell"]
    families = ["monad_trunc", "prom_trunc", "sq_finset_op"]
    assert set(GOLDEN) == ({(n, None) for n in small}
                           | {(n, k) for n in families for k in (0, 1, 2)})
