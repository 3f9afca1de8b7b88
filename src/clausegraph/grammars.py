"""Bundled example clause systems used by the CLI examples and the test
suite.  Each builder loads the system and the structural bounds it satisfies
from the grammar and parameter files shipped in the package's ``data``
directory.
"""

from __future__ import annotations

from importlib import resources

from .formats import load_grammar, load_params

_DATA = resources.files(__package__) / "data"


def _bundled(name: str):
    return (load_grammar(_DATA / f"{name}_grammar.json"),
            load_params(_DATA / f"{name}_params.json"))


def path_grammar():
    """All paths with >= 2 vertices, vertex label ``a``, edge label ``e``.

    One predicate grows a path behind a two-ended interface; the start
    predicate closes it.
    """
    return _bundled("path")


def triangle_grammar():
    """The one-member language holding a single labeled triangle."""
    return _bundled("triangle")


def twin_grammar():
    """Even-length all-``a`` paths built from two matched halves, plus paths
    capped by a single ``b`` vertex.

    The pairing clause carries the same variable twice, so both halves must
    be isomorphic: odd all-``a`` paths are out, which is exactly what the
    repeated label buys.  The capping clause uses the predicate once, keeping
    every value of the auxiliary predicate observable through one context.
    """
    return _bundled("twin")
