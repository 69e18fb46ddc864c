"""Shared fixtures."""

import functools

import pytest

from enveloping import permutahedra
from enveloping.exactlin import Vector


@pytest.fixture
def top_cell_fault(monkeypatch):
    """Call it to make every contraction built afterwards send the top cell
    to itself, where H must vanish: a deliberate fault for tests to detect."""

    def install():
        @functools.lru_cache(maxsize=None)
        def faulty_contraction(n):
            con = permutahedra.PermutahedronContraction(n)
            top_cell = permutahedra.enumerate_faces(n, 1)[0]
            con.columns[top_cell] = Vector.unit(top_cell)
            return con

        monkeypatch.setattr(permutahedra, "build_contraction", faulty_contraction)

    return install
