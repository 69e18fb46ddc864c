"""Seeded complete-intersection inputs for the ``sweep`` workload.

Each input is the L-infinity algebra of a polynomial complete intersection,
built with ``linfty.from_complete_intersection`` and written with
``linfty.algebra_to_json``: one odd degree-1 generator per variable, one
degree-2 generator per relation, and a bracket l_k for every term of degree
k.  The bracket values are degree-2 generators, which never occur as bracket
inputs, so every generalized Jacobi identity holds term by term: each
generated algebra is valid by construction.

Why this family: the inputs carry l_2, l_3 and l_4 brackets and odd
generators, which the ten bundled inputs barely cover, and at arity cap 4 and
weight cap 4 their cost sits in the perturbation series and the product
tables rather than in the permutahedron contraction.  Why this mix: the work
per input is set by the number of generators, so every seed uses the same
list of (variables, relations) shapes and draws only the monomials and
coefficients.  The work per run therefore barely depends on the seed.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

VARIABLES = ("x", "y", "w")

# (variables, relations) of each input, in order.
SHAPES = (
    ((1, 1),) * 3
    + ((1, 2),) * 3
    + ((2, 1),) * 3
    + ((2, 2),) * 2
    + ((3, 1), (3, 2))
)

COEFFS = (1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-2, 3))

WEIGHT_CAP = 4


def names():
    """File names of the generated inputs, in workload order."""
    return ["sweep%02d.json" % i for i in range(len(SHAPES))]


def _relation(rng, variables, first_degree):
    """1-3 distinct terms of degree 2-4; the first term's degree is given."""
    terms = {}
    for k in range(rng.randint(1, 3)):
        degree = first_degree if k == 0 else rng.randint(2, 4)
        monomial = tuple(sorted(rng.choice(variables) for _ in range(degree)))
        if monomial not in terms:
            terms[monomial] = rng.choice(COEFFS)
    return [(coeff, monomial) for monomial, coeff in terms.items()]


def algebras(seed):
    """The generated algebras of one seed, as (file name, algebra) pairs."""
    from enveloping import linfty

    rng = random.Random(seed)
    out = []
    for i, (name, (nvars, nrels)) in enumerate(zip(names(), SHAPES)):
        variables = VARIABLES[:nvars]
        # rotate the leading term degree so every seed has l_2, l_3 and l_4
        polynomials = {
            "r%d" % (r + 1): _relation(rng, variables, 2 + (i + r) % 3)
            for r in range(nrels)
        }
        algebra = linfty.from_complete_intersection(list(variables), polynomials)
        algebra.name = name[: -len(".json")]
        out.append((name, algebra))
    return out


def render(algebra):
    from enveloping import linfty

    return json.dumps(linfty.algebra_to_json(algebra), indent=1, sort_keys=True) + "\n"


def materialize(seed, directory):
    """Write the inputs of ``seed`` into ``directory``, or, when they are
    already there, check that they are byte-identical to a fresh generation.

    Returns the generated algebras.
    """
    os.makedirs(directory, exist_ok=True)
    generated = algebras(seed)
    for name, algebra in generated:
        text = render(algebra)
        path = os.path.join(directory, name)
        if os.path.exists(path):
            with open(path) as fh:
                if fh.read() != text:
                    raise RuntimeError("input %s is not reproducible from its seed" % name)
        else:
            with open(path + ".tmp", "w") as fh:
                fh.write(text)
            os.replace(path + ".tmp", path)
    return generated


def validate(generated):
    """Confirm every generated algebra with the engine's own L-infinity check."""
    from enveloping import linfty

    bad = [name for name, algebra in generated
           if not linfty.check_linfty(algebra, WEIGHT_CAP)]
    if bad:
        raise RuntimeError("generated inputs fail check_linfty: %s" % ", ".join(bad))
