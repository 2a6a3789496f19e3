import doctest

import pytest

import wittlab.abgroup
import wittlab.bigwitt
import wittlab.fplinalg
import wittlab.freealg
import wittlab.hochschild
import wittlab.intlinalg
import wittlab.ncpoly
import wittlab.poly
import wittlab.rings
import wittlab.tate
import wittlab.witt

MODULES = [
    wittlab.abgroup,
    wittlab.bigwitt,
    wittlab.fplinalg,
    wittlab.freealg,
    wittlab.hochschild,
    wittlab.intlinalg,
    wittlab.ncpoly,
    wittlab.poly,
    wittlab.rings,
    wittlab.tate,
    wittlab.witt,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
