import numpy as np
import pytest

from mixedmg import CARRIER, build_multilevel, make_jacobi

EPS64 = float(np.finfo(np.float64).eps)


@pytest.fixture(scope="session")
def level15():
    return build_multilevel(15, 2)[0]


@pytest.fixture(scope="session")
def level31():
    return build_multilevel(31, 2)[0]


@pytest.fixture(scope="session")
def level63():
    return build_multilevel(63, 2)[0]


@pytest.fixture(scope="session")
def levels31_3():
    return build_multilevel(31, 3)


@pytest.fixture(scope="session")
def jacobi_smoothers():
    """``jacobi_smoothers(levels, fmt=CARRIER)``: one damped Jacobi
    (omega = 2/3) per level, the smoother of the default config."""
    def smoothers(levels, fmt=CARRIER):
        return [make_jacobi(l.A, 2.0 / 3.0, fmt) for l in levels]
    return smoothers
