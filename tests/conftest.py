"""Suite-wide test settings and fixtures.

Property tests draw the same examples on every run, keep no example
database and have no per-example deadline, so results do not depend on
earlier runs or on how busy the host is.  A test may still raise its
own example count with ``@settings(max_examples=...)``.
"""

import pytest
from hypothesis import settings

import towertop.abelian
import towertop.simplicial

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def smith_calls(monkeypatch):
    """The matrices given to ``smith_normal_form`` while the test runs, in order."""
    calls = []
    real = towertop.abelian.smith_normal_form

    def counting(matrix, *args, **kwargs):
        calls.append(matrix)
        return real(matrix, *args, **kwargs)

    for module in (towertop.abelian, towertop.simplicial):
        monkeypatch.setattr(module, "smith_normal_form", counting)
    return calls


@pytest.fixture
def hom_calls(monkeypatch):
    """One name per ``GroupHom`` construction (``"GroupHom"``) or ``compose`` call while the test runs."""
    calls = []
    hom = towertop.abelian.GroupHom
    real_init, real_compose = hom.__init__, hom.compose

    def counting_init(self, *args, **kwargs):
        calls.append("GroupHom")
        real_init(self, *args, **kwargs)

    def counting_compose(self, inner):
        calls.append("compose")
        return real_compose(self, inner)

    monkeypatch.setattr(hom, "__init__", counting_init)
    monkeypatch.setattr(hom, "compose", counting_compose)
    return calls


@pytest.fixture
def echelon_forms(monkeypatch):
    """The matrices given to ``hermite_normal_form`` while the test runs, in order."""
    calls = []
    real = towertop.abelian.hermite_normal_form

    def counting(matrix):
        calls.append(matrix)
        return real(matrix)

    monkeypatch.setattr(towertop.abelian, "hermite_normal_form", counting)
    return calls
