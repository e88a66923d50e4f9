"""QAGS transcription parity: ``repro.cosmology.quadrature`` against
``scipy.integrate.quad``.

The sigma_8 normalisation and the non-EdS growth factor integrate with
the pure-Python QAGS so that the collapse run loads no scipy; every
collapse fingerprint depends on it returning what ``quad`` returns.  The
parity checks compare value, error estimate, status, integrand calls and
subinterval count bit for bit, on the integrals the cosmology module
actually hands over and on integrands that drive each QAGS branch.
"""

import math

import numpy as np
import pytest

from repro.cosmology import CosmologyParameters, FriedmannSolver, PowerSpectrum
from repro.cosmology import friedmann, power_spectrum
from repro.cosmology.quadrature import dqagse, qags

# quad's message for each nonzero QAGS status
_QUAD_STATUS = {
    "The maximum number of subdivisions": 1,
    "The occurrence of roundoff error": 2,
    "Extremely bad integrand behavior": 3,
    "The algorithm does not converge": 4,
    "The integral is probably divergent": 5,
}


@pytest.fixture(scope="module")
def quad():
    return pytest.importorskip("scipy.integrate").quad


def _reference(quad, f, a, b, limit):
    """``(result, abserr, neval, ier, last)`` as ``quad`` reports them."""
    out = quad(f, a, b, limit=limit, full_output=1)
    ier = 0
    if len(out) > 3:
        ier = next(code for prefix, code in _QUAD_STATUS.items()
                   if out[3].startswith(prefix))
    return out[0], out[1], out[2]["neval"], ier, out[2]["last"]


def _assert_parity(quad, f, a, b, limit):
    got = dqagse(f, a, b, limit=limit)
    ref = _reference(quad, f, a, b, limit)
    # float.hex: bitwise, and a NaN matches a NaN
    assert [float(v).hex() for v in got[:2]] == [v.hex() for v in ref[:2]]
    assert got[2:] == ref[2:]
    return got


def _recorded_calls(monkeypatch, module, build):
    """The ``(f, a, b, limit)`` of every ``qags`` call ``build`` makes."""
    calls = []

    def recording(f, a, b, limit=50):
        calls.append((f, a, b, limit))
        return qags(f, a, b, limit=limit)

    monkeypatch.setattr(module, "qags", recording)
    build()
    assert calls
    return calls


@pytest.mark.parametrize("transfer", ["bbks", "eisenstein_hu"])
def test_sigma_integrals_match_quad(quad, monkeypatch, transfer):
    def build():
        ps = PowerSpectrum(CosmologyParameters(), transfer=transfer)
        for radius in np.geomspace(0.005, 100.0, 9):
            ps.sigma_r(float(radius))

    calls = _recorded_calls(monkeypatch, power_spectrum, build)
    assert len(calls) == 10 and {c[3] for c in calls} == {400}
    for call in calls:
        _assert_parity(quad, *call)


def test_growth_integrals_match_quad(quad, monkeypatch):
    def build():
        for om in (0.1, 0.3, 1.0):
            for ol in (0.0, 0.7):
                if (om, ol) == (1.0, 0.0):
                    continue  # EdS: D(a) = a, no integral
                solver = FriedmannSolver(
                    CosmologyParameters(omega_matter=om, omega_lambda=ol))
                solver.growth_factor(np.geomspace(1e-3, 1.0, 5))

    calls = _recorded_calls(monkeypatch, friedmann, build)
    # np.vectorize calls once more to find the output type
    assert len(calls) == 5 * 7 and {c[3] for c in calls} == {200}
    for call in calls:
        _assert_parity(quad, *call)


def _damped_cosine(x):
    return math.cos(50.0 * x) * math.exp(-x)


# (name, f, a, b, limit, status, subintervals used or None)
BRANCHES = [
    ("first_rule_accepted", math.sin, 0.0, math.pi, 50, 0, 1),
    ("plain_bisection", lambda x: math.exp(-x * x), -5.0, 5.0, 50, 0, 4),
    ("extrapolated_inverse_sqrt", lambda x: x ** -0.5, 0.0, 1.0, 50, 0, 6),
    ("extrapolated_log", math.log, 0.0, 1.0, 50, 0, 6),
    ("extrapolated_power", lambda x: x ** -0.9, 0.0, 1.0, 50, 0, 6),
    ("oscillatory", _damped_cosine, 0.0, 10.0, 50, 0, 35),
    ("limit_exhausted", _damped_cosine, 0.0, 10.0, 3, 1, 3),
    ("roundoff", lambda x: math.nan if abs(x - 0.5) < 0.01 else 1.0,
     0.0, 1.0, 50, 2, None),
    ("bad_behaviour", lambda x: 1.0 / abs(x - 1.0 / 3.0),
     0.0, 1.0, 200, 3, None),
    ("divergent", lambda x: x ** -2.0, 0.0, 1.0, 50, 5, None),
    ("divergent_extrapolated", lambda x: math.sin(1.0 / x) / x,
     0.0, 1.0, 400, 5, 400),
]


@pytest.mark.parametrize("name,f,a,b,limit,status,last", BRANCHES,
                         ids=[case[0] for case in BRANCHES])
def test_branches_match_quad(quad, name, f, a, b, limit, status, last):
    got = _assert_parity(quad, f, a, b, limit)
    assert got[3] == status
    if last is not None:
        assert got[4] == last


def test_nonzero_status_warns(quad):
    with pytest.warns(RuntimeWarning, match="status 1"):
        val, err = qags(_damped_cosine, 0.0, 10.0, limit=3)
    ref = quad(_damped_cosine, 0.0, 10.0, limit=3, full_output=1)
    assert (val, err) == ref[:2]


def test_reversed_range_matches_quad(quad):
    assert qags(math.exp, 1.0, 0.0) == quad(math.exp, 1.0, 0.0)
    assert qags(math.exp, 0.5, 0.5) == (0.0, 0.0)


def test_sigma8_normalisation_round_trips():
    # At unit amplitude the normalising integral is ~3e-6, below quad's
    # absolute tolerance (1.49e-8), so it is accurate to ~1e-6 relative,
    # not to round-off: sigma_r(8) reads 0.7000009 (BBKS) and 0.7000007
    # (Eisenstein-Hu) for sigma_8 = 0.7.
    for transfer in ("bbks", "eisenstein_hu"):
        params = CosmologyParameters()
        ps = PowerSpectrum(params, transfer=transfer)
        assert ps.sigma_r(8.0) == pytest.approx(params.sigma8, rel=2e-6)
