import itertools
import math
import re
import warnings

import numpy as np
import pytest

from sgadmem.channel import (
    I2,
    SIGMA_P,
    CpViolationError,
    LindbladSpec,
    SgadParams,
    _apply,
    _correlated_superop,
    _radicands,
    _single_superop,
    _uncorrelated_superop,
    apply_correlated,
    apply_memory,
    apply_uncorrelated,
    asymptotic_state,
    choi_matrix,
    integrate_master,
    kraus_single,
)
from sgadmem.linalg import tensor
from sgadmem.states import make_noisy, make_pure

A2 = lambda n: n / (2.0 * n + 1.0)
B2 = lambda n: (n + 1.0) / (2.0 * n + 1.0)


def random_states(seed, count, dim=8):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = g @ g.conj().T
        out.append(h / np.trace(h).real)
    return out


def admissible(params, t):
    try:
        kraus_single(params, t)
    except CpViolationError:
        return False
    return True


def choi_from_definition(phi, dim):
    """(1/d) sum_ij E_ij x phi(E_ij), one matrix unit at a time."""
    choi = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = 1.0
            choi += np.kron(e, phi(e))
    return choi / dim


def reference_rhs(spec, rho):
    """Operator-form generator: d rho / dt for a batch (..., 8, 8) of states."""
    n, m, w = spec.params.n, spec.params.m, spec.params.omega
    if spec.mode == "correlated":
        raising = [tensor(SIGMA_P, SIGMA_P, SIGMA_P)]
    else:
        raising = [tensor(*(SIGMA_P if k == q else I2 for k in range(3))) for q in range(3)]
    out = np.zeros_like(rho)
    for sp in raising:
        sm = sp.conj().T
        pm = sp @ sm
        mp = sm @ sp
        out += -0.5 * w * (n + 1) * (pm @ rho + rho @ pm - 2 * (sm @ rho @ sp))
        out += -0.5 * w * n * (mp @ rho + rho @ mp - 2 * (sp @ rho @ sm))
        out += -w * m * (sp @ rho @ sp + sm @ rho @ sm)
    return out


def reference_rk4(rho, spec, t_final, dt):
    """Classical RK4, one step at a time, with integrate_master's step size."""
    steps = max(1, math.ceil(t_final / dt))
    h = t_final / steps
    out = np.array(rho, dtype=complex)
    for _ in range(steps):
        k1 = reference_rhs(spec, out)
        k2 = reference_rhs(spec, out + 0.5 * h * k1)
        k3 = reference_rhs(spec, out + 0.5 * h * k2)
        k4 = reference_rhs(spec, out + h * k3)
        out += (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return out


# -- parameter validation -------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        SgadParams(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        SgadParams(1.0, -0.5, 0.0)
    with pytest.raises(ValueError):
        SgadParams(1.0, 1.0, 1.5)  # m^2 > n(n+1)
    for bad in (math.nan, math.inf):
        for args in ((bad, 1.0, 0.0), (1.0, bad, 0.0), (1.0, 1.0, bad)):
            with pytest.raises(ValueError):
                SgadParams(*args)
    p = SgadParams(1.0, 1.0, math.sqrt(2.0) * 0.999)
    assert p.m < math.sqrt(2.0)
    with pytest.raises(ValueError, match=r"n=1e\+308 is too large: 2n \+ 1 overflows"):
        SgadParams(1.0, 1e308, 0.0)
    assert SgadParams(1.0, 8.98e307, 0.0).n == 8.98e307  # 2n + 1 still finite


# -- single-qubit Kraus set -------------------------------------------------

def test_kraus_completeness_admissible_grid():
    # 20x20 grid; squeezing at 90% of the allowed magnitude where the
    # radicands permit a real decomposition, plus the unsqueezed set
    worst = 0.0
    tested = 0
    for n in np.linspace(0.0, 5.0, 20):
        for t in np.geomspace(0.01, 10.0, 20):
            for frac in (0.0, 0.9):
                m = frac * math.sqrt(n * (n + 1.0))
                try:
                    ops = kraus_single(SgadParams(1.0, float(n), m), float(t))
                except CpViolationError:
                    continue
                s = sum(k.conj().T @ k for k in ops)
                worst = max(worst, float(np.abs(s - np.eye(2)).max()))
                tested += 1
    assert tested >= 350  # measured: 234 unsqueezed + 157 squeezed points
    assert worst <= 1e-10


def test_kraus_time_zero_is_identity():
    ops = kraus_single(SgadParams(1.0, 1.0, 0.0), 0.0)
    total = sum(k @ np.eye(2) @ k.conj().T for k in ops)
    assert np.abs(total - np.eye(2)).max() < 1e-14


def test_kraus_infinite_time_limits():
    n = 1.0
    k1, k2, k3, k4 = kraus_single(SgadParams(1.0, n, 0.5), float("inf"))
    a, b = math.sqrt(A2(n)), math.sqrt(B2(n))
    assert np.allclose(k1, np.diag([a, b]), atol=1e-15)
    assert np.allclose(k2, np.array([[0.0, a], [b, 0.0]]), atol=1e-15)
    assert np.abs(k3).max() == 0.0 and np.abs(k4).max() == 0.0


def test_kraus_negative_time_rejected():
    p = SgadParams(1.0, 1.0, 0.0)
    # every map rejects negative and NaN times; t = inf stays the asymptote
    rho = make_pure("ghz1")
    for bad in (math.nan, -0.1):
        with pytest.raises(ValueError):
            kraus_single(p, bad)
        with pytest.raises(ValueError):
            apply_correlated(rho, p, bad)
        for mu in (0.0, 0.5, 1.0):
            with pytest.raises(ValueError):
                apply_memory(rho, p, bad, mu)


def test_cp_violation_small_time():
    # at n=1, m=0 the k1 radicand is negative for Omega*t below ln(2)/1.5
    with pytest.raises(CpViolationError) as exc:
        kraus_single(SgadParams(1.0, 1.0, 0.0), 0.1)
    assert "k1" in exc.value.offenders
    assert abs(_radicands(SgadParams(1.0, 1.0, 0.0), 0.1)["k1"] - (-0.033496)) < 1e-5
    assert "k1^2=-3.3495" in str(exc.value)


def test_cp_violation_names_all_offenders():
    with pytest.raises(CpViolationError) as exc:
        kraus_single(SgadParams(1.0, 0.2, 0.48), 0.05)
    assert exc.value.offenders == ("k1", "k3")
    assert "k3" in str(exc.value)


def test_k3_k4_weights_are_never_negative():
    # xc and xs are half the sum and half the difference of two decaying
    # exponentials, the first no smaller than the second for m >= 0, so
    # kraus_single checks only k1..k4
    for n in (0.0, 0.1, 1.0, 5.0):
        for m in (0.0, 0.5 * math.sqrt(n * (n + 1)), math.sqrt(n * (n + 1))):
            for t in (0.0, 1e-3, 0.05, 1.0, 30.0, 1e3, math.inf):
                rad = _radicands(SgadParams(1.0, n, m), t)
                assert rad["xc"] >= 0.0 and rad["xs"] >= 0.0


def test_vacuum_bath_never_admissible():
    # n=0 collapses to amplitude damping where the k1 radicand
    # e^{-t} - e^{-t/2} is negative for every t > 0
    for t in (0.01, 0.5, 2.0, 20.0):
        with pytest.raises(CpViolationError) as exc:
            kraus_single(SgadParams(1.0, 0.0, 0.0), t)
        assert "k1" in exc.value.offenders
        # the remaining radicands still carry their analytic values
        assert abs(_radicands(SgadParams(1.0, 0.0, 0.0), t)["k4"] - (1.0 - math.exp(-t))) < 1e-12


# -- three-qubit product channel -------------------------------------------

def test_uncorrelated_matches_64_product_materialization():
    p = SgadParams(1.0, 1.0, 0.5)
    t = 1.0
    ops = kraus_single(p, t)
    rho = random_states(0, 1)[0]
    out = np.zeros((8, 8), dtype=complex)
    for ka, kb, kc in itertools.product(ops, repeat=3):
        big = tensor(ka, kb, kc)
        out += big @ rho @ big.conj().T
    assert np.abs(out - apply_uncorrelated(rho, p, t)) .max() < 1e-12


def test_uncorrelated_thermal_fixed_point():
    n = 1.0
    p = SgadParams(1.0, n, 0.0)
    diag = np.array([A2(n) ** (3 - bin(i).count("1")) * B2(n) ** bin(i).count("1")
                     for i in range(8)])
    rho = np.diag(diag).astype(complex)
    assert np.allclose(diag, np.array([1, 2, 2, 4, 2, 4, 4, 8]) / 27.0)
    out = apply_uncorrelated(rho, p, 3.0)
    assert np.abs(out - rho).max() < 1e-12


def test_uncorrelated_trace_and_hermiticity():
    p = SgadParams(1.0, 0.7, 0.4)
    for rho in random_states(1, 5):
        out = apply_uncorrelated(rho, p, 2.0)
        assert abs(np.trace(out).real - 1.0) < 1e-10
        assert np.abs(out - out.conj().T).max() < 1e-10


# -- correlated closed form -------------------------------------------------

def test_correlated_population_oracle():
    # excited-corner population of the fully inverted state after unit time:
    # (n (r11+r88) + ((n+1) r11 - n r88) e^{-(2n+1) t}) / (2n+1)
    rho = np.zeros((8, 8), dtype=complex)
    rho[7, 7] = 1.0
    out = apply_correlated(rho, SgadParams(1.0, 1.0, 0.0), 1.0)
    expected = (1.0 - math.exp(-3.0)) / 3.0
    assert abs(out[0, 0].real - 0.3167376438773787) < 1e-15
    assert abs(out[0, 0].real - expected) < 1e-15
    assert abs(np.trace(out).real - 1.0) < 1e-14


def test_correlated_corner_oracle():
    # GHZ corner decays with e^{-(n+m+1/2) t} on the symmetric combination
    out = apply_correlated(make_pure("ghz1"), SgadParams(1.0, 1.0, 1.0), 1.0)
    assert abs(out[0, 7].real - 0.5 * math.exp(-2.5)) < 1e-15
    assert abs(out[0, 7].imag) < 1e-16


def test_correlated_matches_integrator():
    for n, mf, t in ((0.5, 0.0, 0.7), (1.0, 0.9, 1.5), (5.0, 0.5, 0.2)):
        p = SgadParams(1.0, n, mf * math.sqrt(n * (n + 1.0)))
        dt = 0.01 / (2.0 * n + 1.0)
        stack = np.array(random_states(2, 5))
        ref = integrate_master(stack, LindbladSpec("correlated", p), t, dt)
        out = np.array([apply_correlated(r, p, t) for r in stack])
        assert np.abs(out - ref).max() < 1e-6


def test_correlated_semigroup():
    p = SgadParams(1.0, 0.8, 0.6)
    rho = random_states(3, 1)[0]
    ab = apply_correlated(apply_correlated(rho, p, 0.7), p, 1.1)
    direct = apply_correlated(rho, p, 1.8)
    assert np.abs(ab - direct).max() < 1e-10


def test_correlated_inner_block_invariant():
    # the six inner basis states see no collective raising/lowering at all
    p = SgadParams(1.0, 2.0, 1.0)
    for fam in ("ghz2", "ghz3", "ghz4"):
        rho = make_pure(fam)
        for t in (0.3, 2.0, 50.0):
            assert np.abs(apply_correlated(rho, p, t) - rho).max() < 1e-14


def test_correlated_time_zero_and_trace():
    p = SgadParams(1.0, 1.3, 0.9)
    for rho in random_states(4, 3):
        assert np.abs(apply_correlated(rho, p, 0.0) - rho).max() < 1e-15
        out = apply_correlated(rho, p, 4.0)
        assert abs(np.trace(out).real - 1.0) < 1e-10
        assert np.abs(out - out.conj().T).max() < 1e-10


# -- operator-sum vs generator discrepancy ----------------------------------

def test_uncorrelated_populations_match_integrator():
    p = SgadParams(1.0, 1.0, 0.5)
    dt = 0.01 / 3.0
    diag = np.diag(np.linspace(1.0, 2.0, 8)).astype(complex)
    diag /= np.trace(diag).real
    ref = integrate_master(diag, LindbladSpec("uncorrelated", p), 1.0, dt)
    out = apply_uncorrelated(diag, p, 1.0)
    assert np.abs(out - ref).max() < 1e-6


@pytest.mark.xfail(strict=True, reason="the operator-sum map couples each "
                   "coherence to its conjugate through k3 k4 + xs; the "
                   "generator evolution leaves them decoupled, so off-diagonal "
                   "entries of generic states disagree (populations match)")
def test_uncorrelated_coherences_match_integrator():
    p = SgadParams(1.0, 1.0, 0.5)
    dt = 0.01 / 3.0
    rho = random_states(5, 1)[0]
    ref = integrate_master(rho, LindbladSpec("uncorrelated", p), 1.0, dt)
    out = apply_uncorrelated(rho, p, 1.0)
    assert np.abs(out - ref).max() < 1e-6  # measured deviation ~6.5e-2


# -- memory mixture and asymptotics -----------------------------------------

def test_apply_memory_endpoints_and_bounds():
    p = SgadParams(1.0, 1.0, 0.0)
    rho = make_noisy("ghz1", alpha=0.8)
    assert np.abs(apply_memory(rho, p, 2.0, 0.0)
                  - apply_uncorrelated(rho, p, 2.0)).max() < 1e-15
    assert np.abs(apply_memory(rho, p, 2.0, 1.0)
                  - apply_correlated(rho, p, 2.0)).max() < 1e-15
    mid = apply_memory(rho, p, 2.0, 0.25)
    blend = 0.75 * apply_uncorrelated(rho, p, 2.0) + 0.25 * apply_correlated(rho, p, 2.0)
    assert np.abs(mid - blend).max() < 1e-15
    with pytest.raises(ValueError):
        apply_memory(rho, p, 2.0, 1.2)


def test_apply_memory_correlated_branch_ignores_kraus_domain():
    # mu=1 must work at times where the operator-sum set does not exist
    p = SgadParams(1.0, 1.0, 0.0)
    rho = make_pure("ghz2")
    assert not admissible(p, 0.1)
    out = apply_memory(rho, p, 0.1, 1.0)
    assert np.abs(out - rho).max() < 1e-14


def test_asymptotic_corner_oracle():
    # t -> inf of pure GHZ under the product channel: antidiagonal corner
    # (sqrt(n(n+1))/(2n+1))^3 and the thermal diagonal
    out = asymptotic_state(make_pure("ghz1"), SgadParams(1.0, 1.0, 0.0), 0.0)
    assert abs(out[0, 7].real - 2.0 * math.sqrt(2.0) / 27.0) < 1e-14
    assert abs(out[0, 7].real - 0.10475656017578483) < 1e-15
    assert np.allclose(np.diag(out).real, np.array([1, 2, 2, 4, 2, 4, 4, 8]) / 27.0,
                       atol=1e-14)


def test_asymptotic_matches_long_time_memory():
    for n in (0.3, 1.0):
        for mf in (0.0, 0.5):
            p = SgadParams(1.0, n, mf * math.sqrt(n * (n + 1.0)))
            for mu in (0.0, 0.4, 1.0):
                rho = make_noisy("ghz1", alpha=0.6)
                inf_out = asymptotic_state(rho, p, mu)
                long_out = apply_memory(rho, p, 60.0, mu)
                assert np.abs(inf_out - long_out).max() < 1e-8


def test_asymptotic_m_independence():
    rho = random_states(6, 1)[0]
    for n in (0.1, 1.0, 5.0):
        cap = math.sqrt(n * (n + 1.0))
        p0 = SgadParams(1.0, n, 0.0)
        p9 = SgadParams(1.0, n, 0.99 * cap)
        for mu in (0.0, 0.5, 1.0):
            assert np.abs(asymptotic_state(rho, p0, mu)
                          - asymptotic_state(rho, p9, mu)).max() < 1e-12


def test_asymptotic_mu_validation():
    with pytest.raises(ValueError):
        asymptotic_state(make_pure("w"), SgadParams(1.0, 1.0, 0.0), -0.1)


def test_asymptotic_state_matches_apply_memory_bit_for_bit():
    # on a call that builds the t -> inf maps and on one that reads them
    rhos = np.array([make_pure("ghz1"), make_noisy("w", beta=0.3)] + random_states(11, 2))
    _correlated_superop.cache_clear()
    _uncorrelated_superop.cache_clear()
    for p in (SgadParams(1.0, 0.3, 0.0), SgadParams(1.0, 1.0, 0.5)):
        for mu in (0.0, 0.37, 1.0):
            expect = apply_memory(rhos, p, math.inf, mu)
            for _ in range(2):
                out = asymptotic_state(rhos, p, mu)
                assert out.shape == (4, 8, 8)
                assert out.tobytes() == expect.tobytes()
    with pytest.raises(ValueError, match=r"mu must lie in \[0, 1\], got 1.5"):
        asymptotic_state(rhos, p, 1.5)


def test_asymptotic_maps_are_cached_read_only():
    p = SgadParams(1.0, 1.0, 0.5)
    assert admissible(p, 1.0)
    for t in (math.inf, 1.0):
        for build in (_correlated_superop, _uncorrelated_superop):
            s = build(p, t)
            assert build(SgadParams(1.0, 1.0, 0.5), t) is s
            assert not s.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                s[0, 0] = 0.0


@pytest.mark.parametrize("n, m, t", [(1.0, 0.5, 1.0), (1.0, 0.5, math.inf), (0.3, 0.4, 3.0)],
                         ids=["admissible", "asymptote", "squeezed"])
def test_single_superop_matches_kron_sum_bit_for_bit(n, m, t):
    # the one-einsum build against the Kronecker sum it replaced
    ops = kraus_single(SgadParams(1.0, n, m), t)
    assert ops.shape == (4, 2, 2)
    expect = sum(np.kron(k, k.conj()) for k in ops)
    assert _single_superop(ops).tobytes() == expect.tobytes()


def test_maps_on_stacks_match_per_state_calls_bit_for_bit():
    p = SgadParams(1.0, 1.0, 0.5)
    stack = np.array(random_states(12, 6)).reshape(2, 3, 8, 8)
    maps = [lambda r: apply_uncorrelated(r, p, 1.0), lambda r: apply_correlated(r, p, 1.0)]
    maps += [lambda r, mu=mu: apply_memory(r, p, 1.0, mu) for mu in (0.0, 0.37, 1.0)]
    maps += [lambda r: asymptotic_state(r, p, 0.37)]
    for phi in maps:
        out = phi(stack)
        expect = np.array([[phi(rho) for rho in row] for row in stack])
        assert out.shape == (2, 3, 8, 8)
        assert out.tobytes() == expect.tobytes()


def test_apply_checks_stack_shape_and_each_trace():
    p = SgadParams(1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="8, 8"):
        apply_correlated(np.zeros((5, 8, 7)), p, 1.0)
    # a map that scales the |000><000| population by 1.05 keeps the trace
    # of |111><111| and not that of |000><000|
    gaining = np.eye(64)
    gaining[0, 0] = 1.05
    stack = np.zeros((3, 8, 8), dtype=complex)
    stack[:, 7, 7] = 1.0
    assert np.abs(np.trace(_apply(gaining, stack), axis1=1, axis2=2) - 1.0).max() < 1e-12
    stack[1] = np.diag(np.eye(8)[0])
    with pytest.raises(RuntimeError, match="lost trace"):
        _apply(gaining, stack)


# -- integrator --------------------------------------------------------------

def test_integrate_master_dt_bound():
    p = SgadParams(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_master(np.eye(8) / 8, LindbladSpec("correlated", p), 1.0, 0.5)
    # backwards, unbounded or undefined times and nonpositive steps
    for t_final, dt in ((-1.0, 0.003), (math.nan, 0.003), (math.inf, 0.003),
                        (1.0, -1.0), (1.0, 0.0), (1.0, math.nan)):
        for mode in ("correlated", "uncorrelated"):
            with pytest.raises(ValueError):
                integrate_master(make_pure("w"), LindbladSpec(mode, p), t_final, dt)


def test_integrate_master_refuses_a_time_beyond_its_reach():
    # past float-many steps, or where the powered step loses trace, the time
    # is out of the integrator's reach: a ValueError naming it, not a
    # RuntimeError from the trace check (which still guards every other map)
    def integrate(mode, n, t_final):
        p = SgadParams(1.0, n, 0.0)
        return integrate_master(np.eye(8) / 8, LindbladSpec(mode, p), t_final, 0.01 / (2.0 * n + 1.0))

    for mode, n, t_final in (("correlated", 1.0, 1e308), ("uncorrelated", 1.0, 1e308),
                             ("uncorrelated", 1.0, 1e7), ("uncorrelated", 5.0, 1e6)):
        with pytest.raises(ValueError, match=re.escape(f"t_final={t_final} is beyond the integrator's reach")):
            integrate(mode, n, t_final)
    # a tenth of that time is still in reach at n = 1
    for mode in ("correlated", "uncorrelated"):
        assert abs(np.trace(integrate(mode, 1.0, 1e6)).real - 1.0) < 1e-8


def test_integrate_master_matches_stepped_reference():
    # the operator-form generator stepped one RK4 step at a time pins the
    # Liouvillian's vec convention and the powering of the step matrix
    n = 0.7
    p = SgadParams(1.0, n, 0.8 * math.sqrt(n * (n + 1.0)))
    dt = 0.01 / (2.0 * n + 1.0)
    stack = np.array(random_states(8, 4))
    for mode in ("uncorrelated", "correlated"):
        spec = LindbladSpec(mode, p)
        ref = reference_rk4(stack, spec, 1.0, dt)  # 240 steps
        assert np.abs(integrate_master(stack, spec, 1.0, dt) - ref).max() < 1e-12


def test_integrate_master_batch_lockstep():
    p = SgadParams(1.0, 0.5, 0.3)
    spec = LindbladSpec("correlated", p)
    stack = np.array(random_states(7, 4))
    dt = 0.01 / 2.0
    batch = integrate_master(stack, spec, 0.9, dt)
    for i in range(4):
        single = integrate_master(stack[i], spec, 0.9, dt)
        assert np.abs(batch[i] - single).max() < 1e-14
        assert abs(np.trace(batch[i]).real - 1.0) < 1e-8


def test_lindblad_spec_mode_checked():
    with pytest.raises(ValueError):
        LindbladSpec("diagonal", SgadParams(1.0, 1.0, 0.0))


# -- transfer-matrix representation ------------------------------------------

def test_choi_uncorrelated_single_positive_and_unit_trace():
    p = SgadParams(1.0, 1.0, 0.0)
    c = choi_matrix(p, 1.0, "uncorrelated-single")
    assert c.shape == (4, 4)
    assert np.linalg.eigvalsh(c)[0] > -1e-10
    assert abs(np.trace(c).real - 1.0) < 1e-12
    ops = kraus_single(p, 1.0)
    ref = choi_from_definition(lambda e: sum(k @ e @ k.conj().T for k in ops), 2)
    assert np.abs(c - ref).max() < 1e-14


def test_choi_correlated_3q_positive():
    p = SgadParams(1.0, 0.6, 0.4)
    for t in (0.2, 1.0, 8.0):
        c = choi_matrix(p, t, "correlated-3q")
        assert c.shape == (64, 64)
        assert np.linalg.eigvalsh(c)[0] > -1e-10
        assert abs(np.trace(c).real - 1.0) < 1e-12
        ref = choi_from_definition(lambda e: apply_correlated(e, p, t), 8)
        assert np.abs(c - ref).max() < 1e-14


def test_choi_memory_mixture():
    p = SgadParams(1.0, 1.0, 0.0)
    cu = choi_matrix(p, 1.0, "memory-3q", mu=0.0)
    cc = choi_matrix(p, 1.0, "memory-3q", mu=1.0)
    cm = choi_matrix(p, 1.0, "memory-3q", mu=0.3)
    assert np.abs(cm - (0.7 * cu + 0.3 * cc)).max() < 1e-14
    assert admissible(p, 1.0)
    ref = choi_from_definition(lambda e: apply_memory(e, p, 1.0, 0.3), 8)
    assert np.abs(cm - ref).max() < 1e-14


def test_choi_raises_where_the_operator_set_does_not_exist():
    # outside the operator set's domain every mode that reads it raises, as
    # the maps do; the collective map and mu = 1 exist at every time
    p = SgadParams(1.0, 1.0, 0.0)
    rho = make_pure("w")
    assert not admissible(p, 0.05)
    _uncorrelated_superop.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CpViolationError, match="k1"):
            choi_matrix(p, 0.05, "uncorrelated-single")
        with pytest.raises(CpViolationError, match="k1"):
            apply_uncorrelated(rho, p, 0.05)
        for mu in (0.0, 0.5):
            with pytest.raises(CpViolationError, match="k1"):
                choi_matrix(p, 0.05, "memory-3q", mu)
            with pytest.raises(CpViolationError, match="k1"):
                apply_memory(rho, p, 0.05, mu)
        for c in (choi_matrix(p, 0.05, "correlated-3q"), choi_matrix(p, 0.05, "memory-3q", 1.0)):
            assert np.linalg.eigvalsh(c)[0] > -1e-10
            assert abs(np.trace(c).real - 1.0) < 1e-12
    assert _uncorrelated_superop.cache_info().currsize == 0


def test_choi_mode_checked():
    with pytest.raises(ValueError):
        choi_matrix(SgadParams(1.0, 1.0, 0.0), 1.0, "bogus")
