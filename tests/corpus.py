"""The robustness corpus of hard and typical witness-program states,
generated in code with nothing downloaded.

Each part is a function that returns {label: state}, the states in a fixed
order:

  wbeta    (a) W at beta in np.linspace(0.5205, 0.5215, 201), next to the
           W threshold
  ghz1     (b) GHZ1 at alpha = 3/7 +- np.logspace(-9, -5, 17), next to
           the GHZ1 threshold
  xrand    (c) 400 random X states: default_rng(7); per state the
           populations dirichlet(ones(8)), then for each antidiagonal pair
           (i, 7 - i) in turn a modulus uniform() * sqrt(p_i p_{7-i}) and a
           phase 2 pi uniform()
  purew    (d) the pure-W asymptotes at n = 0.1 on the mu grid 0.9:1:0.01
  readme   (e) the README sweeps: the asymptotes of W at beta = 0.3, n = 1
           and of ghz2 at alpha = 0.9, n = 0.1, each on the mu grid
           0:1:0.01
  family   each of the six families pure and at its weight 0.05 to 0.95 in
           steps of 0.05

The grids are the CLI's --grid points. The benchmark's generic-states
states belong to the corpus too; perfbench/workloads.py draws them.
"""

import math

import numpy as np

from sgadmem.channel import SgadParams, asymptotic_state
from sgadmem.cli import _grid
from sgadmem.states import FAMILIES, make_noisy, make_pure

W_BETAS = np.linspace(0.5205, 0.5215, 201)
GHZ1_OFFSETS = np.logspace(-9, -5, 17)


def wbeta():
    return {f"w-{i}": make_noisy("w", beta=float(beta)) for i, beta in enumerate(W_BETAS)}


def ghz1():
    return {f"ghz1-{side}-{i}": make_noisy("ghz1", alpha=float(3 / 7 + sign * offset))
            for side, sign in (("plus", 1.0), ("minus", -1.0))
            for i, offset in enumerate(GHZ1_OFFSETS)}


def xrand():
    rng = np.random.default_rng(7)
    states = {}
    for k in range(400):
        p = rng.dirichlet(np.ones(8))
        rho = np.diag(p).astype(complex)
        for i in range(4):
            z = rng.uniform() * math.sqrt(p[i] * p[7 - i]) * np.exp(2j * math.pi * rng.uniform())
            rho[i, 7 - i], rho[7 - i, i] = z, np.conj(z)
        states[f"x-{k}"] = rho
    return states


def _sweep(rho0, n, grid):
    params = SgadParams(1.0, n, 0.0)
    return {mu: asymptotic_state(rho0, params, mu) for mu in _grid(grid)}


def purew():
    sweep = _sweep(make_pure("w"), 0.1, "0.9:1:0.01")
    return {f"purew-mu-{mu!r}": rho for mu, rho in sweep.items()}


def readme():
    sweeps = (("w", make_noisy("w", beta=0.3), 1.0), ("ghz2", make_noisy("ghz2", alpha=0.9), 0.1))
    return {f"{name}-mu-{mu!r}": rho for name, rho0, n in sweeps
            for mu, rho in _sweep(rho0, n, "0:1:0.01").items()}


def family():
    states = {}
    for name in FAMILIES:
        weight = "alpha" if name.startswith("ghz") else "beta"
        states[f"{name}-pure"] = make_pure(name)
        for k in range(1, 20):
            w = round(0.05 * k, 2)
            states[f"{name}-{weight}-{w!r}"] = make_noisy(name, **{weight: w})
    return states


PARTS = {"wbeta": wbeta, "ghz1": ghz1, "xrand": xrand, "purew": purew, "readme": readme,
         "family": family}
