"""Dense QFI oracle owned by the benchmark.

Builds H and the generator by np.kron, diagonalizes with np.linalg.eigh and
applies the pair formula F_Q = 2 sum_mn (p_n - p_m)^2 / (p_n + p_m) |O_mn|^2.
It shares no code with qfidyn, so agreement with the CLI tables is an
independent check.  Conventions follow the package: site 0 is the leftmost
Kronecker factor, H = J sum_i (x_i x_{i+1} + y_i y_{i+1}) + h sum_i z_i with
open boundary.
"""

from __future__ import annotations

import numpy as np

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _embed(factors, n):
    """Kronecker product over n sites: factors maps site -> 2x2 matrix."""
    out = np.ones((1, 1), dtype=complex)
    for site in range(n):
        out = np.kron(out, factors.get(site, np.eye(2, dtype=complex)))
    return out


def chain_hamiltonian(n, coupling, field):
    dim = 2**n
    h = np.zeros((dim, dim), dtype=complex)
    for i in range(n - 1):
        for axis in ("x", "y"):
            h += coupling * _embed({i: _PAULI[axis], i + 1: _PAULI[axis]}, n)
    for i in range(n):
        h += field * _embed({i: _PAULI["z"]}, n)
    return h


def generator(kind, n):
    if kind == "staggered-x":
        return sum((-1) ** i * 0.5 * _embed({i: _PAULI["x"]}, n) for i in range(n))
    if kind == "antisymmetric-x":
        return 0.5 * (_embed({0: _PAULI["x"]}, 2) - _embed({1: _PAULI["x"]}, 2))
    raise ValueError(f"oracle has no generator {kind!r}")


class Model:
    """Spectrum and |O_mn|^2 of one (H, O) pair."""

    def __init__(self, n, coupling, field, kind):
        h, o = chain_hamiltonian(n, coupling, field), generator(kind, n)
        if not (h.imag.any() or o.imag.any()):
            h, o = h.real, o.real  # real-symmetric eigh is several times faster
        energies, vectors = np.linalg.eigh(h)
        o_eig = vectors.conj().T @ o @ vectors
        self.energies = energies
        self.abs2 = np.abs(o_eig) ** 2

    def weights(self, temp):
        logw = -(self.energies - self.energies.min()) / temp
        w = np.exp(logw)
        return w / w.sum()

    def qfi(self, temp):
        p = self.weights(temp)
        pn, pm = p[None, :], p[:, None]
        tot = pn + pm
        coeff = np.divide((pn - pm) ** 2, tot, out=np.zeros_like(tot), where=tot > 0)
        return float(2.0 * np.sum(coeff * self.abs2))

    def second_moment(self, temp):
        """<O^2> = sum_mn p_n |O_mn|^2, the total weight of the response comb."""
        return float(np.sum(self.weights(temp)[None, :] * self.abs2))


def expected(workload):
    """Expected values for every row of the workload's full and setup tables.

    Returns {kind: {...}} for kind in ("full", "setup") with arrays aligned to
    that command's temperature grid (QFI values, not densities); fig2 also
    carries qfi_t0 and o2_t0 at the comb temperature.
    """
    p = workload.params
    out = {}
    commands = {"full": workload.full, "setup": workload.setup}
    if workload.name == "fig1-2q":
        models = {
            f: Model(2, p["coupling"], f, p["generator"])
            for f in (p["field_low"], p["field_high"]) + p["fields"]
        }
        for kind, cmd in commands.items():
            if cmd is None:
                continue
            out[kind] = {
                "low": np.array([models[p["field_low"]].qfi(t) for t in cmd.temps]),
                "high": np.array([models[p["field_high"]].qfi(t) for t in cmd.temps]),
                "heat": np.array([[models[f].qfi(t) for t in cmd.temps] for f in p["fields"]]),
            }
        return out
    model = Model(p["sites"], p["coupling"], p["field"], p["generator"])
    for kind, cmd in commands.items():
        if cmd is not None:
            out[kind] = {"qfi": np.array([model.qfi(t) for t in cmd.temps])}
    if "temperature" in p:
        out["qfi_t0"] = model.qfi(p["temperature"])
        out["o2_t0"] = model.second_moment(p["temperature"])
    return out
