"""Output checks made apart from bergkit.

Every expected value comes from the benchmark's own closed forms: the
angular derivative of each symbol family, the Gamma closed form of the
weighted half-line norm, and kernel matrices rebuilt from the emitted
points and diagonalized by LAPACK.  Nothing is compared with a stored
copy of an earlier run.  Each check returns a list of problems; an empty
list means the payload passed.
"""

from __future__ import annotations

import math

import numpy as np

# Tolerances are those of the acceptance criteria where one exists.
FORMULA_RTOL = 1e-10      # recomputed lam^((2+alpha)/2)
OVERSHOOT_RTOL = 1e-6     # lower bounds never exceed the formula (criterion 1)
TIGHTNESS = 0.99          # kernel ratio reaches 99% of the formula (criterion 1)
SPECTRAL_RTOL = 0.02      # spectral radius agreement (criterion 9)
TRACE_SLACK = 1e-9        # Gram prefix trace rounding, as tests/test_opnorm.py
EIG_RTOL = 1e-10          # min eigenvalue against LAPACK, times the entry scale
QUAD_GAP = 1e-3           # quadrature gap (criterion 7)
CLOSED_GAP = 1e-10        # closed-form gap (criterion 7)
RHS_RTOL = 1e-10          # Gamma closed form of ||f||^2


def check_norm(spec: dict, payload: dict) -> list:
    problems = []
    rows = payload.get("rows", [])
    if len(rows) != len(spec["cells"]):
        return [f"{len(rows)} rows for {len(spec['cells'])} cells"]
    for row, (sym, alpha) in zip(rows, spec["cells"]):
        where = f"{sym.text} at alpha={alpha}"
        if row["symbol_text"] != sym.text or row["alpha"] != alpha:
            problems.append(f"{where}: row is for {row['symbol_text']} "
                            f"at alpha={row['alpha']}")
            continue
        if sym.lam is None:
            if row["verdict"] != "UNBOUNDED":
                problems.append(f"{where}: verdict {row['verdict']}, "
                                "expected UNBOUNDED")
            continue
        if row["verdict"] != "BOUNDED":
            problems.append(f"{where}: verdict {row['verdict']}, expected BOUNDED")
            continue
        theo = sym.lam ** ((2.0 + alpha) / 2.0)
        if not abs(row["theoretical"] - theo) <= FORMULA_RTOL * theo:
            problems.append(f"{where}: theoretical {row['theoretical']!r}, "
                            f"formula gives {theo!r}")
        for key in ("kernel_ratio", "gram_eig", "essential_lower_bound"):
            if not row[key] <= theo * (1.0 + OVERSHOOT_RTOL):
                problems.append(f"{where}: {key} {row[key]!r} exceeds {theo!r}")
        if not row["kernel_ratio"] >= TIGHTNESS * theo:
            problems.append(f"{where}: kernel_ratio {row['kernel_ratio']!r} "
                            f"below {TIGHTNESS} of {theo!r}")
        if not abs(row["spectral_radius"] - theo) <= SPECTRAL_RTOL * theo:
            problems.append(f"{where}: spectral radius {row['spectral_radius']!r}"
                            f" not within 2% of {theo!r}")
        values = [v for _, v in row["estimates"]["gram_eig"]["trace"]]
        if any(b < a - TRACE_SLACK * theo for a, b in zip(values, values[1:])):
            problems.append(f"{where}: Gram prefix trace decreases: {values}")
    return problems


def kernel_entries(kernel: str, sym, alpha: float, pts: np.ndarray) -> np.ndarray:
    """Entry (i, j) of the kernel at z = pts[i], w = pts[j]."""
    zw = pts[:, None] + np.conj(pts)[None, :]
    if kernel == "gram":
        return 2.0 ** alpha * (1.0 + alpha) / zw ** (2.0 + alpha)
    images = sym.fn(pts)
    ratio = (images[:, None] + np.conj(images)[None, :]) / zw
    if kernel == "nevanlinna":
        return ratio
    n = int(kernel.split(":", 1)[1])
    return ratio ** n - sym.lam ** (-n)


def entry_scale(kernel: str, sym, entries: np.ndarray) -> float:
    scale = float(np.max(np.abs(entries)))
    if kernel.startswith("K:"):
        # K^n is a difference of two terms of size about lam^-n; rounding
        # follows their size, not that of the (smaller) difference.
        scale = max(scale, sym.lam ** -float(kernel.split(":", 1)[1]))
    return scale


def check_psd(spec: dict, payload: dict) -> list:
    problems = []
    kernel, sym = spec["kernel"], spec["symbol"]
    if payload.get("failures") != 0:
        problems.append(f"{kernel}: {payload.get('failures')} failures on a "
                        "kernel that is positive by theorem")
    verdicts = payload.get("verdicts", [])
    if len(verdicts) != spec["trials"] * len(spec["alphas"]):
        return problems + [f"{kernel}: {len(verdicts)} verdicts"]
    for verdict in verdicts:
        pts = np.array([complex(re, im) for re, im in verdict["points"]])
        entries = kernel_entries(kernel, sym, verdict["alpha"], pts)
        hermitian = 0.5 * (entries + entries.conj().T)
        expected = float(np.linalg.eigvalsh(hermitian)[0])
        tol = EIG_RTOL * entry_scale(kernel, sym, entries)
        if not abs(verdict["min_eigenvalue"] - expected) <= tol:
            problems.append(f"{kernel} alpha={verdict['alpha']} trial "
                            f"{verdict['trial']}: min_eigenvalue "
                            f"{verdict['min_eigenvalue']!r}, LAPACK {expected!r}")
        if not verdict["is_psd"]:
            problems.append(f"{kernel}: trial {verdict['trial']} not PSD")
    return problems


def mu_alpha_norm_squared(terms, alpha: float) -> float:
    """||f||^2 in L^2(Gamma(1+alpha) / (2^alpha t^(alpha+1)) dt) for
    f = sum c t^beta e^(-s t), by int t^(k-1) e^(-sigma t) = Gamma(k) / sigma^k."""
    total = 0j
    for ci, bi, si in terms:
        for cj, bj, sj in terms:
            k = bi + bj - alpha
            total += ci * cj.conjugate() * math.gamma(k) / (si + sj.conjugate()) ** k
    return (total * math.gamma(1.0 + alpha) / 2.0 ** alpha).real


def check_laplace(spec: dict, payload: dict) -> list:
    problems = []
    rows = payload.get("rows", [])
    if len(rows) != len(spec["alphas"]):
        return [f"{len(rows)} rows for {len(spec['alphas'])} alphas"]
    for row, alpha in zip(rows, spec["alphas"]):
        rhs = mu_alpha_norm_squared(spec["terms"], alpha)
        if row["alpha"] != alpha or not abs(row["rhs"] - rhs) <= RHS_RTOL * abs(rhs):
            problems.append(f"alpha={alpha}: rhs {row['rhs']!r}, "
                            f"closed form {rhs!r}")
        if not row["quadrature_gap"] <= QUAD_GAP:
            problems.append(f"alpha={alpha}: quadrature_gap "
                            f"{row['quadrature_gap']!r} above {QUAD_GAP}")
        if all(abs(beta - (1.0 + alpha)) <= 1e-12 for _, beta, _ in spec["terms"]):
            if not (row["lhs_closed_form"] is not None
                    and row["gap"] <= CLOSED_GAP):
                problems.append(f"alpha={alpha}: closed-form gap {row['gap']!r}")
    return problems


CHECKS = {"norm": check_norm, "psd": check_psd, "laplace": check_laplace}


def check(op, payload: dict) -> list:
    return CHECKS[op.argv[0]](op.spec, payload)
