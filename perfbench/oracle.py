"""Reference answers computed with numpy alone, independent of entmoment.

Every check returns a list of problem strings; an empty list means the
program's output agrees with the reference.  The input generators reuse
the same helpers, so nothing here may import the package under test.
"""

from __future__ import annotations

import csv
import math

import numpy as np

KYFAN_TOL = 1e-9  # c_kyfan against the SVD sum
VERDICT_TOL = 1e-9  # the program's default separability tolerance
AMBIGUOUS_PT = 1e-7  # partial-transpose minima this close to 0 are not judged
CONCURRENCE_TOL = 1e-7  # square roots of ~1e-17 eigenvalues carry ~3e-9 noise
SWEEP_TOL = 1e-9
SYMMETRY_TOL = 1e-12

_SIGMA_Y = np.array([[0, -1j], [1j, 0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def gell_mann(n: int) -> np.ndarray:
    """Traceless generalized Gell-Mann matrices with Tr(s_j s_k) = 2 delta_jk."""
    mats = []
    for j in range(n):
        for k in range(j + 1, n):
            sym = np.zeros((n, n), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            anti = np.zeros((n, n), dtype=complex)
            anti[j, k], anti[k, j] = -1j, 1j
            mats += [sym, anti]
    for l in range(1, n):
        diag = np.zeros((n, n), dtype=complex)
        diag[np.arange(l), np.arange(l)] = 1.0
        diag[l, l] = -l
        mats.append(diag * math.sqrt(2.0 / (l * (l + 1))))
    return np.array(mats)


def correlation_traces(rho: np.ndarray, n: int):
    """Raw traces Tr(rho s_j x 1), Tr(rho 1 x s_k) and Tr(rho s_j x s_k)."""
    s = gell_mann(n)
    four = rho.reshape(n, n, n, n)  # [a, c, b, d] for row (a, c), column (b, d)
    rho_a = np.einsum("acbc->ab", four)
    rho_b = np.einsum("cacb->ab", four)
    a = np.einsum("ab,jba->j", rho_a, s).real
    b = np.einsum("ab,jba->j", rho_b, s).real
    corr = np.einsum("acbd,jba,kdc->jk", four, s, s, optimize=True).real
    return a, b, corr


def sufficient_value(rho: np.ndarray, n: int) -> float:
    """Left side of the de Vicente sufficient inequality, expansion convention."""
    a, b, corr = correlation_traces(rho, n)
    lin = math.sqrt(2.0 * (n - 1) / n)
    quad = 2.0 * (n - 1) / n
    nvec, mvec, c = (n / 2.0) * a, (n / 2.0) * b, (n * n / 4.0) * corr
    return lin * (np.linalg.norm(nvec) + np.linalg.norm(mvec)) + quad * float(
        np.sum(np.linalg.svd(c, compute_uv=False))
    )


def pt_min_eigenvalue(rho: np.ndarray, n: int) -> float:
    four = rho.reshape(n, n, n, n)
    pt = np.transpose(four, (0, 3, 2, 1)).reshape(n * n, n * n)
    return float(np.linalg.eigvalsh(pt)[0])


def wootters(rho: np.ndarray) -> float:
    """max(0, l1-l2-l3-l4), l the square roots of the spectrum of rho rho~."""
    tilde = _YY @ rho.conj() @ _YY
    ev = np.sort(np.clip(np.linalg.eigvals(rho @ tilde).real, 0.0, None))[::-1]
    lam = np.sqrt(ev)
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def _asymmetry(m: np.ndarray, sign: float) -> float:
    return float(np.max(np.abs(m - sign * m.T))) if m.size else 0.0


def check_report(rho: np.ndarray, report: dict) -> list:
    """Compare an ``analyze`` JSON report with numpy references for ``rho``."""
    problems = []
    dim = rho.shape[0]
    n = math.isqrt(dim)
    if report.get("dim") != dim:
        return [f"dim {report.get('dim')} != {dim}"]
    l_sym = np.array(report["L"])
    omega = np.array(report["Omega"])
    if _asymmetry(l_sym, 1.0) > SYMMETRY_TOL:
        problems.append("L is not symmetric")
    if _asymmetry(omega, -1.0) > SYMMETRY_TOL:
        problems.append("Omega is not antisymmetric")
    purity = float(np.trace(rho @ rho).real)
    if abs(report["purity"] - purity) > SYMMETRY_TOL:
        problems.append(f"purity {report['purity']} != {purity}")
    _, _, corr = correlation_traces(rho, n)
    kyfan = float(np.sum(np.linalg.svd(corr, compute_uv=False)))
    verdict = report["verdict"]
    c_kyfan = verdict["witnesses"]["c_kyfan"]
    if not abs(c_kyfan - kyfan) <= KYFAN_TOL:
        problems.append(f"c_kyfan {c_kyfan!r} != SVD sum {kyfan!r}")
    pt_min = pt_min_eigenvalue(rho, n)
    if abs(pt_min) > AMBIGUOUS_PT:
        ppt = pt_min >= -VERDICT_TOL
        status = verdict["status"]
        if n == 2 and status != ("separable" if ppt else "entangled"):
            problems.append(f"verdict {status} but partial-transpose minimum {pt_min:.3e}")
        if status == "separable" and not ppt:
            problems.append(f"separable verdict on an NPT state ({pt_min:.3e})")
    if n == 2:
        ref = wootters(rho)
        got = report["concurrence_wootters"]
        if not abs(got - ref) <= CONCURRENCE_TOL:
            problems.append(f"concurrence_wootters {got!r} != closed form {ref!r}")
    return problems


# -- figure sweeps --------------------------------------------------------------


def werner_columns(x: np.ndarray) -> dict:
    purity = (1.0 + 3.0 * x * x) / 4.0
    return {
        "concurrence_wootters": np.maximum(0.0, (3.0 * x - 1.0) / 2.0),
        "purity": purity,
        "tr_rho_rhotilde": purity,
    }


def schmidt_columns(x: np.ndarray, alpha: np.ndarray) -> dict:
    """Closed forms on x|a><a| + (1-x)/4, |a> = cos(alpha)|00> + sin(alpha)|11>."""
    c, s = np.cos(alpha), np.sin(alpha)
    q = (1.0 - x) / 4.0
    outer = np.sqrt((x * c * c + q) * (x * s * s + q))
    coh = np.abs(x * c * s)
    ev = np.sort(np.stack([(outer + coh) ** 2, (outer - coh) ** 2, q * q, q * q]), axis=0)
    variant = np.maximum(0.0, ev[3] - ev[2] - ev[1] - ev[0])
    z = x * np.cos(2.0 * alpha)
    cross = x * np.sin(2.0 * alpha)
    f = 2.0 * (3.0 + z**4) + 2.0 * (2.0 * cross**2 + (x - z * z) ** 2)
    return {"concurrence_variant": variant, "d_measure": f / 8.0 - 0.5}


def wedge_reference(x1, x2, fv, gv):
    """Central-difference wedge and seam flags, as (n1-2)*(n2-2) rows."""
    h1, h2 = x1[1] - x1[0], x2[1] - x2[0]
    df1 = (fv[2:, 1:-1] - fv[:-2, 1:-1]) / (2.0 * h1)
    df2 = (fv[1:-1, 2:] - fv[1:-1, :-2]) / (2.0 * h2)
    dg1 = (gv[2:, 1:-1] - gv[:-2, 1:-1]) / (2.0 * h1)
    dg2 = (gv[1:-1, 2:] - gv[1:-1, :-2]) / (2.0 * h2)
    seam = np.zeros(df1.shape, dtype=bool)
    for v in (fv, gv):
        st = np.stack([v[1:-1, 1:-1], v[2:, 1:-1], v[:-2, 1:-1], v[1:-1, 2:], v[1:-1, :-2]])
        seam |= (st.min(axis=0) == 0.0) & (st.max(axis=0) > 0.0)
    return (df1 * dg2 - df2 * dg1).ravel(), seam.ravel().astype(float)


def compare(name: str, got, ref, tol: float) -> list:
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return [f"{name}: shape {got.shape} != {ref.shape}"]
    err = np.abs(got - ref)
    if not np.all(err <= tol):
        worst = int(np.nanargmax(np.where(np.isnan(err), np.inf, err)))
        return [f"{name}: off by {err[worst]:.3e} at row {worst}"]
    return []


def check_csv(path, columns, rows) -> list:
    """The CSV read back must equal the table exactly."""
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    if not lines or tuple(lines[0]) != tuple(columns):
        return [f"{path}: header {lines[:1]} != {list(columns)}"]
    back = np.array([[float(v) for v in line] for line in lines[1:]], dtype=float)
    if back.shape != rows.shape or not np.array_equal(back, rows):
        return [f"{path}: values read back differ from the table"]
    return []


def check_svg(path) -> list:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
        return [f"{path}: not an SVG document"]
    return []
