"""Output verification for one CLI invocation.

Valid documents must exit 0 and write their data files. Every data file is
hashed (the meta sidecar holds wall clock and is skipped); on the default
seed the hashes must equal the committed ones in `golden.json`, and on any
seed they must repeat from pass to pass. Coalition results are checked
against independent computations instead, because the LP may legitimately
return another optimal vertex.

Invalid documents must exit with their documented code and name the
offending field by dotted path on stderr. Known-defect documents are
counted apart, so their share stays visible without failing the run.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import re

import numpy as np

DEFAULT_SEED = 0
TOL_CERT = 1e-9
TOL_MATCH = 1e-7

# "error: coop.values[3].value: ..." -- a path with at least one dot
_DOTTED = re.compile(r"^error: [A-Za-z_][\w-]*(\[\d+\])*(\.[\w-]+(\[\d+\])*)+: ",
                     re.MULTILINE)

OK, FAILED, DEFECT = "ok", "failed", "defect"


def data_digests(out_dir, stem):
    """sha256 of every data file written for `stem` (meta sidecar excluded)."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name.startswith(stem + ".") and not name.endswith(".meta.json"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _read_summary(out_dir, stem, fmt):
    path = os.path.join(out_dir, f"{stem}.summary.{fmt}")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "jsonl":
        return json.loads(text)["summary"]
    summary = {}
    for key, value in list(csv.reader(io.StringIO(text)))[1:]:
        try:
            summary[key] = json.loads(value)
        except ValueError:
            summary[key] = value
    return summary


def _rows(out_dir, stem, table, fmt):
    with open(os.path.join(out_dir, f"{stem}.{table}.{fmt}"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return len(lines) - 1 if fmt == "csv" else len(lines)


# --- independent coalition-game oracles -------------------------------------

def _coop_values(body):
    n = body["coop"]["agents"]
    v = np.zeros(1 << n)
    for entry in body["coop"]["values"]:
        v[sum(1 << i for i in entry["coalition"])] = entry["value"]
    return n, v


def _incidence(n):
    masks = np.arange(1 << n)
    return ((masks[:, None] >> np.arange(n)) & 1).astype(float)


def shapley_by_dividends(n, v):
    """phi_i = sum over S containing i of d(S) / |S|, d the Harsanyi
    dividends (Moebius transform of v)."""
    d = v.copy()
    masks = np.arange(1 << n)
    for i in range(n):
        bit = 1 << i
        has = (masks & bit) != 0
        d[has] -= d[masks[has] ^ bit]
    inc = _incidence(n)
    size = inc.sum(axis=1)
    share = np.divide(d, size, out=np.zeros_like(d), where=size > 0)
    return inc.T @ share


def _linprog(**kw):
    from scipy.optimize import linprog
    res = linprog(method="highs", **kw)
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return res


def core_lp_optimum(n, v):
    """min sum(x) subject to x(S) >= v(S) for every nonempty S."""
    a = _incidence(n)[1:]
    res = _linprog(c=np.ones(n), A_ub=-a, b_ub=-v[1:], bounds=(None, None))
    return float(res.fun)


def nucleolus_by_highs(n, v):
    """Sequential-LP nucleolus (Maschler, Peleg and Shapley, 1979).

    Each stage minimizes the largest excess t over coalitions not yet fixed.
    A coalition whose constraint has a nonzero dual binds in every optimum,
    so it is fixed at t; coalitions whose incidence row lies in the span of
    the fixed rows have a determined excess and leave the free set.
    """
    inc = _incidence(n)
    full = (1 << n) - 1
    fixed_rows, fixed_rhs = [inc[full]], [v[full]]
    free = list(range(1, full))
    while True:
        a_ub = np.hstack([-inc[free], -np.ones((len(free), 1))])
        a_eq = np.hstack([np.asarray(fixed_rows), np.zeros((len(fixed_rows), 1))])
        c = np.zeros(n + 1)
        c[n] = 1.0
        res = _linprog(c=c, A_ub=a_ub, b_ub=-v[free], A_eq=a_eq,
                       b_eq=np.asarray(fixed_rhs), bounds=(None, None))
        t = res.x[n]
        newly = [s for s, dual in zip(free, res.ineqlin.marginals) if abs(dual) > 1e-9]
        if not newly:
            raise RuntimeError("reference nucleolus stage fixed nothing")
        for s in newly:
            fixed_rows.append(inc[s])
            fixed_rhs.append(v[s] - t)
        mat = np.asarray(fixed_rows)
        rank = np.linalg.matrix_rank(mat)
        if rank == n:
            return np.linalg.lstsq(mat, np.asarray(fixed_rhs), rcond=None)[0]
        fixed = set(newly)
        free = [s for s in free if s not in fixed
                and np.linalg.matrix_rank(np.vstack([mat, inc[s]])) > rank]


def _close(a, b):
    return np.asarray(a, dtype=float).shape == np.asarray(b, dtype=float).shape and \
        float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))) <= TOL_MATCH


def check_coop(doc, summary):
    """Problems with a coop summary, as strings (empty when it checks out)."""
    n, v = _coop_values(doc.body)
    full = (1 << n) - 1
    problems = []
    if not _close(summary["shapley"], shapley_by_dividends(n, v)):
        problems.append("shapley differs from the dividend formula")
    opt = core_lp_optimum(n, v)
    if abs(summary["core_lp_optimum"] - opt) > TOL_MATCH:
        problems.append(f"core_lp_optimum {summary['core_lp_optimum']} != {opt}")
    if summary["core_nonempty"] != (opt <= v[full] + TOL_CERT):
        problems.append("core verdict disagrees with the reference LP")
    if summary["core_nonempty"]:
        x = np.asarray(summary["core_point"], dtype=float)
        if abs(x.sum() - v[full]) > TOL_CERT:
            problems.append("core certificate is not efficient")
        worst = float(np.max(v[1:] - _incidence(n)[1:] @ x))
        if worst > TOL_CERT:
            problems.append(f"core certificate has excess {worst}")
    if not _close(summary["nucleolus"], nucleolus_by_highs(n, v)):
        problems.append("nucleolus differs from the reference")
    return problems


def _check_learn(doc, out_dir, summary):
    learn = doc.body["learn"]
    horizon, stride = learn["horizon"], learn.get("gap_stride", 1)
    gaps = horizon // stride + (horizon % stride != 0)
    problems = []
    if summary["horizon"] != horizon:
        problems.append("summary horizon differs from the config")
    if _rows(out_dir, doc.stem, "trace", doc.fmt) != horizon:
        problems.append("trace does not hold one row per step")
    if _rows(out_dir, doc.stem, "gap", doc.fmt) != gaps:
        problems.append("gap series has the wrong length")
    return problems


# --- one invocation -----------------------------------------------------------

class Verifier:
    """Checks invocations of one workload and keeps the first digests seen."""

    def __init__(self, workload, seed, golden_path):
        self.golden = None
        if seed == DEFAULT_SEED:
            with open(golden_path, encoding="utf-8") as fh:
                self.golden = json.load(fh).get(workload)
        self.digests = {}        # stem -> {file: sha256} from the first pass
        self.checked = set()     # stems whose content checks already passed

    def check(self, doc, code, stderr, out_dir):
        """Return (outcome, problem) for one finished invocation."""
        if code != doc.exit_code:
            return FAILED, f"exit {code}, expected {doc.exit_code}: {stderr.strip()[-200:]}"
        if code != 0:
            if "error: " not in stderr:
                return FAILED, "no error message on stderr"
            if code == 1 and not _DOTTED.search(stderr):
                if doc.known_defect:
                    return DEFECT, f"{doc.known_defect}: no dotted path"
                return FAILED, "schema error without a dotted path"
            return OK, ""
        digests = data_digests(out_dir, doc.stem)
        if not digests:
            return FAILED, "no data files written"
        first = self.digests.setdefault(doc.stem, digests)
        if digests != first:
            return FAILED, "data files differ from the first pass"
        if self.golden is not None and doc.kind != "coop":
            want = {k: h for k, h in self.golden.items()
                    if k.startswith(doc.stem + ".")}
            if digests != want:
                return FAILED, "data files differ from golden.json"
        if doc.stem in self.checked:
            return OK, ""
        summary = _read_summary(out_dir, doc.stem, doc.fmt)
        problems = []
        if doc.kind == "coop":
            problems = check_coop(doc, summary)
        elif doc.kind == "learn":
            problems = _check_learn(doc, out_dir, summary)
        if problems:
            return FAILED, "; ".join(problems)
        self.checked.add(doc.stem)
        return OK, ""
