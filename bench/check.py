"""Independent re-derivation of CLI results, written without the package.

Each check recounts the reported quantity from raw membership: sup^2 on
a reported subspace or coset comes from this module's own Walsh /
radix-3 transforms over the coset's points, and a reported witness
frequency is re-checked by a direct character sum.  A check returns
None when the report is consistent, else a one-line reason.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Optional

from workloads import SetSpec, Task

F3_TOTAL = 2663
F3_MIN_SQ = "4921/59049"
SLACK = 4  # the CLI's default --slack


def digest(exact: dict) -> str:
    canonical = json.dumps(exact, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _rank(text: str, p: int) -> int:
    return int(text, p)


def _add(p: int, n: int, x: int, y: int) -> int:
    if p == 2:
        return x ^ y
    out, w = 0, 1
    for _ in range(n):
        out += ((x // w % 3 + y // w % 3) % 3) * w
        w *= 3
    return out


def _span(p: int, n: int, basis: list[int]) -> list[int]:
    pts = [0]
    for b in basis:
        steps = [b] if p == 2 else [b, _add(p, n, b, b)]
        pts = pts + [_add(p, n, x, s) for s in steps for x in pts]
    return pts


def _coset_table(points: SetSpec, basis: list[int], rep: int) -> tuple[list[int], list[int]]:
    mem = points.membership()
    pts = [_add(points.p, points.n, rep, v) for v in _span(points.p, points.n, basis)]
    return pts, [1 if mem[x] == "1" else 0 for x in pts]


def _walsh(table: list[int]) -> list[int]:
    out = list(table)
    h = 1
    while h < len(out):
        for start in range(0, len(out), 2 * h):
            for i in range(start, start + h):
                a, b = out[i], out[i + h]
                out[i], out[i + h] = a + b, a - b
        h *= 2
    return out


def _radix3(table: list[int]) -> list[tuple[int, int]]:
    """Transform into Z[w] pairs (a, b) = a + b*w, w^2 = -1 - w.

    Index t holds the sum at character -t; only the maximum magnitude
    over t != 0 is used, which that relabelling leaves unchanged.
    """
    out = [(v, 0) for v in table]
    h = 1
    while h < len(out):
        for start in range(0, len(out), 3 * h):
            for i in range(start, start + h):
                x, y, z = out[i], out[i + h], out[i + 2 * h]
                wy = (-y[1], y[0] - y[1])          # w * y
                w2y = (y[1] - y[0], -y[0])         # w^2 * y
                wz, w2z = (-z[1], z[0] - z[1]), (z[1] - z[0], -z[0])
                out[i] = (x[0] + y[0] + z[0], x[1] + y[1] + z[1])
                out[i + h] = (x[0] + wy[0] + w2z[0], x[1] + wy[1] + w2z[1])
                out[i + 2 * h] = (x[0] + w2y[0] + wz[0], x[1] + w2y[1] + wz[1])
        h *= 3
    return out


def sup_sq(points: SetSpec, basis: list[int], rep: int = 0) -> Fraction:
    """max over nontrivial characters of |coefficient / |V||^2 on rep + V."""
    _, table = _coset_table(points, basis, rep)
    if len(table) == 1:
        return Fraction(0)
    if points.p == 2:
        best = max(c * c for c in _walsh(table)[1:])
    else:
        best = max(a * a - a * b + b * b for a, b in _radix3(table)[1:])
    return Fraction(best, len(table) ** 2)


def witness_sq(points: SetSpec, basis: list[int], rep: int, r: int) -> Fraction:
    """Direct character sum at ambient frequency r on rep + V (p = 2)."""
    pts, table = _coset_table(points, basis, rep)
    total = sum(
        -flag if ((r & (x ^ rep)).bit_count() & 1) else flag
        for x, flag in zip(pts, table)
    )
    return Fraction(total * total, len(table) ** 2)


def _basis(space: dict, p: int) -> list[int]:
    return [_rank(row, p) for row in space["basis"]]


def _check_oracle(task: Task, code: int, exact: dict) -> Optional[str]:
    points = task.points
    if code != 0:
        return f"exit {code}"
    space = exact["best_subspace"]
    if space["codim"] > task.params["max_codim"]:
        return "winner codim above --max-codim"
    recount = sup_sq(points, _basis(space, points.p))
    if recount != Fraction(exact["sup_sq"]):
        return f"sup_sq {exact['sup_sq']} != recount {recount}"
    if task.params["planted"] and recount != 0:
        return "planted coset union not found (sup_sq != 0)"
    return None


def _check_pipeline(task: Task, code: int, exact: dict) -> Optional[str]:
    points = task.points
    if exact["outcome"] != "success" or code != 0:
        return f"outcome {exact['outcome']} exit {code}"
    basis = _basis(exact["V"], 2)
    recount = sup_sq(points, basis)
    reported = Fraction(exact["sup_sq"])
    if recount != reported:
        return f"sup_sq {reported} != recount {recount}"
    witness = exact["witness_r"]
    if witness is None:
        if reported != 0:  # the CLI reports no witness when every coefficient is 0
            return "no witness_r for a nonzero sup_sq"
    elif witness_sq(points, basis, 0, _rank(witness, 2)) != reported:
        return "witness_r does not attain sup_sq"
    bound = SLACK * Fraction(task.params["eps"])
    if exact["bound_ok"] != (reported <= bound * bound):
        return "bound_ok disagrees with sup_sq"
    return None


def _check_increment(task: Task, code: int, exact: dict) -> Optional[str]:
    points = task.points
    if code != 0:
        return f"exit {code}"
    steps = exact["steps"]
    if exact["step_count"] != len(steps) - 1:
        return "step_count != len(steps) - 1"
    eps_sq = Fraction(task.params["eps"]) ** 2
    for i, step in enumerate(steps):
        basis, rep = _basis(step["subspace"], 2), _rank(step["rep"], 2)
        _, table = _coset_table(points, basis, rep)
        if Fraction(sum(table), len(table)) != Fraction(step["density"]):
            return f"step {i} density mismatch"
        last = i == len(steps) - 1
        if last != (step["witness_r"] is None):
            return f"step {i} witness presence wrong"
        if not last and witness_sq(points, basis, rep, _rank(step["witness_r"], 2)) <= eps_sq:
            return f"step {i} witness below eps"
    final = steps[-1]
    recount = sup_sq(points, _basis(final["subspace"], 2), _rank(final["rep"], 2))
    if recount != Fraction(exact["final_sup_sq"]) or recount > eps_sq:
        return f"final_sup_sq {exact['final_sup_sq']} vs recount {recount}"
    if exact["final_density"] != final["density"]:
        return "final_density != last step density"
    return None


def _check_f3(task: Task, code: int, exact: dict) -> Optional[str]:
    if code != 0 or not exact["all_passed"] or exact["failures"]:
        return f"exit {code}, all_passed {exact['all_passed']}"
    if exact["total_subspaces"] != F3_TOTAL or exact["min_sup_sq"] != F3_MIN_SQ:
        return f"{exact['total_subspaces']} subspaces, min {exact['min_sup_sq']}"
    return None


CHECKS = {
    "oracle": _check_oracle,
    "pipeline": _check_pipeline,
    "increment": _check_increment,
    "f3": _check_f3,
}


def check(task: Task, code: int, exact: dict) -> Optional[str]:
    try:
        return CHECKS[task.check](task, code, exact)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed report: {exc!r}"
