"""Seed-reproducible inputs and task lists for the benchmark workloads.

Every set is drawn from ``random.Random(f"{workload}/{seed}")`` using
only ``getrandbits``, whose output for a given seed string is stable
across Python versions.  A set is a membership bitmask indexed by rank
(coordinate 1 is the most significant base-p digit), the same
convention the SetFile format uses.

Each workload is a fixed task list: one task is one CLI command on one
generated set file.  A warm-up list holds one small call per command
the workload uses; it runs during set-up, so import-time and
first-call caches are filled before timing starts.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class SetSpec:
    """A generated point set: membership bitmask over F_p^n."""

    name: str
    p: int
    n: int
    bits: int

    @property
    def size(self) -> int:
        return self.p**self.n

    def membership(self) -> str:
        """'0'/'1' string indexed by rank."""
        return format(self.bits, f"0{self.size}b")[::-1]

    def member_ranks(self) -> list[int]:
        return [rank for rank, flag in enumerate(self.membership()) if flag == "1"]


@dataclass(frozen=True)
class Task:
    """One CLI call; ``check`` names the independent re-derivation."""

    task_id: str
    argv: tuple[str, ...]
    check: str
    points: Optional[SetSpec] = None
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    sets: tuple[SetSpec, ...]
    tasks: tuple[Task, ...]
    warmup_sets: tuple[SetSpec, ...]
    warmup: tuple[tuple[str, ...], ...]


def digits(rank: int, p: int, n: int) -> str:
    out = []
    for _ in range(n):
        rank, d = divmod(rank, p)
        out.append(str(d))
    return "".join(reversed(out))


def set_file_text(spec: SetSpec) -> str:
    lines = [f"p={spec.p} n={spec.n}"]
    if spec.p == 2:
        lines.extend(format(r, f"0{spec.n}b") for r in spec.member_ranks())
    else:
        lines.extend(digits(r, spec.p, spec.n) for r in spec.member_ranks())
    return "\n".join(lines) + "\n"


def set_path(work_dir: str, spec: SetSpec) -> str:
    return os.path.join(work_dir, f"{spec.name}.set")


def write_sets(work_dir: str, specs) -> None:
    for spec in specs:
        with open(set_path(work_dir, spec), "w", encoding="utf-8") as handle:
            handle.write(set_file_text(spec))


def random_set(rng: random.Random, name: str, p: int, n: int) -> SetSpec:
    """Each point of F_p^n independently with probability 1/2."""
    return SetSpec(name, p, n, rng.getrandbits(p**n))


def tilted_set(rng: random.Random, name: str, n: int) -> SetSpec:
    """Each point of F_2^n independently, with probability 3/8 where
    x1 = x2 = 0 and 5/8 elsewhere.

    Every coefficient is about 1/16, so the set is 1/4-uniform, but the
    coset densities sit in two buckets (at eps = 1/4) by whether
    x1 = x2 = 0.  No 3-dimensional subspace of the quotient avoids that
    split below codimension 5, so the pipeline escalates twice (depths
    3, 4, 5) on every seed.
    """
    a, b, c = (rng.getrandbits(1 << n) for _ in range(3))
    low = (1 << (1 << (n - 2))) - 1  # ranks with x1 = x2 = 0
    return SetSpec(name, 2, n, (a & (b | c) & low) | ((a | (b & c)) & ~low))


def _independent_rows(rng: random.Random, n: int, count: int) -> list[int]:
    while True:
        rows = [rng.getrandbits(n) for _ in range(count)]
        basis: list[int] = []
        for row in rows:
            for b in basis:
                row = min(row, row ^ b)
            if row:
                basis.append(row)
        if len(basis) == count:
            return rows


def _linear_image(rows: list[int], n: int) -> list[int]:
    """y(x) = (rows[0].x, ..., rows[-1].x) packed big-endian, for all x in F_2^n."""
    j = len(rows)
    cols = [
        sum(((row >> b) & 1) << (j - 1 - i) for i, row in enumerate(rows))
        for b in range(n)
    ]
    image = [0] * (1 << n)
    for x in range(1, 1 << n):
        low = x & -x
        image[x] = image[x ^ low] ^ cols[low.bit_length() - 1]
    return image


def _from_flags(flags: list[int]) -> int:
    return int("".join("1" if f else "0" for f in reversed(flags)), 2)


def _noise(rng: random.Random, n: int) -> int:
    """Each of the 2^n points independently with probability 1/16."""
    noise = ~0
    for _ in range(4):
        noise &= rng.getrandbits(1 << n)
    return noise


def ladder_set(rng: random.Random, name: str, n: int, j: int) -> SetSpec:
    """{x : f(Lx) = 1} with each membership flipped with probability 1/16,
    where f(y) = y1 & (y2 | (y3 & (y4 | ...))) over j forms.

    L is a random rank-j map F_2^n -> F_2^j.  At eps = 1/4 each level of
    the ladder carries a coefficient above eps (after the noise), so the
    set is not eps-uniform on any coset of a coordinate subspace of small
    codimension: regularity_decompose needs j - 2 refinement rounds and
    density_increment two halving steps, on every seed.
    """
    image = _linear_image(_independent_rows(rng, n, j), n)
    f = 0
    for y in range(1 << j):
        value = y & 1  # y_j; y_i is bit j - i
        for i in range(j - 1, 0, -1):
            y_i = (y >> (j - i)) & 1
            value = y_i & value if i % 2 else y_i | value
        f |= value << y
    bits = _from_flags([(f >> y) & 1 for y in image])
    return SetSpec(name, 2, n, bits ^ _noise(rng, n))


def planted_set(rng: random.Random, name: str, n: int, codim: int) -> SetSpec:
    """Union of a random nonempty proper subset of the cosets of a random
    codim-`codim` subspace; the oracle must find sup^2 = 0 on it."""
    image = _linear_image(_independent_rows(rng, n, codim), n)
    cosets = 1 << codim
    chosen = 0
    while chosen in (0, (1 << cosets) - 1):
        chosen = rng.getrandbits(cosets)
    return SetSpec(name, 2, n, _from_flags([(chosen >> y) & 1 for y in image]))


def _oracle_n8(rng: random.Random) -> tuple[list[SetSpec], list[Task]]:
    sets = [random_set(rng, f"rand{i}", 2, 8) for i in range(3)]
    sets.append(planted_set(rng, "planted", 8, 3))
    tasks = [
        Task(f"oracle/{s.name}", ("oracle", "--max-codim", "3"), "oracle", s,
             {"max_codim": 3, "planted": s.name == "planted"})
        for s in sets
    ]
    return sets, tasks


def _pipeline_n16(rng: random.Random) -> tuple[list[SetSpec], list[Task]]:
    # Both kinds do a fixed amount of work on every seed: tilted sets
    # escalate twice and stop increment at once, so they get pipeline
    # only; ladders need 2 and 3 refinement rounds and two increment
    # steps, so the regularity and increment loops always run.
    sets = [
        tilted_set(rng, "tilted0", 16),
        ladder_set(rng, "ladder4", 16, 4),
        tilted_set(rng, "tilted1", 16),
        ladder_set(rng, "ladder5", 16, 5),
    ]
    tasks = []
    for s in sets:
        tasks.append(Task(f"pipeline/{s.name}", ("pipeline", "--eps", "1/4"),
                          "pipeline", s, {"eps": "1/4"}))
        if s.name.startswith("ladder"):
            tasks.append(Task(f"increment/{s.name}", ("increment", "--eps", "1/4"),
                              "increment", s, {"eps": "1/4"}))
    return sets, tasks


def _ternary(rng: random.Random) -> tuple[list[SetSpec], list[Task]]:
    sets = [random_set(rng, f"rand{i}", 3, 6) for i in range(2)]
    tasks = [Task("f3-verify/n5", ("f3-verify", "--n", "5", "--long-run"), "f3")]
    tasks.extend(
        Task(f"oracle/{s.name}", ("oracle", "--max-codim", "2"), "oracle", s,
             {"max_codim": 2, "planted": False})
        for s in sets
    )
    return sets, tasks


# Small calls that fill the caches each command needs.  The warm-up set
# is drawn from the same seed stream; its outcome is not checked.
_WARMUP = {
    "oracle-n8": ((2, 8), (("oracle", "--max-codim", "0"),)),
    "pipeline-n16": ((2, 8), (("pipeline", "--eps", "1/4"), ("increment", "--eps", "1/4"))),
    "ternary": ((3, 3), (("oracle", "--max-codim", "0"), ("f3-verify", "--n", "2"))),
}

_BUILDERS = {
    "oracle-n8": _oracle_n8,
    "pipeline-n16": _pipeline_n16,
    "ternary": _ternary,
}

WORKLOADS = tuple(_BUILDERS)


def build(name: str, seed: int, work_dir: str) -> Workload:
    """Generate the workload's sets from the seed and bind tasks to set files."""
    rng = random.Random(f"{name}/{seed}")
    sets, tasks = _BUILDERS[name](rng)
    (p, n), warm_cmds = _WARMUP[name]
    warm = random_set(rng, "warm", p, n)
    bound = tuple(
        Task(t.task_id,
             t.argv if t.points is None
             else (t.argv[0], "--set", set_path(work_dir, t.points)) + t.argv[1:],
             t.check, t.points, t.params)
        for t in tasks
    )
    warmup = tuple(
        cmd if cmd[0] == "f3-verify"
        else (cmd[0], "--set", set_path(work_dir, warm)) + cmd[1:]
        for cmd in warm_cmds
    )
    return Workload(name, tuple(sets), bound, (warm,), warmup)
