"""Seeded workload generators.

A workload is a cycle of CLI config documents that the benchmark runs in a
closed loop, together with what each command must output.  Everything here
is a pure function of (workload name, seed, size): the program under test
only ever sees the generated documents.

The exact-cli generator builds split bundles (nested line/sum/twist/dual
nodes) and keeps, next to each document, the list of line divisors the
bundle splits into.  checks.py recomputes the Chern numbers from that list
with its own Fraction arithmetic, independent of the library.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

SIZES = ("full", "tiny")

BASIS_NAMES = ("h", "e", "f")


@dataclass(frozen=True)
class Command:
    """One config document and the expectation its report is checked against."""

    doc: dict
    expect: dict
    samples: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sweep" or "exact"
    threads: int
    cycle: tuple[Command, ...]


def _sweep_doc(command: str, seed: int, **sweep) -> dict:
    return {"command": command, "sweep": dict(sweep, seed=seed)}


def lemma_ac4(seed: int, size: str = "full") -> Workload:
    """verify-lemma on the AC-4 grid at AC-4 search settings, single-threaded."""
    rng = random.Random(f"lemma-ac4:{seed}")
    if size == "tiny":
        ranks, epsilons, samples, commands = [2, 3], [0, 0.1], 8, 2
    else:
        ranks, epsilons, samples, commands = [2, 3, 4, 5, 6], [0, 0.01, 0.1], 1000, 2
    cycle = []
    for _ in range(commands):
        doc = _sweep_doc(
            "verify-lemma",
            rng.randrange(2**31),
            ranks=ranks,
            epsilons=epsilons,
            samples=samples,
            restarts=5,
            random_vectors=10,
            iterations=60,
            tol=1e-6,
            batch_size=4096,
            threads=1,
        )
        expect = {"verdict": "pass", "configs": len(ranks) * len(epsilons)}
        cycle.append(Command(doc, expect, samples * len(ranks) * len(epsilons)))
    return Workload("lemma-ac4", "sweep", 1, tuple(cycle))


def griffiths_lowrank_2t(seed: int, size: str = "full") -> Workload:
    """griffiths at ranks 2-3, two batches per config, two worker threads."""
    rng = random.Random(f"griffiths-lowrank-2t:{seed}")
    if size == "tiny":
        epsilons, samples, commands = [0, 0.1], 16, 2
    else:
        epsilons, samples, commands = [0, 0.01, 0.05, 0.1], 4096, 2
    ranks = [2, 3]
    cycle = []
    for _ in range(commands):
        doc = _sweep_doc(
            "griffiths",
            rng.randrange(2**31),
            ranks=ranks,
            epsilons=epsilons,
            samples=samples,
            restarts=5,
            random_vectors=10,
            iterations=60,
            tol=1e-6,
            batch_size=samples // 2,
            threads=2,
        )
        # random curvatures are not Griffiths positive, so the sweep fails
        expect = {"verdict": "fail", "configs": len(ranks) * len(epsilons)}
        cycle.append(Command(doc, expect, samples * len(ranks) * len(epsilons)))
    return Workload("griffiths-lowrank-2t", "sweep", 2, tuple(cycle))


# ---------------------------------------------------------------- exact-cli


def _rat(rng: random.Random, lo: int, hi: int) -> Fraction:
    q = rng.choice((1, 1, 1, 2, 3))
    return Fraction(rng.randint(lo * q, hi * q), q)


def rat_doc(x: Fraction):
    """A rational as the config format writes it: an int or a "p/q" string."""
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _divisor(rng: random.Random, k: int) -> tuple[dict, tuple[Fraction, ...]]:
    """A divisor as a name->rational map over a nonempty subset of the basis."""
    names = rng.sample(BASIS_NAMES[:k], rng.randint(1, k))
    vec = tuple(_rat(rng, -3, 3) if n in names else Fraction(0) for n in BASIS_NAMES[:k])
    doc = {n: rat_doc(v) for n, v in zip(BASIS_NAMES[:k], vec) if n in names}
    return doc, vec


def _bundle(rng: random.Random, k: int, depth: int) -> tuple[dict, list]:
    """A random split bundle expression and the line divisors it splits into."""
    kind = "line" if depth == 0 else rng.choice(("line", "sum", "sum", "twist", "dual"))
    if kind == "line":
        doc, vec = _divisor(rng, k)
        return {"kind": "line", "divisor": doc}, [vec]
    if kind == "sum":
        parts = [_bundle(rng, k, depth - 1) for _ in range(rng.randint(2, 3))]
        return (
            {"kind": "sum", "summands": [d for d, _ in parts]},
            [line for _, lines in parts for line in lines],
        )
    inner, lines = _bundle(rng, k, depth - 1)
    if kind == "twist":
        doc, vec = _divisor(rng, k)
        twisted = [tuple(a + b for a, b in zip(line, vec)) for line in lines]
        return {"kind": "twist", "bundle": inner, "divisor": doc}, twisted
    return {"kind": "dual", "bundle": inner}, [tuple(-a for a in line) for line in lines]


def _bundle_of_rank(rng: random.Random, k: int, lo: int, hi: int) -> tuple[dict, list]:
    while True:
        doc, lines = _bundle(rng, k, rng.randint(1, 3))
        if lo <= len(lines) <= hi:
            return doc, lines


def _ring(rng: random.Random) -> tuple[dict, list]:
    k = rng.randint(1, 3)
    pairing = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        pairing[i][i] = _rat(rng, -1, 3)
        for j in range(i):
            pairing[i][j] = pairing[j][i] = _rat(rng, -2, 2)
    doc = {
        "basis": list(BASIS_NAMES[:k]),
        "pairing": [[rat_doc(x) for x in row] for row in pairing],
    }
    return doc, pairing


# command mix, repeated in this order so that every pool has the same proportions
EXACT_MIX = ("check", "nakai", "st-check", "epsilon", "check",
             "counterexample", "st-check", "nakai", "check", "epsilon")


def _exact_command(rng: random.Random, command: str) -> Command:
    if command == "counterexample":
        r = rng.randint(3, 8)
        a = Fraction(rng.randint(1, 12), rng.choice((1, 1, 2, 3, 5)))
        return Command({"command": command, "r": r, "a": rat_doc(a)}, {"r": r, "a": a})

    ring_doc, pairing = _ring(rng)
    k = len(pairing)
    doc = {"command": command, "ring": ring_doc}
    expect = {"pairing": pairing}
    if command == "nakai":
        doc["divisor"], expect["divisor"] = _divisor(rng, k)
        curves = [_divisor(rng, k) for _ in range(rng.randint(0, 3))]
        doc["curves"] = [d for d, _ in curves]
        expect["curves"] = [v for _, v in curves]
        return Command(doc, expect)

    lo, hi = {"check": (2, 8), "st-check": (2, 2), "epsilon": (1, 8)}[command]
    doc["bundle"], expect["lines"] = _bundle_of_rank(rng, k, lo, hi)
    if command == "epsilon":
        omega_sq = Fraction(rng.randint(1, 20), rng.choice((1, 2, 3)))
        doc["omega_sq"] = rat_doc(omega_sq)
        expect["omega_sq"] = omega_sq
    else:
        names = ("c1_positive", "ample_on_curves", "semistable")
        assertions = {n: rng.random() < 0.7 for n in names}
        doc["assertions"] = assertions
        expect["assertions"] = assertions
    return Command(doc, expect)


def exact_cli(seed: int, size: str = "full") -> Workload:
    """A seeded mix of the exact-arithmetic commands, one op per document."""
    rng = random.Random(f"exact-cli:{seed}")
    count = 40 if size == "tiny" else 2000
    cycle = tuple(_exact_command(rng, EXACT_MIX[i % len(EXACT_MIX)]) for i in range(count))
    return Workload("exact-cli", "exact", 1, cycle)


WORKLOADS = {
    "lemma-ac4": lemma_ac4,
    "griffiths-lowrank-2t": griffiths_lowrank_2t,
    "exact-cli": exact_cli,
}


def build(name: str, seed: int, size: str = "full") -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    return WORKLOADS[name](seed, size)
