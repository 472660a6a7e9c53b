"""Inputs and operations of the three benchmark workloads.

Each workload is a list of operations, and an operation is one
``incideals.cli.main(argv)`` call on a chain file written here.  The
chains and ideals themselves are pinned corpora, so that runs with
different seeds do the same amount of work and stay comparable.  The seed
changes only what the program's work does not depend on:

* the order of the operations and of the generator lines;
* a redundant (non-minimal) generator added to each verify chain file;
* the exponent values, through a strictly increasing map of the exponent
  scale.  Divisibility and lcms compare exponents one coordinate at a
  time, so such a map leaves the generator poset, the lcm lattice, every
  upper Koszul complex and every Betti number in place; it only renames
  the multidegrees.  It is one map for all variables on chains (orbits
  move exponents between variables) and one map per variable on the
  random ideals.

This module imports nothing from the package, so the inputs stay fixed
when the program changes.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("chain_series", "verify_corpus", "random_betti")

# A monomial is a dict {variable index: exponent}; an ideal a list of them.
Mono = dict


@dataclass(frozen=True)
class Op:
    """One CLI call: `argv` names the chain file by its key in `files`."""

    label: str
    kind: str  # "series_inc" | "series_sym" | "verify" | "explore" | "betti"
    argv: tuple[str, ...]
    file: str | None = None  # key into Inputs.files
    meta: tuple = ()


@dataclass(frozen=True)
class Inputs:
    files: dict  # key -> chain file text
    ops: tuple[Op, ...]
    ideals: dict  # key -> (width, generators as a list of Mono)


@dataclass(frozen=True)
class Size:
    """How much of each pinned corpus a round runs."""

    series_chains: tuple[int, ...]
    series_extra: int  # widths r+2 .. r+2+series_extra
    sym_top: int
    verify_chains: tuple[int, ...]
    explore: tuple[int, int, int]  # count, seed, horizon
    betti_pool: int


FULL = Size(
    series_chains=tuple(range(1000, 1025)),
    series_extra=3,
    sym_top=8,
    # the acceptance corpora without the six chains whose verify alone
    # takes over a second: this workload is many small terms
    verify_chains=tuple(
        s for s in (*range(2000, 2015), *range(3000, 3015), *range(4000, 4010),
                    *range(5000, 5010))
        if s not in (2005, 2007, 2011, 3010, 4002, 5001)
    ),
    explore=(10, 0, 5),
    betti_pool=20,
)

TINY = Size(
    series_chains=(1000, 1011),
    series_extra=3,
    sym_top=5,
    verify_chains=(2000, 3002, 4001, 5000),
    explore=(1, 0, 3),
    betti_pool=2,
)


# -- text formats ----------------------------------------------------------

def mono_text(u: Mono) -> str:
    if not u:
        return "1"
    return "*".join(f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in sorted(u.items()))


def parse_mono(text: str) -> Mono:
    """Inverse of mono_text, for the multidegrees the CLI prints."""
    out: Mono = {}
    if text == "1":
        return out
    for factor in text.split("*"):
        var, _, exp = factor.partition("^")
        i = int(var[1:])
        out[i] = out.get(i, 0) + (int(exp) if exp else 1)
    return out


def chain_file(index: int, gens: list[Mono], symmetry: str = "inc") -> str:
    lines = [f"index {index}"]
    if symmetry != "inc":
        lines.append(f"symmetry {symmetry}")
    lines += [f"gen {mono_text(g)}" for g in gens]
    return "\n".join(lines) + "\n"


# -- pinned corpora --------------------------------------------------------

def _divides(u: Mono, v: Mono) -> bool:
    return all(v.get(i, 0) >= e for i, e in u.items())


def _minimal(gens: list[Mono]) -> list[Mono]:
    uniq = {tuple(sorted(g.items())): g for g in gens}
    gens = list(uniq.values())
    return [
        g for g in gens
        if not any(h is not g and _divides(h, g) for h in gens)
    ]


def corpus_seed(seed_val: int) -> tuple[int, list[Mono]]:
    """The acceptance suite's random chain for `seed_val`: (index, gens).

    The same recipe as the suite's corpus helper and the package's
    ``random_chain``: index and generator count cycle with the seed,
    exponents up to 2, degree up to 4.
    """
    k = seed_val % 1000
    r = (k % 3) + 1
    num_gens = min(3, (k % 3) + 1 + (k % 2))
    rng = random.Random(seed_val)
    gens = []
    for _ in range(num_gens):
        while True:
            size = rng.randint(1, r)
            supp = sorted(rng.sample(range(1, r + 1), size))
            u = {i: rng.randint(1, 2) for i in supp}
            if sum(u.values()) <= 4:
                gens.append(u)
                break
    # every generator has nonempty support, so the ideal is proper at once
    return r, _minimal(gens)


SYM_SEED = [{1: 2, 2: 1}, {1: 1, 2: 1, 3: 1}]  # <x1^2*x2, x1*x2*x3>


def betti_pool_ideal(k: int) -> tuple[int, list[Mono]]:
    """Pinned random ideal k: 6-8 variables, 12-16 minimal generators,
    exponents up to 3."""
    rng = random.Random(f"random_betti pool {k}")
    while True:
        n = rng.randint(6, 8)
        target = rng.randint(12, 16)
        gens: list[Mono] = []
        for _ in range(400):
            u = {i: rng.randint(1, 3) for i in range(1, n + 1) if rng.random() < 0.45}
            if not u or any(_divides(g, u) for g in gens):
                continue
            gens = [g for g in gens if not _divides(u, g)] + [u]
            if len(gens) == target:
                return n, sorted(gens, key=lambda g: sorted(g.items()))


# -- seed-driven presentation ----------------------------------------------

def _scale(rng: random.Random, top: int) -> dict[int, int]:
    """A random strictly increasing map {1..top} -> positive integers."""
    values = sorted(rng.sample(range(1, 2 * top + 1), top))
    return dict(zip(range(1, top + 1), values))


def _rescale(gens: list[Mono], maps) -> list[Mono]:
    return [{i: maps(i)[e] for i, e in g.items()} for g in gens]


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def make_inputs(workload: str, seed: int, size: Size = FULL) -> Inputs:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    files: dict = {}
    ideals: dict = {}
    ops: list[Op] = []

    def add(key, index, gens, symmetry="inc", file_gens=None):
        ideals[key] = (index, gens)
        files[key] = chain_file(index, _shuffled(rng, file_gens or gens), symmetry)

    if workload == "chain_series":
        scale = _scale(rng, 2)
        for s in size.series_chains:
            r, gens = corpus_seed(s)
            key = f"sat{s}"
            add(key, r, _rescale(gens, lambda i: scale))
            lo, hi = r + 2, r + 2 + size.series_extra
            ops.append(Op(key, "series_inc", ("series", "{}", "--saturation",
                                              "--metric", "pd", "--from", str(lo),
                                              "--to", str(hi)), key))
        ops = _shuffled(rng, ops)
        perm = _shuffled(rng, [1, 2, 3])
        sym = [{perm[i - 1]: e for i, e in g.items()} for g in SYM_SEED]
        add("sym", 3, _rescale(sym, lambda i: scale), "sym")
        for metric in ("pd", "reg"):
            ops.append(Op(f"sym_{metric}", "series_sym",
                          ("series", "{}", "--metric", metric, "--from", "3",
                           "--to", str(size.sym_top)), "sym", (metric,)))
    elif workload == "verify_corpus":
        for s in size.verify_chains:
            r, gens = corpus_seed(s)
            g = rng.choice(gens)
            extra = dict(g)
            v = rng.randint(1, r)
            extra[v] = extra.get(v, 0) + 1
            key = f"inc{s}"
            add(key, r, gens, file_gens=gens + [extra])
            ops.append(Op(key, "verify", ("verify", "{}", "--horizon", "4"), key))
        count, eseed, horizon = size.explore
        ops.append(Op("explore", "explore",
                      ("explore", "--count", str(count), "--seed", str(eseed),
                       "--horizon", str(horizon)), None, (count, eseed)))
    else:
        for k in range(size.betti_pool):
            n, gens = betti_pool_ideal(k)
            maps = {i: _scale(rng, 3) for i in range(1, n + 1)}
            key = f"ideal{k}"
            add(key, n, _rescale(gens, maps.__getitem__))
            for p in (32003, 2):
                ops.append(Op(f"{key}_p{p}", "betti",
                              ("betti", "{}", "--n", str(n), "--char", str(p)),
                              key, (p,)))
        ops = _shuffled(rng, ops)
    return Inputs(files, tuple(ops), ideals)
