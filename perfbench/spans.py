"""Per-layer spans and counters, recorded from outside the package.

Each layer is entered through public functions; the tracer replaces every
reference to such a function in every loaded ``incideals`` module (so
``asymptotics.term``, ``cli.term`` and ``chains.term`` are all spans) with a
wrapper that times the call.  A layer's self time is its spans' time minus
the time of the spans nested inside them.  The tracer's own bookkeeping is
kept out of every self time.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

# layer -> (defining module, public function)
LAYERS = {
    "chains.term": ("incideals.chains", "term"),
    "chains.invariants": ("incideals.chains", "chain_invariants"),
    "monomials.minimalize": ("incideals.monomials", "minimalize"),
    "betti.table": ("incideals.betti", "betti_table"),
    "gflinalg.rank": ("incideals.gflinalg", "gf_rank"),
}

TIMES = tuple(f"{name}_s" for name in ("cli.self", *LAYERS, "betti.lattice"))
COUNTS = (
    "chains.term_calls", "chains.terms_distinct", "chains.gens",
    "betti.table_calls", "betti.table_repeats", "betti.entries",
    "betti.lattice_points", "gflinalg.rank_calls", "gflinalg.rank_cells",
)


class Tracer:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self.terms: set = set()
        self.tables: dict = {}
        self.bookkeeping_s = 0.0  # time spent counting, kept out of self times
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []
        self._clock = time.perf_counter

    # -- spans --------------------------------------------------------------

    def span(self, layer: str, fn, note=None):
        """`fn` wrapped in a span of `layer`; note(args, kwargs, result) counts."""
        clock, stack, self_s = self._clock, self._stack, self.self_s

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                self_s[layer] += took - frame[0]
                if stack:
                    stack[-1][0] += took
            if note is not None:
                t = clock()
                note(args, kwargs, result)
                counting = clock() - t
                self.bookkeeping_s += counting
                if stack:
                    stack[-1][0] += counting
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        notes = {
            "chains.term": self._note_term,
            "betti.table": self._note_table,
            "gflinalg.rank": self._note_rank,
        }
        for layer, (modname, name) in LAYERS.items():
            original = getattr(sys.modules[modname], name)
            wrapped = self.span(layer, original, notes.get(layer))
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "incideals":
                    continue
                if getattr(mod, name, None) is original:
                    setattr(mod, name, wrapped)
                    self._patched.append((mod, name, original))

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    # -- counters -------------------------------------------------------------

    def _note_term(self, args, kwargs, ideal) -> None:
        c = self.counts
        c["chains.term_calls"] += 1
        key = (args, tuple(kwargs.items()))
        if key not in self.terms:
            self.terms.add(key)
            c["chains.terms_distinct"] += 1
            c["chains.gens"] += len(ideal.gens)

    def _note_table(self, args, kwargs, table) -> None:
        c = self.counts
        c["betti.table_calls"] += 1
        ideal, rest = args[0], args[1:]
        field = rest[0] if rest else kwargs.get("field")
        key = (ideal, field, rest[1:], tuple(sorted(kwargs.items())))
        if key in self.tables:
            c["betti.table_repeats"] += 1
        else:
            self.tables[key] = ideal
            c["betti.entries"] += len(table.entries)

    def _note_rank(self, args, kwargs, rank) -> None:
        self.counts["gflinalg.rank_calls"] += 1
        self.counts["gflinalg.rank_cells"] += int(args[0].size)

    # -- the lattice pass -----------------------------------------------------

    def lattice_pass(self) -> None:
        """Time the public lcm_lattice on each distinct ideal resolved."""
        from incideals.betti import lcm_lattice
        from incideals.errors import CapExceeded, ImproperIdeal

        ideals = dict.fromkeys(self.tables.values())
        start = self._clock()
        for ideal in ideals:
            try:
                points = lcm_lattice(ideal, gen_cap=None, lattice_cap=10**9)
            except (CapExceeded, ImproperIdeal):
                continue
            self.counts["betti.lattice_points"] += len(points)
        self.self_s["betti.lattice"] = self._clock() - start

    def metrics(self) -> dict[str, float]:
        out = {name: self.self_s.get(name[:-2], 0.0) for name in TIMES}
        out.update(self.counts)
        return out
