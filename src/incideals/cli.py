"""Command line front end.

Subcommands: invariants (chain weights as JSON), betti (one term's Betti
table as CSV), series (an invariant sampled over a window as CSV with a
fit footer), verify (structural checks as PASS/FAIL/NA lines), explore
(random chain survey as CSV).

Exit codes: 0 success, 1 computation or input errors, 2 usage errors,
3 resource guard tripped (partial output may have been printed).
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

import numpy as np

from .asymptotics import (
    SERIES_METRICS,
    RandomChainParams,
    check_betti_propagation,
    check_colon_filtration,
    check_msat_identities,
    check_pd_linearity,
    check_reg_slope,
    random_chain,
    series,
)
from .betti import DEFAULT_LATTICE_CAP, betti_table
from .chainfile import ChainFileError, load_chain
from .chains import (
    chain_invariants,
    m_saturation,
    saturation,
    term,
)
from .errors import AmbientMismatch, CapExceeded, ImproperIdeal
from .gflinalg import DEFAULT_FIELD, FieldSpec

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_CAPPED = 3


def _add_chain_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("chainfile", help="chain description file")
    group = sub.add_mutually_exclusive_group()
    group.add_argument(
        "--saturation",
        action="store_true",
        help="work with the saturation of the chain",
    )
    group.add_argument(
        "--msat",
        type=int,
        metavar="M",
        help="work with the m-saturation for this exponent",
    )


def _add_field_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--char",
        type=int,
        default=DEFAULT_FIELD.p,
        metavar="P",
        help="field characteristic (prime, default %(default)s)",
    )
    sub.add_argument(
        "--gen-cap",
        type=int,
        default=None,
        metavar="G",
        help="refuse ideals with more minimal generators than this",
    )
    sub.add_argument(
        "--lattice-cap",
        type=int,
        default=DEFAULT_LATTICE_CAP,
        metavar="L",
        help="refuse lcm lattices larger than this (default %(default)s)",
    )


def _int_at_least(low: int, what: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected a {what} integer, got {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1, "positive")
_nonnegative_int = _int_at_least(0, "non-negative")


def _resolve_chain(args: argparse.Namespace):
    chain = load_chain(args.chainfile)
    if getattr(args, "saturation", False):
        return saturation(chain)
    if getattr(args, "msat", None) is not None:
        return m_saturation(chain, args.msat)
    return chain


def _field(args: argparse.Namespace) -> FieldSpec:
    return FieldSpec(args.char)


def cmd_invariants(args: argparse.Namespace) -> int:
    field = _field(args)
    chain = _resolve_chain(args)
    inv = chain_invariants(chain, horizon=args.horizon)
    payload = {
        "lambda": inv.lambda_,
        "w": inv.w,
        "q": inv.q,
        "quasi_saturated": inv.quasi_saturated,
        "lambda_maximal": inv.lambda_maximal,
        "char": field.p,
        "lambda_certificate": inv.lambda_certificate,
        "lambda_exact": inv.lambda_exact,
        "saturated_window": inv.saturated_window,
        "horizon": inv.horizon,
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_betti(args: argparse.Namespace) -> int:
    chain = _resolve_chain(args)
    table = betti_table(
        term(chain, args.n), _field(args), args.gen_cap, args.lattice_cap
    )
    degrees, rows, dims = table.expanded
    # the factor x_j^e for each exponent e that occurs in column j
    names = [
        {e: f"x{j}^{e}" if e > 1 else f"x{j}" for e in np.unique(col).tolist()}
        for j, col in enumerate(rows.T, 1)
    ]
    lines = ["i,multidegree,value"]
    for i, row, v in zip(degrees.tolist(), rows.tolist(), dims.tolist()):
        a = "*".join([names[j][e] for j, e in enumerate(row) if e]) or "1"
        lines.append(f"{i},{a},{v}")
    lines.append(f"# pd {table.pd()} reg {table.reg()} char {table.char}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_series(args: argparse.Namespace) -> int:
    chain = _resolve_chain(args)
    report = series(
        chain,
        args.metric,
        args.start,
        args.end,
        field=_field(args),
        gen_cap=args.gen_cap,
        lattice_cap=args.lattice_cap,
        budget=args.budget,
        jobs=args.jobs,
    )
    print("n,value")
    for n, v in report.values:
        print(f"{n},{v}")
    print(f"# metric {report.metric} char {report.char}")
    print(f"# status {report.status}")
    if report.fit is not None:
        print(
            f"# fit slope {report.fit.slope} intercept {report.fit.intercept}"
            f" onset {report.fit.onset}"
        )
    if report.truncated is not None:
        print(f"# truncated {report.truncated}")
        return EXIT_CAPPED
    return EXIT_OK


_CHECKS = ("pd", "reg", "betti", "msat", "colon")


def cmd_verify(args: argparse.Namespace) -> int:
    chain = _resolve_chain(args)
    selected = args.check or list(_CHECKS)
    field = _field(args)
    kw = dict(
        field=field, gen_cap=args.gen_cap, lattice_cap=args.lattice_cap
    )
    results = []
    for name in selected:
        if name == "pd":
            results.append(check_pd_linearity(chain, args.horizon, **kw))
        elif name == "reg":
            results.append(check_reg_slope(chain, args.horizon, **kw))
        elif name == "betti":
            n = args.n if args.n is not None else chain.index + 1
            results.append(check_betti_propagation(chain, n, **kw))
        elif name == "msat":
            results.append(
                check_msat_identities(chain, args.m, args.horizon, **kw)
            )
        elif name == "colon":
            results.append(
                check_colon_filtration(chain, args.e, args.horizon, **kw)
            )
    failed = False
    for res in results:
        if not res.applicable:
            reason = res.details.get("reason", "not applicable")
            print(f"NA   {res.name} ({reason})")
        elif res.holds:
            print(f"PASS {res.name}")
        else:
            failed = True
            what = res.details.get("failures")
            note = f" ({what[0]})" if what else ""
            print(f"FAIL {res.name}{note}")
    return EXIT_ERROR if failed else EXIT_OK


def cmd_explore(args: argparse.Namespace) -> int:
    field = _field(args)
    print("seed,r,gens,w,lambda,q,pd_slope,pd_onset,reg_slope,reg_onset,status")
    for seed in range(args.seed, args.seed + args.count):
        params = RandomChainParams(
            index=args.index,
            num_gens=args.gens,
            max_exponent=args.max_exponent,
            max_degree=args.max_degree,
            seed=seed,
        )
        chain = random_chain(params)
        row = [seed, chain.index, len(chain.seed.gens)]
        try:
            inv = chain_invariants(chain)
        except CapExceeded:
            print(",".join(map(str, row + [""] * 7 + ["partial"])))
            continue
        row += [inv.w, inv.lambda_, inv.q]
        truncated = undetermined = False
        fits = {}
        for metric in ("reg", "pd"):  # pd is then read off the reg series' tables
            rep = series(
                chain,
                metric,
                chain.index,
                chain.index + args.horizon,
                field=field,
                gen_cap=args.gen_cap,
                lattice_cap=args.lattice_cap,
                budget=args.budget,
                jobs=args.jobs,
            )
            truncated |= rep.truncated is not None
            undetermined |= rep.fit is None
            fits[metric] = rep.fit
        for fit in (fits["pd"], fits["reg"]):
            row += ["", ""] if fit is None else [fit.slope, fit.onset]
        row.append("partial" if truncated else "undetermined" if undetermined else "ok")
        print(",".join(map(str, row)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="incideals",
        description="Invariants of chains of monomial ideals closed under "
        "index-increasing substitutions.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_inv = subs.add_parser("invariants", help="chain weight invariants as JSON")
    _add_chain_options(p_inv)
    p_inv.add_argument("--horizon", type=_positive_int, default=None)
    p_inv.add_argument("--char", type=int, default=DEFAULT_FIELD.p)
    p_inv.set_defaults(func=cmd_invariants)

    p_betti = subs.add_parser("betti", help="Betti table of one term as CSV")
    _add_chain_options(p_betti)
    p_betti.add_argument("--n", type=int, required=True, help="term width")
    _add_field_options(p_betti)
    p_betti.set_defaults(func=cmd_betti)

    p_series = subs.add_parser("series", help="invariant series over a window")
    _add_chain_options(p_series)
    p_series.add_argument("--metric", required=True, choices=SERIES_METRICS)
    p_series.add_argument("--from", dest="start", type=int, required=True)
    p_series.add_argument("--to", dest="end", type=int, required=True)
    p_series.add_argument("--budget", type=float, default=None, metavar="SECONDS")
    p_series.add_argument("--jobs", type=_positive_int, default=1)
    _add_field_options(p_series)
    p_series.set_defaults(func=cmd_series)

    p_verify = subs.add_parser("verify", help="structural checks, PASS/FAIL/NA")
    _add_chain_options(p_verify)
    p_verify.add_argument(
        "--check",
        action="append",
        choices=_CHECKS,
        help="run this check (repeatable; default: all)",
    )
    p_verify.add_argument("--horizon", type=_positive_int, default=4)
    p_verify.add_argument("--e", type=int, default=1, help="colon exponent")
    p_verify.add_argument("--m", type=int, default=2, help="saturation exponent")
    p_verify.add_argument("--n", type=int, default=None, help="width for betti check")
    _add_field_options(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_explore = subs.add_parser("explore", help="survey random chains as CSV")
    p_explore.add_argument("--count", type=int, default=10)
    p_explore.add_argument("--index", type=int, default=3)
    p_explore.add_argument("--gens", type=int, default=3)
    p_explore.add_argument("--max-exponent", type=int, default=2)
    p_explore.add_argument("--max-degree", type=int, default=4)
    p_explore.add_argument("--seed", type=int, default=0)
    p_explore.add_argument("--horizon", type=_nonnegative_int, default=6)
    p_explore.add_argument("--budget", type=float, default=None)
    p_explore.add_argument("--jobs", type=_positive_int, default=1)
    _add_field_options(p_explore)
    p_explore.set_defaults(func=cmd_explore)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state between calls, so one parser serves them all
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ChainFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPPED
    except (ImproperIdeal, AmbientMismatch, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
