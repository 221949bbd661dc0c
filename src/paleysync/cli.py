"""Command-line front end.

Commands: field, graph, invariants, spectrum, classify, scan.  Output is
deterministic: JSON keys in fixed order, floats at 12 significant digits,
CSV columns fixed.  Exit codes: 0 ok, 1 bad arguments, 2 budget exhausted
(partial output still emitted), 3 oracle mismatch, 4 internal error (any
other RuntimeError, such as a RecursionError).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .classify import NON_SYNCHRONIZING, UNKNOWN, classify, primitivity
from .errors import BadInputError, OracleMismatchError
from .gf import build_field, odd_prime_powers, prime_power
from .invariants import DEFAULT_BUDGET, brute_force_invariants, paley_certificate
from .paley import Graph, build_paley, normalize_params
from .spectral import EIGEN_CAP, eigen_oracle, theta_pair

SCAN_EXHAUSTIVE_CAP = 8
ORACLE_TOL = 1e-8
SCAN_COLUMNS = "q,p,n,m,r,m_bar,primitive,verdict,rule,omega,chi,theta,lambda_min,status"

EXIT_OK = 0
EXIT_BAD_ARGS = 1
EXIT_BUDGET = 2
EXIT_ORACLE_MISMATCH = 3
EXIT_INTERNAL_ERROR = 4


def _fmt_float(x: float) -> str:
    return f"{x:.12g}"


def _round_floats(obj):
    """Round every float to 12 significant digits for stable serialization."""
    if isinstance(obj, float):
        return float(_fmt_float(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _json_text(obj) -> str:
    return json.dumps(_round_floats(obj), indent=2)


def _edge_csv(g: Graph) -> str:
    return "\n".join(f"{u},{v}" for u, v in sorted(g.edges()))


def _dot_text(g: Graph, name: str) -> str:
    lines = [f"graph {name} {{"]
    for v in range(g.n_vertices):
        lines.append(f"  {v};")
    for u, v in sorted(g.edges()):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines)


def _field_for(q: int):
    p, n = prime_power(q)
    if p == 2:
        raise BadInputError(f"q={q} must be odd")
    return build_field(p, n)


def _cmd_field(args) -> int:
    field = build_field(args.p, args.n)
    report = {
        "field": field.spec.to_json_dict(),
        "trace_zero_count": sum(1 for t in field.trace if t == 0),
    }
    _emit(_json_text(report), args.out)
    return EXIT_OK


def _cmd_graph(args) -> int:
    field = _field_for(args.q)
    g = build_paley(field, args.m)
    if args.emit == "csv":
        _emit(_edge_csv(g), args.out)
    elif args.emit == "dot":
        _emit(_dot_text(g, f"paley_{args.q}_{args.m}"), args.out)
    else:
        report = {
            "field": field.spec.to_json_dict(),
            "m": args.m,
            "n_vertices": g.n_vertices,
            "degree": (args.q - 1) // args.m,
            "edges": [[u, v] for u, v in sorted(g.edges())],
        }
        _emit(_json_text(report), args.out)
    return EXIT_OK


def _cmd_invariants(args) -> int:
    field = _field_for(args.q)
    cert = paley_certificate(field, args.m, budget=args.budget)
    report = {
        "field": field.spec.to_json_dict(),
        "m": args.m,
        "certificate": cert.to_json_dict(),
    }
    if args.oracle and args.q <= 16:
        oracle = brute_force_invariants(build_paley(field, args.m))
        report["oracle"] = {"omega": oracle.omega, "alpha": oracle.alpha, "chi": oracle.chi}
        if (cert.omega, cert.alpha, cert.chi) != (oracle.omega, oracle.alpha, oracle.chi):
            _emit(_json_text(report), args.out)
            sys.stderr.write("oracle mismatch: solver disagrees with brute force\n")
            return EXIT_ORACLE_MISMATCH
    _emit(_json_text(report), args.out)
    return EXIT_BUDGET if cert.status == "timeout" else EXIT_OK


def _spectrum_oracle_diff(field, m: int, rep) -> float:
    """Largest gap between the character-sum spectrum and the eigensolver's."""
    oracle_vals = eigen_oracle(build_paley(field, m))
    return max(abs(a - b) for a, b in zip(rep.eigenvalue_multiset(), oracle_vals))


def _cmd_spectrum(args) -> int:
    field = _field_for(args.q)
    rep = theta_pair(field, args.m)
    report = {"field": field.spec.to_json_dict(), **rep.to_json_dict()}
    if args.oracle and args.q <= EIGEN_CAP:
        worst = _spectrum_oracle_diff(field, args.m, rep)
        report["oracle_max_abs_diff"] = worst
        if worst > ORACLE_TOL:
            _emit(_json_text(report), args.out)
            sys.stderr.write("oracle mismatch: character sums disagree with eigensolver\n")
            return EXIT_ORACLE_MISMATCH
    _emit(_json_text(report), args.out)
    return EXIT_OK


def _cmd_classify(args) -> int:
    result = classify(args.q, args.m, budget=args.budget)
    report = result.to_json_dict()
    report["field"] = _field_for(args.q).spec.to_json_dict()
    _emit(_json_text(report), args.out)
    return EXIT_BUDGET if result.status != "complete" else EXIT_OK


def _scan_rows(q_max: int, m_set, budget: int, oracle: bool):
    rows = []
    for q in odd_prime_powers(q_max):
        p, n = prime_power(q)
        field = build_field(p, n)
        ms = [m for m in range(1, q) if (q - 1) % m == 0]
        if m_set is not None:
            ms = [m for m in ms if m in m_set]
        for m in ms:
            params = normalize_params(q, m)
            result = classify(q, m, budget=budget, exhaustive_cap=SCAN_EXHAUSTIVE_CAP)
            prim = primitivity(q, m)
            omega = chi = theta = lam = ""
            if params.m_bar >= 2:
                rep = theta_pair(field, params.m_bar)
                theta = _fmt_float(rep.theta)
                lam = _fmt_float(rep.lambda_min)
                if oracle and q <= EIGEN_CAP:
                    if _spectrum_oracle_diff(field, params.m_bar, rep) > ORACLE_TOL:
                        raise OracleMismatchError(
                            f"oracle mismatch: spectrum of ({q},{params.m_bar})"
                        )
            if (
                result.witness is not None
                and result.witness.get("orbital_subset") == [0]
                and result.certificate is not None
            ):
                omega = str(result.certificate.omega)
                chi = str(result.certificate.chi)
            if oracle and q <= 16 and params.m_bar >= 2:
                bf = brute_force_invariants(build_paley(field, params.m_bar))
                solver = paley_certificate(field, params.m_bar, budget=budget)
                if (solver.omega, solver.alpha, solver.chi) != (bf.omega, bf.alpha, bf.chi):
                    raise OracleMismatchError(
                        f"oracle mismatch: invariants of ({q},{params.m_bar})"
                    )
            rule = result.reasons[0].rule if result.reasons else ""
            rows.append(
                {
                    "q": q,
                    "p": p,
                    "n": n,
                    "m": m,
                    "r": params.r,
                    "m_bar": params.m_bar,
                    "primitive": "true" if prim else "false",
                    "verdict": result.verdict,
                    "rule": rule,
                    "omega": omega,
                    "chi": chi,
                    "theta": theta,
                    "lambda_min": lam,
                    "status": result.status,
                }
            )
    return rows


def _self_check_rows(rows) -> None:
    """Post-hoc validation pass: no emitted row may violate a module invariant."""
    for row in rows:
        if row["r"] * row["m"] != row["q"] - 1:
            raise OracleMismatchError(f"scan row invariant broken (r*m != q-1): {row}")
        if row["primitive"] == "false" and row["verdict"] != NON_SYNCHRONIZING:
            raise OracleMismatchError(f"imprimitive row must be NonSynchronizing: {row}")
        if row["theta"]:
            theta = float(row["theta"])
            lam = float(row["lambda_min"])
            if lam >= 0:
                raise OracleMismatchError(f"lambda_min must be negative: {row}")
            if row["omega"]:
                theta_bar = row["q"] / theta
                if int(row["omega"]) > theta_bar + 1e-6 or int(row["chi"]) < theta_bar - 1e-6:
                    raise OracleMismatchError(f"sandwich violated: {row}")
        if row["verdict"] == UNKNOWN and row["status"] == "complete":
            raise OracleMismatchError(f"Unknown verdict must not be 'complete': {row}")


def _cmd_scan(args) -> int:
    m_set = None
    if args.m_set:
        m_set = {int(tok) for tok in args.m_set.split(",") if tok.strip()}
    rows = _scan_rows(args.q_max, m_set, args.budget, args.oracle)
    _self_check_rows(rows)
    lines = [SCAN_COLUMNS]
    for row in rows:
        lines.append(",".join(str(row[col]) for col in SCAN_COLUMNS.split(",")))
    _emit("\n".join(lines), args.out)
    exhausted = any(row["status"] != "complete" for row in rows)
    return EXIT_BUDGET if exhausted else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paleysync",
        description="Generalized Paley graphs, exact invariants, and affine synchronization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, budget=False, oracle=False, emits=("json",)):
        sp.add_argument("--out", default=None, help="output path (default: stdout)")
        sp.add_argument("--emit", default="json", choices=emits)
        if budget:
            env = os.environ.get("PALEY_BUDGET")
            sp.add_argument(
                "--budget", type=int, default=int(env) if env else DEFAULT_BUDGET,
                help="search node budget",
            )
        if oracle:
            sp.add_argument("--oracle", action="store_true", help="cross-check against oracles")

    sp = sub.add_parser("field", help="build GF(p^n) and report its parameters")
    sp.add_argument("p", type=int)
    sp.add_argument("n", type=int)
    common(sp)
    sp.set_defaults(func=_cmd_field)

    sp = sub.add_parser("graph", help="construct the residue graph on GF(q)")
    sp.add_argument("q", type=int)
    sp.add_argument("m", type=int)
    common(sp, emits=("json", "csv", "dot"))
    sp.set_defaults(func=_cmd_graph)

    sp = sub.add_parser("invariants", help="exact clique/independence/chromatic numbers")
    sp.add_argument("q", type=int)
    sp.add_argument("m", type=int)
    common(sp, budget=True, oracle=True)
    sp.set_defaults(func=_cmd_invariants)

    sp = sub.add_parser("spectrum", help="periods, eigenvalues, and the theta pair")
    sp.add_argument("q", type=int)
    sp.add_argument("m", type=int)
    common(sp, oracle=True)
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("classify", help="synchronization verdict for (q, m)")
    sp.add_argument("q", type=int)
    sp.add_argument("m", type=int)
    common(sp, budget=True)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("scan", help="classify all valid (q, m) with q <= Q; CSV report")
    sp.add_argument("--q-max", type=int, required=True)
    sp.add_argument("--m-set", default=None, help="comma-separated m filter")
    common(sp, budget=True, oracle=True, emits=("csv",))
    sp.set_defaults(func=_cmd_scan)
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_BAD_ARGS
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_ARGS
    except OracleMismatchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ORACLE_MISMATCH
    except RuntimeError as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
