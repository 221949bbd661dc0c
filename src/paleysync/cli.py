"""Command-line front end.

Commands: field, graph, invariants, spectrum, classify, scan.  Output is
deterministic: JSON keys in fixed order, floats at 12 significant digits,
CSV columns fixed.  Exit codes: 0 ok, 1 bad arguments (including an
--out path that cannot be written), 2 budget exhausted (partial output
still emitted), 3 oracle mismatch or a failed self-check (a witness the
program built that fails verify_certificate), 4 internal error (any other
exception, such as a RecursionError or a MemoryError).

`scan` runs its rows on every CPU this process may run on (its affinity
mask, else the CPU count, at most one per q).  This process and one
`_child.Child` per further CPU take the q's largest first off flags in a
shared map, so a faster worker takes more of them.  Each child reports
its rows as JSON.  The rows are put in q order, each q's once, so the
self-check, the CSV and the exit code see the list one process gives.
Where os.fork is missing, or a fork fails, the other workers take the
q's, this process included; those of a child that left no complete
report are run here.  An error on any q sends the scan back to one loop
over every q, which raises the error of the smallest failing q, as one
process does.  Any exit closes every child: its process group killed, the
child reaped and its pipe closed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ._child import Child
from .classify import (NON_SYNCHRONIZING, UNKNOWN, classify, exhaustive_decision, fast_paths,
                       primitivity)
from .errors import InvalidWitnessError, OracleMismatchError
from .gf import SIZE_LIMIT, build_field, divisors, odd_prime_power, odd_prime_powers
from .invariants import BRUTE_FORCE_CAP, DEFAULT_BUDGET, brute_force_invariants, paley_certificate
from .paley import Graph, build_paley, normalize_params
from .spectral import EIGEN_CAP, eigen_oracle, theta_pair

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
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


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
    return build_field(*odd_prime_power(q))


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


def _invariants_oracle(field, m: int, cert) -> tuple[dict, bool]:
    """Brute-force omega, alpha and chi of the residue graph, and whether
    the certificate has the same three."""
    bf = brute_force_invariants(build_paley(field, m))
    oracle = {"omega": bf.omega, "alpha": bf.alpha, "chi": bf.chi}
    return oracle, (cert.omega, cert.alpha, cert.chi) == tuple(oracle.values())


def _cmd_invariants(args) -> int:
    field = _field_for(args.q)
    cert = paley_certificate(field, args.m, budget=args.budget)
    report = {
        "field": field.spec.to_json_dict(),
        "m": args.m,
        "certificate": cert.to_json_dict(),
    }
    agrees = True
    if args.oracle and args.q <= BRUTE_FORCE_CAP:
        report["oracle"], agrees = _invariants_oracle(field, args.m, cert)
    _emit(_json_text(report), args.out)
    if not agrees:
        raise OracleMismatchError("oracle mismatch: solver disagrees with brute force")
    return EXIT_BUDGET if cert.status == "timeout" else EXIT_OK


def _spectrum_oracle_diff(field, m: int, rep) -> float:
    """Largest gap between the character-sum spectrum and the eigensolver's."""
    oracle_vals = eigen_oracle(build_paley(field, m))
    return max(abs(a - b) for a, b in zip(rep.eigenvalue_multiset(), oracle_vals))


def _cmd_spectrum(args) -> int:
    field = _field_for(args.q)
    rep = theta_pair(field, args.m)
    report = {"field": field.spec.to_json_dict(), **rep.to_json_dict()}
    worst = 0.0
    if args.oracle and args.q <= EIGEN_CAP:
        worst = report["oracle_max_abs_diff"] = _spectrum_oracle_diff(field, args.m, rep)
    _emit(_json_text(report), args.out)
    if worst > ORACLE_TOL:
        raise OracleMismatchError("oracle mismatch: character sums disagree with eigensolver")
    return EXIT_OK


def _cmd_classify(args) -> int:
    result = classify(args.q, args.m, budget=args.budget)
    report = result.to_json_dict()
    # Past the size limit only a fast path, which builds no field, gets here.
    report["field"] = _field_for(args.q).spec.to_json_dict() if args.q <= SIZE_LIMIT else None
    _emit(_json_text(report), args.out)
    return EXIT_BUDGET if result.status != "complete" else EXIT_OK


def _q_rows(qs, m_set, budget: int, oracle: bool) -> list[dict]:
    """The scan's rows of these q's: in the order of qs, each q's in m order.
    The `rule` cell is the first reason, the rule that decided the row.
    Past the fast paths a row depends on m only through m_bar, so each
    (q, m_bar) is decided once.  The field cache is emptied before each q,
    so one field is alive at a time."""
    rows = []
    for q in qs:
        build_field.cache_clear()
        field = _field_for(q)
        p, n = field.p, field.n
        ms = divisors(q - 1)
        if m_set is not None:
            ms = [m for m in ms if m in m_set]
        reports, decisions = {}, {}  # by m_bar: every m with the same m_bar shares both
        for m in ms:
            params = normalize_params(q, m)
            result = fast_paths(q, m) or decisions.get(params.m_bar)
            if result is None:
                result = decisions[params.m_bar] = exhaustive_decision(field, m, budget)
            prim = primitivity(q, m)
            omega = chi = theta = lam = ""
            if params.m_bar >= 2:
                rep = reports.get(params.m_bar)
                if rep is None:
                    rep = reports[params.m_bar] = theta_pair(field, params.m_bar)
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
            if oracle and q <= BRUTE_FORCE_CAP and params.m_bar >= 2:
                solver = paley_certificate(field, params.m_bar, budget=budget)
                if not _invariants_oracle(field, params.m_bar, solver)[1]:
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


def _workers() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _claim(flags, qs: list[int]):
    """The q's this process takes, largest first: each q whose flag in the
    shared map is still clear, which it then sets.  Two processes that read
    a flag at once both take its q, whose rows are then kept once."""
    for i in range(len(qs) - 1, -1, -1):
        if not flags[i]:
            flags[i] = 1
            yield qs[i]


def _forked_rows(qs: list[int], workers: int, m_set, budget: int, oracle: bool) -> list[dict]:
    """The rows of every q, in q then m order, from `workers` processes:
    this one and up to workers - 1 children take the q's, largest first,
    off flags in a shared map.  A child reports [q, rows] pairs, each row
    as its list of values.  The q's of a child with no complete report are
    run here at the end.  Every child is closed on any exit."""
    import mmap

    flags = mmap.mmap(-1, len(qs))  # anonymous and shared with the children

    def share() -> list:
        return [[q, [list(row.values()) for row in _q_rows([q], m_set, budget, oracle)]]
                for q in _claim(flags, qs)]

    children = []
    try:
        for _ in range(workers - 1):
            child = Child.start(share)
            if child is not None:
                children.append(child)
        by_q = {q: _q_rows([q], m_set, budget, oracle) for q in _claim(flags, qs)}
        columns = SCAN_COLUMNS.split(",")
        for child in children:
            for q, rows in child.result() or ():
                by_q.setdefault(q, [dict(zip(columns, values)) for values in rows])
    finally:
        for child in children:
            child.close()
        flags.close()
    return [row for q in qs
            for row in (by_q[q] if q in by_q else _q_rows([q], m_set, budget, oracle))]


def _scan_rows(q_max: int, m_set, budget: int, oracle: bool) -> list[dict]:
    """The scan's rows, in q then m order, computed on every CPU this
    process may run on (see _forked_rows)."""
    qs = odd_prime_powers(q_max)
    workers = min(_workers(), len(qs))
    if workers > 1:
        try:
            return _forked_rows(qs, workers, m_set, budget, oracle)
        except Exception:
            # A q failed.  The loop over every q meets the error of the
            # smallest failing q first and raises it, as one process does.
            pass
    return _q_rows(qs, m_set, budget, oracle)


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
        if row["verdict"] == NON_SYNCHRONIZING and row["omega"]:
            omega = int(row["omega"])
            if omega != int(row["chi"]) or row["q"] % omega:  # the classify module's lemma
                raise OracleMismatchError(f"witness must have omega = chi dividing q: {row}")
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


def _budget(text: str) -> int:
    """--budget (and PALEY_BUDGET) as a node count: a nonnegative integer."""
    try:
        budget = int(text)
    except ValueError:
        budget = -1
    if budget < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a nonnegative integer")
    return budget


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paleysync",
        description="Generalized Paley graphs, exact invariants, and affine synchronization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, budget=False, oracle=False):
        sp.add_argument("--out", default=None, help="output path (default: stdout)")
        if budget:
            # A string default goes through _budget only when --budget is absent.
            sp.add_argument(
                "--budget", type=_budget, default=os.environ.get("PALEY_BUDGET") or DEFAULT_BUDGET,
                help="node budget of a command or scan row (default: $PALEY_BUDGET or 10^8)",
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
    sp.add_argument("--emit", default="json", choices=("json", "csv", "dot"))
    common(sp)
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
    common(sp, budget=True, oracle=True)
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
    except (OracleMismatchError, InvalidWitnessError) as exc:
        # The CLI takes no witness, so an invalid one is the program's own.
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ORACLE_MISMATCH
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_ARGS
    except Exception as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
