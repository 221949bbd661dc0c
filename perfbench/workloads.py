"""The benchmark's workloads: fixed operation lists over the public paleysync
API, each with its golden answers and the check that guards them.

One operation is one public call.  `Op.prepare` runs untimed before it
(cache policy), `Op.call` is the timed call, and `Op.answer` turns the raw
result into a JSON-able answer, untimed and untraced.  `answer` also
re-validates every certificate against its rebuilt graph, so it raises on a
bad witness.  Library functions are looked up on the module at call time,
so the tracer's wrappers are seen.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

UNKNOWN = "Unknown"
UNDECIDED_STATUSES = ("timeout", "budget_exhausted", "skipped_exhaustive")
FLOAT_TOL = 1e-9


@dataclass
class Op:
    key: str
    call: Callable[[], object]
    answer: Callable[[object], object]
    prepare: Callable[[], None] = lambda: None


def _mod(name: str):
    return sys.modules[f"paleysync.{name}"]


def _cold_field_cache() -> None:
    _mod("gf").build_field.cache_clear()


def _close(a, b) -> bool:
    if a == "" or b == "" or a is None or b is None:
        return a == b
    return math.isclose(float(a), float(b), rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL)


def _check_verdict(key, gold, cur, errors) -> None:
    """gold/cur are [verdict, status, ...].  A decided golden verdict must
    repeat exactly; an undecided one may stay undecided or become decided."""
    g_verdict, g_status = gold[0], gold[1]
    c_verdict, c_status = cur[0], cur[1]
    if g_verdict != UNKNOWN:
        if (c_verdict, c_status) != (g_verdict, g_status):
            errors.append(f"{key}: {c_verdict}/{c_status}, golden {g_verdict}/{g_status}")
    elif c_verdict == UNKNOWN:
        if c_status not in UNDECIDED_STATUSES:
            errors.append(f"{key}: Unknown with status {c_status}")
    elif c_status != "complete":
        errors.append(f"{key}: decided {c_verdict} with status {c_status}")


class Workload:
    name = ""
    why = ""
    pass_s = 1.0  # nominal wall time of one pass at the defining commit; sets the pass count

    def inputs(self) -> dict:
        """The exact inputs, for the run record."""
        raise NotImplementedError

    def ops(self, ps, out_dir: Path) -> list[Op]:
        raise NotImplementedError

    def count(self, answer) -> tuple[int, int]:
        """(answers, undecided answers) in one op's answer."""
        raise NotImplementedError

    def check(self, key: str, gold, cur, errors: list[str]) -> None:
        raise NotImplementedError


class Scan729(Workload):
    name = "scan-729"
    why = "broad sweep over 1509 (q, m) rows: Gauss periods and per-call overhead, little search"
    pass_s = 2.0
    Q_MAX = 729

    def inputs(self):
        return {
            "op": f"cli.run(['scan', '--q-max', '{self.Q_MAX}', '--out', <file>])",
            "budget": "cli default (10**8 nodes), PALEY_BUDGET unset",
            "exhaustive_cap": "cli default (8)",
            "cache": "build_field cache cleared before each op",
        }

    def ops(self, ps, out_dir):
        path = out_dir / f"scan-{self.Q_MAX}.csv"
        argv = ["scan", "--q-max", str(self.Q_MAX), "--out", str(path)]

        def answer(rc):
            lines = path.read_text(encoding="utf-8").splitlines()
            cols = lines[0].split(",")
            rows = {}
            for line in lines[1:]:
                row = dict(zip(cols, line.split(",")))
                rows[f"{row['q']},{row['m']}"] = [
                    row["verdict"], row["status"], row["theta"], row["lambda_min"],
                ]
            return {"rc": rc, "rows": rows}

        return [Op(f"scan {self.Q_MAX}", lambda: _mod("cli").run(argv), answer, _cold_field_cache)]

    def count(self, answer):
        rows = answer["rows"].values()
        return len(rows), sum(row[0] == UNKNOWN for row in rows)

    def check(self, key, gold, cur, errors):
        if cur["rc"] != (2 if any(r[1] != "complete" for r in cur["rows"].values()) else 0):
            errors.append(f"{key}: exit code {cur['rc']} does not match the row statuses")
        if cur["rows"].keys() != gold["rows"].keys():
            errors.append(f"{key}: row set differs from golden")
            return
        for rk, g in gold["rows"].items():
            c = cur["rows"][rk]
            _check_verdict(f"{key} ({rk})", g, c, errors)
            if not (_close(g[2], c[2]) and _close(g[3], c[3])):
                errors.append(f"{key} ({rk}): theta/lambda_min {c[2:]} vs golden {g[2:]}")


def _odd_prime_powers(ps, limit):
    out = []
    for q in range(3, limit + 1, 2):
        try:
            ps.prime_power(q)
        except ps.BadInputError:
            continue
        out.append(q)
    return out


class CertifyQ81(Workload):
    name = "certify-q81"
    why = "exact omega/alpha/chi for all 82 residue graphs with q <= 81: colouring search dominates"
    pass_s = 25.0
    Q_MAX = 81
    BUDGET = 50_000

    def instances(self, ps):
        return [
            (q, m)
            for q in _odd_prime_powers(ps, self.Q_MAX)
            for m in range(2, q)
            if (q - 1) % (2 * m) == 0
        ]

    def inputs(self):
        return {
            "op": f"paley_certificate(field, m, budget={self.BUDGET})",
            "instances": f"every (q, m) with odd prime power q <= {self.Q_MAX}, m >= 2, 2m | q-1",
            "budget": self.BUDGET,
            "cache": "fields built once in set-up",
        }

    def ops(self, ps, out_dir):
        ops = []
        for q, m in self.instances(ps):
            field = ps.build_field(*ps.prime_power(q))

            def call(field=field, m=m):
                return ps.paley_certificate(field, m, budget=self.BUDGET)

            def answer(cert, field=field, m=m):
                ps.verify_certificate(ps.build_paley(field, m), cert)
                return {
                    "omega": cert.omega,
                    "alpha": cert.alpha,
                    "chi": cert.chi,
                    "status": cert.status,
                    "bounds": {k: list(v) for k, v in cert.bounds.items()},
                }

            ops.append(Op(f"{q},{m}", call, answer))
        return ops

    def count(self, answer):
        return 1, int(answer["status"] != "exact")

    def check(self, key, gold, cur, errors):
        if gold["status"] == "exact":
            keys = ("omega", "alpha", "chi", "status")
            if any(cur[k] != gold[k] for k in keys):
                errors.append(
                    f"{key}: {[cur[k] for k in keys]}, golden {[gold[k] for k in keys]}"
                )
            return
        for k in ("omega", "alpha", "chi"):
            lo, hi = gold["bounds"][k]
            if cur[k] is not None and not lo <= cur[k] <= hi:
                errors.append(f"{key}: {k}={cur[k]} outside the golden bounds [{lo}, {hi}]")


class ClassifyUnions(Workload):
    name = "classify-unions"
    why = "classify with a cold field cache on extension fields, incl. exhaustive orbital unions"
    pass_s = 20.0
    INSTANCES = (
        (343, 3, None),
        (625, 3, None),
        (125, 4, 10**5),
        (343, 6, 10**5),
        (121, 5, 10**5),
        (343, 9, 10**4),
    )

    def inputs(self):
        return {
            "op": "classify(q, m, budget)",
            "instances": [list(t) for t in self.INSTANCES],
            "budget": "per instance; None means the library default (10**8 nodes)",
            "cache": "build_field cache cleared before each op",
        }

    def ops(self, ps, out_dir):
        ops = []
        for q, m, budget in self.INSTANCES:

            def call(q=q, m=m, budget=budget):
                return ps.classify(q, m, budget=budget)

            def answer(res, q=q, m=m):
                if res.verdict == ps.NON_SYNCHRONIZING:
                    field = ps.build_field(*ps.prime_power(q))
                    g = ps.union_graph(ps.orbital_family(field, m), res.witness["orbital_subset"])
                    ps.verify_certificate(g, res.certificate)
                return [res.verdict, res.status]

            ops.append(Op(f"{q},{m},{budget}", call, answer, _cold_field_cache))
        return ops

    def count(self, answer):
        return 1, int(answer[0] == UNKNOWN)

    def check(self, key, gold, cur, errors):
        _check_verdict(key, gold, cur, errors)


def _adjacency_sha256(g) -> str:
    width = (g.n_vertices + 7) // 8
    h = hashlib.sha256()
    for row in g.adjacency:
        h.update(row.to_bytes(width, "little"))
    return h.hexdigest()


class GraphsExt(Workload):
    name = "graphs-ext"
    why = "cold extension-field tables and residue graphs, no search: the gf and paley layers alone"
    pass_s = 18.0
    GRAPH_QS = (2197, 2401, 3125)
    GRAPH_M = 2
    THETA_FIELD = (3, 10)
    THETA_M = 2

    def inputs(self):
        return {
            "ops": [f"build_field + build_paley(field, {self.GRAPH_M}) for q={q}" for q in self.GRAPH_QS]
            + [f"build_field{self.THETA_FIELD} + theta_pair(field, {self.THETA_M})"],
            "cache": "build_field cache cleared before each op",
        }

    def ops(self, ps, out_dir):
        ops = []
        for q in self.GRAPH_QS:

            def call(q=q):
                field = ps.build_field(*ps.prime_power(q))
                return field, ps.build_paley(field, self.GRAPH_M)

            def answer(res):
                field, g = res
                return {"modulus": list(field.spec.modulus), "sha256": _adjacency_sha256(g)}

            ops.append(Op(f"graph {q},{self.GRAPH_M}", call, answer, _cold_field_cache))

        def call_theta():
            field = ps.build_field(*self.THETA_FIELD)
            return field, ps.theta_pair(field, self.THETA_M)

        def answer_theta(res):
            field, rep = res
            return {"modulus": list(field.spec.modulus), "periods": list(rep.periods)}

        p, n = self.THETA_FIELD
        ops.append(Op(f"theta {p**n},{self.THETA_M}", call_theta, answer_theta, _cold_field_cache))
        return ops

    def count(self, answer):
        return 1, 0

    def check(self, key, gold, cur, errors):
        if cur["modulus"] != gold["modulus"] or cur.get("sha256") != gold.get("sha256"):
            errors.append(f"{key}: field modulus or adjacency hash differs from golden")
        if "periods" in gold and not (
            len(cur["periods"]) == len(gold["periods"])
            and all(_close(a, b) for a, b in zip(cur["periods"], gold["periods"]))
        ):
            errors.append(f"{key}: periods differ from golden beyond {FLOAT_TOL}")


WORKLOADS = {w.name: w for w in (Scan729(), CertifyQ81(), ClassifyUnions(), GraphsExt())}
