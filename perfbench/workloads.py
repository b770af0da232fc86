"""The benchmark's workloads: the ops each one times and the checks on them.

Every op is a zero-argument callable timed on its own, followed by an
untimed check that raises ``CheckFailed`` with the cause.  Ops that share
state (the three regular-gf2 ops of one group) form one unit; the
workload seed shuffles the order of the units, never their content.

This module imports symvert, so only the worker process loads it.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from symvert import blocks, catalog, cli, forms, rep, vertex
from symvert.field import make_field
from symvert.linalg import eye

DATA = Path(__file__).resolve().parent / "data"

# the catalogue's shipped group files, read by the CLI-shaped queries
GROUP_FILES = {
    "C2": "c2.json",
    "V4": "v4.json",
    "S3": "s3.json",
    "D12": "d12.json",
    "A4": "a4.json",
    "S4": "s4.json",
    "S5": "s5.json",
    "SL(2,3)": "sl23.json",
    "GL(3,2):2": "gl32_2.json",
    "C3:C4": "c3c4.json",
}

# S5 (26 s a pass) is left out so that the three workloads fit the run
# budget next to paper-examples at the CLI default seed
REGULAR_GROUPS = ["S3", "D12", "A4", "C3:C4", "S4", "SL(2,3)"]
SMOKE_REGULAR = ["S3", "D12", "A4"]

PAPER_EXAMPLES = [
    "dihedral-pim-two-symmetric-vertices",
    "s5-specht-case-I",
    "gl32-extension-case-III",
    "specht-row-reversal-quadratic-type",
    "s3-two-real-blocks",
]
SMOKE_PAPER = [
    "dihedral-pim-two-symmetric-vertices",
    "gl32-extension-case-III",
    "s3-two-real-blocks",
]

SMOKE_CATALOG = [
    "vertices/S3/perm-1",
    "vertices/D12/regular-1",
    "vertices/C3:C4/regular-0",
    "vertices/GL(3,2):2/induced-6",
    "blocks/S3/gf2",
    "blocks/A4/gf4",
    "verify/oracle-small",
]


class CheckFailed(Exception):
    """An op's output failed a correctness check."""


def require(cond: bool, cause: str) -> None:
    if not cond:
        raise CheckFailed(cause)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    units: list[list[Op]]
    # called once after a pass with {op name: output}; returns failed names
    finish: Callable[[dict], dict[str, str]] = field(
        default=lambda outputs: {}
    )


def load_json(name: str):
    with open(DATA / name) as fh:
        return json.load(fh)


def expected_for(workload: str) -> dict:
    """Seed-invariant expected results (empty while they are being captured)."""
    path = DATA / "expected.json"
    if not path.exists():
        return {}
    return load_json("expected.json")[workload]


def golden_for(program_seed: int) -> dict | None:
    path = DATA / "golden" / f"seed-{program_seed}.json"
    if not path.exists():
        return None
    with open(path) as fh:
        return json.load(fh)


def slug(group: str) -> str:
    return GROUP_FILES[group][: -len(".json")]


def group_path(group: str) -> str:
    return str(Path(cli.__file__).resolve().parent / "data" / GROUP_FILES[group])


def module_path(group: str, label: str) -> str:
    return str(DATA / "modules" / f"{slug(group)}-{label}.json")


def drop_elapsed(text: str) -> str:
    """A verify report with its wall-clock field removed, re-serialized."""
    data = json.loads(text)
    data.pop("elapsed_s", None)
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def compare_golden(golden: dict | None, name: str, text: str) -> None:
    if golden is None or name not in golden:
        return
    require(text == golden[name], f"output differs from golden ({len(text)} bytes)")


def retrace_alpha(report) -> None:
    """The projectivity certificate: tr_V^G(alpha) is the identity."""
    M, green = report.module, report.green
    require(green.cert is not None and green.cert.alpha is not None,
            "no projectivity certificate")
    tr = vertex.rel_trace(M, green.cert.alpha, green.vertex)
    require((tr == eye(M.dim)).all(), "tr_V^G(alpha) is not the identity")


def vertex_invariants(report) -> dict:
    return {
        "case": report.case,
        "green_order": report.green.vertex.order,
        "sym_orders": sorted(t.subgroup.order for t in report.sym_vertices),
    }


def simple_count_gf2(G) -> int:
    """Number of simple GF(2)G-modules: orbits of squaring on 2-regular
    conjugacy classes (Brauer, with the Galois action of GF(2))."""
    classes = G.conjugacy_classes()
    todo = {i for i, c in enumerate(classes) if c.is_2regular}
    orbits = 0
    while todo:
        i = todo.pop()
        orbits += 1
        j = G.class_of(G.power(classes[i].rep, 2))
        while j != i:
            todo.discard(j)
            j = G.class_of(G.power(classes[j].rep, 2))
    return orbits


# -- regular-gf2 -------------------------------------------------------------


def regular_gf2(program_seed: int, smoke: bool) -> Workload:
    expected = expected_for("regular-gf2")
    F = make_field(1)
    units = []
    for name in SMOKE_REGULAR if smoke else REGULAR_GROUPS:
        G = catalog.suite_group(name)
        state = {"M": rep.regular_module(G, F), "simples": simple_count_gf2(G)}
        units.append(
            _regular_unit(name, G, F, state, expected.get(name), program_seed))
    return Workload(units)


def krull_schmidt(cert) -> dict:
    return {
        "component_dims": sorted(c.module.dim for c in cert.components),
        "multiplicities": sorted(cert.multiplicities),
    }


def _regular_unit(name, G, F, state, exp, seed) -> list[Op]:
    def run_pims():
        state["pims"] = rep.pims(G, F, seed=seed)
        return state["pims"]

    def check_pims(P):
        require(len(P) == state["simples"],
                f"{len(P)} PIMs for {state['simples']} simple modules")
        require(sum(p.multiplicity * p.pim.dim for p in P) == G.order,
                "sum of multiplicity * dim P differs from |G|")
        trivial = [p for p in P if p.head.dim == 1]
        require(len(trivial) == 1, "no unique P(k)")
        g2 = G.sylow2().order
        require(trivial[0].pim.dim % g2 == 0
                and (trivial[0].pim.dim // g2) % 2 == 1,
                "P(k) parity: dim P(k) / |Sylow 2| is not odd")

    def run_decompose():
        E = rep.regular_end_algebra(G, F, state["M"])
        state["cert"] = rep.decompose(state["M"], seed=seed, endo=E)
        return state["cert"]

    def check_decompose(cert):
        require(cert.verify(), "DecompositionCert.verify() failed")
        inv = krull_schmidt(cert)
        require(inv == exp, f"Krull-Schmidt invariants {inv}")

    def run_match():
        P, cert = state["pims"], state["cert"]
        return [
            [i for i, p in enumerate(P)
             if p.pim.dim == c.module.dim
             and rep.module_iso(c.module, p.pim, seed=seed) is not None]
            for c in cert.components
        ]

    def check_match(matches):
        require(all(len(m) == 1 for m in matches),
                "a component matches no PIM or several")
        P = state["pims"]
        for i, p in enumerate(P):
            n = sum(1 for m in matches if m == [i])
            require(n == p.multiplicity,
                    f"PIM {i} found {n} times, multiplicity {p.multiplicity}")

    return [
        Op(f"pims/{name}", run_pims, check_pims),
        Op(f"decompose/{name}", run_decompose, check_decompose),
        Op(f"match/{name}", run_match, check_match),
    ]


# -- paper-examples ----------------------------------------------------------


def paper_examples(program_seed: int, smoke: bool) -> Workload:
    expected = expected_for("paper-examples")
    golden = golden_for(program_seed)
    F = make_field(1)
    for name in ("D12", "S3", "GL(3,2):2"):
        catalog.suite_group(name)
    seed = program_seed

    def dihedral():
        P, _ = catalog.d12_pim(F)
        sv = vertex.symmetric_vertices(P, forms.base_form(P))
        ok = len(sv) == 2 and {t.subgroup.order for t in sv} == {2}
        G = P.group
        ok = ok and G.subgroup_conjugate(sv[0].subgroup, sv[1].subgroup) is None
        return ok, {"sym_orders": sorted(t.subgroup.order for t in sv)}

    def s5_case_one():
        sd = catalog.s5_specht_irreducible(make_field(2))
        r = vertex.classify_case(sd.irreducible, sd.irreducible_form, seed=seed)
        retrace_alpha(r)
        inv = vertex_invariants(r)
        inv["principal_block"] = r.principal_block
        return r.case == "I" and r.green.vertex.order == 4, inv

    def gl32_case_three():
        M, _ = catalog.gl32_induced_module(F)
        r = vertex.classify_case(M, seed=seed, check_principal=False)
        retrace_alpha(r)
        return r.case == "III", vertex_invariants(r)

    def specht_quadratic():
        sd = catalog.s5_specht_irreducible(F)
        q = blocks.quadratic_type_pim(sd.irreducible, sd.irreducible_form)
        return q.quadratic, {}

    def s3_blocks():
        bl = blocks.block_decomposition(catalog.suite_group("S3"), F)
        return len(bl) == 2 and all(b.real for b in bl), block_invariants(
            [blocks.block_to_dict(b) for b in bl])

    fns = {
        "dihedral-pim-two-symmetric-vertices": dihedral,
        "s5-specht-case-I": s5_case_one,
        "gl32-extension-case-III": gl32_case_three,
        "specht-row-reversal-quadratic-type": specht_quadratic,
        "s3-two-real-blocks": s3_blocks,
    }

    def make_check(name):
        def check(out):
            ok, inv = out
            require(ok, "suite verdict is fail")
            require(inv == expected.get(name), f"invariants {inv}")
        return check

    names = SMOKE_PAPER if smoke else PAPER_EXAMPLES
    units = [[Op(n, fns[n], make_check(n))] for n in names]

    def finish(outputs: dict) -> dict[str, str]:
        # the CLI's `verify paper-examples` report, rebuilt from the ops
        if golden is None or smoke or set(outputs) != set(PAPER_EXAMPLES):
            return {}
        report = {
            "meta": {"field_degree": F.m, "modulus": F.modulus, "seed": seed},
            "suite": "paper-examples",
            "results": [{"name": n, "pass": bool(outputs[n][0])}
                        for n in PAPER_EXAMPLES],
        }
        text = json.dumps(report, sort_keys=True, separators=(",", ":"))
        want = golden["verify/paper-examples"]
        if text == want:
            return {}
        want_results = json.loads(want)["results"]
        bad = {r["name"] for r, w in zip(report["results"], want_results)
               if r != w}
        return {n: "verify report differs from golden"
                for n in (bad or PAPER_EXAMPLES)}

    return Workload(units, finish)


def block_invariants(block_dicts: list[dict]) -> dict:
    def order(g):
        return g["order"] if g else None

    return {
        "count": len(block_dicts),
        "blocks": sorted(
            [order(b["defect_group"]), order(b["extended_defect_group"]),
             b["real"], b["principal"]]
            for b in block_dicts
        ),
    }


# -- catalog-cli -------------------------------------------------------------


def cli_call(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class ReportTap:
    """Keeps the last ``vertex.classify_case`` result of a CLI call so the
    check can re-trace its projectivity certificate."""

    def __init__(self):
        self.last = None
        self._orig = vertex.classify_case

        def tapped(*args, **kwargs):
            self.last = self._orig(*args, **kwargs)
            return self.last

        vertex.classify_case = tapped


def cli_vertex_invariants(data: dict) -> dict:
    if data["case"] == "not-applicable":
        return {"case": "not-applicable"}
    return {
        "case": data["case"],
        "green_order": data["green_vertex"]["order"],
        "sym_orders": sorted(t["order"] for t in data["symmetric_vertices"]),
    }


def catalog_queries() -> list[tuple[str, list[str]]]:
    """(op name, CLI argv without the seed) for every catalog-cli query."""
    index = load_json("modules/index.json")
    out = []
    for entry in index:
        g, label = entry["group"], entry["label"]
        out.append((f"vertices/{g}/{label}",
                    ["--json", "vertices", group_path(g), module_path(g, label)]))
    for g in GROUP_FILES:
        for m in (1, 2):
            out.append((f"blocks/{g}/gf{2 ** m}",
                        ["--json", "--field-degree", str(m), "blocks",
                         group_path(g)]))
    out.append(("verify/oracle-small", ["--json", "verify", "oracle-small"]))
    return out


def catalog_cli(program_seed: int, smoke: bool) -> Workload:
    expected = expected_for("catalog-cli")
    golden = golden_for(program_seed)
    queries = catalog_queries()
    # inputs must parse as the CLI will read them
    for name, argv in queries:
        if name.startswith("vertices/"):
            rep.load_module(argv[-1], catalog.suite_group(name.split("/")[1]))
    tap = ReportTap()
    units = []
    for name, argv in queries:
        if smoke and name not in SMOKE_CATALOG:
            continue
        full = ["--seed", str(program_seed)] + argv
        units.append([Op(name, _cli_run(full, tap),
                         _cli_check(name, expected.get(name), golden, tap))])
    return Workload(units)


def _cli_run(argv, tap):
    def run():
        tap.last = None
        return cli_call(argv)
    return run


def _cli_check(name, exp, golden, tap):
    kind = name.split("/")[0]

    def check(out):
        code, text, err = out
        require(code == 0, f"exit code {code}: {err.strip()[:200]}")
        if kind == "verify":
            data = json.loads(text)
            require(all(r["pass"] for r in data["results"]), "suite failed")
            compare_golden(golden, name, drop_elapsed(text))
            return
        compare_golden(golden, name, text)
        data = json.loads(text)
        if kind == "blocks":
            inv = block_invariants(data["blocks"])
            require(inv == exp, f"block invariants {inv}")
            return
        inv = cli_vertex_invariants(data)
        require(inv == exp, f"vertex invariants {inv}")
        if data["case"] == "not-applicable":
            return
        require(tap.last is not None, "no vertex report captured")
        retrace_alpha(tap.last)

    return check


BUILDERS = {
    "regular-gf2": regular_gf2,
    "paper-examples": paper_examples,
    "catalog-cli": catalog_cli,
}


def prepare(name: str, program_seed: int, smoke: bool = False) -> Workload:
    return BUILDERS[name](program_seed, smoke)
