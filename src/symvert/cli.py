"""Command-line interface.

Three commands: ``vertices`` (Green/symmetric vertex report for a module
file over a group file), ``blocks`` (2-block decomposition with defect
data for a group file), and ``verify`` (built-in example suites).  All
reports embed the field degree, modulus and seed, and identical inputs
with identical seeds produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import blocks as blocks_mod
from . import catalog, forms, rep, vertex
from .field import MAX_DEGREE, make_field
from .group import FeasibilityError, load_group

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4  # an internal certificate check failed (an AssertionError)

DEFAULT_SEED = 20240401
INPUT_ERRORS = (OSError, ValueError, KeyError, TypeError, IndexError, OverflowError)


def _meta(F, args) -> dict:
    return {
        "field_degree": F.m,
        "modulus": F.modulus,
        "seed": args.seed,
    }


def _emit(data: dict, args) -> None:
    if args.json:
        print(json.dumps(data, sort_keys=True, separators=(",", ":")))
    else:
        print(json.dumps(data, sort_keys=True, indent=2))


def cmd_vertices(args) -> int:
    try:
        G = load_group(args.group, args.bound_group_order)
        M = rep.load_module(args.module, G)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if M.dim > args.bound_dim:
        print("error: input exceeds feasibility bounds", file=sys.stderr)
        return EXIT_INFEASIBLE
    if not rep.is_indecomposable(M):
        print("error: module is decomposable", file=sys.stderr)
        return EXIT_PARSE
    F = M.F
    base = forms.base_form(M)
    if base is None:
        out = {"meta": _meta(F, args), "case": "not-applicable",
               "reason": "module has no nondegenerate invariant symmetric form"}
        _emit(out, args)
        return EXIT_OK
    report = vertex.classify_case(M, base, seed=args.seed)
    out = {"meta": _meta(F, args), **vertex.report_to_dict(report)}
    _emit(out, args)
    return EXIT_OK


def cmd_blocks(args) -> int:
    try:
        G = load_group(args.group, args.bound_group_order)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    F = make_field(args.field_degree)
    bl = blocks_mod.block_decomposition(G, F)
    out = {
        "meta": _meta(F, args),
        "blocks": [blocks_mod.block_to_dict(b) for b in bl],
    }
    _emit(out, args)
    return EXIT_OK


def _verify_paper_examples(args) -> list[dict]:
    results = []

    def record(name, fn):
        try:
            ok = bool(fn())
        except Exception as exc:  # report, never crash the suite
            ok = False
            results.append({"name": name, "pass": False, "error": repr(exc)})
            return
        results.append({"name": name, "pass": ok})

    F = make_field(1)

    def dihedral_two_vertices():
        P, _ = catalog.d12_pim(F)
        base = forms.base_form(P)
        sv = vertex.symmetric_vertices(P, base)
        if len(sv) != 2 or {t.subgroup.order for t in sv} != {2}:
            return False
        G = P.group
        return G.subgroup_conjugate(sv[0].subgroup, sv[1].subgroup) is None

    def s5_case_one():
        sd = catalog.s5_specht_irreducible(make_field(2))
        r = vertex.classify_case(sd.irreducible, sd.irreducible_form,
                                 seed=args.seed)
        return r.case == "I" and r.green.vertex.order == 4

    def gl32_case_three():
        M, _ = catalog.gl32_induced_module(F)
        r = vertex.classify_case(M, seed=args.seed, check_principal=False)
        return r.case == "III"

    def specht_quadratic():
        sd = catalog.s5_specht_irreducible(F)
        q = blocks_mod.quadratic_type_pim(sd.irreducible, sd.irreducible_form)
        return q.quadratic

    def s3_blocks():
        G = catalog.suite_group("S3")
        bl = blocks_mod.block_decomposition(G, F)
        return len(bl) == 2 and all(b.real for b in bl)

    record("dihedral-pim-two-symmetric-vertices", dihedral_two_vertices)
    record("s5-specht-case-I", s5_case_one)
    record("gl32-extension-case-III", gl32_case_three)
    record("specht-row-reversal-quadratic-type", specht_quadratic)
    record("s3-two-real-blocks", s3_blocks)
    return results


def _verify_oracle_small(args) -> list[dict]:
    import random

    results = []
    F = make_field(1)
    rng = random.Random(args.seed)

    def projectivity_oracle():
        for name in ("S3", "V4", "A4"):
            G = catalog.suite_group(name)
            mods = [rep.trivial_module(G, F)] + [
                m for m in rep.irreducible_modules(G, F) if m.dim <= 8
            ]
            for M in mods:
                for H in G.two_subgroups_up_to_conjugacy():
                    got = vertex.is_projective(M, H).projective
                    ind, _ = rep.induce(rep.restrict(M, H), H)
                    want = vertex.is_summand(M, ind)
                    if got != want:
                        return False
        return True

    def lifting_oracle():
        from .linalg import Subspace, mat_mul

        G = catalog.suite_group("S3")
        M = rep.regular_module(G, F)
        B = forms.standard_form(M)
        sigma = forms.Adjoint(B)
        E = rep.regular_end_algebra(G, F, M)
        # r(J(kG)) = J(E); a random subset-sum of a basis is uniform on it
        J = rep.radical(E)
        I = Subspace(F, M.dim**2, np.array([j.ravel() for j in J]))
        base = [np.zeros((M.dim, M.dim), dtype=np.int64),
                np.eye(M.dim, dtype=np.int64)]
        for piece in forms.orth_decompose(B):
            base.append(forms.orth_projection(B, piece.space))
        for _ in range(20):
            e0 = base[rng.randrange(len(base))]
            n = np.zeros((M.dim, M.dim), dtype=np.int64)
            for j in J:
                if rng.randrange(2):
                    n ^= j
            e = forms.lift_selfadjoint_idempotent(E, sigma, I, e0 ^ n)
            if ((mat_mul(F, e, e) != e).any() or (sigma(e) != e).any()
                    or not I.contains((e ^ e0 ^ n).ravel())):
                return False
        return True

    for name, fn in (
        ("is-projective-brute-force-oracle", projectivity_oracle),
        ("selfadjoint-idempotent-lifting", lifting_oracle),
    ):
        try:
            results.append({"name": name, "pass": bool(fn())})
        except Exception as exc:
            results.append({"name": name, "pass": False, "error": repr(exc)})
    return results


def cmd_verify(args) -> int:
    suites = {
        "paper-examples": _verify_paper_examples,
        "oracle-small": _verify_oracle_small,
    }
    if args.suite not in suites:
        print(f"error: unknown suite {args.suite!r}", file=sys.stderr)
        return EXIT_PARSE
    import time

    t0 = time.time()
    results = suites[args.suite](args)
    out = {
        "meta": _meta(make_field(args.field_degree), args),
        "suite": args.suite,
        "results": results,
        "elapsed_s": round(time.time() - t0, 3),
    }
    _emit(out, args)
    return EXIT_OK if all(r["pass"] for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="symvert",
        description="Invariant bilinear forms, vertices and 2-blocks of "
        "finite groups in characteristic 2",
    )
    p.add_argument("--field-degree", type=int, default=1, metavar="M",
                   choices=range(1, MAX_DEGREE + 1))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, metavar="N")
    p.add_argument("--json", action="store_true", help="compact JSON output")
    p.add_argument("--bound-group-order", type=int, default=10_000, metavar="K")
    p.add_argument("--bound-dim", type=int, default=512, metavar="D")
    sub = p.add_subparsers(dest="command", required=True)
    pv = sub.add_parser("vertices", help="vertex report for a module")
    pv.add_argument("group")
    pv.add_argument("module")
    pv.set_defaults(func=cmd_vertices)
    pb = sub.add_parser("blocks", help="block decomposition of a group algebra")
    pb.add_argument("group")
    pb.set_defaults(func=cmd_blocks)
    pf = sub.add_parser("verify", help="run a built-in verification suite")
    pf.add_argument("suite")
    pf.set_defaults(func=cmd_verify)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FeasibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except AssertionError as exc:
        print(f"error: internal certificate failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
