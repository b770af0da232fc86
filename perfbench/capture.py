"""Regenerate the benchmark's data: module files, golden outputs and the
seed-invariant expectations.

    python3 perfbench/capture.py

It decomposes the catalogue's permutation modules (and the regular modules
of the groups of order at most 24) at seed 0 and writes one summand per
isomorphism class of dimension at most 30 as a CLI module file.  It then
runs every catalog-cli query and ``verify paper-examples`` at seed 0 and at
the CLI default seed, stores their JSON byte for byte (``elapsed_s``
dropped), and writes the invariants that must not depend on the seed after
checking that both seeds agree on them.  Run it only when the program's
output is meant to change; commit the result.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from symvert import catalog, cli, rep  # noqa: E402
from symvert.field import make_field  # noqa: E402

import workloads as wl  # noqa: E402

SEEDS = (0, cli.DEFAULT_SEED)
MAX_DIM = 30


def write_json(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True, indent=1)
        fh.write("\n")


def write_modules() -> None:
    F = make_field(1)
    index = []
    for name in wl.GROUP_FILES:
        G = catalog.suite_group(name)
        sources = [("perm", rep.permutation_module(G, F))]
        if G.order <= 24:
            sources.append(("regular", rep.regular_module(G, F)))
        for kind, M in sources:
            cert = rep.decompose(M, seed=0)
            seen = set()
            for c in cert.components:
                if c.iso_class in seen or c.module.dim > MAX_DIM:
                    continue
                seen.add(c.iso_class)
                label = f"{kind}-{c.iso_class}"
                index.append({"group": name, "label": label, "dim": c.module.dim})
                write_json(Path(wl.module_path(name, label)), rep.module_to_dict(c.module))
    M6, _ = catalog.gl32_induced_module(F)
    index.append({"group": "GL(3,2):2", "label": "induced-6", "dim": M6.dim})
    write_json(Path(wl.module_path("GL(3,2):2", "induced-6")), rep.module_to_dict(M6))
    write_json(wl.DATA / "modules" / "index.json", index)


def same(a, b, what):
    if a != b:
        raise SystemExit(f"{what} depends on the seed: {a} != {b}")
    return a


def main() -> None:
    write_modules()
    expected = {"regular-gf2": {}, "paper-examples": {}, "catalog-cli": {}}
    per_seed = {}
    for seed in SEEDS:
        golden = {}
        inv = {"catalog-cli": {}, "paper-examples": {}, "regular-gf2": {}}
        for name, argv in wl.catalog_queries():
            code, text, err = wl.cli_call(["--seed", str(seed)] + argv)
            if code != 0:
                raise SystemExit(f"{name} exited {code}: {err}")
            if name.startswith("verify/"):
                text = wl.drop_elapsed(text)
            golden[name] = text
            data = json.loads(text)
            if name.startswith("blocks/"):
                inv["catalog-cli"][name] = wl.block_invariants(data["blocks"])
            elif name.startswith("vertices/"):
                inv["catalog-cli"][name] = wl.cli_vertex_invariants(data)
            print(seed, name, flush=True)
        code, text, err = wl.cli_call(
            ["--json", "--seed", str(seed), "verify", "paper-examples"])
        if code != 0:
            raise SystemExit(f"verify paper-examples exited {code}: {text}{err}")
        golden["verify/paper-examples"] = wl.drop_elapsed(text)
        write_json(wl.DATA / "golden" / f"seed-{seed}.json", golden)
        for unit in wl.paper_examples(seed, smoke=False).units:
            op = unit[0]
            ok, found = op.run()
            if not ok:
                raise SystemExit(f"{op.name} fails at seed {seed}")
            inv["paper-examples"][op.name] = found
            print(seed, op.name, flush=True)
        for unit in wl.regular_gf2(seed, smoke=False).units:
            pims_op, dec_op, _ = unit
            pims_op.run()
            group = dec_op.name.split("/", 1)[1]
            inv["regular-gf2"][group] = wl.krull_schmidt(dec_op.run())
            print(seed, group, flush=True)
        per_seed[seed] = inv
    for part in expected:
        expected[part] = same(per_seed[SEEDS[0]][part], per_seed[SEEDS[1]][part], part)
    write_json(wl.DATA / "expected.json", expected)


if __name__ == "__main__":
    main()
