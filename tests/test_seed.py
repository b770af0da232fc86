"""The library takes no seed: each Las Vegas loop draws from a fixed start,
random.Random(depth), depth its level in its recursion.  Only the four
`seed` keywords that perfbench/ passes remain, keyword-only and ignored,
and the CLI's `--seed` draws only `verify oracle-small`'s samples."""

import hashlib
import importlib
import inspect
import json
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import symvert
from symvert import catalog, cli, rep, vertex
from symvert.field import make_field

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "symvert" / "data"
MODULES = ROOT / "perfbench" / "data" / "modules"
IGNORED_SEEDS = {"rep.decompose", "rep.pims", "rep.module_iso", "vertex.classify_case"}
F2 = make_field(1)


def _functions():
    """(module.qualname, function) for every function and method defined
    in a symvert module other than cli."""
    for info in pkgutil.iter_modules(symvert.__path__):
        if info.name == "cli":
            continue
        mod = importlib.import_module(f"symvert.{info.name}")
        short = info.name
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                yield f"{short}.{name}", obj
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, member in vars(obj).items():
                    # static and class methods, cached properties, properties
                    fn = next((getattr(member, a) for a in ("__func__", "func", "fget")
                               if hasattr(member, a)), member)
                    if inspect.isfunction(fn):
                        yield f"{short}.{name}.{attr}", fn


def test_no_seed_below_the_cli():
    seeds = {}
    for name, fn in _functions():
        params = inspect.signature(fn).parameters
        if "seed" in params:
            seeds[name] = params["seed"].kind
    assert seeds == dict.fromkeys(IGNORED_SEEDS, inspect.Parameter.KEYWORD_ONLY)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for A in arrays:
        A = np.asarray(A, dtype=np.int64)
        h.update(repr(A.shape).encode() + A.tobytes())
    return h.hexdigest()


def _decompose(seed):
    # D12's regular module over GF(2) decomposed differently at these two
    # seeds while the library still took one
    cert = rep.decompose(rep.regular_module(catalog.suite_group("D12"), F2), seed=seed)
    return _digest([c.idempotent for c in cert.components]
                   + [[c.iso_class for c in cert.components], cert.multiplicities])


def _pims(seed):
    ps = rep.pims(catalog.suite_group("S4"), F2, seed=seed)
    return _digest([A for p in ps for A in p.pim.gen_matrices + p.head.gen_matrices])


def _module_iso(seed):
    P, _ = catalog.d12_pim(F2)
    return _digest([rep.module_iso(P, rep.dual(P), seed=seed)])


def _classify_case(seed):
    P, _ = catalog.d12_pim(F2)
    r = vertex.classify_case(P, seed=seed, check_principal=False)
    return json.dumps(vertex.report_to_dict(r), sort_keys=True)


@pytest.mark.parametrize("call", [_decompose, _pims, _module_iso, _classify_case])
def test_the_ignored_seeds_change_no_byte(call):
    assert call(0) == call(20240401)


@pytest.mark.parametrize("argv", [
    ["blocks", str(DATA / "s3.json")],
    ["vertices", str(DATA / "sl23.json"), str(MODULES / "sl23-regular-1.json")],
])
def test_cli_prints_the_same_answer_at_every_seed(argv, capsys):
    out = []
    for seed in (0, 1):
        assert cli.main(["--json", "--seed", str(seed)] + argv) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["meta"].pop("seed") == seed
        out.append(data)
    assert out[0] == out[1]
