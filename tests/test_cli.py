"""Command-line interface: exit codes, determinism, report contents."""

import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symvert import __main__ as entry
from symvert import blocks, catalog, cli, forms, group, rep, vertex
from symvert.field import make_field
from symvert.group import GroupTable, group_to_dict


@pytest.fixture(scope="module")
def s3_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    S3 = catalog.suite_group("S3")
    gpath = d / "s3.json"
    gpath.write_text(json.dumps(group_to_dict(S3)))
    M = [m for m in rep.irreducible_modules(S3, make_field(1)) if m.dim == 2][0]
    mpath = d / "m2.json"
    mpath.write_text(json.dumps(rep.module_to_dict(M)))
    return str(gpath), str(mpath)


@pytest.fixture(scope="module")
def s3_trivial_file(tmp_path_factory):
    # the trivial kS3 module: its vertex C2 is not trivial, so Res_V M is
    # decomposed for the source (the 2-dim simple module is projective and
    # skips it)
    path = tmp_path_factory.mktemp("cli") / "k.json"
    k = rep.trivial_module(catalog.suite_group("S3"), make_field(1))
    path.write_text(json.dumps(rep.module_to_dict(k)))
    return str(path)


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_vertices_command(s3_files, capsys):
    g, m = s3_files
    code, out = run(["--json", "vertices", g, m], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["case"] == "II"
    assert data["green_vertex"]["order"] == 1
    assert data["meta"]["field_degree"] == 1
    assert data["meta"]["seed"] == cli.DEFAULT_SEED


def test_vertices_deterministic(s3_files, capsys):
    g, m = s3_files
    _, out1 = run(["--json", "vertices", g, m], capsys)
    _, out2 = run(["--json", "vertices", g, m], capsys)
    assert out1 == out2


def test_vertices_enumerates_the_2_subgroup_classes_once(monkeypatch, s3_files):
    # green_vertex and symmetric_vertices share the table's one enumeration
    calls = []
    enumerate_in = GroupTable.all_subgroups_of
    monkeypatch.setattr(GroupTable, "all_subgroups_of",
                        lambda G, P: calls.append(1) or enumerate_in(G, P))
    g, m = s3_files
    assert _quiet_main(["--json", "vertices", g, m]) == (0, "")
    assert len(calls) == 1


MODULE_FILES = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "modules"


def test_one_local_quotient_per_vertices_query(monkeypatch, capsys):
    # psi is read once and kept on the module: the decomposable gate and
    # every unit question after it (projectivity, symmetric projectivity,
    # the source and case I) share it; the catalogue modules of the
    # benchmark's vertices queries cover cases I, II and III
    calls = []
    local_quotient = rep.local_quotient
    monkeypatch.setattr(rep, "local_quotient",
                        lambda E: calls.append(1) or local_quotient(E))
    data = Path(cli.__file__).resolve().parent / "data"
    cases = set()
    for entry in json.loads((MODULE_FILES / "index.json").read_text()):
        stem = catalog._FILES[entry["group"]]
        m = MODULE_FILES / f"{stem[:-len('.json')]}-{entry['label']}.json"
        calls.clear()
        code, out = run(["--json", "vertices", str(data / stem), str(m)], capsys)
        assert len(calls) == 1, m.name
        if code == 0:
            cases.add(json.loads(out)["case"])
    assert {"I", "II", "III"} <= cases


def test_blocks_command(s3_files, capsys):
    g, _ = s3_files
    code, out = run(["--json", "blocks", g], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["blocks"]) == 2
    principal = [b for b in data["blocks"] if b["principal"]]
    assert len(principal) == 1
    assert principal[0]["defect_group"]["order"] == 2
    assert data["meta"]["modulus"] == 3  # x + 1 as a bit-polynomial


def test_blocks_field_degree_flag(s3_files, capsys):
    g, _ = s3_files
    code, out = run(["--json", "--field-degree", "2", "blocks", g], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["meta"]["field_degree"] == 2
    assert data["meta"]["modulus"] == 7  # x^2 + x + 1


@pytest.mark.parametrize("degree", ["1", "2"])
def test_blocks_of_c7_off_a_splitting_field(tmp_path, degree, capsys):
    # the central characters of C7 lie in GF(8); the blocks need none of them
    g = tmp_path / "c7.json"
    g.write_text(json.dumps({"points": 7, "generators": [[2, 3, 4, 5, 6, 7, 1]]}))
    code, out = run(["--json", "--field-degree", degree, "blocks", str(g)], capsys)
    assert code == 0
    data = json.loads(out)["blocks"]
    assert len(data) == 3
    assert all(b["defect_group"]["order"] == 1 for b in data)
    assert [b["real"] for b in data] == [True, False, False]


@pytest.mark.parametrize(
    "points, degree, code", [(3, 1, 3), (3, 2, 0), (5, 2, 3), (5, 4, 0)]
)
def test_blocks_of_a_cyclic_group_need_a_splitting_field(
    tmp_path, points, degree, code, capsys
):
    # a real block of C3 over GF(2) (or of C5 over GF(4)) has no real defect
    # class; GF(4) (or GF(16)) splits the group into |G| blocks of defect
    # zero, of which only the principal one is real
    g = tmp_path / "c.json"
    cycle = list(range(2, points + 1)) + [1]
    g.write_text(json.dumps({"points": points, "generators": [cycle]}))
    assert cli.main(["--json", "--field-degree", str(degree), "blocks", str(g)]) == code
    captured = capsys.readouterr()
    if code:
        assert "divisible by %d" % (2 if points == 3 else 4) in captured.err
    else:
        data = json.loads(captured.out)["blocks"]
        assert len(data) == points
        assert all(b["defect_group"]["order"] == 1 for b in data)
        assert [b["real"] for b in data] == [True] + [False] * (points - 1)


def test_vertices_off_a_splitting_field_reads_only_the_principal_idempotent(
    tmp_path, capsys
):
    # C3 over GF(2) has a real block without a real defect class, so
    # `blocks` exits 3; the case-I principal-block flag needs only the
    # augmentation-1 idempotent, 1 + g + g^2, which fixes the trivial module
    g, k = tmp_path / "c3.json", tmp_path / "k.json"
    g.write_text(json.dumps({"points": 3, "generators": [[2, 3, 1]]}))
    k.write_text(json.dumps({"field_degree": 1, "dim": 1, "matrices": [["1"]]}))
    code, out = run(["--json", "vertices", str(g), str(k)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["case"] == "I" and data["principal_block"] is True
    assert cli.main(["--json", "blocks", str(g)]) == 3


def test_parse_error_exit_code(s3_files, capsys):
    _, m = s3_files
    code = cli.main(["vertices", "/does/not/exist.json", m])
    assert code == 2


def test_malformed_json_exit_code(tmp_path, s3_files, capsys):
    _, m = s3_files
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["vertices", str(bad), m]) == 2
    assert cli.main(["blocks", str(bad)]) == 2


def test_out_of_field_entry_exit_code(tmp_path, capsys):
    # "3" is not an element of GF(2)
    C2 = catalog.suite_group("C2")
    g = tmp_path / "c2.json"
    g.write_text(json.dumps(group_to_dict(C2)))
    m = tmp_path / "bad-entry.json"
    m.write_text(json.dumps({"field_degree": 1, "dim": 1, "matrices": [["3"]]}))
    assert cli.main(["vertices", str(g), str(m)]) == 2
    assert "outside GF(2)" in capsys.readouterr().err


def test_out_of_range_generator_exit_code(tmp_path, s3_files, capsys):
    _, m = s3_files
    table = catalog.suite_group("S3").mult.tolist()
    for bad in (7, -1):
        g = tmp_path / f"s3-table-{bad}.json"
        g.write_text(json.dumps({"table": table, "generators": [1, bad]}))
        assert cli.main(["vertices", str(g), m]) == 2
        assert cli.main(["blocks", str(g)]) == 2
        assert "generator id outside range(6)" in capsys.readouterr().err


def test_non_group_table_exit_code(tmp_path, s3_files, capsys):
    # one 0 in each row, but no Latin square: once accepted, `blocks` then
    # looped forever in element_order and `vertices` stalled in sylow2
    _, m = s3_files
    table = [[0, 1, 2, 3], [1, 0, 1, 1], [2, 0, 1, 2], [3, 1, 2, 0]]
    for gens in (None, [1, 2, 3]):
        with pytest.raises(ValueError):
            group.group_from_dict({"table": table, "generators": gens})
    for i, extra in enumerate(({}, {"generators": [1, 2, 3]})):
        g = tmp_path / f"non-group-{i}.json"
        g.write_text(json.dumps({"table": table, **extra}))
        assert cli.main(["vertices", str(g), m]) == 2
        assert cli.main(["blocks", str(g)]) == 2


def test_decomposable_module_exit_code(tmp_path, s3_files, capsys):
    # the S3 permutation module is trivial + a projective simple; symmetric
    # vertices are defined for indecomposable modules only
    g, _ = s3_files
    M = rep.permutation_module(catalog.suite_group("S3"), make_field(1))
    m = tmp_path / "s3-perm.json"
    m.write_text(json.dumps(rep.module_to_dict(M)))
    assert cli.main(["--json", "vertices", g, str(m)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: module is decomposable" in captured.err


@pytest.mark.parametrize("layer, name, command", [
    (rep, "decompose", "vertices"),
    (vertex, "green_vertex", "vertices"),
    (blocks, "block_decomposition", "blocks"),
])
def test_internal_certificate_failure_exit_code(
    monkeypatch, s3_files, s3_trivial_file, capsys, layer, name, command
):
    def fail(*args, **kwargs):
        raise AssertionError("chop failed to make progress")

    monkeypatch.setattr(layer, name, fail)
    g, _ = s3_files
    m = [s3_trivial_file] if command == "vertices" else []
    argv = ["--json", command, g] + m
    assert cli.main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: internal certificate failure: chop failed to make progress\n"
    )


def test_unknown_suite_exit_code(capsys):
    assert cli.main(["verify", "nope"]) == 2


def test_infeasible_exit_code(s3_files, capsys):
    g, m = s3_files
    assert cli.main(["--bound-group-order", "2", "blocks", g]) == 3
    assert cli.main(["--bound-dim", "1", "vertices", g, m]) == 3


def test_group_order_bound_comes_before_the_table_checks(tmp_path, capsys):
    # an over-bound table file exits 3 before its table is checked; the
    # same broken file under no bound exits 2 on the first failed check
    g = tmp_path / "non-latin-3.json"
    g.write_text(json.dumps({"table": [[0, 1, 2], [1, 1, 2], [2, 2, 0]]}))
    assert cli.main(["--bound-group-order", "2", "blocks", str(g)]) == 3
    assert "exceeds bound 2" in capsys.readouterr().err
    assert cli.main(["blocks", str(g)]) == 2
    assert "not a Latin square" in capsys.readouterr().err
    c3 = tmp_path / "c3-table.json"
    c3.write_text(json.dumps({"table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}))
    assert cli.main(["--bound-group-order", "2", "blocks", str(c3)]) == 3
    assert "exceeds bound 2" in capsys.readouterr().err


def test_group_order_bound_stops_the_enumeration(monkeypatch, capsys):
    # the bound reaches the element enumeration: GL(3,2):2 (order 336, three
    # generators) exits 3 after at most (bound + 1) * 3 compositions
    perm_mul, calls = group._perm_mul, []

    def counted(p, q):
        calls.append(1)
        return perm_mul(p, q)

    monkeypatch.setattr(group, "_perm_mul", counted)
    path = str(Path(cli.__file__).parent / "data" / "gl32_2.json")
    assert cli.main(["--bound-group-order", "10", "blocks", path]) == 3
    assert 0 < len(calls) <= 11 * 3
    assert "exceeds bound 10" in capsys.readouterr().err
    assert cli.main(["--bound-group-order", "336", "--json", "blocks", path]) == 0


def test_a_table_over_the_memory_budget_exits_3(monkeypatch, tmp_path):
    # S5's table takes 120^2 int64 ids; one byte less of budget refuses it,
    # from its permutations and from its table alike
    path = str(Path(cli.__file__).parent / "data" / "s5.json")
    table = tmp_path / "s5-table.json"
    table.write_text(json.dumps({"table": catalog.suite_group("S5").mult.tolist()}))
    monkeypatch.setattr(group, "TABLE_BUDGET_BYTES", 120 * 120 * 8 - 1)
    want = f"error: a group table of order 120 exceeds the {120 * 120 * 8 - 1}-byte budget\n"
    for f in (path, str(table)):
        assert _quiet_main(["blocks", f]) == (3, want)
    monkeypatch.setattr(group, "TABLE_BUDGET_BYTES", 120 * 120 * 8)
    assert group.load_group(path).order == group.load_group(str(table)).order == 120


def _fresh_python(code: str, *args: str) -> list[str]:
    """The words a fresh interpreter prints running code, with this
    checkout's src/ first on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=path),
    ).stdout.split()


def test_blocks_and_verify_do_not_load_libcrypto():
    # hashlib's OpenSSL module adds about 3.5 MB to a fresh process; the
    # form hash takes SHA-256 from the interpreter's own module, so not
    # even a vertices report that prints one loads it
    code = """
import sys
if "_hashlib" in sys.modules:
    print("preloaded")
    raise SystemExit
import contextlib, io, json
from symvert import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert cli.main(["blocks", sys.argv[1]]) == 0
    assert cli.main(["verify", "paper-examples"]) == 0
    assert cli.main(["--json", "vertices", sys.argv[2], sys.argv[3]]) == 0
report = json.loads(out.getvalue().splitlines()[-1])
print(report["symmetric_vertices"][0]["form_hash"])
print("loaded" if "_hashlib" in sys.modules else "clean")
"""
    data = Path(cli.__file__).parent / "data"
    module = Path(__file__).resolve().parents[1] / "perfbench/data/modules/sl23-regular-1.json"
    out = _fresh_python(code, str(data / "s4.json"), str(data / "sl23.json"), str(module))
    if out == ["preloaded"]:
        pytest.skip("_hashlib is loaded at start-up")
    assert out == ["1fa766a40bfda527", "clean"]


def test_form_hash_is_sha256_of_the_c_order_bytes():
    A = np.arange(35, dtype=np.int64).reshape(5, 7) % 3
    for X in (A, A.T, A[1:, ::2]):
        want = hashlib.sha256(np.ascontiguousarray(X).tobytes()).hexdigest()[:16]
        assert vertex._hash_matrix(X) == want


def test_form_hash_falls_back_to_hashlib():
    # an interpreter without _sha256 and _sha2 takes hashlib's sha256, with
    # the same digest
    code = """
import sys
sys.modules["_sha256"] = sys.modules["_sha2"] = None
import hashlib
import numpy as np
from symvert import vertex
print(vertex.sha256 is hashlib.sha256)
print(vertex._hash_matrix(np.arange(35, dtype=np.int64).reshape(5, 7).T % 3))
"""
    A = np.arange(35, dtype=np.int64).reshape(5, 7).T % 3
    assert _fresh_python(code) == ["True", vertex._hash_matrix(A)]


def test_oracle_small_suite(capsys):
    code, out = run(["--json", "verify", "oracle-small"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["suite"] == "oracle-small"
    assert all(r["pass"] for r in data["results"])


@pytest.mark.parametrize("seed", [0, 20240401])
def test_paper_examples_suite(seed, capsys):
    # every named check passes, the report holds no wall-clock field, and
    # a second run at the same seed prints the same bytes
    argv = ["--json", "--seed", str(seed), "verify", "paper-examples"]
    code, out = run(argv, capsys)
    assert code == 0
    data = json.loads(out)
    assert data["suite"] == "paper-examples" and "elapsed_s" not in data
    assert data["results"] == [{"name": name, "pass": True} for name in (
        "dihedral-pim-two-symmetric-vertices",
        "s5-specht-case-I",
        "gl32-extension-case-III",
        "specht-row-reversal-quadratic-type",
        "s3-two-real-blocks",
    )]
    assert run(argv, capsys) == (0, out)


def test_verify_rejects_a_field_degree_it_would_not_use(capsys):
    # both suites compute over fixed fields, so --field-degree 3 would be
    # reported in meta but never used
    assert cli.main(["--json", "--field-degree", "3", "verify", "oracle-small"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the verify suites run over fixed fields; --field-degree must be 1\n"
    )


def test_verify_reports_a_raising_check_and_runs_on(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(forms, "orth_decompose", fail)
    code, out = run(["--json", "verify", "oracle-small"], capsys)
    assert code == 1
    assert json.loads(out)["results"] == [
        {"name": "is-projective-brute-force-oracle", "pass": True},
        {"name": "selfadjoint-idempotent-lifting", "pass": False,
         "error": "ValueError('boom')"},
    ]


S3_TABLE = catalog.suite_group("S3").mult.tolist()


def _quiet_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _paths(doc, path=()):
    """Every position in a JSON document, the root first."""
    out = [path]
    if isinstance(doc, dict):
        for k, v in doc.items():
            out += _paths(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            out += _paths(v, path + (i,))
    return out


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=3)
    | st.integers(-10, 10) | st.sampled_from([2**63, -(2**63) - 1, 10**30]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)


@st.composite
def corrupted_text(draw, doc):
    """doc as JSON text with one corruption: a key dropped or renamed, a
    value replaced by one of another type or out of range, a list entry
    dropped (ragged rows and matrices), or the text cut short."""
    kind = draw(st.sampled_from(["drop", "rename", "replace", "truncate"]))
    text = json.dumps(doc)
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(_paths(doc)[kind != "replace":]))
    if not path:
        return json.dumps(draw(JSON_VALUES))
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    key = path[-1]
    if kind == "replace":
        parent[key] = draw(JSON_VALUES)
    elif kind == "rename" and isinstance(key, str):
        parent[key + "_"] = parent.pop(key)
    else:
        del parent[key]
    return json.dumps(doc)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_corrupted_input_files_exit_with_a_documented_code(s3_files, data):
    g, m = s3_files
    docs = {"group": json.loads(Path(g).read_text()),
            "table": {"table": S3_TABLE, "generators": [1, 2]},
            "module": json.loads(Path(m).read_text())}
    which = data.draw(st.sampled_from(sorted(docs)))
    bad = Path(g).parent / "corrupted.json"
    bad.write_text(data.draw(corrupted_text(docs[which])))
    if which == "module":
        runs = [["--json", "vertices", g, str(bad)]]
    else:
        runs = [["--json", "vertices", str(bad), m], ["--json", "blocks", str(bad)]]
    for argv in runs:
        code, err = _quiet_main(argv)
        assert code in {0, 2, 3, 4}
        assert "Traceback" not in err


@pytest.mark.parametrize("which, doc", [
    ("group", None),  # not a JSON object
    ("group", {"points": None, "generators": [[2, 1, 3], [2, 3, 1]]}),
    ("group", {"points": 10**30, "generators": [[2, 1, 3], [2, 3, 1]]}),
    ("group", {"points": 3, "generators": 1.5}),
    ("group", {"points": 3, "generators": [[None, 1, 3], [2, 3, 1]]}),
    ("group", {"table": {}, "generators": [1, 2]}),
    ("group", {"table": 10**30, "generators": [1, 2]}),
    ("group", {"table": S3_TABLE, "generators": [[1]]}),
    ("group", {"table": S3_TABLE, "generators": [1.5, 2]}),
    ("module", 1.5),
    ("module", {"field_degree": [], "dim": 2, "matrices": []}),
    ("module", {"field_degree": 10**6, "dim": 2, "matrices": []}),
    ("module", {"field_degree": 1, "dim": 2, "matrices": [[1]]}),
    ("module", {"field_degree": 1, "dim": 0, "matrices": [[], []]}),
])
def test_input_files_that_used_to_crash_exit_2(tmp_path, s3_files, which, doc):
    # each raised TypeError, IndexError or OverflowError out of cli.main,
    # or (a field degree of 10**6) searched for a modulus without end; a
    # module of dimension 0 was built, and the rank check of its
    # endomorphism algebra raised ValueError outside the input checks
    g, m = s3_files
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = [g, str(bad)] if which == "module" else [str(bad), m]
    code, err = _quiet_main(["vertices"] + argv)
    assert code == 2 and err.startswith("error: ") and "Traceback" not in err


def test_an_over_bound_module_exits_3_before_it_is_built(s3_files, tmp_path):
    # both generators a 3-cycle break the relations of S3, which building
    # the module would find (exit 2); the file's dim is checked first
    g, _ = s3_files
    cycle = ["0", "0", "1", "1", "0", "0", "0", "1", "0"]
    bad = tmp_path / "over.json"
    bad.write_text(json.dumps({"field_degree": 1, "dim": 3, "matrices": [cycle] * 2}))
    code, err = _quiet_main(["--bound-dim", "2", "vertices", g, str(bad)])
    assert code == 3 and err == "error: module dimension exceeds bound 2\n"


def test_field_degree_flag_out_of_range_is_a_usage_error(s3_files, capsys):
    g, _ = s3_files
    for degree in ("0", "17"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--field-degree", degree, "blocks", g])
        assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def _unset_thread_env(monkeypatch):
    # set, then delete, so that monkeypatch restores every variable,
    # including those entry.main() sets
    for name in entry.THREAD_ENV:
        monkeypatch.setenv(name, "")
        monkeypatch.delenv(name)
    monkeypatch.setattr(cli, "main", lambda: 7)


def test_entry_point_sets_one_blas_thread_when_none_is_set(monkeypatch):
    _unset_thread_env(monkeypatch)
    assert entry.main() == 7
    for name in entry.THREAD_ENV:
        assert os.environ[name] == "1", name


@pytest.mark.parametrize("preset", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_entry_point_leaves_a_preset_thread_count_alone(monkeypatch, preset):
    # OpenBLAS reads OPENBLAS_NUM_THREADS before OMP_NUM_THREADS, so a
    # user's OMP_NUM_THREADS holds only if the others stay unset too
    _unset_thread_env(monkeypatch)
    monkeypatch.setenv(preset, "3")
    assert entry.main() == 7
    assert os.environ[preset] == "3"
    for name in set(entry.THREAD_ENV) - {preset}:
        assert name not in os.environ, name
